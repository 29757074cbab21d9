//! Every metric the benchmark emits, by name, with its unit and direction.
//! `BENCHMARK.json` declares exactly these (a test checks both ways).

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of `trace-tools` sees.  Bounds live in `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    higher("events_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("out_bytes", "bytes"),
    lower("setup_s", "s"),
];

/// Single layers, measured by the harness's own spans (`_ms`), exact
/// counts, or figures taken from the program's `--obs-format json` report.
pub const PER_LAYER: &[MetricDef] = &[
    // cli: orchestration and file I/O around everything below.
    lower("cli.op_ms_p10", "ms"),
    lower("cli.op_ms_p50", "ms"),
    lower("cli.op_ms_p75", "ms"),
    lower("cli.wall_ms_p50", "ms"),
    lower("cli.cpu_ms_per_op", "ms"),
    lower("cli.op_inprocess_ms", "ms"),
    lower("cli.trace_overhead_ms", "ms"),
    lower("cli.read_ms", "ms"),
    lower("cli.write_ms", "ms"),
    lower("cli.in_bytes", "bytes"),
    lower("cli.residual_ms", "ms"),
    // trace_format: the in-memory text parser and writer.
    lower("format.parse_ms", "ms"),
    higher("format.parse_mb_per_s", "MB/s"),
    lower("format.write_ms", "ms"),
    // trace_stream: the streaming parser and the stream / sharded drivers.
    lower("stream.parser_ms", "ms"),
    lower("stream.skip_ms", "ms"),
    lower("stream.text_1shard_ms", "ms"),
    lower("stream.text_2shard_ms", "ms"),
    higher("stream.text_shard_speedup", "x"),
    lower("stream.container_1shard_ms", "ms"),
    lower("stream.container_2shard_ms", "ms"),
    higher("stream.container_shard_speedup", "x"),
    lower("stream.segments", "count"),
    lower("stream.peak_resident_segments", "count"),
    lower("stream.peak_chunk_bytes", "bytes"),
    // trace_container: chunk reader/writer, index, CRC.
    lower("container.read_none_ms", "ms"),
    lower("container.read_dlz_ms", "ms"),
    lower("container.write_none_ms", "ms"),
    lower("container.write_dlz_ms", "ms"),
    lower("container.encode_reduced_ms", "ms"),
    lower("container.read_reduced_ms", "ms"),
    lower("container.none_bytes", "bytes"),
    lower("container.dlz_bytes", "bytes"),
    lower("container.chunks", "count"),
    // trace_compress: column transform + LZ.
    lower("compress.decode_premium_ms", "ms"),
    lower("compress.encode_premium_ms", "ms"),
    higher("compress.ratio", "x"),
    higher("compress.lz_compress_mb_per_s", "MB/s"),
    higher("compress.lz_decompress_mb_per_s", "MB/s"),
    // trace_reduce: segmenter, match loop / index, parallel driver.
    lower("reduce.segment_ms", "ms"),
    lower("reduce.reduce_app_ms", "ms"),
    lower("reduce.match_ms", "ms"),
    lower("reduce.parallel2_ms", "ms"),
    lower("reduce.ns_per_segment", "ns"),
    lower("reduce.comparisons", "count"),
    lower("reduce.eligible", "count"),
    lower("reduce.visited_pct", "%"),
    higher("reduce.index_prunes", "count"),
    lower("reduce.stored", "count"),
    lower("reduce.execs", "count"),
    higher("reduce.degree_of_matching", "ratio"),
    // trace_model / trace_report: consumers of the reduced file.
    lower("model.reconstruct_ms", "ms"),
    lower("model.approx_distance_us", "us"),
    lower("report.text_ms", "ms"),
    // trace_obs: recorder overhead and the program's own attribution.
    lower("obs.overhead_pct", "%"),
    lower("obs.stage.parse_ms", "ms"),
    lower("obs.stage.segment_ms", "ms"),
    lower("obs.stage.match_ms", "ms"),
    lower("obs.stage.index_ms", "ms"),
    lower("obs.stage.store_ms", "ms"),
    lower("obs.stage.compress_ms", "ms"),
    lower("obs.stage.chunk_io_ms", "ms"),
    lower("obs.stage.rank_ms", "ms"),
    // trace_sim: input generation (set-up only).
    lower("sim.generate_ms", "ms"),
    lower("sim.events", "count"),
    lower("sim.write_inputs_ms", "ms"),
    // Not a layer of the program: how much slower than nominal the host
    // ran the calibration kernel around the timed operations.
    lower("host.slowdown_p50", "x"),
];

/// The contract file at the repository root, compiled in so `compare`
/// applies the bounds this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The bound of each end-to-end metric: the share of the base value by
/// which it may get worse before `compare` calls it a regression.
pub fn bounds() -> BTreeMap<&'static str, f64> {
    let doc = crate::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    END_TO_END
        .iter()
        .map(|def| {
            let bound = doc
                .get("end_to_end")
                .and_then(Json::as_arr)
                .and_then(|list| {
                    list.iter()
                        .find(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
                })
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("BENCHMARK.json gives no bound for {}", def.name));
            (def.name, bound)
        })
        .collect()
}

/// Measured values by metric name, with the number of samples behind each.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Measured {
    /// Records `value` for `name`, which must be a declared metric.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"));
        self.values.insert(def.name, (value, samples));
    }

    /// `{"name": {"value": v, "unit": u}}` over `defs`, in declaration
    /// order — the `metrics` member of the driver's result line.  Errors
    /// on a declared metric nobody measured.
    pub fn to_json(&self, defs: &[MetricDef], with_samples: bool) -> Result<Json, String> {
        let members = defs
            .iter()
            .map(|def| {
                let (value, samples) = self
                    .values
                    .get(def.name)
                    .ok_or_else(|| format!("metric {} was not measured", def.name))?;
                let mut fields = vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(def.unit.to_string())),
                ];
                if with_samples {
                    fields.push(("samples", Json::Num(*samples as f64)));
                }
                Ok((def.name, Json::obj(fields)))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Json::obj(members))
    }

    /// One aligned `name value unit (n=samples)` line per metric in `defs`.
    pub fn render_table(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for def in defs {
            if let Some((value, samples)) = self.values.get(def.name) {
                out.push_str(&format!(
                    "  {:<34} {:>16.3} {:<6} (n={samples})\n",
                    def.name, value, def.unit
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|def| def.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(legal_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{} has unit {:?}",
                def.name,
                def.unit
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `(name, unit, better)` triples of one `BENCHMARK.json` metric list.
    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let doc = crate::json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn benchmark_json_meets_the_contract_limits() {
        let doc = crate::json::parse(BENCHMARK_JSON).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let bounds: Vec<(&str, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap(),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        assert!(
            bounds.iter().all(|(_, b)| *b <= setup),
            "setup_s has the largest bound"
        );
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn result_lines_list_metrics_in_declaration_order_and_refuse_gaps() {
        let mut measured = Measured::default();
        assert!(measured.to_json(END_TO_END, false).is_err());
        for (i, def) in END_TO_END.iter().enumerate() {
            measured.set(def.name, i as f64 + 0.5, 3);
        }
        let json = measured.to_json(END_TO_END, false).unwrap();
        let names: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(
            json.get("setup_s").unwrap().render(),
            r#"{"value":3.5,"unit":"s"}"#
        );
    }
}
