//! The paper's numbers as one table: every clock-free criterion value per
//! workload × method × threshold (Sections 5.1 and 5.2, Figures 5, 6 and
//! 9–19, appendix Tables 1–18).
//!
//! Each workload block holds one row per method of [`Method::ALL`] at each
//! threshold of its `threshold_grid()`, with `iter_avg` once: 49 rows.  The
//! values are integers, strings and booleans only, so the rendered table is
//! canonical and can be committed and compared byte for byte
//! (`PAPER_RESULTS.json` at the repository root, checked by
//! `tests/paper_results.rs`).  Floats become fixed-point: thresholds in
//! thousandths, the approximation distance in nanoseconds, the trend score
//! in parts per million, and the degree of matching as its two counts.

use std::ops::Deref;

use trace_model::AppTrace;
use trace_obs::json::{self, JsonValue};
use trace_reduce::{reduce_app_parallel, Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload};

use crate::{Criteria, Original};

/// One workload's block of the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadResults {
    /// Workload (trace) name.
    pub name: String,
    /// Events in the full trace.
    pub events: u64,
    /// Encoded full-trace size in bytes (criterion 1's denominator).
    pub full_bytes: u64,
    /// One row per method × threshold, in [`Method::ALL`] × grid order.
    pub rows: Vec<ResultRow>,
}

/// One method at one threshold on one workload: the evaluator's record
/// plus the grid point.  A row reads as its [`Criteria`] (`row.stored`,
/// `row.file_size_percent()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultRow {
    /// The similarity method.
    pub method: Method,
    /// The threshold × 1000 (exact for every grid value; 0 for `iter_avg`).
    pub threshold_milli: u64,
    /// The four criteria of this reduction.
    pub criteria: Criteria,
}

impl Deref for ResultRow {
    type Target = Criteria;

    fn deref(&self) -> &Criteria {
        &self.criteria
    }
}

/// Number of worker threads used for per-rank parallel reduction.
fn reduction_threads() -> usize {
    // lint:allow(thread_count) -- the reduced trace is identical for every worker count (the driver-equivalence suites)
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Reduces one full trace with every method over its threshold grid and
/// evaluates each reduction.
pub fn workload_results(full: &AppTrace) -> WorkloadResults {
    let original = Original::new(full);
    let mut rows = Vec::new();
    for method in Method::ALL {
        let grid = if method.has_threshold() {
            method.threshold_grid()
        } else {
            vec![0.0]
        };
        for threshold in grid {
            let reducer = Reducer::new(MethodConfig::new(method, threshold));
            let reduced = reduce_app_parallel(&reducer, full, reduction_threads());
            let evaluation = original.evaluate(&reduced).expect("its own reduction");
            rows.push(ResultRow {
                method,
                threshold_milli: (threshold * 1_000.0).round() as u64,
                criteria: evaluation.criteria,
            });
        }
    }
    WorkloadResults {
        name: full.name.clone(),
        events: full.total_events() as u64,
        full_bytes: original.full_bytes(),
        rows,
    }
}

/// The whole table: all 18 workloads at the paper preset.
pub fn paper_results() -> Vec<WorkloadResults> {
    Workload::all(SizePreset::Paper)
        .iter()
        .map(|workload| workload_results(&workload.generate()))
        .collect()
}

/// Renders the table as canonical JSON with one row per line, so a diff of
/// the file names the row that changed.
pub fn render(table: &[WorkloadResults]) -> String {
    let blocks: Vec<String> = table.iter().map(WorkloadResults::render).collect();
    format!("{{\"workloads\":[\n{}\n]}}\n", blocks.join(",\n"))
}

/// Parses a table written by [`render`].
pub fn parse(text: &str) -> Result<Vec<WorkloadResults>, String> {
    json::parse(text)?
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .ok_or("missing \"workloads\" array")?
        .iter()
        .map(WorkloadResults::from_json)
        .collect()
}

impl WorkloadResults {
    fn render(&self) -> String {
        let head = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("events".into(), JsonValue::UInt(self.events)),
            ("full_bytes".into(), JsonValue::UInt(self.full_bytes)),
            ("rows".into(), JsonValue::Arr(Vec::new())),
        ])
        .render();
        let rows: Vec<String> = self.rows.iter().map(|row| row.to_json().render()).collect();
        // `head` ends in the empty row list's `[]}`: reopen it, a row a line.
        let head = head.strip_suffix("]}").unwrap_or(&head);
        format!("{head}\n{}]}}", rows.join(",\n"))
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let name = field(value, "name")?
            .as_str()
            .ok_or("\"name\" is not a string")?
            .to_string();
        let full_bytes = uint(value, "full_bytes")?;
        let rows = field(value, "rows")?
            .as_arr()
            .ok_or_else(|| format!("{name}: \"rows\" is not an array"))?
            .iter()
            .map(|row| ResultRow::from_json(row, full_bytes))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{name}: {e}"))?;
        Ok(WorkloadResults {
            events: uint(value, "events")?,
            full_bytes,
            name,
            rows,
        })
    }
}

impl ResultRow {
    /// The row as a JSON object, fields in table order: the grid point,
    /// then the criteria but `full_bytes`, which the block holds.
    pub fn to_json(&self) -> JsonValue {
        let threshold = JsonValue::UInt(self.threshold_milli);
        let mut fields = vec![
            ("method".into(), JsonValue::Str(self.method.name().into())),
            ("threshold_milli".into(), threshold),
        ];
        let criteria = self.criteria.json_fields().into_iter();
        fields.extend(criteria.filter(|(key, _)| key != "full_bytes"));
        JsonValue::Obj(fields)
    }

    fn from_json(value: &JsonValue, full_bytes: u64) -> Result<Self, String> {
        let name = field(value, "method")?.as_str().unwrap_or_default();
        let method = Method::by_name(name).ok_or_else(|| format!("unknown method {name:?}"))?;
        let retained = match field(value, "retained")? {
            JsonValue::Bool(b) => *b,
            _ => return Err("\"retained\" is not a boolean".into()),
        };
        Ok(ResultRow {
            method,
            threshold_milli: uint(value, "threshold_milli")?,
            criteria: Criteria {
                full_bytes,
                reduced_bytes: uint(value, "reduced_bytes")?,
                stored: uint(value, "stored")?,
                execs: uint(value, "execs")?,
                matches: uint(value, "matches")?,
                possible: uint(value, "possible")?,
                approx_p90_ns: uint(value, "approx_p90_ns")?,
                retained,
                trend_score_ppm: uint(value, "trend_score_ppm")?,
            },
        })
    }
}

fn field<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn uint(value: &JsonValue, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("{key:?} is not an unsigned integer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_sim::WorkloadKind;

    #[test]
    fn a_block_has_every_grid_point_and_round_trips() {
        let full = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let table = vec![workload_results(&full)];
        let block = &table[0];
        assert_eq!(block.rows.len(), 8 * 6 + 1);
        assert_eq!(block.events, full.total_events() as u64);
        let text = render(&table);
        assert_eq!(text.lines().count(), 2 + 1 + block.rows.len());
        assert_eq!(parse(&text).unwrap(), table);
        assert!(parse("{\"workloads\":[{\"name\":\"x\"}]}").is_err());
        // The JSON reader keeps a fraction exact; the row schema refuses it.
        let row = format!(
            r#"{{"method":"{}","retained":true,"threshold_milli":0.5}}"#,
            Method::ALL[0].name()
        );
        let fractional =
            format!(r#"{{"workloads":[{{"name":"x","events":1,"full_bytes":1,"rows":[{row}]}}]}}"#);
        let error = parse(&fractional).unwrap_err();
        assert_eq!(error, "x: \"threshold_milli\" is not an unsigned integer");
    }
}
