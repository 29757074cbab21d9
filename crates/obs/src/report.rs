//! End-of-run reports: text summary, stable JSON schema, chrome tracing.
//!
//! A [`RunReport`] is an owned snapshot of everything a [`crate::Recorder`]
//! merged.  It has three sinks:
//!
//! * [`RunReport::render_text`] — the human summary.  This is the single
//!   source of truth for counter presentation; the benches print through
//!   it instead of hand-rolling stat lines.
//! * [`RunReport::render_json`] — the machine-readable report behind the
//!   CLI's `--obs-out`.  Schema version 1, documented in
//!   `docs/observability.md` and enforced by [`RunReport::from_json`].
//! * [`RunReport::render_chrome_trace`] — the recorded spans as
//!   chrome://tracing / Perfetto "trace event" JSON.
//!
//! All formatting is integer arithmetic: no floats, so reports are
//! byte-stable across platforms.

use std::collections::BTreeMap;

use crate::chrome::{self, ChromeEvent};
use crate::json::{self, JsonValue};
use crate::metrics::{Histogram, MetricSet};
use crate::recorder::{SpanRecord, Stage};

/// Identifies the document type in the JSON report.
pub(crate) const SCHEMA_NAME: &str = "trace-obs-run-report";
/// Current schema version; bump on any incompatible change.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// An owned snapshot of one histogram, bucket bounds resolved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(inclusive upper bound, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    fn from_histogram(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: h.nonempty_buckets(),
        }
    }

    /// Mean sample (integer division), 0 when empty.
    pub(crate) fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample, clamped
    /// to the observed maximum; `q` is in thousandths (950 = p95).
    pub(crate) fn quantile_upper_bound(&self, q_thousandths: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q_thousandths * self.count)
            .div_ceil(1000)
            .clamp(1, self.count);
        let mut seen = 0u64;
        for &(bound, count) in &self.buckets {
            seen += count;
            if seen >= target {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// Everything one run recorded, ready for the sinks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Monotonic event counts, by metric name.
    pub counters: BTreeMap<String, u64>,
    /// High-water marks, by metric name.
    pub gauges: BTreeMap<String, u64>,
    /// Duration/size distributions, by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Individual stage spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
}

impl RunReport {
    /// Builds a report from merged metrics and collected spans.
    pub(crate) fn from_parts(metrics: &MetricSet, spans: Vec<SpanRecord>) -> RunReport {
        RunReport {
            counters: metrics
                .counters()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            gauges: metrics
                .gauges()
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
            histograms: metrics
                .histograms()
                .map(|(name, h)| (name.to_string(), HistogramSnapshot::from_histogram(h)))
                .collect(),
            spans,
        }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Renders the human-readable end-of-run summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== run report ==\n");
        if self.is_empty() {
            out.push_str("(nothing recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<36} {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<36} {value}\n"));
            }
        }
        let stage_rows: Vec<(&'static str, &HistogramSnapshot)> = Stage::ALL
            .iter()
            .filter_map(|stage| {
                self.histograms
                    .get(stage.histogram_name())
                    .map(|h| (stage.name(), h))
            })
            .collect();
        if !stage_rows.is_empty() {
            out.push_str("stage timings:\n");
            out.push_str(&format!(
                "  {:<10} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "stage", "spans", "total", "mean", "p95", "max"
            ));
            for (name, h) in stage_rows {
                out.push_str(&format!(
                    "  {:<10} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                    name,
                    h.count,
                    format_ns(h.sum),
                    format_ns(h.mean()),
                    format_ns(h.quantile_upper_bound(950)),
                    format_ns(h.max),
                ));
            }
        }
        let other_histograms: Vec<(&String, &HistogramSnapshot)> = self
            .histograms
            .iter()
            .filter(|(name, _)| !name.starts_with("span."))
            .collect();
        if !other_histograms.is_empty() {
            out.push_str("distributions:\n");
            for (name, h) in other_histograms {
                out.push_str(&format!(
                    "  {name:<36} count {} min {} mean {} max {}\n",
                    h.count,
                    h.min,
                    h.mean(),
                    h.max
                ));
            }
        }
        self.render_matching_rates(&mut out);
        out
    }

    /// The derived matching-efficiency lines both benches used to compute
    /// by hand, now in one place.
    fn render_matching_rates(&self, out: &mut String) {
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0);
        let comparisons = counter(crate::names::MATCH_COMPARISONS);
        let eligible = counter(crate::names::MATCH_ELIGIBLE);
        if comparisons == 0 && eligible == 0 {
            return;
        }
        out.push_str("matching:\n");
        out.push_str(&format!(
            "  {} comparisons, {} matches\n",
            comparisons,
            counter(crate::names::MATCH_MATCHES)
        ));
        if comparisons > 0 {
            out.push_str(&format!(
                "  {} prefilter-rejected, {} early-abandoned, {} full kernels\n",
                percent(counter(crate::names::MATCH_PREFILTER_REJECTS), comparisons),
                percent(counter(crate::names::MATCH_EARLY_ABANDONS), comparisons),
                counter(crate::names::MATCH_FULL_KERNELS),
            ));
        }
        if eligible > 0 {
            out.push_str(&format!(
                "  of {} eligible candidates, {} window-pruned before any kernel\n",
                eligible,
                percent(counter(crate::names::MATCH_INDEX_WINDOW_PRUNES), eligible),
            ));
        }
    }

    /// The report as a schema-versioned JSON tree.
    pub fn to_json(&self) -> JsonValue {
        let map_obj = |map: &BTreeMap<String, u64>| {
            JsonValue::Obj(
                map.iter()
                    .map(|(name, &value)| (name.clone(), JsonValue::UInt(value)))
                    .collect(),
            )
        };
        let histograms = JsonValue::Obj(
            self.histograms
                .iter()
                .map(|(name, h)| {
                    let buckets = JsonValue::Arr(
                        h.buckets
                            .iter()
                            .map(|&(le, count)| {
                                JsonValue::Obj(vec![
                                    ("le".to_string(), JsonValue::UInt(le)),
                                    ("count".to_string(), JsonValue::UInt(count)),
                                ])
                            })
                            .collect(),
                    );
                    (
                        name.clone(),
                        JsonValue::Obj(vec![
                            ("count".to_string(), JsonValue::UInt(h.count)),
                            ("sum".to_string(), JsonValue::UInt(h.sum)),
                            ("min".to_string(), JsonValue::UInt(h.min)),
                            ("max".to_string(), JsonValue::UInt(h.max)),
                            ("buckets".to_string(), buckets),
                        ]),
                    )
                })
                .collect(),
        );
        let spans = JsonValue::Arr(
            self.spans
                .iter()
                .map(|span| {
                    JsonValue::Obj(vec![
                        (
                            "stage".to_string(),
                            JsonValue::Str(span.stage.name().to_string()),
                        ),
                        ("shard".to_string(), JsonValue::UInt(u64::from(span.shard))),
                        ("start_ns".to_string(), JsonValue::UInt(span.start_ns)),
                        ("dur_ns".to_string(), JsonValue::UInt(span.dur_ns)),
                    ])
                })
                .collect(),
        );
        JsonValue::Obj(vec![
            (
                "schema".to_string(),
                JsonValue::Str(SCHEMA_NAME.to_string()),
            ),
            ("version".to_string(), JsonValue::UInt(SCHEMA_VERSION)),
            ("counters".to_string(), map_obj(&self.counters)),
            ("gauges".to_string(), map_obj(&self.gauges)),
            ("histograms".to_string(), histograms),
            ("spans".to_string(), spans),
        ])
    }

    /// Renders the report as compact schema-versioned JSON.
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }

    /// Parses and validates a JSON report produced by
    /// [`RunReport::render_json`].
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        RunReport::from_value(&json::parse(input)?)
    }

    fn from_value(value: &JsonValue) -> Result<RunReport, String> {
        match value.get("schema").and_then(JsonValue::as_str) {
            Some(SCHEMA_NAME) => {}
            other => return Err(format!("schema field is {other:?}, want {SCHEMA_NAME:?}")),
        }
        match value.get("version").and_then(JsonValue::as_u64) {
            Some(SCHEMA_VERSION) => {}
            other => return Err(format!("version is {other:?}, want {SCHEMA_VERSION}")),
        }
        let uint_map = |field: &str| -> Result<BTreeMap<String, u64>, String> {
            let entries = value
                .get(field)
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| format!("{field} must be an object"))?;
            entries
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("{field}.{name} must be a non-negative integer"))
                })
                .collect()
        };
        let counters = uint_map("counters")?;
        let gauges = uint_map("gauges")?;

        let uint_field = |obj: &JsonValue, context: &str, field: &str| -> Result<u64, String> {
            obj.get(field)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{context}.{field} must be a non-negative integer"))
        };
        let mut histograms = BTreeMap::new();
        for (name, h) in value
            .get("histograms")
            .and_then(JsonValue::as_obj)
            .ok_or("histograms must be an object")?
        {
            let mut buckets = Vec::new();
            let mut last_le = None;
            for bucket in h
                .get("buckets")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("histograms.{name}.buckets must be an array"))?
            {
                let context = format!("histograms.{name}.buckets[]");
                let le = uint_field(bucket, &context, "le")?;
                if last_le.is_some_and(|last| le <= last) {
                    return Err(format!("{context} bounds must be strictly increasing"));
                }
                last_le = Some(le);
                buckets.push((le, uint_field(bucket, &context, "count")?));
            }
            let context = format!("histograms.{name}");
            let snapshot = HistogramSnapshot {
                count: uint_field(h, &context, "count")?,
                sum: uint_field(h, &context, "sum")?,
                min: uint_field(h, &context, "min")?,
                max: uint_field(h, &context, "max")?,
                buckets,
            };
            if snapshot.buckets.iter().map(|&(_, c)| c).sum::<u64>() != snapshot.count {
                return Err(format!("{context}: bucket counts do not sum to count"));
            }
            histograms.insert(name.clone(), snapshot);
        }

        let mut spans = Vec::new();
        for span in value
            .get("spans")
            .and_then(JsonValue::as_arr)
            .ok_or("spans must be an array")?
        {
            let stage_name = span
                .get("stage")
                .and_then(JsonValue::as_str)
                .ok_or("spans[].stage must be a string")?;
            let stage = Stage::by_name(stage_name)
                .ok_or_else(|| format!("spans[].stage {stage_name:?} is not a known stage"))?;
            let shard = uint_field(span, "spans[]", "shard")?;
            let shard =
                u32::try_from(shard).map_err(|_| format!("spans[].shard {shard} exceeds u32"))?;
            spans.push(SpanRecord {
                stage,
                shard,
                start_ns: uint_field(span, "spans[]", "start_ns")?,
                dur_ns: uint_field(span, "spans[]", "dur_ns")?,
            });
        }

        Ok(RunReport {
            counters,
            gauges,
            histograms,
            spans,
        })
    }

    /// Renders the recorded spans as chrome://tracing "trace event" JSON
    /// (also readable by Perfetto): complete (`ph: "X"`) events, one `tid`
    /// per recorder shard, timestamps in microseconds.  Emission goes
    /// through the shared writer in [`crate::chrome`], the same one the
    /// reduced-timeline export uses.
    pub fn render_chrome_trace(&self) -> String {
        let events: Vec<ChromeEvent> = self
            .spans
            .iter()
            .map(|span| ChromeEvent {
                name: span.stage.name().to_string(),
                cat: "pipeline".to_string(),
                pid: 1,
                tid: u64::from(span.shard),
                ts_ns: span.start_ns,
                dur_ns: span.dur_ns,
            })
            .collect();
        chrome::render(&events)
    }
}

/// Pretty-prints a nanosecond duration with integer arithmetic only.
fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else if ns < 1_000_000_000 {
        let us = ns / 1_000;
        format!("{}.{:03}ms", us / 1_000, us % 1_000)
    } else {
        let ms = ns / 1_000_000;
        format!("{}.{:03}s", ms / 1_000, ms % 1_000)
    }
}

/// `numerator / denominator` as a one-decimal percentage, integer math.
fn percent(numerator: u64, denominator: u64) -> String {
    if denominator == 0 {
        return "0.0%".to_string();
    }
    let tenths = numerator.saturating_mul(1000) / denominator;
    format!("{}.{}%", tenths / 10, tenths % 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::names;
    use crate::recorder::Recorder;
    use std::sync::Arc;

    fn sample_report() -> RunReport {
        let clock = Arc::new(ManualClock::new(0));
        let recorder = Recorder::with_clock(ArcClock(Arc::clone(&clock)));
        let mut shard = recorder.shard();
        shard.add(names::MATCH_COMPARISONS, 1000);
        shard.add(names::MATCH_PREFILTER_REJECTS, 400);
        shard.add(names::MATCH_EARLY_ABANDONS, 100);
        shard.add(names::MATCH_FULL_KERNELS, 500);
        shard.add(names::MATCH_MATCHES, 450);
        shard.add(names::MATCH_ELIGIBLE, 4000);
        shard.add(names::MATCH_INDEX_WINDOW_PRUNES, 2500);
        shard.gauge_max(names::STREAM_PEAK_CHUNK_BYTES, 65_536);
        let span = shard.start();
        clock.advance(1_500_000);
        shard.end(Stage::Rank, span);
        shard.finish();
        recorder.report()
    }

    struct ArcClock(Arc<ManualClock>);

    impl crate::Clock for ArcClock {
        fn now_ns(&self) -> u64 {
            self.0.now_ns()
        }
    }

    /// A report an earlier build wrote, with a histogram of waits that
    /// nothing records any more.
    const EARLIER_BUILD: &str = r#"{"schema":"trace-obs-run-report","version":1,"counters":{"stream.events":640},"gauges":{},"histograms":{"stream.decode_wait.ns":{"count":2,"sum":2000000,"min":250000,"max":1750000,"buckets":[{"le":262143,"count":1},{"le":2097151,"count":1}]}},"spans":[]}"#;

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        assert_eq!(RunReport::from_json(&report.render_json()).unwrap(), report);
        for rendered in [report.render_json(), EARLIER_BUILD.to_string()] {
            let back = RunReport::from_json(&rendered).unwrap();
            assert_eq!(back.render_json(), rendered);
        }
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json(
            r#"{"schema":"trace-obs-run-report","version":2,"counters":{},"gauges":{},"histograms":{},"spans":[]}"#
        )
        .is_err());
        assert!(RunReport::from_json(
            r#"{"schema":"trace-obs-run-report","version":1,"counters":{"x":"y"},"gauges":{},"histograms":{},"spans":[]}"#
        )
        .is_err());
        assert!(RunReport::from_json(
            r#"{"schema":"trace-obs-run-report","version":1,"counters":{},"gauges":{},"histograms":{},"spans":[{"stage":"teleport","shard":0,"start_ns":0,"dur_ns":1}]}"#
        )
        .is_err());
        assert!(RunReport::from_json(
            r#"{"schema":"trace-obs-run-report","version":1,"counters":{},"gauges":{},"histograms":{"h":{"count":2,"sum":3,"min":1,"max":2,"buckets":[{"le":1,"count":1}]}},"spans":[]}"#
        )
        .is_err());
        // The JSON reader keeps a fraction exact; no field of this schema
        // holds one.
        let fractions = [
            (
                r#""counters":{"x":1.5},"gauges":{},"histograms":{},"spans":[]"#,
                "counters.x",
            ),
            (
                r#""counters":{},"gauges":{"g":0.5},"histograms":{},"spans":[]"#,
                "gauges.g",
            ),
            (
                r#""counters":{},"gauges":{},"histograms":{"h":{"count":0,"sum":0.0,"min":0,"max":0,"buckets":[]}},"spans":[]"#,
                "histograms.h.sum",
            ),
            (
                r#""counters":{},"gauges":{},"histograms":{},"spans":[{"stage":"rank","shard":0,"start_ns":0,"dur_ns":1.25}]"#,
                "spans[].dur_ns",
            ),
        ];
        for (members, field) in fractions {
            let document = format!(r#"{{"schema":"trace-obs-run-report","version":1,{members}}}"#);
            let error = RunReport::from_json(&document).unwrap_err();
            assert_eq!(error, format!("{field} must be a non-negative integer"));
        }
    }

    #[test]
    fn text_summary_contains_the_derived_rates() {
        let text = sample_report().render_text();
        assert!(text.contains("match.comparisons"), "{text}");
        assert!(text.contains("40.0% prefilter-rejected"), "{text}");
        assert!(text.contains("10.0% early-abandoned"), "{text}");
        assert!(
            text.contains("of 4000 eligible candidates, 62.5% window-pruned before any kernel"),
            "{text}"
        );
        assert!(!text.contains("pivot"), "{text}");
        assert!(text.contains("rank"), "{text}");
        assert!(text.contains("1.500ms"), "{text}");
    }

    #[test]
    fn a_distribution_renders_its_count_min_mean_and_max() {
        let report = RunReport::from_json(EARLIER_BUILD).unwrap();
        let (name, _) = report.histograms.first_key_value().unwrap();
        let line = format!("  {name:<36} count 2 min 250000 mean 1000000 max 1750000\n");
        let text = report.render_text();
        assert!(text.contains(&line), "{text}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_microsecond_times() {
        let trace = sample_report().render_chrome_trace();
        assert!(trace.contains("\"ts\":0.000"), "{trace}");
        assert!(trace.contains("\"dur\":1500.000"), "{trace}");
        assert!(trace.contains("\"name\":\"rank\""), "{trace}");
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let report = RunReport::default();
        assert!(report.is_empty());
        assert!(report.render_text().contains("(nothing recorded)"));
        let back = RunReport::from_json(&report.render_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn format_helpers_are_integer_exact() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.500us");
        assert_eq!(format_ns(2_000_001), "2.000ms");
        assert_eq!(format_ns(3_999_000_000), "3.999s");
        assert_eq!(percent(1, 3), "33.3%");
        assert_eq!(percent(0, 0), "0.0%");
    }
}
