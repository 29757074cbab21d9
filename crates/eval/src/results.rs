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

use trace_model::AppTrace;
use trace_obs::json::{self, JsonValue};
use trace_reduce::{Method, MethodConfig};
use trace_sim::{SizePreset, Workload};

use crate::evaluation::{evaluate_method, MethodEvaluation};

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

/// One method at one threshold on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultRow {
    /// The similarity method.
    pub method: Method,
    /// The threshold × 1000 (exact for every grid value; 0 for `iter_avg`).
    pub threshold_milli: u64,
    /// Criterion 1: encoded reduced-trace size in bytes.
    pub reduced_bytes: u64,
    /// Stored representative segments across ranks.
    pub stored: u64,
    /// Segment executions across ranks.
    pub execs: u64,
    /// Criterion 2's numerator: executions that reused a representative.
    pub matches: u64,
    /// Criterion 2's denominator: executions that could have matched.
    pub possible: u64,
    /// Criterion 3: 90th-percentile time-stamp error, nanoseconds.
    pub approx_p90_ns: u64,
    /// Criterion 4: whether the wait-state diagnosis survived.
    pub retained: bool,
    /// Fraction of trend checks that passed, in parts per million.
    pub trend_score_ppm: u64,
}

/// Evaluates every method over its threshold grid on one full trace.
pub fn workload_results(full: &AppTrace) -> WorkloadResults {
    let mut rows = Vec::new();
    let mut full_bytes = 0;
    for method in Method::ALL {
        let grid = if method.has_threshold() {
            method.threshold_grid()
        } else {
            vec![0.0]
        };
        for threshold in grid {
            let eval = evaluate_method(full, MethodConfig::new(method, threshold));
            full_bytes = eval.full_bytes as u64;
            rows.push(ResultRow::from_evaluation(&eval));
        }
    }
    WorkloadResults {
        name: full.name.clone(),
        events: full.total_events() as u64,
        full_bytes,
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
        let rows = field(value, "rows")?
            .as_arr()
            .ok_or_else(|| format!("{name}: \"rows\" is not an array"))?
            .iter()
            .map(ResultRow::from_json)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{name}: {e}"))?;
        Ok(WorkloadResults {
            events: uint(value, "events")?,
            full_bytes: uint(value, "full_bytes")?,
            name,
            rows,
        })
    }
}

impl ResultRow {
    fn from_evaluation(eval: &MethodEvaluation) -> Self {
        ResultRow {
            method: eval.config.method,
            threshold_milli: (eval.config.threshold * 1_000.0).round() as u64,
            reduced_bytes: eval.reduced_bytes as u64,
            stored: eval.stored_segments as u64,
            execs: eval.segment_executions as u64,
            matches: eval.matches as u64,
            possible: eval.possible_matches as u64,
            // Exact for integer-nanosecond time stamps below 2^53 ns.
            approx_p90_ns: (eval.approximation_distance_us * 1_000.0).round() as u64,
            retained: eval.trends_retained,
            trend_score_ppm: (eval.trend_score * 1e6).round() as u64,
        }
    }

    /// The row as a JSON object, fields in table order.
    pub fn to_json(&self) -> JsonValue {
        let uint = |key: &str, v: u64| (key.to_string(), JsonValue::UInt(v));
        JsonValue::Obj(vec![
            ("method".into(), JsonValue::Str(self.method.name().into())),
            uint("threshold_milli", self.threshold_milli),
            uint("reduced_bytes", self.reduced_bytes),
            uint("stored", self.stored),
            uint("execs", self.execs),
            uint("matches", self.matches),
            uint("possible", self.possible),
            uint("approx_p90_ns", self.approx_p90_ns),
            ("retained".into(), JsonValue::Bool(self.retained)),
            uint("trend_score_ppm", self.trend_score_ppm),
        ])
    }

    fn from_json(value: &JsonValue) -> Result<Self, String> {
        let name = field(value, "method")?.as_str().unwrap_or_default();
        let method = Method::by_name(name).ok_or_else(|| format!("unknown method {name:?}"))?;
        let retained = match field(value, "retained")? {
            JsonValue::Bool(b) => *b,
            _ => return Err("\"retained\" is not a boolean".into()),
        };
        Ok(ResultRow {
            method,
            threshold_milli: uint(value, "threshold_milli")?,
            reduced_bytes: uint(value, "reduced_bytes")?,
            stored: uint(value, "stored")?,
            execs: uint(value, "execs")?,
            matches: uint(value, "matches")?,
            possible: uint(value, "possible")?,
            approx_p90_ns: uint(value, "approx_p90_ns")?,
            retained,
            trend_score_ppm: uint(value, "trend_score_ppm")?,
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
    }
}
