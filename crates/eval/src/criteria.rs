//! The paper's four evaluation criteria (Section 4.3), as one integer
//! record.
//!
//! [`Criteria`] holds what a reduction scores against its original trace:
//! the v1 byte counts (criterion 1), the match counts (criterion 2), the
//! 90th-percentile time-stamp error in nanoseconds (criterion 3) and the
//! trend verdict (criterion 4).  Its accessors derive the values the paper
//! states (a percentage, a ratio, microseconds, a score); the table,
//! `tests/paper_claims.rs` and the report sinks all read them from here.
//! [`crate::Original::evaluate`] is the one function that computes it.

use trace_model::{stats, AppTrace, RankTrace};
use trace_obs::json::JsonValue;

/// The four criteria for one reduction of one original trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Criteria {
    /// Criterion 1's denominator: the original's v1 encoding, in bytes.
    pub full_bytes: u64,
    /// Criterion 1: the reduction's v1 encoding, in bytes.
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

impl Criteria {
    /// Criterion 1 as the paper states it: the reduced size as a percentage
    /// of the full size (0 for an empty original).
    pub fn file_size_percent(&self) -> f64 {
        if self.full_bytes == 0 {
            return 0.0;
        }
        100.0 * self.reduced_bytes as f64 / self.full_bytes as f64
    }

    /// Criterion 2 as the paper states it: matches over possible matches,
    /// 1 when nothing could match (nothing was missed).
    pub fn degree_of_matching(&self) -> f64 {
        if self.possible == 0 {
            return 1.0;
        }
        self.matches as f64 / self.possible as f64
    }

    /// Criterion 3 in microseconds, the paper's unit.
    pub fn approximation_distance_us(&self) -> f64 {
        self.approx_p90_ns as f64 / 1_000.0
    }

    /// The fraction of trend checks that passed, in `[0, 1]`.
    pub fn trend_score(&self) -> f64 {
        self.trend_score_ppm as f64 / 1e6
    }

    /// The record as JSON object fields: `full_bytes` first, then the
    /// table's per-row fields in table order.
    pub fn json_fields(&self) -> Vec<(String, JsonValue)> {
        let uint = |key: &str, v: u64| (key.to_string(), JsonValue::UInt(v));
        vec![
            uint("full_bytes", self.full_bytes),
            uint("reduced_bytes", self.reduced_bytes),
            uint("stored", self.stored),
            uint("execs", self.execs),
            uint("matches", self.matches),
            uint("possible", self.possible),
            uint("approx_p90_ns", self.approx_p90_ns),
            ("retained".into(), JsonValue::Bool(self.retained)),
            uint("trend_score_ppm", self.trend_score_ppm),
        ]
    }
}

/// Criterion 3 — *Approximation distance*: recreate a full trace from the
/// reduced one, compare every time stamp to its counterpart in the original,
/// and report the absolute difference that 90% of time stamps stay within
/// (Section 4.3.3).  The result is in microseconds.
///
/// Time stamps without a counterpart — in a rank or event the other trace
/// lacks — count as fully erroneous.  [`crate::Original::evaluate`] refuses
/// such a pair before it gets here.
pub fn approximation_distance_us(full: &AppTrace, approximated: &AppTrace) -> f64 {
    let empty = RankTrace::default();
    let stamps = |app: &AppTrace, rank| app.ranks.get(rank).unwrap_or(&empty).timestamp_vector();
    let mut diffs_us = Vec::new();
    for rank in 0..full.ranks.len().max(approximated.ranks.len()) {
        let original = stamps(full, rank);
        let approximated = stamps(approximated, rank);
        for (a, b) in original.iter().zip(&approximated) {
            diffs_us.push(a.abs_diff(*b).as_f64() / 1_000.0);
        }
        let extra = original.len().abs_diff(approximated.len());
        diffs_us.extend(std::iter::repeat_n(f64::MAX / 1e6, extra));
    }
    stats::percentile(&diffs_us, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Original;
    use trace_model::ReducedAppTrace;
    use trace_reduce::{Method, MethodConfig, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn workload() -> AppTrace {
        Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate()
    }

    fn criteria(original: &Original, reduced: &ReducedAppTrace) -> Criteria {
        original.evaluate(reduced).expect("own reduction").criteria
    }

    #[test]
    fn file_size_percent_is_between_zero_and_about_one_hundred() {
        let full = workload();
        let original = Original::new(&full);
        for method in Method::ALL {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&full);
            let pct = criteria(&original, &reduced).file_size_percent();
            assert!(pct > 0.0, "{method}: {pct}");
            assert!(pct < 120.0, "{method}: {pct}");
        }
    }

    #[test]
    fn iter_avg_gives_the_smallest_files() {
        // Figure 5: iter_avg is the best case for size because exactly one
        // segment per pattern is retained.
        let full = workload();
        let original = Original::new(&full);
        let size = |method| {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&full);
            criteria(&original, &reduced).reduced_bytes
        };
        let best = size(Method::IterAvg);
        for method in [Method::RelDiff, Method::IterK] {
            assert!(
                best <= size(method),
                "iter_avg must not be larger than {method}"
            );
        }
    }

    #[test]
    fn approximation_distance_is_zero_for_identical_traces() {
        let full = workload();
        assert_eq!(approximation_distance_us(&full, &full), 0.0);
    }

    #[test]
    fn approximation_distance_grows_with_looser_thresholds() {
        let full = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let tight = Reducer::new(MethodConfig::new(Method::Euclidean, 0.05))
            .reduce_app(&full)
            .reconstruct();
        let loose = Reducer::new(MethodConfig::new(Method::Euclidean, 1.0))
            .reduce_app(&full)
            .reconstruct();
        let tight_err = approximation_distance_us(&full, &tight);
        let loose_err = approximation_distance_us(&full, &loose);
        assert!(
            loose_err >= tight_err,
            "loose threshold error {loose_err} must be >= tight threshold error {tight_err}"
        );
    }

    #[test]
    fn approximation_distance_counts_a_missing_rank_as_fully_erroneous() {
        let full = workload();
        let mut fewer = full.clone();
        fewer.ranks.truncate(1);
        assert!(approximation_distance_us(&full, &fewer) > 1e6);
        assert!(approximation_distance_us(&fewer, &full) > 1e6);
    }

    #[test]
    fn trends_are_retained_when_comparing_a_trace_with_itself() {
        // absDiff at threshold 0 merges only identical executions, so the
        // reconstruction is the trace itself.
        let full = workload();
        let reduced = Reducer::new(MethodConfig::new(Method::AbsDiff, 0.0)).reduce_app(&full);
        let evaluation = Original::new(&full).evaluate(&reduced).unwrap();
        assert_eq!(evaluation.criteria.approx_p90_ns, 0);
        assert!(evaluation.criteria.retained);
        assert_eq!(evaluation.criteria.trend_score(), 1.0);
        assert!(evaluation.discrepancies.is_empty());
    }

    #[test]
    fn trends_survive_a_tight_reduction_of_a_regular_benchmark() {
        let full = workload();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&full);
        let evaluation = Original::new(&full).evaluate(&reduced).unwrap();
        assert!(
            evaluation.criteria.retained,
            "avgWave at its default threshold must retain late-sender trends: {:?}",
            evaluation.discrepancies
        );
    }

    #[test]
    fn derived_criteria_follow_the_integers() {
        let record = Criteria {
            full_bytes: 2_000,
            reduced_bytes: 500,
            stored: 4,
            execs: 10,
            matches: 6,
            possible: 8,
            approx_p90_ns: 1_500,
            retained: true,
            trend_score_ppm: 750_000,
        };
        assert_eq!(record.file_size_percent(), 25.0);
        assert_eq!(record.degree_of_matching(), 0.75);
        assert_eq!(record.approximation_distance_us(), 1.5);
        assert_eq!(record.trend_score(), 0.75);
        let nothing = Criteria {
            full_bytes: 0,
            possible: 0,
            ..record
        };
        assert_eq!(nothing.file_size_percent(), 0.0);
        assert_eq!(nothing.degree_of_matching(), 1.0);
    }
}
