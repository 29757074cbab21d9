//! The paper's four evaluation criteria (Section 4.3).

use trace_analysis::{compare_diagnoses, diagnose, ComparisonConfig, TrendComparison};
use trace_model::codec::{encode_app_trace, encode_reduced_trace};
use trace_model::{stats, AppTrace, ReducedAppTrace};

/// Criterion 1 — *Percentage of full trace file size*: the size of the
/// encoded reduced trace as a percentage of the encoded full trace
/// (Section 4.3.1).
pub fn file_size_percent(full: &AppTrace, reduced: &ReducedAppTrace) -> f64 {
    let full_bytes = encode_app_trace(full).len();
    if full_bytes == 0 {
        return 0.0;
    }
    let reduced_bytes = encode_reduced_trace(reduced).len();
    100.0 * reduced_bytes as f64 / full_bytes as f64
}

/// Sizes in bytes of the encoded full and reduced traces (useful for
/// absolute reporting alongside the percentage).
pub fn encoded_sizes(full: &AppTrace, reduced: &ReducedAppTrace) -> (usize, usize) {
    (
        encode_app_trace(full).len(),
        encode_reduced_trace(reduced).len(),
    )
}

/// Criterion 3 — *Approximation distance*: recreate a full trace from the
/// reduced one, compare every time stamp to its counterpart in the original,
/// and report the absolute difference that 90% of time stamps stay within
/// (Section 4.3.3).  The result is in microseconds.
pub fn approximation_distance_us(full: &AppTrace, approximated: &AppTrace) -> f64 {
    let mut diffs_us = Vec::new();
    for (full_rank, approx_rank) in full.ranks.iter().zip(&approximated.ranks) {
        let original = full_rank.timestamp_vector();
        let approximated = approx_rank.timestamp_vector();
        for (a, b) in original.iter().zip(&approximated) {
            diffs_us.push(a.abs_diff(*b).as_f64() / 1_000.0);
        }
        // Time stamps beyond the shorter vector count as fully erroneous; in
        // practice every reducer in this workspace preserves event counts.
        let extra = original.len().abs_diff(approximated.len());
        for _ in 0..extra {
            diffs_us.push(f64::MAX / 1e6);
        }
    }
    stats::percentile(&diffs_us, 0.9)
}

/// Criterion 4 — *Retention of performance trends*: run the wait-state
/// analysis on the full trace and on the approximated trace and compare the
/// diagnoses under the paper's guidelines (Section 4.3.4).
pub fn trends_retained(full: &AppTrace, approximated: &AppTrace) -> TrendComparison {
    let reference = diagnose(full);
    let candidate = diagnose(approximated);
    compare_diagnoses(&reference, &candidate, &ComparisonConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn workload() -> AppTrace {
        Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate()
    }

    #[test]
    fn file_size_percent_is_between_zero_and_about_one_hundred() {
        let full = workload();
        for method in Method::ALL {
            let reduced = Reducer::with_default_threshold(method).reduce_app(&full);
            let pct = file_size_percent(&full, &reduced);
            assert!(pct > 0.0, "{method}: {pct}");
            assert!(pct < 120.0, "{method}: {pct}");
        }
    }

    #[test]
    fn iter_avg_gives_the_smallest_files() {
        // Figure 5: iter_avg is the best case for size because exactly one
        // segment per pattern is retained.
        let full = workload();
        let iter_avg = Reducer::with_default_threshold(Method::IterAvg).reduce_app(&full);
        let best = file_size_percent(&full, &iter_avg);
        for method in [Method::RelDiff, Method::IterK] {
            let other = Reducer::with_default_threshold(method).reduce_app(&full);
            assert!(
                best <= file_size_percent(&full, &other) + 1e-9,
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
        use trace_reduce::MethodConfig;
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
    fn trends_are_retained_when_comparing_a_trace_with_itself() {
        let full = workload();
        let cmp = trends_retained(&full, &full);
        assert!(cmp.retained);
        assert_eq!(cmp.score, 1.0);
    }

    #[test]
    fn trends_survive_a_tight_reduction_of_a_regular_benchmark() {
        let full = workload();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&full);
        let approx = reduced.reconstruct();
        let cmp = trends_retained(&full, &approx);
        assert!(
            cmp.retained,
            "avgWave at its default threshold must retain late-sender trends: {:?}",
            cmp.discrepancies
        );
    }
}
