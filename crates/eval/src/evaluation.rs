//! Evaluating one (workload, method, threshold) combination.

use trace_model::{AppTrace, ReducedRankTrace};
use trace_reduce::{reduce_app_parallel, MethodConfig, Reducer};

use crate::criteria::{
    approximation_distance_us, encoded_sizes, file_size_percent, trends_retained,
};

/// The outcome of evaluating one method configuration on one workload —
/// one cell of the paper's figures/tables.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodEvaluation {
    /// Workload (trace) name, e.g. `late_sender` or `sweep3d_32p`.
    pub workload: String,
    /// The method and threshold that were evaluated.
    pub config: MethodConfig,
    /// Encoded full-trace size in bytes.
    pub full_bytes: usize,
    /// Encoded reduced-trace size in bytes.
    pub reduced_bytes: usize,
    /// Criterion 1: reduced size as a percentage of the full size.
    pub file_size_percent: f64,
    /// Criterion 2: degree of matching (matches / possible matches).
    pub degree_of_matching: f64,
    /// Executions that reused a stored representative.
    pub matches: usize,
    /// Executions that could have matched (Section 4.3.2).
    pub possible_matches: usize,
    /// Criterion 3: 90th-percentile absolute time-stamp error, microseconds.
    pub approximation_distance_us: f64,
    /// Criterion 4: whether the performance trends were retained.
    pub trends_retained: bool,
    /// Fraction of trend checks that passed (1.0 = perfect).
    pub trend_score: f64,
    /// Total stored representative segments across ranks.
    pub stored_segments: usize,
    /// Total segment executions across ranks.
    pub segment_executions: usize,
}

/// Number of worker threads used for per-rank parallel reduction.
fn reduction_threads() -> usize {
    // lint:allow(thread_count) -- the reduced trace is identical for every worker count (the driver-equivalence suites)
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Evaluates one method configuration on one (already generated) full trace,
/// computing all four criteria of Section 4.3.
pub fn evaluate_method(full: &AppTrace, config: MethodConfig) -> MethodEvaluation {
    let reducer = Reducer::new(config);
    let reduced = reduce_app_parallel(&reducer, full, reduction_threads());
    let approx = reduced.reconstruct();
    let (full_bytes, reduced_bytes) = encoded_sizes(full, &reduced);
    let trend = trends_retained(full, &approx);
    MethodEvaluation {
        workload: full.name.clone(),
        config,
        full_bytes,
        reduced_bytes,
        file_size_percent: file_size_percent(full, &reduced),
        degree_of_matching: reduced.degree_of_matching(),
        matches: reduced
            .ranks
            .iter()
            .map(ReducedRankTrace::match_count)
            .sum(),
        possible_matches: reduced
            .ranks
            .iter()
            .map(ReducedRankTrace::possible_match_count)
            .sum(),
        approximation_distance_us: approximation_distance_us(full, &approx),
        trends_retained: trend.retained,
        trend_score: trend.score,
        stored_segments: reduced.total_stored(),
        segment_executions: reduced.total_execs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_reduce::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn evaluation_populates_every_field_consistently() {
        let full = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        let eval = evaluate_method(&full, MethodConfig::with_default_threshold(Method::AvgWave));
        assert_eq!(eval.workload, "early_gather");
        assert!(eval.full_bytes > eval.reduced_bytes);
        assert!(
            (eval.file_size_percent - 100.0 * eval.reduced_bytes as f64 / eval.full_bytes as f64)
                .abs()
                < 1e-9
        );
        assert!(eval.degree_of_matching > 0.0 && eval.degree_of_matching <= 1.0);
        assert!(eval.approximation_distance_us >= 0.0);
        assert!(eval.trend_score > 0.0 && eval.trend_score <= 1.0);
        assert!(eval.stored_segments <= eval.segment_executions);
        assert_eq!(eval.matches, eval.segment_executions - eval.stored_segments);
        assert!(eval.matches <= eval.possible_matches);
    }
}
