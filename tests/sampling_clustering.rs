//! Integration tests for the sampling- and clustering-based reduction
//! families.

use trace_reduction::analysis::{diagnose, MetricKind};
use trace_reduction::clustering::{
    cluster_reduce, euclidean_distance_matrix, kmeans, rank_features, silhouette_score,
    KMeansConfig, Normalization,
};
use trace_reduction::eval::criteria::{
    approximation_distance_us, file_size_percent, trends_retained,
};
use trace_reduction::sampling::{
    reduce_by_periodicity, sample_app, statistical_profile, EventSamplingConfig, PeriodicityConfig,
    SamplingPolicy,
};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

fn generate(kind: WorkloadKind) -> trace_reduction::model::AppTrace {
    Workload::new(kind, SizePreset::Tiny).generate()
}

#[test]
fn segment_sampling_trades_size_for_error_monotonically() {
    let full = generate(WorkloadKind::DynLoadBalance);
    let mut previous_size = f64::INFINITY;
    for n in [1usize, 2, 8, 32] {
        let reduced = sample_app(&full, SamplingPolicy::EveryNth(n));
        let size = file_size_percent(&full, &reduced);
        assert!(
            size <= previous_size + 1e-9,
            "every{n}: size {size} should not exceed the finer sampling's {previous_size}"
        );
        previous_size = size;
    }
}

#[test]
fn sampling_every_other_iteration_keeps_regular_benchmark_trends() {
    for kind in [WorkloadKind::LateSender, WorkloadKind::LateBroadcast] {
        let full = generate(kind);
        let reduced = sample_app(&full, SamplingPolicy::EveryNth(2));
        let trend = trends_retained(&full, &reduced.reconstruct());
        assert!(trend.retained, "{kind:?}: {:?}", trend.discrepancies);
    }
}

#[test]
fn periodicity_reduction_is_lossier_than_lossless_but_structurally_sound() {
    let full = generate(WorkloadKind::EarlyGather);
    // The per-rank segment sequence is `init, loop×N, final`, so the loop
    // period only dominates once short prologue/epilogue mismatches are
    // tolerated; 0.7 accepts it at the tiny preset's iteration count.
    let config = PeriodicityConfig {
        min_match_fraction: 0.7,
        ..PeriodicityConfig::default()
    };
    let reduced = reduce_by_periodicity(&full, &config);
    assert!(file_size_percent(&full, &reduced) < 100.0);
    let approx = reduced.reconstruct();
    assert_eq!(approx.total_events(), full.total_events());
    assert!(approximation_distance_us(&full, &approx).is_finite());
}

#[test]
fn statistical_profile_reports_wait_heavy_regions_but_not_their_cause() {
    // The profile shows that late_sender spends a lot of time in MPI_Recv —
    // but the same is true of a network-contention scenario; only the trace
    // analysis attributes it to the Late Sender pattern.  This mirrors the
    // paper's introduction argument for why profiles are insufficient.
    let full = generate(WorkloadKind::LateSender);
    let profiles = statistical_profile(&full, &EventSamplingConfig::default());
    let recv_time = profiles
        .iter()
        .filter(|(name, _)| name.contains("Recv"))
        .map(|(_, p)| p.total_ms())
        .sum::<f64>();
    assert!(recv_time > 0.0, "profile must show receive time");

    let diagnosis = diagnose(&full);
    assert!(
        diagnosis.metric_total_ms(MetricKind::LateSender) > 0.0,
        "the trace-based diagnosis attributes the wait to Late Sender"
    );
}

#[test]
fn clustering_separates_the_imbalanced_halves_of_dyn_load_balance() {
    let full = generate(WorkloadKind::DynLoadBalance);
    let features = rank_features(&full, Normalization::MinMax);
    let matrix = euclidean_distance_matrix(&features);
    let result = kmeans(&features, &KMeansConfig::new(2));
    assert!(silhouette_score(&matrix, &result.assignments) > 0.0);

    // The benchmark gives ranks 0..n/2 and n/2..n different load patterns;
    // a 2-way clustering should not mix the two halves completely.
    let n = full.rank_count();
    let lower: Vec<usize> = result.assignments[..n / 2].to_vec();
    let upper: Vec<usize> = result.assignments[n / 2..].to_vec();
    let lower_majority = lower.iter().filter(|&&c| c == lower[0]).count();
    let upper_in_lower_cluster = upper.iter().filter(|&&c| c == lower[0]).count();
    assert!(
        lower_majority > upper_in_lower_cluster,
        "lower half {lower:?} and upper half {upper:?} should differ in majority cluster"
    );
}

#[test]
fn cluster_reduction_shrinks_retained_data_proportionally_to_k() {
    let full = generate(WorkloadKind::LateSender);
    let features = rank_features(&full, Normalization::MinMax);
    let matrix = euclidean_distance_matrix(&features);
    let n = full.rank_count();

    let sizes: Vec<f64> = [2usize, n]
        .iter()
        .map(|&k| {
            let result = kmeans(&features, &KMeansConfig::new(k));
            let clustered = cluster_reduce(&full, &result.assignments, &matrix);
            clustered.retained_fraction()
        })
        .collect();
    assert!(sizes[0] < sizes[1]);
    assert!(
        (sizes[1] - 1.0).abs() < 1e-9,
        "k = rank count retains everything"
    );
}
