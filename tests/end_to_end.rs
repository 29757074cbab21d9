//! Cross-crate integration tests: the full pipeline from workload generation
//! through reduction, serialization, reconstruction and analysis.

use trace_reduction::eval::Original;
use trace_reduction::model::codec::{
    decode_app_trace, decode_reduced_trace, encode_app_trace, encode_reduced_trace,
};
use trace_reduction::reduce::{reduce_app_parallel, Method, MethodConfig, Reducer};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

/// A representative subset of workloads covering every category: regular,
/// interference, dynamic load balance, and the application.
fn representative_workloads() -> Vec<Workload> {
    use trace_reduction::sim::WorkloadKind::*;
    [
        LateSender,
        EarlyGather,
        DynLoadBalance,
        WorkloadKind::by_name("NtoN_1024").unwrap(),
        Sweep3d8p,
    ]
    .into_iter()
    .map(|kind| Workload::new(kind, SizePreset::Tiny))
    .collect()
}

#[test]
fn every_method_completes_the_full_pipeline_on_every_category() {
    for workload in representative_workloads() {
        let full = workload.generate();
        let original = Original::new(&full);
        for method in Method::ALL {
            let reducer = Reducer::new(MethodConfig::with_default_threshold(method));
            let reduced = reduce_app_parallel(&reducer, &full, 2);
            let eval = original
                .evaluate(&reduced)
                .unwrap_or_else(|e| panic!("{method} on {}: {e}", full.name))
                .criteria;
            assert!(
                eval.file_size_percent() > 0.0 && eval.file_size_percent() < 200.0,
                "{method} on {}: implausible file size {}",
                full.name,
                eval.file_size_percent()
            );
            assert!(
                eval.degree_of_matching() >= 0.0 && eval.degree_of_matching() <= 1.0,
                "{method} on {}: degree of matching {}",
                full.name,
                eval.degree_of_matching()
            );
            assert!(
                eval.approximation_distance_us().is_finite(),
                "{method} on {}: non-finite approximation distance",
                full.name
            );
            assert!(eval.trend_score() >= 0.0 && eval.trend_score() <= 1.0);
        }
    }
}

#[test]
fn reduction_is_deterministic_and_parallelism_invariant() {
    let full = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for method in [Method::AvgWave, Method::RelDiff, Method::IterAvg] {
        let reducer = Reducer::with_default_threshold(method);
        let a = reducer.reduce_app(&full);
        let b = reducer.reduce_app(&full);
        let c = reduce_app_parallel(&reducer, &full, 4);
        assert_eq!(a, b, "{method}: reduction must be deterministic");
        assert_eq!(a, c, "{method}: parallel reduction must match sequential");
    }
}

#[test]
fn full_and_reduced_traces_round_trip_through_the_codec() {
    let full = Workload::new(WorkloadKind::LateBroadcast, SizePreset::Tiny).generate();
    let decoded_full = decode_app_trace(&encode_app_trace(&full)).expect("full trace decodes");
    assert_eq!(full, decoded_full);

    for method in Method::ALL {
        let reduced = Reducer::with_default_threshold(method).reduce_app(&full);
        let decoded = decode_reduced_trace(&encode_reduced_trace(&reduced))
            .unwrap_or_else(|e| panic!("{method}: reduced trace must decode: {e}"));
        assert_eq!(reduced, decoded, "{method}");
        // A decoded reduced trace reconstructs to the same approximation.
        assert_eq!(reduced.reconstruct(), decoded.reconstruct(), "{method}");
    }
}

#[test]
fn reconstruction_preserves_per_rank_structure_for_every_method() {
    let full = Workload::new(WorkloadKind::ImbalanceAtMpiBarrier, SizePreset::Tiny).generate();
    for method in Method::ALL {
        let reduced = Reducer::with_default_threshold(method).reduce_app(&full);
        let approx = reduced.reconstruct();
        assert_eq!(approx.rank_count(), full.rank_count(), "{method}");
        assert_eq!(approx.total_events(), full.total_events(), "{method}");
        for (approx_rank, full_rank) in approx.ranks.iter().zip(&full.ranks) {
            assert_eq!(
                approx_rank.segment_instance_count(),
                full_rank.segment_instance_count(),
                "{method}"
            );
        }
        // Name tables are carried over so the analysis sees the same regions.
        assert_eq!(approx.regions, full.regions, "{method}");
        assert_eq!(approx.contexts, full.contexts, "{method}");
    }
}

#[test]
fn workload_names_match_the_paper_and_are_regenerable() {
    let expected = [
        "early_gather",
        "imbalance_at_mpi_barrier",
        "late_receiver",
        "late_sender",
        "late_broadcast",
        "Nto1_32",
        "NtoN_32",
        "1toN_32",
        "1to1r_32",
        "1to1s_32",
        "Nto1_1024",
        "NtoN_1024",
        "1toN_1024",
        "1to1r_1024",
        "1to1s_1024",
        "dyn_load_balance",
        "sweep3d_8p",
        "sweep3d_32p",
    ];
    let names: Vec<String> = Workload::all(SizePreset::Tiny)
        .iter()
        .map(Workload::name)
        .collect();
    assert_eq!(names, expected);
}
