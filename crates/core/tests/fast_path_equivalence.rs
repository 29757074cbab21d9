//! Property: the application drivers ≡ the naive reference.
//!
//! `index_equivalence.rs` holds the production match loop to the naive
//! reduction in `support/reference.rs` rank by rank, counters included.
//! This half runs the same input families — the workload × threshold
//! grids, random traces and random thresholds — through the public
//! application drivers on top of that loop: [`reduce_app_parallel`] at
//! several thread counts, and the match counters that
//! [`reduce_app_parallel_with_stats`] aggregates over ranks and workers.
//! Every stored segment, every execution and every timestamp must equal
//! the reference's.

#[path = "support/inputs.rs"]
mod inputs;
#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use inputs::{all_configs, specs_strategy};
use reference::{reduce_app_reference, reduce_rank_reference};
use trace_reduce::{
    reduce_app_parallel, reduce_app_parallel_with_stats, MatchStats, Method, MethodConfig, Reducer,
};
use trace_sim::specgen::trace_from_specs;
use trace_sim::{SizePreset, Workload, WorkloadKind};

#[test]
fn fast_path_is_bit_identical_on_workloads_across_the_threshold_grid() {
    for kind in [
        WorkloadKind::LateSender,
        WorkloadKind::DynLoadBalance,
        WorkloadKind::Sweep3d8p,
    ] {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        for config in all_configs() {
            let fast = reduce_app_parallel(&Reducer::new(config), &app, 4);
            let reference = reduce_app_reference(config, &app);
            assert_eq!(fast, reference, "{} on {}", config.label(), kind.name());
        }
    }
}

#[test]
fn parallel_driver_matches_the_reference_path() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reference = reduce_app_reference(config, &app);
        for threads in [2, 8] {
            let parallel = reduce_app_parallel(&Reducer::new(config), &app, threads);
            assert_eq!(parallel, reference, "{method} with {threads} threads");
        }
    }
}

#[test]
fn fast_path_match_counters_partition_and_agree_with_the_reference() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let config = MethodConfig::with_default_threshold(method);
        let mut reference = MatchStats::default();
        for rank in &app.ranks {
            reference.absorb(&reduce_rank_reference(config, rank).matching);
        }
        for threads in [1, 3] {
            let (_, stats) = reduce_app_parallel_with_stats(&Reducer::new(config), &app, threads);
            let context = format!("{method} with {threads} threads");
            assert_eq!(
                stats.prefilter_rejects + stats.early_abandons + stats.full_kernels,
                stats.comparisons,
                "counters must partition: {context}"
            );
            // Summed over ranks, every candidate the reference compared is
            // still either visited or attributed to a window prune.
            assert_eq!(
                stats.candidates(),
                reference.comparisons,
                "candidates: {context}"
            );
            assert_eq!(stats.matches, reference.matches, "matches: {context}");
            assert_eq!(stats.eligible, reference.eligible, "eligible: {context}");
            assert!(
                stats.full_kernels <= reference.full_kernels,
                "full kernels: {context}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_path_is_bit_identical_on_random_traces(rank_specs in specs_strategy()) {
        let app = trace_from_specs("fastpath", &rank_specs);
        prop_assert!(app.is_well_formed());
        for config in all_configs() {
            let fast = reduce_app_parallel(&Reducer::new(config), &app, 2);
            let reference = reduce_app_reference(config, &app);
            prop_assert_eq!(&fast, &reference, "{}", config.label());
        }
    }

    #[test]
    fn fast_path_is_bit_identical_on_random_traces_with_random_thresholds(
        rank_specs in specs_strategy(),
        threshold in 0.0..2.0f64,
    ) {
        let app = trace_from_specs("fastpath", &rank_specs);
        for method in Method::ALL {
            // A fractional threshold for every method; for absDiff it is
            // microseconds, i.e. up to 2000 ns — the order of magnitude of
            // the generated jitter, so both outcomes occur.
            let config = MethodConfig::new(method, threshold);
            let fast = reduce_app_parallel(&Reducer::new(config), &app, 2);
            let reference = reduce_app_reference(config, &app);
            prop_assert_eq!(&fast, &reference, "{} at {}", method, threshold);
        }
    }
}
