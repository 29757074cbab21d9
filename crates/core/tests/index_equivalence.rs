//! Property: the production reducer ≡ the naive reference.
//!
//! The reducer's one match loop ([`trace_reduce::OnlineRankReducer`]) runs
//! every incoming segment through the candidate index of its shape bucket —
//! a duration-sorted window over cached [`trace_reduce::SegmentFeatures`] —
//! and visits the survivors in insertion order through admissible
//! prefilters and early-abandoning kernels.  The index may only *skip*
//! candidates it can prove unmatchable, and the kernels may only shortcut
//! decisions the naive predicate makes too, so the reduction must stay
//! bit-identical to the naive loop in `support/reference.rs`: owned shape
//! keys, the allocating `segments_match`, every candidate compared.  These
//! tests require exactly that — every stored segment, every execution,
//! every timestamp — across all nine methods, the paper's threshold grids,
//! simulated and random traces, and the sequential and parallel drivers,
//! plus the counter identity `candidates() == reference comparisons` that
//! makes the pruning auditable.  `fast_path_equivalence.rs` holds the
//! application-driver half: the same inputs through `reduce_app_parallel`
//! and its aggregated counters.
//!
//! The adversarial half of the suite attacks the two ways such a loop
//! classically goes wrong: returning the *nearest* stored candidate instead
//! of the *first inserted* one (the paper's scan semantics), and pruning
//! with bounds that are not admissible under f64 accumulation error at
//! large norms (the 1500-event counterexample family with timestamps up to
//! 7.5·10¹², where one ulp of the L1 norm is 2 ns).

#[path = "support/inputs.rs"]
mod inputs;
#[path = "support/reference.rs"]
mod reference;

use proptest::prelude::*;

use inputs::{all_configs, specs_strategy};
use reference::{reduce_app_reference, reduce_rank_reference};
use trace_model::{AppTrace, Event, ReducedAppTrace, RegionId, Time};
use trace_reduce::{reduce_app_parallel_with_stats, Method, MethodConfig, Reducer};
use trace_sim::specgen::trace_from_specs;
use trace_sim::{SizePreset, Workload, WorkloadKind};

/// Asserts reducer ≡ reference on every rank of `app` and on the whole
/// application, including the match-counter reconciliation: the reducer
/// visits a subset of the reference's comparisons and accounts for every
/// skipped candidate as a window prune.
fn assert_equivalent(config: MethodConfig, app: &AppTrace, context: &str) {
    let reducer = Reducer::new(config);
    let mut reference_app = ReducedAppTrace::for_app(app);
    for rank in &app.ranks {
        let reference = reduce_rank_reference(config, rank);
        let fast = reducer.reduce_rank(rank);
        assert_eq!(fast.reduced, reference.reduced, "{context}");
        assert_eq!(fast.segmentation, reference.segmentation, "{context}");
        if config.method.is_distance_method() {
            let (fast, reference) = (fast.matching, reference.matching);
            assert_eq!(
                fast.prefilter_rejects + fast.early_abandons + fast.full_kernels,
                fast.comparisons,
                "counters must partition: {context}"
            );
            // Every candidate the reference compared is either visited or
            // attributed to a window prune.
            assert_eq!(
                fast.candidates(),
                reference.comparisons,
                "candidates: {context}"
            );
            assert_eq!(fast.matches, reference.matches, "matches: {context}");
            assert_eq!(fast.eligible, reference.eligible, "eligible: {context}");
            assert!(
                fast.comparisons <= fast.eligible,
                "visited cannot exceed the eligible candidate set: {context}"
            );
            assert!(
                fast.full_kernels <= reference.full_kernels,
                "full kernels: {context}"
            );
        }
        reference_app.ranks.push(reference.reduced);
    }
    assert_eq!(reducer.reduce_app(app), reference_app, "{context}");
}

#[test]
fn indexed_path_is_bit_identical_on_workloads_across_the_threshold_grid() {
    for kind in [
        WorkloadKind::LateSender,
        WorkloadKind::DynLoadBalance,
        WorkloadKind::Sweep3d8p,
    ] {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        for config in all_configs() {
            assert_equivalent(
                config,
                &app,
                &format!("{} on {}", config.label(), kind.name()),
            );
        }
    }
}

#[test]
fn parallel_driver_with_index_matches_reference_and_aggregates_counters() {
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        let reducer = Reducer::new(config);
        let reference = reduce_app_reference(config, &app);
        let (sequential, seq_stats) = reduce_app_parallel_with_stats(&reducer, &app, 1);
        assert_eq!(sequential, reference, "{method} sequential");
        for threads in [2, 8] {
            let (parallel, stats) = reduce_app_parallel_with_stats(&reducer, &app, threads);
            assert_eq!(parallel, reference, "{method} with {threads} threads");
            // Rank counters are deterministic and rank-independent, so the
            // parallel aggregate equals the sequential aggregate exactly.
            assert_eq!(stats, seq_stats, "{method} stats with {threads} threads");
        }
    }
}

#[test]
fn index_visits_fewer_candidates_than_a_linear_scan_on_a_grown_stored_set() {
    // `dyn_load_balance` with iterations *and* rebalance period scaled 16×:
    // the drift sawtooth keeps its ten cycles, so later cycles still
    // re-match the first cycle's representatives while the stored set
    // grows.  There the window must prune: summed over the distance
    // methods, the index visits strictly fewer candidates than a linear
    // first-match scan (`MatchStats::candidates`).
    use trace_sim::dynload::{dyn_load_balance, DynLoadParams};
    let app = dyn_load_balance(&DynLoadParams {
        iterations: 30 * 16,
        rebalance_every: 30 * 16 / 10,
        ..DynLoadParams::paper()
    });
    let (mut indexed, mut linear) = (0, 0);
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let reducer = Reducer::new(MethodConfig::with_default_threshold(method));
        let (_, stats) = reduce_app_parallel_with_stats(&reducer, &app, 1);
        indexed += stats.comparisons;
        linear += stats.candidates();
    }
    assert!(
        indexed < linear,
        "index pruning regressed: visited {indexed} vs linear {linear}"
    );
}

#[test]
fn fast_path_matches_the_predicate_reducer_for_distance_methods() {
    // The reference recomputes everything per comparison via the naive
    // `segments_match` predicate, at the paper's default thresholds.
    let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let config = MethodConfig::with_default_threshold(method);
        let fast = Reducer::new(config).reduce_app(&app);
        assert_eq!(fast, reduce_app_reference(config, &app), "{method}");
    }
}

/// Builds a one-rank trace where every segment holds a single compute
/// event spanning the whole segment, so all segments share one
/// [`trace_model::SegmentKey`] (one candidate bucket) and the measurement
/// vector is `(d, 0, d)` for a duration of `d` nanoseconds.
fn rank_of_durations(durations_ns: &[u64]) -> AppTrace {
    let mut app = AppTrace::new("ordering", 1);
    let region = app.regions.intern("kernel");
    let context = app.contexts.intern("loop.main");
    let rank = &mut app.ranks[0];
    let mut now = 0u64;
    for &d in durations_ns {
        rank.begin_segment(context, Time::from_nanos(now));
        rank.push_event(Event::compute(
            region,
            Time::from_nanos(now),
            Time::from_nanos(now + d),
        ));
        rank.end_segment(context, Time::from_nanos(now + d));
        now += d + 1_000;
    }
    app
}

/// A rebased standalone segment matching the shape produced by
/// [`rank_of_durations`], for probing metrics directly with
/// [`trace_reduce::segments_match`].
fn segment_of_duration(d: u64) -> trace_model::Segment {
    trace_model::Segment {
        context: trace_model::ContextId(0),
        start: Time::ZERO,
        end: Time::from_nanos(d),
        events: vec![Event::compute(RegionId(0), Time::ZERO, Time::from_nanos(d))],
    }
}

/// Finds a threshold at which the two stored candidates `a` and `b` do
/// *not* match each other (so both get stored) while *both* accept the
/// probe `c` — the adversarial setup where first-match and nearest-match
/// semantics disagree.  Panics if no such threshold exists for `method`.
fn threshold_where_both_accept(method: Method, a: u64, b: u64, c: u64) -> f64 {
    let (sa, sb, sc) = (
        segment_of_duration(a),
        segment_of_duration(b),
        segment_of_duration(c),
    );
    let mut t = 0.001f64;
    while t < 100.0 {
        let config = MethodConfig::new(method, t);
        if !trace_reduce::segments_match(&config, &sa, &sb)
            && trace_reduce::segments_match(&config, &sa, &sc)
            && trace_reduce::segments_match(&config, &sb, &sc)
        {
            return t;
        }
        t *= 1.02;
    }
    panic!("no adversarial threshold for {method} over ({a}, {b}, {c})");
}

/// Bucket padding for the adversarial ordering tests: durations spaced 16×
/// apart, far above the 100–136 µs band the probes live in, so none of
/// them matches anything at the small calibrated thresholds.  Prepending
/// them grows the candidate bucket past the index's small-bucket fallback
/// (which scans in insertion order by construction), forcing the ordering
/// assertions through the real window machinery.
const ORDER_PADS: [u64; 6] = [
    1_600_000,
    25_600_000,
    409_600_000,
    6_553_600_000,
    104_857_600_000,
    1_677_721_600_000,
];

#[test]
fn index_returns_the_first_inserted_match_not_the_nearest() {
    // Stored after the pads: A = 100 µs, then B = 130 µs.  Probe C = 118 µs
    // is strictly nearer to B under every distance metric, but the paper's
    // scan takes the first stored match in insertion order — A.
    let (a, b, c) = (100_000u64, 130_000, 118_000);
    let mut durations = ORDER_PADS.to_vec();
    durations.extend([a, b, c]);
    let app = rank_of_durations(&durations);
    let rank = &app.ranks[0];
    let a_id = ORDER_PADS.len() as u32;
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let config = MethodConfig::new(method, threshold_where_both_accept(method, a, b, c));
        let reference = reduce_rank_reference(config, rank);
        // Sanity: every pad plus A and B is stored, and the probe matches
        // the *first* of the pair (A) even though B also accepts it.
        assert_eq!(
            reference.reduced.stored_count(),
            a_id as usize + 2,
            "{method}"
        );
        assert_eq!(
            reference.reduced.execs[a_id as usize + 2].segment,
            a_id,
            "{method}"
        );
        let indexed = Reducer::new(config).reduce_rank(rank);
        assert_eq!(indexed.reduced, reference.reduced, "{method}");
        assert_eq!(
            indexed.reduced.execs[a_id as usize + 2].segment,
            a_id,
            "{method}"
        );
    }
}

#[test]
fn equidistant_candidates_resolve_to_the_earliest_insertion() {
    // A = 100 µs and B = 136 µs are *exactly* equidistant from the probe
    // C = 118 µs under every absolute metric (and B is strictly nearer
    // under relDiff); the tie must go to the earlier insertion.  The
    // second trace stores them in the opposite order (B first), where the
    // index's duration-sorted internal order disagrees with insertion
    // order — the tie must then go to B (still the earlier insertion).
    for (a, b) in [(100_000u64, 136_000), (136_000u64, 100_000)] {
        let c = 118_000u64;
        let mut durations = ORDER_PADS.to_vec();
        durations.extend([a, b, c]);
        let app = rank_of_durations(&durations);
        let rank = &app.ranks[0];
        let a_id = ORDER_PADS.len() as u32;
        for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
            let config = MethodConfig::new(method, threshold_where_both_accept(method, a, b, c));
            let reference = reduce_rank_reference(config, rank);
            assert_eq!(
                reference.reduced.stored_count(),
                a_id as usize + 2,
                "{method}"
            );
            assert_eq!(
                reference.reduced.execs[a_id as usize + 2].segment,
                a_id,
                "{method}"
            );
            let indexed = Reducer::new(config).reduce_rank(rank);
            assert_eq!(indexed.reduced, reference.reduced, "{method}");
        }
    }
}

#[test]
fn threshold_boundary_decisions_survive_the_index() {
    // Thresholds straddling the exact accept/reject boundary of the probe
    // against its nearest stored candidate.  Whatever the kernel decides
    // at these knife-edge thresholds, the indexed path must decide
    // identically — its window may only be *wider* than the kernel's
    // acceptance region, never narrower.  (Padded past the
    // small-bucket fallback so the window actually runs.)
    let mut durations = ORDER_PADS.to_vec();
    durations.extend([100_000, 130_000, 118_000]);
    let app = rank_of_durations(&durations);
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        // For the methods with a closed-form bound against the probe's
        // nearest candidate (B = 130 µs, 12 µs away per coordinate), pin
        // the *exact* boundary threshold; otherwise sweep a geometric
        // grid that crosses the boundary somewhere.
        let boundary = match method {
            Method::Manhattan => Some(24_000.0 / 130_000.0),
            Method::Euclidean => Some((2.0f64).sqrt() * 12_000.0 / 130_000.0),
            Method::Chebyshev => Some(12_000.0 / 130_000.0),
            Method::AbsDiff => Some(12.0), // µs limit == the 12 000 ns gap
            _ => None,
        };
        let thresholds: Vec<f64> = match boundary {
            Some(t) => [
                1.0 - 1e-9,
                1.0 - 1e-15,
                1.0,
                1.0 + 1e-15,
                1.0 + 1e-9,
                0.5,
                2.0,
            ]
            .into_iter()
            .map(|scale| t * scale)
            .collect(),
            None => (0..20).map(|i| 0.01 * 1.3f64.powi(i)).collect(),
        };
        for threshold in thresholds {
            let config = MethodConfig::new(method, threshold);
            assert_equivalent(config, &app, &format!("{method} at {threshold}"));
        }
    }
}

/// The large-norm counterexample family scaled to a whole candidate bucket:
/// 1500-event segments with timestamps up to 7.5·10¹² ns, whose L1 norms
/// (~1.1·10¹⁶) sit above 2⁵³ where one ulp is 2 ns.  `delta` shifts every
/// event end, so two members at deltas `d₁, d₂` differ by `1500·|d₁ − d₂|`
/// in L1 — with all segment durations *equal*, so the duration window
/// admits everything and correctness rests entirely on the kernels'
/// norm-gap and sup-gap prefilters and their early abandons.
fn large_norm_segment_events(delta: u64) -> Vec<Event> {
    (0..1500u64)
        .map(|i| {
            let start = i * 5_000_000_000;
            let end = start + 3_999_999_000 + delta;
            Event::compute(
                RegionId((i % 4) as u32),
                Time::from_nanos(start),
                Time::from_nanos(end),
            )
        })
        .collect()
}

fn large_norm_bucket_trace(deltas: &[u64]) -> AppTrace {
    let mut app = AppTrace::new("norm-slack", 1);
    let region_names: Vec<_> = (0..4).map(|i| format!("r{i}")).collect();
    for name in &region_names {
        app.regions.intern(name);
    }
    let context = app.contexts.intern("loop.big");
    let duration = 1500 * 5_000_000_000u64;
    let rank = &mut app.ranks[0];
    let mut now = 0u64;
    for &delta in deltas {
        rank.begin_segment(context, Time::from_nanos(now));
        for event in large_norm_segment_events(delta) {
            rank.push_event(Event::compute(
                event.region,
                event.start + Time::from_nanos(now),
                event.end + Time::from_nanos(now),
            ));
        }
        rank.end_segment(context, Time::from_nanos(now + duration));
        now += duration + 1_000_000;
    }
    app
}

const METRIC_METHODS: [Method; 5] = [
    Method::Manhattan,
    Method::Euclidean,
    Method::Chebyshev,
    Method::AvgWave,
    Method::HaarWave,
];

#[test]
fn norm_gap_prefilters_are_admissible_for_long_large_timestamp_segments() {
    // Ten stored representatives (past the small-bucket fallback, so the
    // window runs and admits them all) separated by 1 ms steps, then three
    // probes 3 ns off stored members — the exact regime where a
    // multiplicative margin on a norm gap is inadmissible.  Bounds sweep the ns-scale decision boundaries of
    // every metric (Chebyshev flips at 3 ns, Euclidean at ~116 ns,
    // Manhattan at 4 500 ns).
    let deltas: Vec<u64> = (0..10u64)
        .map(|i| i * 1_000_000)
        .chain([3u64, 2_000_003, 9_000_003])
        .collect();
    let app = large_norm_bucket_trace(&deltas);
    let max = 1500.0 * 5.0e9; // the largest measurement (segment end)
    for method in METRIC_METHODS {
        for bound_ns in [
            1.0f64, 2.0, 3.0, 3.5, 4.0, 115.0, 117.0, 4_499.0, 4_500.0, 4_501.0, 1e6,
        ] {
            let config = MethodConfig::new(method, bound_ns / max);
            assert_equivalent(config, &app, &format!("{method} at a {bound_ns} ns bound"));
        }
    }
}

#[test]
fn duration_window_is_admissible_for_large_duration_gaps() {
    // Committed counterexample for the window endpoint arithmetic: with a
    // center (duration) near 7.5·10¹² and a threshold whose exact bound
    // is a few ns, computing `center − τ·extent` cancels catastrophically
    // — a window widened only by a *result*-scaled epsilon would exclude
    // a boundary match the kernel accepts.  Durations 3 ns apart at that
    // magnitude must match or mismatch identically through the index.
    // Enough family members that the stored set crosses the small-bucket
    // fallback at the ns-scale bounds where nothing matches.
    let base = 7_500_000_000_000u64;
    let app = rank_of_durations(&[
        base,
        base + 3,
        base + 7,
        base + 13,
        base + 29,
        base + 1_000_000,
        base + 1_000_003,
        base + 1_000_010,
        base + 500_000_000,
        base + 2_000_000_003,
        base + 2_000_000_010,
        base + 2_500_000_000,
    ]);
    for method in METRIC_METHODS {
        for bound_ns in [1.0f64, 2.0, 3.0, 4.0, 6.0, 7.0, 1e6] {
            let config = MethodConfig::new(method, bound_ns / base as f64);
            assert_equivalent(config, &app, &format!("{method} at a {bound_ns} ns bound"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_path_is_bit_identical_on_random_traces(rank_specs in specs_strategy()) {
        let app = trace_from_specs("indexed", &rank_specs);
        prop_assert!(app.is_well_formed());
        for config in all_configs() {
            assert_equivalent(config, &app, &config.label());
        }
    }

    #[test]
    fn indexed_path_is_bit_identical_at_random_thresholds(
        rank_specs in specs_strategy(),
        threshold in 0.0..2.0f64,
    ) {
        let app = trace_from_specs("indexed", &rank_specs);
        for method in Method::ALL {
            let config = MethodConfig::new(method, threshold);
            assert_equivalent(config, &app, &format!("{method} at {threshold}"));
        }
    }

    #[test]
    fn norm_gap_prefilters_are_admissible_under_accumulation_error(
        deltas in prop::collection::vec(0u64..1_000_000_000, 9..13),
        probe_offset in 0u64..8,
        probe_jitter in 0u64..16,
        bound_ns in 1.0..10_000.0f64,
    ) {
        // Random large-norm buckets: enough members to engage the window,
        // a probe a few ns off a random stored member, and a random
        // ns-scale bound.  Every decision the naive kernels make must
        // survive the prefilters bit-identically.
        let mut all: Vec<u64> = deltas.clone();
        let target = deltas[(probe_offset as usize) % deltas.len()];
        all.push(target.saturating_add(probe_jitter));
        let app = large_norm_bucket_trace(&all);
        let max = 1500.0 * 5.0e9;
        for method in METRIC_METHODS {
            let config = MethodConfig::new(method, bound_ns / max);
            assert_equivalent(config, &app, &format!("{method} at {bound_ns} ns"));
        }
    }
}
