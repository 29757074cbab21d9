//! Workspace smoke test: every facade re-export resolves and the crates
//! compose — generate a workload with `sim`, reduce it with `reduce`,
//! round-trip both traces through `format`, and encode with `model`'s
//! binary codec, all through the `trace_reduction` umbrella crate only.

use trace_reduction::format::{
    parse_app_trace, parse_reduced_trace, write_app_trace, write_reduced_trace,
};
use trace_reduction::model::codec::{decode_app_trace, encode_app_trace};
use trace_reduction::reduce::{Method, MethodConfig, Reducer};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

#[test]
fn facade_generates_reduces_and_round_trips() {
    // sim: a tiny deterministic workload with a known behaviour.
    let full = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
    assert!(full.rank_count() > 0);
    assert!(full.total_events() > 0);

    // reduce: similarity-based reduction at the paper's default threshold.
    let reducer = Reducer::new(MethodConfig::with_default_threshold(Method::AvgWave));
    let reduced = reducer.reduce_app(&full);
    assert_eq!(reduced.rank_count(), full.rank_count());

    // format: both trace kinds survive a text round trip.
    let full_again = parse_app_trace(&write_app_trace(&full)).expect("full trace text round trip");
    assert_eq!(full, full_again);
    let reduced_again =
        parse_reduced_trace(&write_reduced_trace(&reduced)).expect("reduced trace text round trip");
    assert_eq!(reduced, reduced_again);

    // model: the binary codec agrees with the text path.
    let decoded = decode_app_trace(&encode_app_trace(&full)).expect("binary round trip");
    assert_eq!(full, decoded);

    // reconstruction stays within the structure of the original.
    let approx = reduced.reconstruct();
    assert_eq!(approx.rank_count(), full.rank_count());
    assert_eq!(approx.total_events(), full.total_events());
}

#[test]
fn facade_modules_all_resolve() {
    // One symbol per re-exported crate, so a dropped facade wire fails here
    // at compile time.
    let _ = trace_reduction::analysis::MetricKind::ExecutionTime;
    let _ = trace_reduction::eval::Original::evaluate;
    let _ = trace_reduction::format::parse_app_trace;
    let _ = trace_reduction::model::Time::from_nanos(1);
    let _ = trace_reduction::reduce::Method::AvgWave;
    let _ = trace_reduction::sim::SizePreset::Tiny;
    let _ = trace_reduction::wavelet::next_power_of_two(3);
}
