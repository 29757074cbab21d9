//! Integration tests for the text trace format: every workload and every
//! reduction method must round trip losslessly, and the text form must stay
//! consistent with the binary container.

use trace_reduction::container::{decode_app_any, encode_app_container, ChunkSpec};
use trace_reduction::format::{
    parse_app_trace, parse_reduced_trace, write_app_trace, write_reduced_trace,
};
use trace_reduction::reduce::{Method, Reducer};
use trace_reduction::sim::{SizePreset, Workload};

#[test]
fn all_eighteen_workloads_round_trip_through_the_text_format() {
    for workload in Workload::all(SizePreset::Tiny) {
        let app = workload.generate();
        let text = write_app_trace(&app);
        let parsed = parse_app_trace(&text).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(parsed, app, "{}", workload.name());
    }
}

#[test]
fn text_and_binary_formats_agree_on_the_same_trace() {
    let app = Workload::all(SizePreset::Tiny)[0].generate();
    let via_text = parse_app_trace(&write_app_trace(&app)).unwrap();
    let via_binary = decode_app_any(&encode_app_container(&app, ChunkSpec::default())).unwrap();
    assert_eq!(via_text, via_binary);
}

#[test]
fn reduced_traces_from_every_method_round_trip() {
    let app = Workload::all(SizePreset::Tiny)[2].generate();
    for method in Method::ALL {
        let reduced = Reducer::with_default_threshold(method).reduce_app(&app);
        let text = write_reduced_trace(&reduced);
        let parsed = parse_reduced_trace(&text).unwrap_or_else(|e| panic!("{method}: {e}"));
        assert_eq!(parsed, reduced, "{method}");
        // The round-tripped reduced trace reconstructs to the same
        // approximation as the original reduced trace.
        assert_eq!(
            parsed.reconstruct().total_events(),
            reduced.reconstruct().total_events(),
            "{method}"
        );
    }
}

#[test]
fn text_format_is_line_oriented_and_greppable() {
    // A smoke test of the property the format exists for: someone can grep a
    // trace for a function name and find one line per event.
    let app = Workload::all(SizePreset::Tiny)[0].generate();
    let text = write_app_trace(&app);
    let barrier_region = app
        .regions
        .lookup("MPI_Gather")
        .or_else(|| app.regions.lookup("MPI_Recv"));
    if let Some(region) = barrier_region {
        let expected: usize = app
            .ranks
            .iter()
            .map(|r| r.events().filter(|e| e.region == region).count())
            .sum();
        let event_lines = text
            .lines()
            .filter(|l| l.starts_with(&format!("EVENT {} ", region.as_u32())))
            .count();
        assert_eq!(event_lines, expected);
    }
}
