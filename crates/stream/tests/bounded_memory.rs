//! Acceptance test: the streaming reducer's resident state is bounded by
//! stored representatives + in-flight segments, on a generated trace at
//! least 10× larger than that bound (ISSUE 2 acceptance criterion).

use std::io::Cursor;

use trace_format::parse_app_trace;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_any_file, reduce_stream};

/// Generates an amplified Late Sender trace (the run replayed back-to-back)
/// directly into a byte buffer via the sim's writer integration.
fn amplified_text(repeats: usize) -> Vec<u8> {
    Workload::new(WorkloadKind::LateSender, SizePreset::Tiny)
        .write_text_amplified_to(Vec::new(), repeats)
        .expect("writing to a Vec cannot fail")
}

#[test]
fn resident_state_stays_an_order_of_magnitude_below_the_stream() {
    let text = amplified_text(60);
    let config = MethodConfig::with_default_threshold(Method::AvgWave);
    let streamed = reduce_stream(&Reducer::new(config), Cursor::new(text.as_slice())).unwrap();

    // The amplified trace streams ≥ 10× more segments than the reducer
    // ever holds at once (stored representatives + one in-flight segment
    // per active rank — ranks are streamed one at a time here).
    let bound = streamed.stats.stored + 1;
    assert!(streamed.stats.peak_resident_segments <= bound);
    assert!(
        streamed.stats.segments >= 10 * streamed.stats.peak_resident_segments,
        "trace too small for the claim: {} segments vs peak resident {}",
        streamed.stats.segments,
        streamed.stats.peak_resident_segments
    );

    // Semantically identical to materializing the whole trace and reducing
    // it in memory.
    let app = parse_app_trace(std::str::from_utf8(&text).unwrap()).unwrap();
    let in_memory = Reducer::new(config).reduce_app(&app);
    assert_eq!(streamed.reduced, in_memory);
}

#[test]
fn big_trace_end_to_end_through_a_file_with_shards() {
    let text = amplified_text(40);
    let mut path = std::env::temp_dir();
    path.push(format!("trace_stream_big_{}.txt", std::process::id()));
    std::fs::write(&path, &text).unwrap();

    let config = MethodConfig::with_default_threshold(Method::RelDiff);
    let sequential = reduce_stream(&Reducer::new(config), Cursor::new(text.as_slice())).unwrap();
    let (sharded, _) = reduce_any_file(&Reducer::new(config), &path, 4).unwrap();
    assert_eq!(sharded.reduced, sequential.reduced);
    // Every shard obeys the per-worker bound; the merged peak is the sum of
    // concurrent workers, still far below the streamed segment count.
    assert!(sharded.stats.segments >= 10 * sharded.stats.peak_resident_segments);

    let _ = std::fs::remove_file(&path);
}
