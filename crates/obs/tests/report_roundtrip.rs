//! Property tests: randomly recorded runs survive the JSON schema
//! round-trip losslessly, every sink renders without panicking, and the
//! chrome://tracing writer and reader are each other's inverse.

use std::sync::Arc;

use proptest::prelude::*;
use trace_obs::chrome::{self, ChromeEvent};
use trace_obs::{json, Clock, ManualClock, Recorder, RunReport, Stage};

/// Names a random run can record against (the report schema does not care
/// which names exist, only that they are stable strings).
const COUNTER_NAMES: [&str; 3] = [
    trace_obs::names::MATCH_COMPARISONS,
    trace_obs::names::STREAM_SEGMENTS,
    trace_obs::names::CHUNK_READS,
];
const GAUGE_NAMES: [&str; 2] = [
    trace_obs::names::STREAM_PEAK_CHUNK_BYTES,
    trace_obs::names::STREAM_PEAK_RESIDENT_SEGMENTS,
];

struct ArcClock(Arc<ManualClock>);

impl Clock for ArcClock {
    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }
}

/// Replays `ops` through a sharded recorder and snapshots the report.
/// Each op: (kind, name selector, value).
fn record_run(shards: usize, ops: &[(u8, u8, u64)]) -> RunReport {
    let clock = Arc::new(ManualClock::new(0));
    let recorder = Recorder::with_clock(ArcClock(Arc::clone(&clock)));
    let mut handles: Vec<_> = (0..shards).map(|_| recorder.shard()).collect();
    for (i, &(kind, name, value)) in ops.iter().enumerate() {
        let shard = &mut handles[i % shards];
        match kind % 4 {
            0 => shard.add(COUNTER_NAMES[name as usize % COUNTER_NAMES.len()], value),
            1 => shard.gauge_max(GAUGE_NAMES[name as usize % GAUGE_NAMES.len()], value),
            2 => shard.observe("segment.len", value),
            _ => {
                let span = shard.start();
                clock.advance(value);
                let stage = Stage::ALL[name as usize % Stage::ALL.len()];
                shard.end(stage, span);
            }
        }
    }
    drop(handles);
    recorder.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn json_round_trip_is_lossless(
        shards in 1usize..4,
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000_000), 0..64),
    ) {
        let report = record_run(shards, &ops);
        let rendered = report.render_json();
        let back = RunReport::from_json(&rendered).expect("own output validates");
        prop_assert_eq!(&back, &report);
        // Re-rendering the parsed report is byte-identical: the schema has
        // one canonical serialization.
        prop_assert_eq!(back.render_json(), rendered);
    }

    #[test]
    fn every_sink_renders_and_chrome_trace_is_parseable(
        shards in 1usize..4,
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 0..48),
    ) {
        let report = record_run(shards, &ops);
        let text = report.render_text();
        prop_assert!(text.starts_with("== run report =="));
        // The chrome trace export is JSON the one reader accepts as it is,
        // and reads back as one event per span with exact times.
        let trace = report.render_chrome_trace();
        prop_assert!(json::parse(&trace).is_ok(), "{trace}");
        let events = chrome::parse(&trace).expect("own output parses");
        let lanes: Vec<_> = events
            .iter()
            .map(|e| (e.name.as_str(), e.tid, e.ts_ns, e.dur_ns))
            .collect();
        let spans: Vec<_> = report
            .spans
            .iter()
            .map(|s| (s.stage.name(), u64::from(s.shard), s.start_ns, s.dur_ns))
            .collect();
        prop_assert_eq!(lanes, spans);
    }

    #[test]
    fn chrome_documents_round_trip_and_damaged_ones_never_panic(
        events in prop::collection::vec(chrome_event(), 0..6),
        mask in 1u8..u8::MAX,
    ) {
        let document = chrome::render(&events);
        let back = chrome::parse(&document).expect("own output parses");
        prop_assert_eq!(&back, &events);
        prop_assert_eq!(chrome::render(&back), document);
        // Every truncation and every single-byte flip is a value, Ok or
        // Err, never a panic.
        for cut in (0..document.len()).filter_map(|end| document.get(..end)) {
            let _ = chrome::parse(cut);
        }
        for at in 0..document.len() {
            let mut bytes = document.as_bytes().to_vec();
            bytes[at] ^= mask;
            if let Ok(flipped) = String::from_utf8(bytes) {
                let _ = chrome::parse(&flipped);
            }
        }
    }
}

/// Names and categories over the characters the writer must escape:
/// quotes, backslashes, control characters and non-ASCII.
fn chrome_text() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 10] = ['a', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', '☃', '😀'];
    prop::collection::vec(any::<u8>(), 0..8).prop_map(|picks| {
        picks
            .iter()
            .map(|&pick| ALPHABET[usize::from(pick) % ALPHABET.len()])
            .collect()
    })
}

/// Lanes and times over all of `u64`, its bounds included.
fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), Just(u64::MAX), 0u64..2_000]
}

fn chrome_event() -> impl Strategy<Value = ChromeEvent> {
    (
        chrome_text(),
        chrome_text(),
        any_u64(),
        any_u64(),
        any_u64(),
        any_u64(),
    )
        .prop_map(|(name, cat, pid, tid, ts_ns, dur_ns)| ChromeEvent {
            name,
            cat,
            pid,
            tid,
            ts_ns,
            dur_ns,
        })
}
