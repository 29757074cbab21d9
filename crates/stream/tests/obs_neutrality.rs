//! Acceptance test: observability is behaviour-neutral, and every driver
//! drains its counters exactly once.
//!
//! A `Reducer` carries the recorder and every driver is one function of
//! `(&Reducer, source[, workers])`, so both claims are properties over
//! *source × workers × recorder* — the in-memory trace, a text stream, a
//! container stream, a container file through its index, and a file of
//! either format through the magic-byte dispatch:
//!
//! * **Neutral.**  The reduced trace produced under an enabled recorder is
//!   bit-identical to the one produced with recording off.  The comparison
//!   is on the *encoded bytes*, not just `PartialEq`, so even an ordering or
//!   serialization drift would fail, and each enabled run is asserted to
//!   have actually recorded, so the claim is never vacuous.
//! * **Drained once.**  The run report's counters equal the counters the
//!   driver returns, field by field, and there is one span per rank — the
//!   guard against a double drain when one driver calls another.  A source
//!   adds its decode spans, whose counts are facts of the file, whatever the
//!   worker count.  A container gives one `ChunkIo` span per chunk read, one
//!   `Parse` span per `RECORDS` chunk and one `Compress` span per chunk
//!   stored under an LZ codec; text gives one `Parse` span per batch of
//!   records.

use std::io::Cursor;
use std::path::PathBuf;

use trace_container::{encode_app_container, encode_reduced_container, ChunkSpec, Codec};
use trace_model::{AppTrace, ReducedAppTrace};
use trace_obs::{names, Recorder, RunReport, Stage};
use trace_reduce::{reduce_app_parallel_with_stats, MatchStats, Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::parser::BATCH_RECORDS;
use trace_stream::{
    reduce_any_file, reduce_container_file, reduce_container_stream, reduce_stream,
    reduce_stream_sharded, StreamError, StreamReduction, StreamStats,
};

/// One workload in every form a driver can read it from.
struct Sources {
    app: AppTrace,
    text: Vec<u8>,
    container: Vec<u8>,
    /// `RECORDS` chunks in `container`, and how many of them kept an LZ
    /// codec (the writer stores a chunk raw when compression does not pay).
    records_chunks: usize,
    lz_chunks: usize,
    /// Batches the text parser fills: a rank of `r` records takes
    /// `ceil(r / BATCH_RECORDS)`, a batch ending early only at `END_RANK`.
    text_batches: usize,
    text_file: PathBuf,
    v2_file: PathBuf,
}

/// `(RECORDS chunks, of them LZ-coded)` of a container, off its framing.
fn count_records_chunks(container: &[u8]) -> (usize, usize) {
    let (mut records, mut lz) = (0, 0);
    let mut pos = 6;
    while pos < container.len() - 12 {
        let len = u32::from_le_bytes(container[pos + 2..pos + 6].try_into().unwrap()) as usize;
        if container[pos] == 3 {
            records += 1;
            let codec = Codec::from_byte(container[pos + 1]).unwrap();
            lz += usize::from(matches!(codec, Codec::Lz | Codec::DeltaLz));
        }
        pos += 10 + len;
    }
    (records, lz)
}

impl Sources {
    fn new(kind: WorkloadKind, tag: &str) -> Sources {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        let text = trace_format::write_app_trace(&app).into_bytes();
        let spec = ChunkSpec::with_segments(8).codec(Codec::DeltaLz);
        let container = encode_app_container(&app, spec);
        let (records_chunks, lz_chunks) = count_records_chunks(&container);
        assert!(lz_chunks > 0 && records_chunks > app.rank_count());
        let ranks = app.ranks.iter();
        let text_batches = ranks.map(|rank| rank.records.len().div_ceil(BATCH_RECORDS));
        let text_batches = text_batches.sum();
        assert!(text_batches >= app.rank_count());
        let file = |name: &str, bytes: &[u8]| {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "obs_neutrality_{}_{tag}_{name}",
                std::process::id()
            ));
            std::fs::write(&path, bytes).unwrap();
            path
        };
        Sources {
            text_file: file("in.txt", &text),
            v2_file: file("in_v2.trc", &container),
            app,
            text,
            container,
            records_chunks,
            lz_chunks,
            text_batches,
        }
    }
}

impl Drop for Sources {
    fn drop(&mut self) {
        for path in [&self.text_file, &self.v2_file] {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// What one run hands back: the reduced trace and the counters the driver
/// returned (`stream` is `None` for the in-memory drivers).
struct Outcome {
    reduced: ReducedAppTrace,
    matching: MatchStats,
    stream: Option<StreamStats>,
}

/// Which spans a driver records.  Per rank, every driver runs the one fused
/// record loop and records one `Rank` span, and none records a `Segment` or
/// a `Match` span.  For its input: one `Parse` span per batch for text, the
/// per-chunk spans for a container, none for a trace in memory.
#[derive(Clone, Copy)]
enum Spans {
    FusedText,
    FusedContainer,
    InMemory,
}

type Driver<'a> = (&'a str, Spans, Box<dyn Fn(&Reducer) -> Outcome + 'a>);

fn drivers(src: &Sources) -> Vec<Driver<'_>> {
    fn in_memory((reduced, matching): (ReducedAppTrace, MatchStats)) -> Outcome {
        Outcome {
            reduced,
            matching,
            stream: None,
        }
    }
    fn streamed(reduction: Result<StreamReduction, StreamError>) -> Outcome {
        let reduction = reduction.unwrap();
        Outcome {
            reduced: reduction.reduced,
            matching: reduction.stats.matching,
            stream: Some(reduction.stats),
        }
    }
    let text = || Cursor::new(src.text.as_slice());
    vec![
        (
            "in memory, 1 worker",
            Spans::InMemory,
            Box::new(|r| in_memory(reduce_app_parallel_with_stats(r, &src.app, 1))),
        ),
        (
            "in memory, 4 workers",
            Spans::InMemory,
            Box::new(|r| in_memory(reduce_app_parallel_with_stats(r, &src.app, 4))),
        ),
        (
            "text stream",
            Spans::FusedText,
            Box::new(move |r| streamed(reduce_stream(r, text()))),
        ),
        (
            "text stream, 3 shards",
            Spans::FusedText,
            Box::new(move |r| streamed(reduce_stream_sharded(r, 3, |_| Ok(text())))),
        ),
        (
            "container stream",
            Spans::FusedContainer,
            Box::new(|r| streamed(reduce_container_stream(r, Cursor::new(&src.container[..])))),
        ),
        (
            "container file, 1 worker",
            Spans::FusedContainer,
            Box::new(|r| streamed(reduce_container_file(r, &src.v2_file, 1))),
        ),
        (
            "container file, 2 workers",
            Spans::FusedContainer,
            Box::new(|r| streamed(reduce_container_file(r, &src.v2_file, 2))),
        ),
        (
            "container file, 3 workers",
            Spans::FusedContainer,
            Box::new(|r| streamed(reduce_container_file(r, &src.v2_file, 3))),
        ),
        (
            "any file: text, 2 shards",
            Spans::FusedText,
            Box::new(|r| streamed(reduce_any_file(r, &src.text_file, 2).map(|(r, _)| r))),
        ),
        (
            "any file: v2, 2 shards",
            Spans::FusedContainer,
            Box::new(|r| streamed(reduce_any_file(r, &src.v2_file, 2).map(|(r, _)| r))),
        ),
    ]
}

#[test]
fn recording_never_changes_the_reduction_for_any_method_or_driver() {
    let src = Sources::new(WorkloadKind::DynLoadBalance, "neutral");
    for method in Method::ALL {
        let config = MethodConfig::with_default_threshold(method);
        for (driver, _, drive) in drivers(&src) {
            let off = drive(&Reducer::new(config));
            let recorder = Recorder::enabled();
            let on = drive(&Reducer::new(config).with_recorder(&recorder));
            assert_eq!(
                encode_reduced_container(&off.reduced, ChunkSpec::default()),
                encode_reduced_container(&on.reduced, ChunkSpec::default()),
                "{method} / {driver}: recording changed the reduced bytes"
            );
            assert!(
                !recorder.report().is_empty(),
                "{method} / {driver}: the enabled run recorded nothing — the \
                 neutrality assertion would be vacuous"
            );
        }
    }
}

/// Asserts that `report` carries exactly the counters `outcome` returned,
/// and the spans `spans` says a driver over `src` records.
fn assert_drained_once(
    what: &str,
    spans: Spans,
    src: &Sources,
    report: &RunReport,
    outcome: &Outcome,
) {
    let span_count = |stage: Stage| report.spans.iter().filter(|s| s.stage == stage).count();
    let check = |kind: &str, found: Option<&u64>, name: &str, want: usize| {
        assert_eq!(found.copied(), Some(want as u64), "{what}: {kind} {name}");
    };
    let counter = |name: &str, want: usize| check("counter", report.counters.get(name), name, want);
    let gauge = |name: &str, want: usize| check("gauge", report.gauges.get(name), name, want);

    let matching = &outcome.matching;
    counter(names::MATCH_COMPARISONS, matching.comparisons);
    counter(names::MATCH_ELIGIBLE, matching.eligible);
    counter(names::MATCH_MATCHES, matching.matches);
    counter(
        names::MATCH_INDEX_WINDOW_PRUNES,
        matching.index_window_prunes,
    );
    assert!(
        !report
            .counters
            .contains_key(names::MATCH_INDEX_PIVOT_PRUNES),
        "{what}: nothing emits the retired pivot-prune counter"
    );

    let ranks = outcome.reduced.rank_count();
    if let Some(stats) = &outcome.stream {
        counter(names::STREAM_RANKS, stats.ranks);
        counter(names::STREAM_EVENTS, stats.events);
        counter(names::STREAM_SEGMENTS, stats.segments);
        counter(names::STREAM_STORED, stats.stored);
        counter(names::STREAM_EXECS, stats.execs);
        counter(names::STREAM_ORPHAN_EVENTS, stats.orphan_events);
        counter(
            names::STREAM_UNTERMINATED_SEGMENTS,
            stats.unterminated_segments,
        );
        gauge(
            names::STREAM_PEAK_RESIDENT_SEGMENTS,
            stats.peak_resident_segments,
        );
        gauge(names::STREAM_PEAK_CHUNK_BYTES, stats.peak_chunk_bytes);
        let passed = usize::try_from(stats.passed_bytes).unwrap();
        counter(names::STREAM_PASSED_BYTES, passed);
        assert!(passed <= src.text.len(), "{what}: {passed} bytes passed");
        if matches!(spans, Spans::FusedContainer) {
            assert_eq!(passed, 0, "{what}: a container passes nothing");
        }
        assert_eq!(stats.ranks, ranks, "{what}: every rank is counted");
        assert_eq!(stats.stored, outcome.reduced.total_stored(), "{what}");
        assert_eq!(stats.execs, outcome.reduced.total_execs(), "{what}");
    } else {
        assert!(
            !report.counters.contains_key(names::STREAM_RANKS),
            "{what}: an in-memory run streams nothing"
        );
    }
    // One span per rank: a driver that re-ran or re-drained a rank shows here.
    assert_eq!(span_count(Stage::Rank), ranks, "{what}: rank spans");
    assert_eq!(span_count(Stage::Segment), 0, "{what}: segment");
    assert_eq!(span_count(Stage::Match), 0, "{what}: match");
    // The input's spans, however many workers shared its sections: per
    // chunk for a container, per batch for text.
    let (parse, lz) = match spans {
        Spans::FusedContainer => (src.records_chunks, src.lz_chunks),
        Spans::FusedText => (src.text_batches, 0),
        Spans::InMemory => (0, 0),
    };
    assert_eq!(span_count(Stage::Parse), parse, "{what}: parse spans");
    assert_eq!(span_count(Stage::Compress), lz, "{what}: compress spans");
    let chunk_reads = report
        .counters
        .get(names::CHUNK_READS)
        .copied()
        .unwrap_or(0);
    assert_eq!(span_count(Stage::ChunkIo) as u64, chunk_reads, "{what}");
}

#[test]
fn enabled_reports_carry_the_drained_pipeline_counters() {
    let src = Sources::new(WorkloadKind::LateSender, "drain");
    // The bytes each driver passes: a fact of the file and the worker
    // count, so the same under every method.
    let mut passed = std::collections::BTreeMap::new();
    for method in [Method::AvgWave, Method::RelDiff, Method::IterK] {
        let config = MethodConfig::with_default_threshold(method);
        for (driver, spans, drive) in drivers(&src) {
            let recorder = Recorder::enabled();
            let outcome = drive(&Reducer::new(config).with_recorder(&recorder));
            let what = format!("{method} / {driver}");
            assert_drained_once(&what, spans, &src, &recorder.report(), &outcome);
            if let Some(stats) = &outcome.stream {
                let first = *passed.entry(driver).or_insert(stats.passed_bytes);
                assert_eq!(stats.passed_bytes, first, "{what}: bytes passed");
            }
        }
    }
    assert_eq!(passed["text stream"], 0, "one worker passes nothing");
    assert!(passed["text stream, 3 shards"] > 0, "{passed:?}");
}

#[test]
fn malformed_marker_counters_are_identical_across_input_formats() {
    // One event before the first SEG_BEGIN (an orphan) and one segment with
    // no SEG_END (unterminated): both formats must report both, and the same
    // `stream.*` / `match.*` counters altogether.  The two peaks are gauges
    // and legitimately differ (a text stream reads no chunks).
    let text = "TRACEFORMAT 1\nTRACE RANKS 1 NAME odd\nREGION 0 work\nCONTEXT 0 main.1\n\
                RANK 0\nEVENT 0 5 9 0 COMPUTE\nSEG_BEGIN 0 10\nEVENT 0 20 90 0 COMPUTE\n\
                SEG_END 0 100\nSEG_BEGIN 0 100\nEVENT 0 110 190 0 COMPUTE\nEND_RANK\n\
                END_TRACE\n";
    assert_eq!(text.lines().count(), 13);
    let app = trace_format::parse_app_trace(text).unwrap();
    let inputs = [
        ("odd.txt", text.as_bytes().to_vec()),
        (
            "odd_v2.trc",
            encode_app_container(&app, ChunkSpec::default()),
        ),
    ];
    let runs: Vec<_> = inputs
        .iter()
        .map(|(name, bytes)| {
            let mut path = std::env::temp_dir();
            path.push(format!("obs_neutrality_{}_{name}", std::process::id()));
            std::fs::write(&path, bytes).unwrap();
            let recorder = Recorder::enabled();
            let reducer = Reducer::with_default_threshold(Method::RelDiff).with_recorder(&recorder);
            let (reduction, _) = reduce_any_file(&reducer, &path, 1).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(reduction.stats.orphan_events, 1, "{name}");
            assert_eq!(reduction.stats.unterminated_segments, 1, "{name}");
            let counters: std::collections::BTreeMap<String, u64> = recorder
                .report()
                .counters
                .into_iter()
                .filter(|(key, _)| key.starts_with("stream.") || key.starts_with("match."))
                .collect();
            assert_eq!(counters[names::STREAM_ORPHAN_EVENTS], 1, "{name}");
            assert_eq!(counters[names::STREAM_UNTERMINATED_SEGMENTS], 1, "{name}");
            (counters, reduction.reduced)
        })
        .collect();
    assert_eq!(runs[0], runs[1], "text vs v2");
}
