//! Converting a full trace to a container without loading it.
//!
//! [`convert_text`] and [`convert_container`] read their input front to
//! back and write the same trace as an app container through the one
//! section writer, [`trace_container::write_sections`].  Workers claim
//! rank indices; each copies its rank's records out of the one shared
//! source under a lock, into a buffer it reuses, and encodes the section
//! outside the lock, while the calling thread stitches finished sections
//! into the sink in rank order.  Reading is serial, because a rank's
//! records follow the previous rank's in the input, but encoding is not:
//! reading rank k + 1 overlaps encoding rank k.  Resident memory is, per
//! worker, one rank's records and one section, never the whole trace.
//!
//! The source is a turnstile: a worker holding claim k + 1 waits until
//! rank k has been read, so sections never come out swapped.  After the
//! last claim the source is read on to its trailer, so a header that
//! declares too many or too few ranks, or a missing trailer, is the same
//! typed error the whole-trace parsers give.

use std::io::{self, BufRead, Read, Write};
use std::sync::{Condvar, Mutex};

use trace_container::{write_sections, ChunkSpec, ChunkWriter};
use trace_model::{Rank, TraceRecord};
use trace_obs::{ObsShard, Recorder, Stage, WorkerPanic};

use crate::binary::ContainerSource;
use crate::error::StreamError;
use crate::parser::{AppItem, StreamParser};
use crate::reduce::next_section;
use crate::source::AppItemSource;

/// Converts a text trace read from `reader` into an app container written
/// to `out` on up to `workers` workers, returning the sink.  The bytes
/// equal `encode_app_container(&parse_app_trace(text)?, spec)` whatever
/// the worker count.  What is wrong with the input is the error the
/// streaming parser gives; a failing sink is a [`StreamError::Sink`].  Each
/// worker records its locked reads as [`Stage::Parse`] spans and its chunk
/// encodes as the container writer does.
pub fn convert_text<R: BufRead + Send, W: Write>(
    reader: R,
    out: W,
    spec: ChunkSpec,
    recorder: &Recorder,
    workers: usize,
) -> Result<W, StreamError> {
    let parser = StreamParser::new(reader)?;
    let tables = parser.tables();
    let (regions, contexts) = (tables.regions.names(), tables.contexts.names());
    let n = tables.declared_ranks;
    let writer = ChunkWriter::app(out, &tables.name, n, regions, contexts, spec)
        .map_err(StreamError::Sink)?;
    convert(parser, writer, n, recorder, workers)
}

/// Converts an app container read from `reader` into one written to `out`
/// under `spec`, like [`convert_text`]: the bytes equal those of
/// re-encoding the decoded trace.  The locked reads are the `parse` spans;
/// the source's chunk reads record nothing of their own.
pub fn convert_container<R: Read + Send, W: Write>(
    reader: R,
    out: W,
    spec: ChunkSpec,
    recorder: &Recorder,
    workers: usize,
) -> Result<W, StreamError> {
    let source = ContainerSource::new(reader)?;
    let tables = source.tables()?;
    let (regions, contexts) = (tables.regions.names(), tables.contexts.names());
    let n = tables.declared_ranks;
    let writer = ChunkWriter::app(out, &tables.name, n, regions, contexts, spec)
        .map_err(StreamError::Sink)?;
    convert(source, writer, n, recorder, workers)
}

/// Writes the `n` rank sections `source` holds through `writer` on up to
/// `workers` workers (never more than `n`), then reads `source` on to its
/// trailer.
fn convert<S: AppItemSource + Send, W: Write>(
    source: S,
    writer: ChunkWriter<W>,
    n: usize,
    recorder: &Recorder,
    workers: usize,
) -> Result<W, StreamError> {
    let turnstile = Turnstile {
        reader: Mutex::new(Reader {
            source,
            read: 0,
            failure: None,
        }),
        turn: Condvar::new(),
    };
    let scratch = (0..workers.clamp(1, n.max(1)))
        .map(|_| (Vec::new(), recorder.shard()))
        .collect();
    let written = write_sections(
        writer,
        n,
        scratch,
        recorder,
        |section, (records, obs), index| {
            let rank = turnstile.read(index, records, obs)?;
            section.begin_rank(rank)?;
            records
                .iter()
                .try_for_each(|record| section.record(record))?;
            section.end_rank()
        },
    );
    // A worker that panicked while reading poisons the reader.
    let Ok(reader) = turnstile.reader.into_inner() else {
        return Err(WorkerPanic(Box::new("the reader was poisoned")).into());
    };
    if let Some(failure) = reader.failure {
        return Err(failure);
    }
    let out = written.map_err(StreamError::Sink)?;
    let mut source = reader.source;
    while source.next_item()?.is_some() {}
    Ok(out)
}

/// The one source every worker reads from, one rank section per turn in
/// rank order.
struct Turnstile<S> {
    reader: Mutex<Reader<S>>,
    /// Signalled whenever a read ends, so the worker whose turn is next
    /// (or every worker, once the input has failed) wakes up.
    turn: Condvar,
}

struct Reader<S> {
    source: S,
    /// Rank sections read so far: the claim whose turn it is.
    read: usize,
    /// What stopped the reading, which is the run's error.
    failure: Option<StreamError>,
}

/// What a worker returns once the input has failed; the run then reports
/// the input's own error instead.
fn input_failed() -> io::Error {
    io::Error::other("the trace input failed")
}

/// Wakes every worker waiting for its turn when dropped, however the read
/// that holds it ends.
struct WakeOnDrop<'a>(&'a Condvar);

impl Drop for WakeOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

impl<S: AppItemSource> Turnstile<S> {
    /// Waits until the `index` rank sections before claim `index` have been
    /// read, then copies the next one's records into `records` under one
    /// [`Stage::Parse`] span and returns its rank.
    fn read(
        &self,
        index: usize,
        records: &mut Vec<TraceRecord>,
        obs: &mut ObsShard,
    ) -> io::Result<Rank> {
        let _wake = WakeOnDrop(&self.turn);
        let mut reader = self.reader.lock().map_err(|_| input_failed())?;
        while reader.read < index && reader.failure.is_none() {
            reader = self.turn.wait(reader).map_err(|_| input_failed())?;
        }
        if reader.failure.is_some() {
            return Err(input_failed());
        }
        let span = obs.start();
        let read = read_rank(&mut reader.source, records);
        obs.end(Stage::Parse, span);
        match read {
            Ok(rank) => {
                reader.read += 1;
                Ok(rank)
            }
            Err(error) => {
                reader.failure = Some(error);
                Err(input_failed())
            }
        }
    }
}

/// Copies the rank section `source` opens next into `records` (cleared
/// first) and returns its rank.  An item out of place is a protocol error,
/// as in the reduction loop.
fn read_rank<S: AppItemSource>(
    source: &mut S,
    records: &mut Vec<TraceRecord>,
) -> Result<Rank, StreamError> {
    records.clear();
    let Some(rank) = next_section(source)? else {
        return Err(StreamError::Protocol(
            "the stream ended before a declared rank section",
        ));
    };
    loop {
        match source.next_item()? {
            Some(AppItem::Record(first)) => {
                records.push(first);
                records.extend_from_slice(source.take_records());
            }
            Some(AppItem::RankEnd(_)) => return Ok(rank),
            Some(AppItem::RankStart(_)) => {
                return Err(StreamError::Protocol("a rank start inside a rank section"))
            }
            None => {
                return Err(StreamError::Protocol(
                    "the stream ended inside a rank section",
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use trace_container::{decode_app_any, encode_app_container, Codec};
    use trace_format::{parse_app_trace, write_app_trace};
    use trace_model::AppTrace;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// Both codecs the CLI writes, at one segment per chunk and at the
    /// default 128.
    fn specs() -> impl Iterator<Item = ChunkSpec> {
        [Codec::None, Codec::DeltaLz]
            .into_iter()
            .flat_map(|codec| [1, 128].map(|n| ChunkSpec::with_segments(n).codec(codec)))
    }

    /// One worker, two, three, and more workers than ranks.
    fn worker_counts(ranks: usize) -> [usize; 4] {
        [1, 2, 3, ranks + 3]
    }

    fn from_text(text: &[u8], spec: ChunkSpec, workers: usize) -> Result<Vec<u8>, StreamError> {
        let off = Recorder::disabled();
        convert_text(text, Vec::new(), spec, &off, workers)
    }

    fn from_container(
        bytes: &[u8],
        spec: ChunkSpec,
        workers: usize,
    ) -> Result<Vec<u8>, StreamError> {
        let off = Recorder::disabled();
        convert_container(bytes, Vec::new(), spec, &off, workers)
    }

    /// Text and container input, on every worker count, give exactly what
    /// the whole-trace encoder gives.
    fn assert_streams_like_the_encoder(app: &AppTrace) {
        let text = write_app_trace(app);
        let input = encode_app_container(app, ChunkSpec::with_segments(3));
        for spec in specs() {
            let expected = encode_app_container(app, spec);
            for workers in worker_counts(app.ranks.len()) {
                let case = format!("{} {spec:?} {workers} workers", app.name);
                assert!(
                    from_text(text.as_bytes(), spec, workers).unwrap() == expected,
                    "text {case}"
                );
                assert!(
                    from_container(&input, spec, workers).unwrap() == expected,
                    "container {case}"
                );
            }
        }
    }

    #[test]
    fn streamed_conversion_equals_the_encoder_on_every_tiny_workload() {
        for workload in Workload::all(SizePreset::Tiny) {
            assert_streams_like_the_encoder(&workload.generate());
        }
    }

    #[test]
    fn no_rank_one_rank_and_an_empty_rank_stream_like_the_encoder() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        for ranks in [0, 1] {
            assert_streams_like_the_encoder(&AppTrace {
                ranks: app.ranks[..ranks].to_vec(),
                ..app.clone()
            });
        }
        let mut empty_rank = app;
        empty_rank.ranks[1].records.clear();
        assert_streams_like_the_encoder(&empty_rank);
    }

    /// A text source that refuses to be read until `open` is set.
    struct Gated {
        inner: StreamParser<Cursor<String>>,
        open: Arc<AtomicBool>,
    }

    impl AppItemSource for Gated {
        fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
            if !self.open.load(Ordering::SeqCst) {
                return Err(StreamError::Protocol("read before the gate opened"));
            }
            self.inner.next_item()
        }

        fn skip_current_rank(&mut self) -> Result<Rank, StreamError> {
            self.inner.skip_current_rank()
        }
    }

    #[test]
    fn the_worker_holding_the_next_claim_waits_for_the_one_before_it() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let open = Arc::new(AtomicBool::new(false));
        let source = Gated {
            inner: StreamParser::new(Cursor::new(write_app_trace(&app))).unwrap(),
            open: Arc::clone(&open),
        };
        let turnstile = Arc::new(Turnstile {
            reader: Mutex::new(Reader {
                source,
                read: 0,
                failure: None,
            }),
            turn: Condvar::new(),
        });
        let read = move |turnstile: &Turnstile<Gated>, claim| {
            let mut records = Vec::new();
            let rank = turnstile.read(claim, &mut records, &mut ObsShard::disabled());
            (rank.unwrap(), records)
        };
        // Claim 1 reaches the reader first and must wait; claim 0 arrives
        // later, opens the gate and reads rank 0.
        let second = {
            let turnstile = Arc::clone(&turnstile);
            std::thread::spawn(move || read(&turnstile, 1))
        };
        std::thread::sleep(Duration::from_millis(50));
        open.store(true, Ordering::SeqCst);
        let first = read(&turnstile, 0);
        let second = second.join().unwrap();
        assert_eq!(first, (app.ranks[0].rank, app.ranks[0].records.clone()));
        assert_eq!(second, (app.ranks[1].rank, app.ranks[1].records.clone()));
    }

    /// The error a whole-trace parse of `text` gives.
    fn parse_error(text: &str) -> String {
        parse_app_trace(text).unwrap_err().to_string()
    }

    #[test]
    fn hostile_text_headers_fail_like_the_whole_trace_parser() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let ranks = app.rank_count();
        let declared = format!("TRACE RANKS {ranks} ");
        assert!(text.contains(&declared));
        let single = AppTrace {
            ranks: app.ranks[..1].to_vec(),
            ..app.clone()
        };
        let cases = [
            text.replace(&declared, &format!("TRACE RANKS {} ", ranks + 1)),
            text.replace(&declared, &format!("TRACE RANKS {} ", ranks - 1)),
            write_app_trace(&single)
                .replace("TRACE RANKS 1 ", &format!("TRACE RANKS {} ", 1u64 << 40)),
            text.replace("END_TRACE\n", ""),
        ];
        let spec = ChunkSpec::with_codec(Codec::DeltaLz);
        for (case, hostile) in cases.iter().enumerate() {
            let expected = parse_error(hostile);
            for workers in worker_counts(ranks) {
                let err = from_text(hostile.as_bytes(), spec, workers).unwrap_err();
                assert!(err.as_format().is_some(), "case {case}: {err}");
                assert_eq!(err.to_string(), expected, "case {case}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_container_whose_preamble_and_index_disagree_fails_like_the_decoder() {
        // Two containers whose preambles differ only in the declared rank
        // count, a varint of one byte either way: the head of one spliced
        // onto the sections, index and trailer of the other is CRC-valid,
        // with every offset in place.
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let spec = ChunkSpec::with_segments(4).codec(Codec::DeltaLz);
        let fewer = AppTrace {
            ranks: app.ranks[..app.ranks.len() - 1].to_vec(),
            ..app.clone()
        };
        let (all, short) = (
            encode_app_container(&app, spec),
            encode_app_container(&fewer, spec),
        );
        let first_section = |bytes: &[u8]| {
            trace_container::read_index(&mut Cursor::new(bytes))
                .unwrap()
                .sections[0]
                .offset as usize
        };
        let head = first_section(&all);
        assert_eq!(head, first_section(&short));
        let cases = [
            [&short[..head], &all[head..]].concat(),
            [&all[..head], &short[head..]].concat(),
        ];
        for (case, hostile) in cases.iter().enumerate() {
            let expected = decode_app_any(hostile).unwrap_err().to_string();
            for workers in worker_counts(app.ranks.len()) {
                let err = from_container(hostile, spec, workers).unwrap_err();
                assert!(err.as_container().is_some(), "case {case}: {err}");
                assert_eq!(err.to_string(), expected, "case {case}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_bad_record_or_a_truncation_mid_rank_is_the_parsers_error() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        assert!(app.ranks.len() > 5);
        let text = write_app_trace(&app);
        let rank5 = text
            .find(&format!("RANK {}\n", app.ranks[5].rank.as_u32()))
            .unwrap();
        let record = rank5 + text[rank5..].find('\n').unwrap() + 1;
        let bad_line = format!("{}EVENT nonsense\n{}", &text[..record], &text[record..]);
        let truncated = &text[..record + 40];
        let spec = ChunkSpec::with_codec(Codec::DeltaLz);
        for hostile in [bad_line.as_str(), truncated] {
            let expected = parse_error(hostile);
            for workers in worker_counts(app.ranks.len()) {
                let err = from_text(hostile.as_bytes(), spec, workers).unwrap_err();
                assert_eq!(err.to_string(), expected, "{workers} workers");
            }
        }
        let bytes = encode_app_container(&app, spec);
        let cut = &bytes[..bytes.len() * 3 / 5];
        let expected = decode_app_any(cut).unwrap_err().to_string();
        for workers in worker_counts(app.ranks.len()) {
            let err = from_container(cut, spec, workers).unwrap_err();
            assert_eq!(err.to_string(), expected, "{workers} workers");
        }
    }

    /// A sink that takes `budget` bytes and then fails every write.
    #[derive(Debug)]
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_is_a_sink_error() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
        let len = encode_app_container(&app, spec).len();
        let off = Recorder::disabled();
        for workers in worker_counts(app.ranks.len()) {
            for budget in [0, len / 2, len - 1] {
                let sink = FailAfter { budget };
                let reader = Cursor::new(text.as_bytes());
                let err = convert_text(reader, sink, spec, &off, workers).unwrap_err();
                let StreamError::Sink(err) = err else {
                    panic!("{workers} workers, {budget} bytes: {err}");
                };
                assert_eq!(err.to_string(), "sink full");
            }
        }
    }

    #[test]
    fn each_locked_read_is_one_parse_span_and_the_counters_match_the_encoder() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let spec = ChunkSpec::with_segments(4).codec(Codec::DeltaLz);
        let encoder = Recorder::with_clock(trace_obs::ManualClock::new(0));
        trace_container::write_app_container(Vec::new(), &app, spec, &encoder).unwrap();
        let expected = encoder.report().counters;
        for workers in worker_counts(app.ranks.len()) {
            let recorder = Recorder::with_clock(trace_obs::ManualClock::new(0));
            let reader = Cursor::new(text.as_bytes());
            convert_text(reader, Vec::new(), spec, &recorder, workers).unwrap();
            let report = recorder.report();
            let parses = report.spans.iter().filter(|s| s.stage == Stage::Parse);
            assert_eq!(parses.count(), app.ranks.len(), "{workers} workers");
            assert_eq!(report.counters, expected, "{workers} workers");
        }
    }
}
