//! The one section pipeline every streaming driver goes through: a source
//! of rank sections, a stage run on each section by the worker that reads
//! it, and a sink the calling thread stitches the results into in rank
//! order.
//!
//! The pipeline runs on the workspace's one ordered fan-out,
//! [`trace_obs::ordered()`], and the calling thread (worker 0) stitches
//! each result as soon as it is next.  The stage is what differs between
//! the drivers: a reduction reduces the section and encodes the reduced
//! rank, a conversion copies its records straight into an encoder, and the
//! whole-trace load copies them into the trace it collects
//! ([`crate::binary::load_container_file`]).  Two kinds of source feed it:
//!
//! * A text body is cut into byte ranges, and workers claim ranges.  The
//!   calling thread parses the header once.  A range owns the sections
//!   whose `RANK` lines start in it: its reader seeks to the range, passes
//!   the lines up to the first `RANK` line (the end of a section an
//!   earlier range owns), and reads its sections, past the range's end to
//!   finish the last.  No byte is read more than twice, whatever the
//!   worker count.  The calling thread stitches each range's sections in
//!   order, checks that each range starts where the one before it ended,
//!   and checks the declared rank count and the trailer once.
//! * A container file's sections, which workers seek to by its index
//!   footer ([`crate::binary`]).
//!
//! One worker reads its source in order on the calling thread: a text body
//! is then the one range that starts where the header ended, and any
//! [`BufRead`] will do.  Where a text range fails, or the ranges do not
//! piece together into the declared sections, the run becomes one
//! worker's: it reads the trace again from its start, drops the sections
//! already stitched and stitches the rest, so every worker count
//! writes the same bytes and fails with the same error, line numbers
//! included.

use std::io::{self, BufRead, Seek, SeekFrom};
use std::ops::Range;

use trace_model::TraceTables;
use trace_obs::Recorder;
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::parser::StreamParser;
use crate::reduce::{next_section, Reduce, StreamReduction};
use crate::sink::{Collect, Sink};
use crate::source::AppItemSource;

/// What a worker does with each rank section it reads: the per-section
/// stage of the pipeline, whose sections go into the sink it is.
pub(crate) trait Stage: Sink {
    /// Runs the stage over the rank section `source` opens next, on the
    /// worker: section `index` of a container, or of a text range.
    fn section<S: AppItemSource>(
        worker: &mut Self::Worker,
        source: &mut S,
        index: usize,
    ) -> Result<Self::Section, StreamError>;

    /// Called with each source a worker is done with: a seeking worker's
    /// after each section, a text worker's when its claims run out.
    fn read_out<S: AppItemSource>(_worker: &mut Self::Worker, _source: &S) {}
}

/// What a run leaves: its stage, and its workers' states.
pub(crate) type Ran<G> = (G, Vec<<G as Sink>::Worker>);

/// Runs `stage` over `n` rank sections on one worker per input: `section`
/// reads the section it is given through the worker's input, and `finish`
/// runs after a worker's last claim.  The sections before index `stitched`
/// are in the stage already: they are read, for the workers' counts, and
/// dropped.  Returns the workers' states.
pub(crate) fn fan_out<G: Stage, I: Send>(
    recorder: &Recorder,
    stage: &mut G,
    inputs: Vec<I>,
    (stitched, n): (usize, usize),
    section: impl Fn(&mut G::Worker, &mut I, usize) -> Result<G::Section, StreamError> + Sync,
    finish: impl Fn(&mut G::Worker, &mut I) -> Result<(), StreamError> + Sync,
) -> Result<Vec<G::Worker>, StreamError> {
    let workers = inputs
        .into_iter()
        .map(|input| (stage.worker(recorder), input))
        .collect();
    let workers = trace_obs::ordered(
        workers,
        n,
        |(worker, input), index| section(worker, input, index),
        |(worker, input)| finish(worker, input),
        |index, section| {
            if index < stitched {
                return Ok(());
            }
            stage.stitch(section)
        },
    )?;
    Ok(workers.into_iter().map(|(worker, _)| worker).collect())
}

/// Runs `stage` over the next `n` rank sections of `source` on the calling
/// thread, then reads on to the trailer, passing any sections past them:
/// the one-worker run, whose source checks the declared rank count there.
/// The sections before index `stitched` are in the stage already.
pub(crate) fn one_worker<G: Stage, S: AppItemSource + Send>(
    recorder: &Recorder,
    stage: &mut G,
    source: S,
    (stitched, n): (usize, usize),
) -> Result<Vec<G::Worker>, StreamError> {
    let finish = |worker: &mut G::Worker, source: &mut S| {
        while next_section(source)?.is_some() {
            source.skip_current_rank()?;
        }
        G::read_out(worker, source);
        Ok(())
    };
    fan_out(
        recorder,
        stage,
        vec![source],
        (stitched, n),
        G::section,
        finish,
    )
}

/// A text parser over `reader`, recording its batches in `recorder`.
fn parser<R: BufRead>(recorder: &Recorder, reader: R) -> Result<StreamParser<R>, StreamError> {
    let mut parser = StreamParser::new(reader)?;
    parser.set_obs(recorder.shard());
    Ok(parser)
}

/// Runs the stage `stage` opens on a text trace's header over its rank
/// sections on one worker, the calling thread, reading `reader` in order.
pub(crate) fn text<G: Stage, R: BufRead + Send>(
    recorder: &Recorder,
    reader: R,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<Ran<G>, StreamError> {
    let source = parser(recorder, reader)?;
    let mut stage = stage(source.tables())?;
    let n = source.tables().declared_ranks;
    let workers = one_worker(recorder, &mut stage, source, (0, n))?;
    Ok((stage, workers))
}

/// The shortest byte range a text body is cut into while each worker has
/// one: the text reader's block, which a shorter range reads all the same.
/// It also bounds the ranges by the input's length, where the header may
/// declare any rank count.
const MIN_RANGE_BYTES: u64 = 128 * 1024;

/// Runs the stage `stage` opens on a text trace's header over its rank
/// sections, on up to `workers` workers, each reading the byte ranges it
/// claims through its own reader from `open(worker)`.  All readers must
/// yield the same bytes, from the trace's first.  The body is cut into
/// ranges of equal length, one per declared rank and none shorter than
/// [`MIN_RANGE_BYTES`]; one range is the one-worker run.  Every parser
/// records its batches as `parse` spans in `recorder`.
pub(crate) fn text_ranges<G: Stage, R: BufRead + Seek + Send>(
    recorder: &Recorder,
    workers: usize,
    open: impl Fn(usize) -> io::Result<R> + Sync,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<Ran<G>, StreamError> {
    let mut reader = open(0)?;
    let len = reader.seek(SeekFrom::End(0))?;
    reader.rewind()?;
    let first = parser(recorder, reader)?;
    // One range per declared rank.  A worker hands a range's sections over
    // only once it has read them all, so it holds about one section, however
    // many ranks there are.  Every range but the first passes the bytes up
    // to its first `RANK` line, about half a section, which the range before
    // reads again: two ranks a range pass half as many bytes, but measured
    // slower on `convert` and held more (EXPERIMENTS.md "Text byte ranges").
    let (declared, body) = (first.tables().declared_ranks, first.offset());
    let fit = usize::try_from(len.saturating_sub(body) / MIN_RANGE_BYTES);
    let ranges = declared.min(fit.unwrap_or(usize::MAX));
    let ranges = ranges.max(workers).clamp(1, declared.max(1)) as u64;
    let cut = len.saturating_sub(body) / ranges;
    let cuts: Vec<u64> = (1..ranges).map(|range| body + cut * range).collect();
    text_cut(recorder, first, &cuts, workers, open, stage)
}

/// [`text_ranges`] with the body cut at `cuts`, offsets in the input; a
/// cut outside the body cuts nothing.
pub(crate) fn text_cut<G: Stage, R: BufRead + Seek + Send>(
    recorder: &Recorder,
    first: StreamParser<R>,
    cuts: &[u64],
    workers: usize,
    open: impl Fn(usize) -> io::Result<R> + Sync,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<Ran<G>, StreamError> {
    let mut stage = stage(first.tables())?;
    let (tables, body) = (first.tables().clone(), first.offset());
    let n = tables.declared_ranks;
    let mut starts: Vec<u64> = cuts.iter().copied().filter(|&cut| cut > body).collect();
    starts.sort_unstable();
    starts.dedup();
    starts.insert(0, body);
    let workers = workers.clamp(1, starts.len());
    if workers == 1 {
        let workers = one_worker(recorder, &mut stage, first, (0, n))?;
        return Ok((stage, workers));
    }
    let range = |index: usize| {
        let end = starts.get(index + 1).copied().unwrap_or(u64::MAX);
        starts.get(index).copied().unwrap_or(end)..end
    };
    let mut first = Some(first);
    let states = (0..workers).map(|id| (stage.worker(recorder), first.take(), id));
    // Where the next section starts (`None` past the trailer), the sections
    // stitched, and whether a range did not piece together.
    let (mut next, mut done, mut apart) = (Some(body), 0, false);
    let run = trace_obs::ordered(
        states.collect(),
        starts.len(),
        |(worker, source, id), index| {
            // A worker that cannot open the input fails its range.
            let mut read = || {
                let source = match source {
                    Some(source) => source,
                    None => {
                        let mut opened = StreamParser::with_tables(open(*id)?, tables.clone());
                        opened.set_obs(recorder.shard());
                        source.insert(opened)
                    }
                };
                read_range::<G, R>(worker, source, range(index), index > 0, n)
            };
            Ok(read())
        },
        |(worker, source, _)| {
            source.iter().for_each(|source| G::read_out(worker, source));
            Ok(())
        },
        |index, read| {
            // A range past the trailer, or inside a section an earlier
            // range read, holds none of the trace's sections.
            let Some(at) = next.filter(|&at| at < range(index).end) else {
                return Ok(());
            };
            match read {
                Ok(Some((first, sections, after)))
                    if first == at
                        && done + sections.len() <= n
                        && (after.is_some() || done + sections.len() == n) =>
                {
                    (next, done) = (after, done + sections.len());
                    sections.into_iter().try_for_each(|s| stage.stitch(s))
                }
                _ => {
                    apart = true;
                    Err(StreamError::Protocol(APART))
                }
            }
        },
    );
    match run {
        Ok(states) if next.is_none() => {
            let workers = states.into_iter().map(|(worker, _, _)| worker);
            return Ok((stage, workers.collect()));
        }
        Err(error) if !apart => return Err(error),
        _ => {}
    }
    // The run is one worker's: it reads the trace from its start, drops the
    // sections stitched, and ends as one worker ends, with its error, line
    // numbers included, or with every section stitched once.
    let source = parser(recorder, open(0)?)?;
    let workers = one_worker(recorder, &mut stage, source, (done, n))?;
    Ok((stage, workers))
}

/// Why a text run falls back to one worker: its ranges do not piece
/// together into the declared rank sections.
const APART: &str = "the byte ranges of a text trace do not piece together";

/// What one byte range of a text body holds: the offset of its first
/// section's `RANK` line, its sections, and where the next range's first
/// section starts, `None` at the trailer.
type Read<T> = (u64, Vec<T>, Option<u64>);

/// Reads the byte range `range` of a text body on `worker`, through the
/// stage, or finds no `RANK` line starting in it.  The first range starts
/// where the header ended; any other resyncs.  No range holds more than
/// the `n` declared sections.
fn read_range<G: Stage, R: BufRead + Seek>(
    worker: &mut G::Worker,
    source: &mut StreamParser<R>,
    range: Range<u64>,
    resync: bool,
    n: usize,
) -> Result<Option<Read<G::Section>>, StreamError> {
    let Some(first) = source.seek_range(range.clone(), resync)? else {
        return Ok(None);
    };
    let mut sections = Vec::new();
    loop {
        match source.section_ahead()? {
            Some(at) if at < range.end => {
                if sections.len() == n {
                    return Err(StreamError::Protocol(APART));
                }
                sections.push(G::section(worker, source, sections.len())?);
            }
            after => return Ok(Some((first, sections, after))),
        }
    }
}

/// Reduces a trace stream with `shards` worker threads (0 is treated as
/// 1), each reading the byte ranges of the body it claims through its own
/// reader from `open(worker_index)`: one range per declared rank, never
/// fewer than the workers (see the [module docs](self)).  All
/// readers must yield the same bytes, from the trace's first.  Worker 0 is
/// the calling thread, and a panicking worker is a
/// [`StreamError::Protocol`].
pub fn reduce_stream_sharded<R, F>(
    reducer: &Reducer,
    shards: usize,
    open: F,
) -> Result<StreamReduction, StreamError>
where
    R: BufRead + Seek + Send,
    F: Fn(usize) -> io::Result<R> + Sync,
{
    let stage = Reduce::opening(reducer, Collect::open);
    let run = text_ranges(reducer.recorder(), shards, open, stage);
    run.map(StreamReduction::collected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{AppItem, BATCH_RECORDS};
    use crate::reduce::{reduce_stream, StreamStats};
    use crate::reduce_container_stream;
    use crate::sink::{OutputFormat, TraceWriter, WrittenReduction};
    use std::io::{Cursor, Read};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};
    use trace_container::{encode_app_container, ChunkSpec};
    use trace_format::write_app_trace;
    use trace_model::{Rank, ReducedAppTrace, TraceRecord};
    use trace_reduce::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn sharded_reduction_is_identical_to_sequential_for_any_shard_count() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        for method in [Method::AvgWave, Method::RelDiff, Method::IterAvg] {
            let reducer = Reducer::with_default_threshold(method);
            let in_memory = reducer.reduce_app(&app);
            for shards in [1, 2, 3, 8, 64] {
                let sharded = reduce_stream_sharded(&reducer, shards, |_| {
                    Ok(Cursor::new(text.as_bytes().to_vec()))
                })
                .unwrap();
                assert_eq!(sharded.reduced, in_memory, "{method} with {shards} shards");
                assert_eq!(sharded.stats.ranks, app.rank_count());
                assert_eq!(sharded.stats.events, app.total_events());
            }
        }
    }

    /// A reader that panics the first time it is read at or past byte
    /// `from`: every read before that ends there.
    struct PanicsOnRead {
        bytes: Cursor<Vec<u8>>,
        from: u64,
    }

    impl Read for PanicsOnRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let left = self.from.saturating_sub(self.bytes.position());
            assert!(
                left > 0,
                "this reader breaks on a read past byte {}",
                self.from
            );
            let len = buf.len().min(usize::try_from(left).unwrap());
            self.bytes.read(&mut buf[..len])
        }
    }

    impl BufRead for PanicsOnRead {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            unreachable!("the text reader reads with `read`")
        }

        fn consume(&mut self, _: usize) {}
    }

    impl Seek for PanicsOnRead {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.bytes.seek(to)
        }
    }

    #[test]
    fn a_panicking_worker_is_an_error_not_a_panic_or_a_hang() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        assert!(app.rank_count() >= 3, "every one of the three workers runs");
        let text = write_app_trace(&app).into_bytes();
        // Every reader serves the header and the first rank, and breaks on
        // its next read, wherever it reads from: whichever worker reads on
        // past the first rank panics.
        let end = text.windows(9).position(|w| w == b"END_RANK\n").unwrap();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        for shards in [1, 3] {
            let err = reduce_stream_sharded(&reducer, shards, |_| {
                Ok(PanicsOnRead {
                    bytes: Cursor::new(text.clone()),
                    from: end as u64,
                })
            })
            .unwrap_err();
            assert!(
                matches!(err, StreamError::Protocol("a worker panicked")),
                "{shards} workers: {err}"
            );
        }
    }

    /// A reader that records the thread of each of its reads, which are of
    /// at most `READ` bytes, so that a source reads it many times.
    struct RecordsThreads<'a> {
        bytes: Cursor<Vec<u8>>,
        threads: &'a Mutex<Vec<ThreadId>>,
    }

    const READ: usize = 512;

    impl RecordsThreads<'_> {
        fn record(&self) {
            self.threads.lock().unwrap().push(thread::current().id());
        }
    }

    impl Read for RecordsThreads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.record();
            let len = buf.len().min(READ);
            self.bytes.read(&mut buf[..len])
        }
    }

    impl BufRead for RecordsThreads<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.record();
            let buf = self.bytes.fill_buf()?;
            Ok(&buf[..buf.len().min(READ)])
        }

        fn consume(&mut self, amount: usize) {
            self.bytes.consume(amount);
        }
    }

    impl Seek for RecordsThreads<'_> {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.bytes.seek(to)
        }
    }

    #[test]
    fn a_one_worker_run_reads_its_source_on_the_calling_thread() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app).into_bytes();
        let container = encode_app_container(&app, ChunkSpec::with_segments(4));
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let threads = Mutex::new(Vec::new());
        let reader = |bytes: &[u8]| RecordsThreads {
            bytes: Cursor::new(bytes.to_vec()),
            threads: &threads,
        };
        // Each run's reads, taken once it has returned.
        let reads = |run: Result<StreamReduction, StreamError>| {
            run.unwrap();
            std::mem::take(&mut *threads.lock().unwrap())
        };
        let runs = [
            (
                "reduce_stream",
                reads(reduce_stream(&reducer, reader(&text))),
            ),
            (
                "reduce_stream_sharded",
                reads(reduce_stream_sharded(&reducer, 1, |_| Ok(reader(&text)))),
            ),
            (
                "reduce_container_stream",
                reads(reduce_container_stream(&reducer, reader(&container))),
            ),
        ];
        let caller = thread::current().id();
        for (entry, threads) in runs {
            assert!(threads.len() > 1, "{entry}: {} reads", threads.len());
            assert!(threads.iter().all(|id| *id == caller), "{entry}");
        }
    }

    /// One rank section of `BATCH_RECORDS`-record batches that breaks
    /// protocol after `records` records, with a second rank start, and then
    /// yields records for ever.
    struct BreaksProtocol {
        records: usize,
        served: Option<usize>,
        batch: Vec<TraceRecord>,
    }

    impl BreaksProtocol {
        fn new(records: usize) -> Self {
            let record = TraceRecord::SegmentBegin {
                context: trace_model::ContextId(0),
                time: trace_model::Time::ZERO,
            };
            let batch = vec![record; BATCH_RECORDS - 1];
            BreaksProtocol {
                records,
                served: None,
                batch,
            }
        }
    }

    impl AppItemSource for BreaksProtocol {
        fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
            let Some(served) = &mut self.served else {
                self.served = Some(0);
                return Ok(Some(AppItem::RankStart(Rank(0))));
            };
            if *served == self.records {
                *served += 1;
                return Ok(Some(AppItem::RankStart(Rank(1))));
            }
            *served += BATCH_RECORDS;
            Ok(self.batch.first().copied().map(AppItem::Record))
        }

        fn skip_current_rank(&mut self) -> Result<Rank, StreamError> {
            Ok(Rank(0))
        }

        fn take_records(&mut self) -> &[TraceRecord] {
            &self.batch
        }
    }

    #[test]
    fn a_source_that_breaks_protocol_mid_section_returns_without_hanging() {
        // The source yields records for ever after its second rank start:
        // the run must stop at that rank start.
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let source = BreaksProtocol::new(10 * BATCH_RECORDS);
        let sink = Collect(ReducedAppTrace::default());
        let mut stage = Reduce {
            reducer: &reducer,
            sink,
        };
        let recorder = reducer.recorder();
        let Err(err) = one_worker(recorder, &mut stage, source, (0, 1)) else {
            panic!("a rank start inside a rank section went through");
        };
        assert!(
            matches!(
                err,
                StreamError::Protocol("a rank start inside a rank section")
            ),
            "{err}"
        );
    }

    #[test]
    fn the_declared_rank_count_and_the_trailer_are_checked_on_any_worker_count() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let ranks = app.rank_count();
        let declared = format!("TRACE RANKS {ranks} ");
        assert!(text.contains(&declared));
        let broken = [
            text.replace(&declared, &format!("TRACE RANKS {} ", ranks - 1)),
            text.replace(&declared, &format!("TRACE RANKS {} ", ranks + 1)),
            text.replace("END_TRACE\n", ""),
        ];
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        for (case, bytes) in broken.iter().enumerate() {
            for shards in [1, 2, 3, 8] {
                let open = |_| Ok(Cursor::new(bytes.as_bytes()));
                let err = reduce_stream_sharded(&reducer, shards, open).unwrap_err();
                assert!(
                    err.as_format().is_some(),
                    "case {case}, {shards} shards: {err}"
                );
            }
        }
    }

    #[test]
    fn a_range_that_fails_where_one_worker_reads_on_is_no_error() {
        // Only the calling thread's reader opens, so a range the other
        // worker claims fails, and the run is one worker's: every section
        // and every count, none twice.
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app).into_bytes();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let recorder = reducer.recorder();
        let expected = reduce_stream(&reducer, Cursor::new(&text)).unwrap();
        let len = text.len() as u64;
        let cuts: Vec<u64> = (1..8).map(|cut| len * cut / 8).collect();
        let refused = AtomicUsize::new(0);
        let open = |id| match id {
            0 => Ok(Cursor::new(&text[..])),
            _ => {
                refused.fetch_add(1, Relaxed);
                Err(io::Error::other("no second file handle"))
            }
        };
        // The other worker may claim no range, or only ranges that hold no
        // section: then the ranges pass bytes, which one worker does not.
        for _ in 0..100 {
            let first = parser(recorder, Cursor::new(&text[..])).unwrap();
            let stage = Reduce::opening(&reducer, Collect::open);
            let run = text_cut(recorder, first, &cuts, 2, open, stage).unwrap();
            let run = StreamReduction::collected(run);
            assert_eq!(run.reduced, expected.reduced);
            let passed = run.stats.passed_bytes;
            let stats = StreamStats {
                passed_bytes: 0,
                ..run.stats
            };
            assert_eq!(stats, expected.stats);
            if passed == 0 {
                assert!(refused.load(Relaxed) > 0);
                return;
            }
        }
        panic!("the second worker never failed a range");
    }

    #[test]
    fn worker_errors_are_reported() {
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let err = reduce_stream_sharded(&reducer, 3, |_| Ok(Cursor::new(b"BOGUS\n".to_vec())))
            .unwrap_err();
        assert!(err.as_format().is_some(), "{err}");
    }

    /// The bytes of `text` reduced into the text format with its body cut
    /// at `cuts` on `workers` workers, or the error; and the bytes passed.
    fn reduced_at_cuts(input: &[u8], cuts: &[u64], workers: usize) -> (String, u64) {
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let recorder = reducer.recorder();
        let writer = |tables: &TraceTables| {
            let kind = trace_container::PayloadKind::Reduced;
            TraceWriter::open(Vec::new(), OutputFormat::Text, kind, tables, recorder)
        };
        let open = |_| Ok(Cursor::new(input));
        let stage = Reduce::opening(&reducer, writer);
        let run = match workers {
            1 => text(recorder, Cursor::new(input), stage),
            _ => parser(recorder, Cursor::new(input))
                .and_then(|first| text_cut(recorder, first, cuts, workers, open, stage)),
        };
        match run.and_then(WrittenReduction::finished) {
            Ok(written) => {
                let out = String::from_utf8(written.out).unwrap();
                (out, written.stats.passed_bytes)
            }
            Err(error) => (format!("{error:?}"), 0),
        }
    }

    /// What one worker gives for `text`.
    fn one_worker_outcome(text: &[u8]) -> String {
        let (outcome, passed) = reduced_at_cuts(text, &[], 1);
        assert_eq!(passed, 0);
        outcome
    }

    /// Asserts that `text` cut at `cuts` on `workers` workers gives
    /// `expected`, what one worker gives, and passes at most its length.
    fn assert_cut_like_one_worker(text: &[u8], cuts: &[u64], workers: usize, expected: &str) {
        let (found, passed) = reduced_at_cuts(text, cuts, workers);
        assert!(
            found == expected,
            "cut at {cuts:?} on {workers} workers:\n{found}\none worker:\n{expected}"
        );
        assert!(
            passed <= text.len() as u64,
            "{passed} bytes passed at {cuts:?}"
        );
    }

    /// A trace of one rank section per count, each of that many records.
    fn trace_with_sections(counts: &[usize]) -> String {
        let mut text = format!(
            "TRACEFORMAT 1\nTRACE RANKS {} NAME cut\nREGION 0 work\nCONTEXT 0 main.1\n",
            counts.len()
        );
        for (rank, &count) in counts.iter().enumerate() {
            text.push_str(&format!("RANK {rank}\n"));
            for i in 0..count as u64 {
                let t = 100 * (i / 3);
                text.push_str(&match i % 3 {
                    0 => format!("SEG_BEGIN 0 {t}\n"),
                    1 => format!("EVENT 0 {} {} 0 COMPUTE\n", t + 10, t + 90),
                    _ => format!("SEG_END 0 {}\n", t + 100),
                });
            }
            text.push_str("END_RANK\n");
        }
        text.push_str("END_TRACE\n");
        text
    }

    /// `text` with `line` put in front of the `index`-th line after the
    /// `RANK` line of section `rank`.
    fn insert_line(text: &str, rank: usize, index: usize, line: &str) -> String {
        let mut at = text.find(&format!("\nRANK {rank}\n")).unwrap() + 1;
        for _ in 0..=index {
            at += text[at..].find('\n').unwrap() + 1;
        }
        format!("{}{line}{}", &text[..at], &text[at..])
    }

    /// Texts whose layout puts something other than a plain section
    /// boundary where a cut may fall, and texts in error.
    fn hostile_texts() -> Vec<(&'static str, Vec<u8>)> {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app);
        let ranks = app.rank_count();
        let declared = format!("TRACE RANKS {ranks} ");
        let declare = |n: usize| text.replace(&declared, &format!("TRACE RANKS {n} "));
        let last = ranks - 1;
        let not_utf8 = insert_line(&text, 5, 4, "# caf\u{e9}\n").into_bytes();
        let not_utf8 = not_utf8.iter().position(|&b| b == 0xC3).unwrap();
        let mut hostile = vec![
            (
                "blank and comment lines between sections",
                text.replace("END_RANK\n", "END_RANK\n\n# between\n  \n"),
            ),
            (
                "an indented RANK line",
                text.replace("\nRANK 3\n", "\n \t RANK 3\n"),
            ),
            ("CRLF line ends", text.replace('\n', "\r\n")),
            ("a stray RANK line", insert_line(&text, 2, 3, "RANK 9\n")),
            ("a stray RANKS line", insert_line(&text, 4, 1, "RANKS 2\n")),
            (
                "one rank holding most of the file",
                trace_with_sections(&[9000, 4, 4, 4, 4, 4, 4, 4]),
            ),
            (
                "a malformed record in the last rank",
                insert_line(&text, last, 5, "EVENT 0 x 9 0 COMPUTE\n"),
            ),
            (
                "malformed records in two ranks",
                insert_line(
                    &insert_line(&text, 6, 2, "SEG_END zero\n"),
                    1,
                    9,
                    "EVENT 0 x 9 0 COMPUTE\n",
                ),
            ),
            ("one rank fewer declared", declare(ranks - 1)),
            ("one rank more declared", declare(ranks + 1)),
            ("no trailer", text.replace("END_TRACE\n", "")),
            (
                "an extra section holding a malformed record",
                insert_line(&declare(ranks - 1), last, 2, "EVENT 0 x 9 0 COMPUTE\n"),
            ),
            (
                "an extra section holding a stray RANK line",
                insert_line(&declare(ranks - 2), last, 2, "RANK 1\n"),
            ),
            (
                "sections after the trailer",
                format!("{text}RANK 0\nEVENT junk\nEND_RANK\nRANK 0\n"),
            ),
            (
                "a line that is no section between sections",
                text.replacen("END_RANK\n", "END_RANK\nBOGUS 1\n", 5),
            ),
        ];
        let mut bytes: Vec<_> = hostile
            .drain(..)
            .map(|(what, text)| (what, text.into_bytes()))
            .collect();
        let mut comment = insert_line(&text, 5, 4, "# caf\u{e9}\n").into_bytes();
        comment.remove(not_utf8 + 1);
        bytes.push(("a comment that is not UTF-8", comment));
        bytes
    }

    /// Offsets where a cut is most likely to go wrong: on and after each
    /// line end, inside each `END_RANK` and inside the header's last line.
    fn boundary_cuts(text: &[u8]) -> Vec<u64> {
        let mut cuts = Vec::new();
        for (at, byte) in text.iter().enumerate() {
            let at = at as u64;
            if *byte == b'\n' {
                cuts.extend([at, at + 1]);
            }
            if text[at as usize..].starts_with(b"END_RANK") {
                cuts.push(at + 4);
            }
        }
        let body = text.windows(5).position(|w| w == b"RANK ").unwrap() as u64;
        cuts.extend([body - 2, body - 1]);
        cuts
    }

    #[test]
    fn every_single_cut_at_a_boundary_gives_the_one_worker_outcome() {
        let mut inputs = hostile_texts();
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        inputs.push(("late_sender", write_app_trace(&app).into_bytes()));
        for (what, text) in &inputs {
            let expected = one_worker_outcome(text);
            // Every boundary would be slow on the large section; a sample.
            let cuts = boundary_cuts(text);
            let step = cuts.len().div_ceil(150);
            for cut in cuts.iter().step_by(step) {
                let run = std::panic::catch_unwind(|| {
                    assert_cut_like_one_worker(text, &[*cut], 2, &expected);
                });
                assert!(run.is_ok(), "{what}, cut at {cut}");
            }
        }
    }

    #[test]
    fn one_rank_holding_most_of_the_file_reads_on_eight_workers() {
        let text = trace_with_sections(&[30_000, 5, 5, 5, 5, 5, 5, 5]);
        let len = text.len() as u64;
        let cuts: Vec<u64> = (1..8).map(|cut| len * cut / 8).collect();
        let expected = one_worker_outcome(text.as_bytes());
        assert_cut_like_one_worker(text.as_bytes(), &cuts, 8, &expected);
        // The ranges inside the large section pass their bytes, once.
        let (_, passed) = reduced_at_cuts(text.as_bytes(), &cuts, 8);
        assert!(passed > len / 2 && passed <= len, "{passed} of {len}");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn any_cuts_on_any_worker_count_give_the_one_worker_outcome(
            input in 0usize..34,
            cuts in prop::collection::vec(any::<u64>(), 0..12),
            workers in 2usize..9,
        ) {
            let text = match input.checked_sub(18) {
                None => write_app_trace(&Workload::all(SizePreset::Tiny)[input].generate()).into_bytes(),
                Some(hostile) => hostile_texts().swap_remove(hostile % 16).1,
            };
            let len = text.len() as u64 + 8;
            let cuts: Vec<u64> = cuts.iter().map(|cut| cut % len).collect();
            assert_cut_like_one_worker(&text, &cuts, workers, &one_worker_outcome(&text));
        }
    }
}
