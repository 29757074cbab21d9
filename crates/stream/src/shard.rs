//! The one section pipeline every streaming driver goes through: a source
//! of rank sections, a stage run on each section by the worker that claims
//! it, and a sink the calling thread stitches the results into in rank
//! order.
//!
//! The pipeline runs on the workspace's one ordered fan-out,
//! [`trace_obs::ordered()`]: workers claim rank sections by index, each
//! runs the stage over the section it claimed, and the calling thread
//! (worker 0) stitches each result as soon as it is next.  The stage is
//! what differs between the drivers: a reduction reduces the section and
//! encodes the reduced rank, a conversion copies its records straight
//! into an encoder, and the whole-trace load copies them into the trace it
//! collects ([`crate::binary::load_container_file`]).  Two kinds of source
//! feed it: a stream every worker reads its own copy of, front to back,
//! skipping the sections it does not claim (text),
//! and a container file's sections, which workers seek to by its index
//! footer ([`crate::binary`]).  A stream worker reads on to the trailer
//! after its last claim, checking the declared rank count.  The output is
//! bit-identical whatever the worker count.
//!
//! Every worker reads its source on the thread it runs on, so a run on
//! one worker reads on the calling thread.

use std::io::{self, BufRead};

use trace_model::TraceTables;
use trace_obs::Recorder;
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::parser::StreamParser;
use crate::reduce::{next_section, Reduce, StreamReduction};
use crate::sink::{Collect, Sink};
use crate::source::AppItemSource;

/// What a worker does with each rank section it claims: the per-section
/// stage of the pipeline, whose sections go into the sink it is.
pub(crate) trait Stage: Sink {
    /// Runs the stage over the rank section `source` opens next, section
    /// `index` of the input, on the worker.
    fn section<S: AppItemSource>(
        worker: &mut Self::Worker,
        source: &mut S,
        index: usize,
    ) -> Result<Self::Section, StreamError>;

    /// Called with each source a worker is done with: a seeking worker's
    /// after each section, a stream worker's at its trailer.
    fn read_out<S: AppItemSource>(_worker: &mut Self::Worker, _source: &S) {}
}

/// What a run leaves: its stage, and its workers' states.
pub(crate) type Ran<G> = (G, Vec<<G as Sink>::Worker>);

/// Runs `stage` over `n` rank sections on one worker per input: `section`
/// reads the section it is given through the worker's input, and `finish`
/// runs after a worker's last claim.  Returns the workers' states.
pub(crate) fn fan_out<G: Stage, I: Send>(
    recorder: &Recorder,
    stage: &mut G,
    inputs: Vec<I>,
    n: usize,
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
        |_, section| stage.stitch(section),
    )?;
    Ok(workers.into_iter().map(|(worker, _)| worker).collect())
}

/// The `open` of a one-worker run, whose one source is already open.
pub(crate) fn no_second_source<S>(_: usize) -> Result<S, StreamError> {
    Err(StreamError::Protocol(
        "a one-worker run opens no second source",
    ))
}

/// Runs `stage` over the `n` declared rank sections of a stream on up to
/// `workers` workers, each reading its own copy front to back where it
/// runs: `first` for worker 0, `open(worker)`, on first use, for the
/// others.
pub(crate) fn on_workers<G: Stage, S: AppItemSource + Send>(
    recorder: &Recorder,
    stage: &mut G,
    first: S,
    n: usize,
    workers: usize,
    open: impl Fn(usize) -> Result<S, StreamError> + Sync,
) -> Result<Vec<G::Worker>, StreamError> {
    // Per worker: its source, its index and the sections it has passed.
    let mut first = Some(first);
    let cursors = (0..workers.clamp(1, n.max(1))).map(|worker| (first.take(), worker, 0));
    fan_out(
        recorder,
        stage,
        cursors.collect(),
        n,
        |worker, (source, id, passed), index| {
            let source = match source {
                Some(source) => source,
                None => source.insert(open(*id)?),
            };
            while *passed < index && next_section(source)?.is_some() {
                source.skip_current_rank()?;
                *passed += 1;
            }
            *passed += 1;
            G::section(worker, source, index)
        },
        |worker, (source, id, _)| {
            let source = match source {
                Some(source) => source,
                None => source.insert(open(*id)?),
            };
            while next_section(source)?.is_some() {
                source.skip_current_rank()?;
            }
            G::read_out(worker, source);
            Ok(())
        },
    )
}

/// Runs the stage `stage` opens on a text trace's header over its rank
/// sections, on up to `workers` workers: worker 0 reads `first` (whose
/// header declares the rank count), the others `open(worker)`.  Every
/// worker's parser records its batches as `parse` spans in `recorder`.
pub(crate) fn text<G: Stage, R: BufRead + Send>(
    recorder: &Recorder,
    first: R,
    workers: usize,
    open: impl Fn(usize) -> Result<R, StreamError> + Sync,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<Ran<G>, StreamError> {
    let parser = |reader| -> Result<_, StreamError> {
        let mut parser = StreamParser::new(reader)?;
        parser.set_obs(recorder.shard());
        Ok(parser)
    };
    let first = parser(first)?;
    let mut stage = stage(first.tables())?;
    let n = first.tables().declared_ranks;
    let workers = on_workers(recorder, &mut stage, first, n, workers, |worker| {
        parser(open(worker)?)
    })?;
    Ok((stage, workers))
}

/// Reduces a trace stream with `shards` worker threads (0 is treated as
/// 1; no more run than the header declares ranks), each reading its own
/// source from `open(worker_index)`.  All readers must yield the same
/// bytes.  Worker 0 is the calling thread, and a panicking worker is a
/// [`StreamError::Protocol`].
pub fn reduce_stream_sharded<R, F>(
    reducer: &Reducer,
    shards: usize,
    open: F,
) -> Result<StreamReduction, StreamError>
where
    R: BufRead + Send,
    F: Fn(usize) -> io::Result<R> + Sync,
{
    let open_more = |worker| Ok(open(worker)?);
    let stage = Reduce::opening(reducer, Collect::open);
    let run = text(reducer.recorder(), open(0)?, shards, open_more, stage);
    run.map(StreamReduction::collected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{AppItem, BATCH_RECORDS};
    use crate::reduce::reduce_stream;
    use crate::reduce_container_stream;
    use std::io::{Cursor, Read};
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

    /// A reader that panics the first time it is read.
    struct PanicsOnRead;

    impl io::Read for PanicsOnRead {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            panic!("this reader breaks on its first read");
        }
    }

    impl BufRead for PanicsOnRead {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            panic!("this reader breaks on its first read");
        }

        fn consume(&mut self, _: usize) {}
    }

    #[test]
    fn a_panicking_worker_is_an_error_not_a_panic_or_a_hang() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        assert!(app.rank_count() >= 3, "every one of the three workers runs");
        let text = write_app_trace(&app).into_bytes();
        // One worker reads the header and the first rank, and breaks on its
        // next read; of three, worker 1 breaks on its first.
        let end = text.windows(9).position(|w| w == b"END_RANK\n").unwrap();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        for shards in [1, 3] {
            let err = reduce_stream_sharded(&reducer, shards, |worker| {
                let reader: Box<dyn BufRead + Send> = match (shards, worker) {
                    (1, _) => Box::new(Cursor::new(text[..end].to_vec()).chain(PanicsOnRead)),
                    (_, 1) => Box::new(PanicsOnRead),
                    _ => Box::new(Cursor::new(text.clone())),
                };
                Ok(reader)
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
        let Err(err) = on_workers(recorder, &mut stage, source, 1, 1, no_second_source) else {
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
    fn every_worker_checks_the_declared_rank_count_and_the_trailer() {
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
    fn worker_errors_are_reported() {
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let err = reduce_stream_sharded(&reducer, 3, |_| Ok(Cursor::new(b"BOGUS\n".to_vec())))
            .unwrap_err();
        assert!(err.as_format().is_some(), "{err}");
    }
}
