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
//! A run on one worker would leave the second core idle, so its source
//! decodes ahead on a thread of its own ([`trace_obs::beside()`]): the
//! declared sections reach the stage through a channel, a batch of
//! records at a time, with at most one batch waiting beside the one being
//! worked on.  Then the source itself comes back, and the worker reads on
//! to the trailer as a worker of a sharded run does.

use std::io::{self, BufRead};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};

use trace_model::{Rank, TraceRecord, TraceTables};
use trace_obs::{names, ObsShard, Recorder};
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::parser::{AppItem, StreamParser};
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
/// `workers` workers, each reading its own copy front to back: `first` for
/// worker 0, `open(worker)`, on first use, for the others.  One worker
/// reads `first` decoded ahead on a second thread.
pub(crate) fn sources<G: Stage, S: AppItemSource + Send>(
    recorder: &Recorder,
    stage: &mut G,
    first: S,
    n: usize,
    workers: usize,
    open: impl Fn(usize) -> Result<S, StreamError> + Sync,
) -> Result<Vec<G::Worker>, StreamError> {
    if workers.clamp(1, n.max(1)) > 1 {
        return on_workers(recorder, stage, first, n, workers, open);
    }
    let decoded = decode_ahead(first, n, recorder.shard(), |ahead| {
        on_workers(recorder, stage, ahead, n, 1, no_second_source)
    });
    decoded.map(|(_, workers)| workers)
}

/// [`sources`] with every source read where its worker runs.
fn on_workers<G: Stage, S: AppItemSource + Send>(
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

/// A source handed back by its decode stage; one type whatever the
/// format, so the reduce loop is compiled once for every decoded-ahead run.
type Returned<'a> = Box<dyn AppItemSource + Send + 'a>;

/// What the decode stage sends the reducer, in stream order.
enum Decoded<'a> {
    /// A rank start or end, the end of the stream, or the source's error,
    /// which is the last thing sent.
    Item(Result<Option<AppItem>, StreamError>),
    /// A record and the records the source decoded behind it.
    Records(Vec<TraceRecord>),
    /// The source itself, once the declared sections are decoded.
    Source(Returned<'a>),
}

/// Runs `reduce` on the calling thread over `source` decoded on a second
/// thread, and returns how many batch buffers the decode stage allocated
/// with what `reduce` returned.  `obs` records the reducer's waits.
fn decode_ahead<'a, S: AppItemSource + Send + 'a, T>(
    source: S,
    n: usize,
    obs: ObsShard,
    reduce: impl FnOnce(DecodedAhead<'a>) -> Result<T, StreamError>,
) -> Result<(usize, T), StreamError> {
    // One decoded item may wait while the reducer works on another.
    let (send, decoded) = mpsc::sync_channel(1);
    let (recycle, recycled) = mpsc::channel();
    let ahead = DecodedAhead {
        decoded,
        recycle,
        batch: Vec::new(),
        next: 0,
        source: None,
        obs,
    };
    trace_obs::beside(
        move || decode_sections(source, n, send, recycled),
        || reduce(ahead),
    )
}

/// The decode stage: sends the items of the first `n` rank sections of
/// `source`, then the source itself, and stops early at the end of the
/// stream, at its first error or once the reducer has stopped.  Records go
/// a batch at a time, in at most two buffers, which the reducer sends back
/// through `recycled` to be filled again; returns how many it allocated.
fn decode_sections<'a, S: AppItemSource + Send + 'a>(
    mut source: S,
    n: usize,
    send: SyncSender<Decoded<'a>>,
    recycled: Receiver<Vec<TraceRecord>>,
) -> usize {
    let (mut ends, mut allocated) = (0, 0);
    while ends < n {
        let item = source.next_item();
        let last = !matches!(item, Ok(Some(_)));
        ends += usize::from(matches!(item, Ok(Some(AppItem::RankEnd(_)))));
        let decoded = match item {
            Ok(Some(AppItem::Record(first))) => {
                // Two buffers: one the reducer works on, one waiting for
                // it.  Past those the stage waits for the reducer to send
                // one back, which it does before it takes the waiting one.
                let batch = match recycled.try_recv() {
                    Ok(batch) => Some(batch),
                    Err(_) if allocated < 2 => {
                        allocated += 1;
                        Some(Vec::new())
                    }
                    Err(_) => recycled.recv().ok(),
                };
                // No buffer comes back from a reducer that stopped.
                let Some(mut batch) = batch else {
                    return allocated;
                };
                batch.clear();
                batch.push(first);
                batch.extend_from_slice(source.take_records());
                Decoded::Records(batch)
            }
            item => Decoded::Item(item),
        };
        if send.send(decoded).is_err() || last {
            return allocated;
        }
    }
    _ = send.send(Decoded::Source(Box::new(source)));
    allocated
}

/// A one-worker run's source as the reducer reads it: the declared
/// sections from the decode stage, then the source itself.
struct DecodedAhead<'a> {
    decoded: Receiver<Decoded<'a>>,
    /// Where used-up batches go back to the decode stage.
    recycle: Sender<Vec<TraceRecord>>,
    /// The batch being handed out; `batch[next..]` have not been yet.
    batch: Vec<TraceRecord>,
    next: usize,
    /// The source, once the decode stage has handed it back.
    source: Option<Returned<'a>>,
    obs: ObsShard,
}

impl<'a> DecodedAhead<'a> {
    /// The decode stage's next message; a receive that finds none decoded
    /// yet is timed as one `stream.decode_wait.ns` sample.
    fn receive(&mut self) -> Result<Decoded<'a>, StreamError> {
        let received = match self.decoded.try_recv() {
            Err(TryRecvError::Empty) => {
                let wait = self.obs.start();
                let received = self.decoded.recv();
                self.obs.observe_since(names::STREAM_DECODE_WAIT_NS, wait);
                received.ok()
            }
            received => received.ok(),
        };
        // A decode stage that hung up early panicked; the run reports that.
        received.ok_or(StreamError::Protocol("the decode stage stopped"))
    }
}

impl AppItemSource for DecodedAhead<'_> {
    fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        if let Some(source) = &mut self.source {
            return source.next_item();
        }
        if let Some(record) = self.batch.get(self.next) {
            self.next += 1;
            return Ok(Some(AppItem::Record(*record)));
        }
        if self.batch.capacity() > 0 {
            _ = self.recycle.send(std::mem::take(&mut self.batch));
        }
        match self.receive()? {
            Decoded::Item(item) => item,
            Decoded::Records(batch) => {
                (self.batch, self.next) = (batch, 0);
                self.next_item()
            }
            Decoded::Source(source) => self.source.insert(source).next_item(),
        }
    }

    fn skip_current_rank(&mut self) -> Result<Rank, StreamError> {
        match &mut self.source {
            Some(source) => source.skip_current_rank(),
            // One worker reduces every declared section it is handed.
            None => Err(StreamError::Protocol("a section skipped while it decodes")),
        }
    }

    fn take_records(&mut self) -> &[TraceRecord] {
        if let Some(source) = &mut self.source {
            return source.take_records();
        }
        let rest = self.batch.get(self.next..).unwrap_or_default();
        self.next = self.batch.len();
        rest
    }

    fn peak_chunk_bytes(&self) -> usize {
        self.source
            .as_ref()
            .map_or(0, |source| source.peak_chunk_bytes())
    }
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
    let workers = sources(recorder, &mut stage, first, n, workers, |worker| {
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
    use crate::parser::BATCH_RECORDS;
    use std::io::{Cursor, Read};
    use trace_format::write_app_trace;
    use trace_model::ReducedAppTrace;
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
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let err = reduce_stream_sharded(&reducer, 3, |worker| {
            let reader: Box<dyn BufRead + Send> = match worker {
                1 => Box::new(PanicsOnRead),
                _ => Box::new(Cursor::new(text.clone())),
            };
            Ok(reader)
        })
        .unwrap_err();
        assert!(
            matches!(err, StreamError::Protocol("a worker panicked")),
            "{err}"
        );
    }

    #[test]
    fn a_panicking_decode_stage_is_an_error_not_a_panic_or_a_hang() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let text = write_app_trace(&app).into_bytes();
        // The header and the first rank read; the reader breaks on its next
        // read, which the decode stage makes.
        let end = text.windows(9).position(|w| w == b"END_RANK\n").unwrap();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let err = reduce_stream_sharded(&reducer, 1, |_| {
            Ok(Cursor::new(text[..end].to_vec()).chain(PanicsOnRead))
        })
        .unwrap_err();
        assert!(
            matches!(err, StreamError::Protocol("a worker panicked")),
            "{err}"
        );
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
        // `sources` returns once the decode stage has stopped, which the
        // endless source leaves to the reducer's hanging up.
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let source = BreaksProtocol::new(10 * BATCH_RECORDS);
        let sink = Collect(ReducedAppTrace::default());
        let mut stage = Reduce {
            reducer: &reducer,
            sink,
        };
        let recorder = reducer.recorder();
        let Err(err) = sources(recorder, &mut stage, source, 1, 1, no_second_source) else {
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
    fn decoding_ahead_allocates_at_most_two_batch_buffers() {
        let records = 10 * BATCH_RECORDS;
        let mut text = String::from("TRACEFORMAT 1\nTRACE RANKS 1 NAME long\n");
        text.push_str("REGION 0 work\nCONTEXT 0 main.1\nRANK 0\n");
        for i in 0..records / 2 {
            text.push_str(&format!(
                "SEG_BEGIN 0 {}\nSEG_END 0 {}\n",
                10 * i,
                10 * i + 5
            ));
        }
        text.push_str("END_RANK\nEND_TRACE\n");
        let parser = StreamParser::new(Cursor::new(text.as_bytes())).unwrap();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let sink = Collect(ReducedAppTrace::default());
        let mut stage = Reduce {
            reducer: &reducer,
            sink,
        };
        let (allocated, workers) = decode_ahead(parser, 1, ObsShard::disabled(), |ahead| {
            on_workers(
                reducer.recorder(),
                &mut stage,
                ahead,
                1,
                1,
                no_second_source,
            )
        })
        .unwrap();
        let (_, stats) = Reduce::finished((stage, workers));
        assert_eq!(stats.segments, records / 2);
        assert!((1..=2).contains(&allocated), "{allocated} buffers");
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
