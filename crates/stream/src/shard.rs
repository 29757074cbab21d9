//! The worker fan-out every streaming driver goes through, and the sharded
//! text driver built on it.
//!
//! Drivers run on the workspace's one ordered fan-out,
//! [`trace_obs::ordered()`]: workers claim rank sections by index, the
//! calling thread (worker 0) appends each reduced rank as soon as it is
//! next, and the merged counters drain once.  A text worker reads its own
//! copy of the trace, skips forward to each section it claims, and after
//! its last claim reads on to the trailer, checking the declared rank
//! count.  The output is bit-identical whatever the shard count.

use std::io::{self, BufRead};

use trace_model::{ReducedAppTrace, ReducedRankTrace};
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::parser::StreamParser;
use crate::reduce::{next_section, RankWorker, StreamReduction, StreamStats};
use crate::source::AppItemSource;

/// Reduces `n` rank sections on one worker per input: `reduce` reduces
/// the section it is given, `finish` runs after a worker's last claim.
pub(crate) fn fan_out<I: Send>(
    reducer: &Reducer,
    header: ReducedAppTrace,
    inputs: Vec<I>,
    n: usize,
    reduce: impl Fn(&mut RankWorker, &mut I, usize) -> Result<ReducedRankTrace, StreamError> + Sync,
    finish: impl Fn(&mut RankWorker, &mut I) -> Result<(), StreamError> + Sync,
) -> Result<StreamReduction, StreamError> {
    let worker = |input| {
        let mut worker = RankWorker::default();
        worker.obs = reducer.recorder().shard();
        (worker, input)
    };
    let mut reduced = header;
    let workers = trace_obs::ordered(
        inputs.into_iter().map(worker).collect(),
        n,
        |(worker, input), index| reduce(worker, input, index),
        |(worker, input)| finish(worker, input),
        |_, rank| {
            reduced.ranks.push(rank);
            Ok(())
        },
    )?;
    let mut stats = StreamStats::default();
    for (worker, _) in workers {
        stats.absorb(&worker.stats);
        worker.obs.finish();
    }
    Ok(StreamReduction::drained(reducer, reduced, stats))
}

/// The `open` of a one-worker run, whose one source is already open.
pub(crate) fn no_second_source<S>(_: usize) -> Result<S, StreamError> {
    Err(StreamError::Protocol(
        "a one-worker run opens no second source",
    ))
}

/// Reduces the `n` declared rank sections of a stream on up to `workers`
/// workers, each reading its own copy front to back: `first` for worker 0,
/// `open(worker)`, on first use, for the others.
pub(crate) fn reduce_sources<S: AppItemSource + Send>(
    reducer: &Reducer,
    header: ReducedAppTrace,
    first: S,
    n: usize,
    workers: usize,
    open: impl Fn(usize) -> Result<S, StreamError> + Sync,
) -> Result<StreamReduction, StreamError> {
    // Per worker: its source, its index and the sections it has passed.
    let mut first = Some(first);
    let cursors = (0..workers.clamp(1, n.max(1))).map(|worker| (first.take(), worker, 0));
    fan_out(
        reducer,
        header,
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
            worker.reduce_rank(reducer, source)
        },
        |worker, (source, id, _)| {
            let source = match source {
                Some(source) => source,
                None => source.insert(open(*id)?),
            };
            while next_section(source)?.is_some() {
                source.skip_current_rank()?;
            }
            worker.stats.peak_chunk_bytes = source.peak_chunk_bytes();
            Ok(())
        },
    )
}

/// Reduces a text trace on up to `workers` workers: worker 0 reads `first`
/// (whose header declares the rank count), the others `open(worker)`.
/// Every worker's parser records its batches as `parse` spans.
pub(crate) fn reduce_text<R: BufRead + Send>(
    reducer: &Reducer,
    first: R,
    workers: usize,
    open: impl Fn(usize) -> Result<R, StreamError> + Sync,
) -> Result<StreamReduction, StreamError> {
    let parser = |reader| -> Result<_, StreamError> {
        let mut parser = StreamParser::new(reader)?;
        parser.set_obs(reducer.recorder().shard());
        Ok(parser)
    };
    let first = parser(first)?;
    let tables = first.tables();
    let header = ReducedAppTrace {
        name: tables.name.clone(),
        regions: tables.regions.clone(),
        contexts: tables.contexts.clone(),
        ranks: Vec::new(),
    };
    let n = tables.declared_ranks;
    reduce_sources(reducer, header, first, n, workers, |worker| {
        parser(open(worker)?)
    })
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
    reduce_text(reducer, open(0)?, shards, |worker| Ok(open(worker)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use trace_format::write_app_trace;
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
