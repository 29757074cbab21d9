//! The worker fan-out every streaming driver goes through, and the sharded
//! text driver built on it.
//!
//! `fan_out` is the one place that owns the shape *workers → merge in
//! stream order → drain the counters once*: a driver only supplies what a
//! single worker does.  Workers run on [`trace_reduce::scoped_workers`],
//! which runs a single worker on the calling thread — so the sequential
//! drivers are the one-worker case, not a second code path.
//!
//! For text, every worker opens its own reader over the same trace (a fresh
//! [`std::fs::File`] handle, a cloned in-memory cursor, …), stream-parses
//! it, and reduces only the rank sections assigned to it (`section index %
//! shards == worker`), skipping the others without parsing their record
//! payloads.  The per-rank reductions are merged back in stream order, so
//! the result is bit-identical whatever the shard count — sharding changes
//! wall-clock time, never the output.

use std::io::{self, BufRead};

use parking_lot::Mutex;
use trace_model::{ReducedAppTrace, ReducedRankTrace};
use trace_reduce::{scoped_workers, Reducer};

use crate::error::StreamError;
use crate::parser::StreamParser;
use crate::reduce::{reduce_selected_ranks, StreamReduction, StreamStats};

/// What one worker hands back: the output trace's name tables (with no
/// ranks yet), its `(section index, reduced rank)` pairs and its counters.
pub(crate) type WorkerOut = (ReducedAppTrace, Vec<(usize, ReducedRankTrace)>, StreamStats);

/// Runs `work(worker, shard)` on `workers` workers, each with its own shard
/// of the reducer's recorder, and merges what they return: ranks sorted
/// back into section order under the first worker's name tables, counters
/// absorbed, and the total drained into the recorder exactly once.  Any
/// worker's error, or a worker that left no result, fails the run.
pub(crate) fn fan_out<W>(
    reducer: &Reducer,
    workers: usize,
    work: W,
) -> Result<StreamReduction, StreamError>
where
    W: Fn(usize, &mut trace_obs::ObsShard) -> Result<WorkerOut, StreamError> + Sync,
{
    let recorder = reducer.recorder();
    let slots: Vec<Mutex<Option<Result<WorkerOut, StreamError>>>> =
        (0..workers.max(1)).map(|_| Mutex::new(None)).collect();

    scoped_workers(workers, |worker| {
        let mut obs = recorder.shard();
        let result = work(worker, &mut obs);
        obs.finish();
        if let Some(slot) = slots.get(worker) {
            *slot.lock() = Some(result);
        }
    });

    let mut reduced: Option<ReducedAppTrace> = None;
    let mut all: Vec<(usize, ReducedRankTrace)> = Vec::new();
    let mut stats = StreamStats::default();
    for slot in slots {
        // `scoped_workers` joins every worker before returning and each
        // worker fills its slot; an empty slot means a worker died, which
        // surfaces as an error rather than a panic.
        let (tables, ranks, worker_stats) = slot
            .into_inner()
            .unwrap_or(Err(StreamError::Protocol("a worker left no result")))?;
        reduced.get_or_insert(tables);
        all.extend(ranks);
        stats.absorb(&worker_stats);
    }
    let Some(mut reduced) = reduced else {
        return Err(StreamError::Protocol("no worker ran"));
    };

    all.sort_by_key(|(index, _)| *index);
    debug_assert!(
        all.iter().enumerate().all(|(i, (index, _))| i == *index),
        "every rank section is reduced exactly once"
    );
    reduced.ranks = all.into_iter().map(|(_, rank)| rank).collect();
    stats.stored = reduced.total_stored();
    stats.execs = reduced.total_execs();
    stats.record_into(&mut recorder.shard());
    Ok(StreamReduction { reduced, stats })
}

/// Hands the single reader of a one-worker run to that worker (the worker
/// closure is `Fn`, so the reader waits in a mutex and is taken, once).
pub(crate) fn take_reader<R>(reader: &Mutex<Option<R>>) -> io::Result<R> {
    let taken = reader.lock().take();
    taken.ok_or_else(|| io::Error::other("the one reader was already taken"))
}

/// Reduces a trace stream with `shards` worker threads (0 is treated as
/// 1), each reading its own source from `open(worker_index)`.  All readers
/// must yield the same bytes.
pub fn reduce_stream_sharded<R, F>(
    reducer: &Reducer,
    shards: usize,
    open: F,
) -> Result<StreamReduction, StreamError>
where
    R: BufRead,
    F: Fn(usize) -> io::Result<R> + Sync,
{
    let shards = shards.max(1);
    fan_out(reducer, shards, |worker, obs| {
        let mut parser = StreamParser::new(open(worker)?)?;
        let tables = parser.tables();
        let header = ReducedAppTrace {
            name: tables.name.clone(),
            regions: tables.regions.clone(),
            contexts: tables.contexts.clone(),
            ranks: Vec::new(),
        };
        let (ranks, stats) =
            reduce_selected_ranks(reducer, &mut parser, |index| index % shards == worker, obs)?;
        Ok((header, ranks, stats))
    })
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

    #[test]
    fn worker_errors_are_reported() {
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let err = reduce_stream_sharded(&reducer, 3, |_| Ok(Cursor::new(b"BOGUS\n".to_vec())))
            .unwrap_err();
        assert!(err.as_format().is_some(), "{err}");
    }
}
