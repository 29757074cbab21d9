//! Parallel per-rank reduction.
//!
//! The paper's technique is strictly intra-process: each rank's trace is
//! reduced independently and the per-rank results are merged afterwards.
//! That makes the reduction embarrassingly parallel over ranks, which this
//! module runs on the workspace's one ordered fan-out, [`trace_obs::ordered()`]:
//! each worker keeps a match scratch, its counters and a recorder shard from
//! rank to rank, and the reduced ranks arrive in rank order whichever worker
//! finishes first.

use trace_model::{AppTrace, ReducedAppTrace};
use trace_obs::{ordered, WorkerPanic};

use crate::features::{MatchScratch, MatchStats};
use crate::reducer::Reducer;

/// Reduces every rank of `app` in parallel using up to `threads` worker
/// threads (values of 0 or 1 run on the calling thread).
///
/// The output is identical to [`Reducer::reduce_app`]; parallelism only
/// changes wall-clock time, never the result, because ranks are independent.
///
/// # Panics
/// A panic in any worker stops the others at their next rank and is
/// re-raised on the calling thread.
pub fn reduce_app_parallel(reducer: &Reducer, app: &AppTrace, threads: usize) -> ReducedAppTrace {
    reduce_app_parallel_with_stats(reducer, app, threads).0
}

/// The in-memory application loop: [`reduce_app_parallel`] that also returns
/// the aggregated similarity-matching counters (visited comparisons,
/// prefilter hits and index prunes summed over every rank).  The totals do
/// not depend on `threads` — ranks are independent and each rank's counters
/// are deterministic — only the order in which workers produced them does.
/// They are drained into the reducer's recorder once, after the merge, so
/// the per-worker shards never double-count.
///
/// # Panics
/// As [`reduce_app_parallel`]: there is no error channel, so a worker's
/// panic is re-raised on the calling thread with
/// [`std::panic::resume_unwind`].
pub fn reduce_app_parallel_with_stats(
    reducer: &Reducer,
    app: &AppTrace,
    threads: usize,
) -> (ReducedAppTrace, MatchStats) {
    let recorder = reducer.recorder();
    // One match scratch per worker: the feature buffers grow to the largest
    // segment once and are reused across every rank the worker reduces.
    let workers = (0..threads.clamp(1, app.rank_count().max(1)))
        .map(|_| (MatchScratch::new(), MatchStats::default(), recorder.shard()))
        .collect();
    let mut reduced = ReducedAppTrace::for_app(app);
    let run = ordered(
        workers,
        app.rank_count(),
        |(scratch, stats, obs), index| {
            let reduction = reducer.reduce_rank_on(&app.ranks[index], scratch, obs);
            stats.absorb(&reduction.matching);
            Ok::<_, WorkerPanic>(reduction.reduced)
        },
        |_| Ok(()),
        |_, rank| {
            reduced.ranks.push(rank);
            Ok(())
        },
    );
    let workers = run.unwrap_or_else(|WorkerPanic(payload)| std::panic::resume_unwind(payload));
    let mut stats = MatchStats::default();
    for (_, worker_stats, obs) in workers {
        stats.absorb(&worker_stats);
        obs.finish();
    }
    stats.record_into(&mut recorder.shard());
    (reduced, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn parallel_reduction_matches_sequential_result() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in [
            Method::AvgWave,
            Method::RelDiff,
            Method::IterAvg,
            Method::IterK,
        ] {
            let reducer = Reducer::with_default_threshold(method);
            let sequential = reducer.reduce_app(&app);
            for threads in [2, 4, 16] {
                let parallel = reduce_app_parallel(&reducer, &app, threads);
                assert_eq!(sequential, parallel, "{method} with {threads} threads");
            }
        }
    }

    #[test]
    fn degenerate_thread_counts_fall_back_to_sequential() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::Euclidean);
        let sequential = reducer.reduce_app(&app);
        assert_eq!(reduce_app_parallel(&reducer, &app, 0), sequential);
        assert_eq!(reduce_app_parallel(&reducer, &app, 1), sequential);
    }

    #[test]
    fn more_threads_than_ranks_is_fine() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::Manhattan);
        let parallel = reduce_app_parallel(&reducer, &app, 64);
        assert_eq!(parallel.rank_count(), app.rank_count());
    }
}
