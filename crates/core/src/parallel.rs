//! Parallel per-rank reduction.
//!
//! The paper's technique is strictly intra-process: each rank's trace is
//! reduced independently and the per-rank results are merged afterwards.
//! That makes the reduction embarrassingly parallel over ranks, which this
//! module exploits with crossbeam scoped threads.  Results are collected
//! into a pre-sized slot table guarded by a `parking_lot::Mutex`, so rank
//! order is preserved regardless of which worker finishes first.

use crossbeam::thread;
use parking_lot::Mutex;

use trace_model::{AppTrace, ReducedAppTrace, ReducedRankTrace};

use crate::features::{MatchScratch, MatchStats};
use crate::reducer::Reducer;

/// Runs `work(worker_index)` on `workers` crossbeam scoped threads and
/// joins them all.  A worker count of 0 or 1 runs `work(0)` on the calling
/// thread, which makes every sequential driver the one-worker case of its
/// parallel one.  This is the scoped-thread fan-out shared by the in-memory
/// reduction below and the streaming drivers in the `trace_stream` crate.
///
/// # Panics
/// Propagates a panic from any worker.
pub fn scoped_workers<F>(workers: usize, work: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        work(0);
        return;
    }
    thread::scope(|scope| {
        for worker in 0..workers {
            let work = &work;
            scope.spawn(move |_| work(worker));
        }
    })
    .expect("scoped worker panicked");
}

/// Reduces every rank of `app` in parallel using up to `threads` worker
/// threads (values of 0 or 1 run on the calling thread).
///
/// The output is identical to [`Reducer::reduce_app`]; parallelism only
/// changes wall-clock time, never the result, because ranks are independent.
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
pub fn reduce_app_parallel_with_stats(
    reducer: &Reducer,
    app: &AppTrace,
    threads: usize,
) -> (ReducedAppTrace, MatchStats) {
    let n_ranks = app.rank_count();
    let recorder = reducer.recorder();
    let slots: Vec<Mutex<Option<ReducedRankTrace>>> =
        (0..n_ranks).map(|_| Mutex::new(None)).collect();
    let total_stats = Mutex::new(MatchStats::default());
    let next = std::sync::atomic::AtomicUsize::new(0);

    scoped_workers(threads.min(n_ranks), |_| {
        // One match scratch per worker: the feature buffers grow to the
        // largest segment once and are reused across every rank this
        // worker reduces.  Likewise one obs shard per worker, flushed into
        // the recorder when the worker finishes.
        let mut scratch = MatchScratch::new();
        let mut worker_stats = MatchStats::default();
        let mut obs = recorder.shard();
        loop {
            let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if index >= n_ranks {
                break;
            }
            let reduction = reducer.reduce_rank_on(&app.ranks[index], &mut scratch, &mut obs);
            worker_stats.absorb(&reduction.matching);
            *slots[index].lock() = Some(reduction.reduced);
        }
        obs.finish();
        total_stats.lock().absorb(&worker_stats);
    });

    let mut reduced = ReducedAppTrace::for_app(app);
    for slot in slots {
        reduced
            .ranks
            .push(slot.into_inner().expect("every rank slot must be filled"));
    }
    let stats = total_stats.into_inner();
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
