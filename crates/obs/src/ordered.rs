//! The workspace's worker threads.  [`ordered()`] is its one ordered
//! fan-out: the paper reduces every rank on its own, so the in-memory
//! reducer, the streaming reductions and the container writer all claim
//! rank indices on workers with state of their own and hand the results on
//! in rank order.

use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc;
use std::thread;

/// A panic caught in a worker of [`ordered()`], with its payload; a caller
/// without an error channel re-raises it with [`std::panic::resume_unwind`].
#[derive(Debug)]
pub struct WorkerPanic(pub Box<dyn Any + Send>);

impl From<WorkerPanic> for io::Error {
    fn from(_: WorkerPanic) -> io::Error {
        io::Error::other("a worker panicked")
    }
}

/// Runs `work(state, index)` for every index in `0..n` on one worker per
/// state, and calls `emit(index, result)` on the calling thread in index
/// order as soon as each is next.  Returns the states, so a caller drains
/// per-worker counters once.
///
/// - The calling thread runs `states[0]` between emissions; every other
///   state gets a thread, so a one-state run spawns none.
/// - Workers claim indices from one atomic counter.  Only results finished
///   ahead of a lower index are held; nothing is reserved by `n`, which may
///   come from an untrusted header.
/// - A worker whose claims run out calls `finish(state)` on its thread,
///   unless the run has failed.
/// - A failed index ranks as its result would: the run's error is the one
///   of the lowest index that failed in `work` or `emit`, whichever worker
///   met it first in time, so it is the error one worker gives.  Claims
///   past a failed index stop, claims below it still finish, and an error
///   from `finish` ranks after every index.  A panic in a worker, the
///   calling thread included, is a [`WorkerPanic`] error, ranked the same
///   way.
pub fn ordered<S: Send, T: Send, E: Send + From<WorkerPanic>>(
    states: Vec<S>,
    n: usize,
    work: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
    finish: impl Fn(&mut S) -> Result<(), E> + Sync,
    mut emit: impl FnMut(usize, T) -> Result<(), E>,
) -> Result<Vec<S>, E> {
    // The counter only hands out indices and the channel orders results,
    // so `Relaxed` is enough for both atomics.  `failed` is the lowest
    // failed rank yet, an index or `n` for `finish`: no claim at or past it
    // is worked on.
    let (next, failed) = (AtomicUsize::new(0), AtomicUsize::new(usize::MAX));
    // One worker: results go to `send` until the claims run out, the run
    // fails below its next claim or `send` answers that it failed; an
    // error or a panic is sent last, with its rank.
    let run = |state: &mut S, send: &mut dyn FnMut(Ranked<T, E>) -> bool| {
        let mut rank = n;
        let caught = catch_unwind(AssertUnwindSafe(|| loop {
            let index = next.fetch_add(1, Relaxed);
            if index >= failed.load(Relaxed) {
                return Ok(());
            }
            rank = index.min(n);
            if index >= n {
                return finish(state);
            }
            let value = work(state, index)?;
            if !send(Ok((index, value))) {
                return Ok(());
            }
        }));
        let error = match caught {
            Ok(Ok(())) => return,
            Ok(Err(error)) => error,
            Err(payload) => WorkerPanic(payload).into(),
        };
        failed.fetch_min(rank, Relaxed);
        send(Err((rank, error)));
    };
    // The calling thread's side: a result waits until every lower index has
    // been emitted, and the error of the lowest rank is kept.
    let (mut pending, mut emitted) = (BTreeMap::new(), 0);
    let mut failure: Option<(usize, E)> = None;
    let mut take = |result: Ranked<T, E>| {
        let step = result.and_then(|(index, value)| {
            pending.insert(index, value);
            while let Some(value) = pending.remove(&emitted) {
                emit(emitted, value).map_err(|error| (emitted, error))?;
                emitted += 1;
            }
            Ok(())
        });
        if let Err((rank, error)) = step {
            failed.fetch_min(rank, Relaxed);
            if failure.as_ref().is_none_or(|(lowest, _)| rank < *lowest) {
                failure = Some((rank, error));
            }
        }
        failure.is_none()
    };
    let mut states = states.into_iter();
    let Some(mut own) = states.next() else {
        return Ok(Vec::new());
    };
    let (sender, results) = mpsc::channel();
    let joined: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = states
            .map(|mut state| {
                let sender = sender.clone();
                scope.spawn(move || {
                    run(&mut state, &mut |result| sender.send(result).is_ok());
                    state
                })
            })
            .collect();
        drop(sender);
        // After each of its own results, the calling thread takes whatever
        // the other workers have finished, then waits for the rest: a claim
        // below a failed index may still fail lower.
        run(&mut own, &mut |result| {
            take(result) && results.try_iter().all(&mut take)
        });
        results.iter().for_each(|result| _ = take(result));
        handles.into_iter().map(|handle| handle.join()).collect()
    });
    let mut done = vec![own];
    for worker in joined {
        match worker {
            Ok(state) => done.push(state),
            Err(payload) => _ = take(Err((n, WorkerPanic(payload).into()))),
        }
    }
    match failure {
        Some((_, error)) => Err(error),
        None if emitted < n => Err(WorkerPanic(Box::new("an index was never emitted")).into()),
        None => Ok(done),
    }
}

/// A worker's result as [`ordered()`] takes it: an index and its value,
/// or an error and its rank.
type Ranked<T, E> = Result<(usize, T), (usize, E)>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Runs `ordered` over `workers` unit states and collects what it emits.
    fn squares(workers: usize, n: usize) -> Vec<(usize, usize)> {
        let mut emitted = Vec::new();
        let states = ordered(
            vec![(); workers],
            n,
            |_, index| Ok::<_, WorkerPanic>(index * index),
            |_| Ok(()),
            |index, square| {
                emitted.push((index, square));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(states.len(), workers);
        emitted
    }

    #[test]
    fn every_index_is_emitted_once_in_order_for_any_worker_count() {
        for n in [0, 1, 7, 64] {
            let expected: Vec<_> = (0..n).map(|i| (i, i * i)).collect();
            for workers in [1, 2, 3, n + 3] {
                assert_eq!(squares(workers, n), expected, "{workers} workers, n = {n}");
            }
        }
    }

    #[test]
    fn results_finished_out_of_order_are_emitted_in_index_order() {
        // The calling thread's first index waits until the spawned worker
        // holds one; the spawned worker holds its first index until the
        // calling thread has finished two.  So the calling thread takes a
        // higher index before a lower one, whichever worker claimed 0.
        let caller = thread::current().id();
        let (started, spawned_started) = mpsc::sync_channel(1);
        let (done, caller_done) = mpsc::sync_channel(8);
        let (spawned_started, caller_done) = (Mutex::new(spawned_started), Mutex::new(caller_done));
        let mut emitted = Vec::new();
        ordered(
            vec![false; 2],
            6,
            |waited, index| {
                let first = !std::mem::replace(waited, true);
                if thread::current().id() == caller {
                    if first {
                        spawned_started.lock().unwrap().recv().unwrap();
                    }
                    done.send(()).unwrap();
                } else if first {
                    started.send(()).unwrap();
                    let caller_done = caller_done.lock().unwrap();
                    caller_done.recv().unwrap();
                    caller_done.recv().unwrap();
                }
                Ok::<_, WorkerPanic>(index)
            },
            |_| Ok(()),
            |index, value| {
                emitted.push((index, value));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(emitted, (0..6).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn one_state_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::<ThreadId>::new());
        ordered(
            vec![()],
            5,
            |_, _| {
                seen.lock().unwrap().push(thread::current().id());
                Ok::<_, WorkerPanic>(())
            },
            |_| {
                seen.lock().unwrap().push(thread::current().id());
                Ok(())
            },
            |_, ()| Ok(()),
        )
        .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6, "five claims and one finish");
        assert!(seen.iter().all(|id| *id == caller));
    }

    #[test]
    fn each_state_is_finished_once_on_its_own_thread_and_returned() {
        let caller = thread::current().id();
        // State: (its worker's thread, claims it made, times finished).
        let states: Vec<(Option<ThreadId>, usize, usize)> = vec![(None, 0, 0); 3];
        let states = ordered(
            states,
            40,
            |state, _| {
                assert!(state.0.is_none_or(|id| id == thread::current().id()));
                state.0 = Some(thread::current().id());
                state.1 += 1;
                thread::sleep(Duration::from_micros(200));
                Ok::<_, WorkerPanic>(())
            },
            |state| {
                assert!(state.0.is_none_or(|id| id == thread::current().id()));
                state.0 = Some(thread::current().id());
                state.2 += 1;
                Ok(())
            },
            |_, ()| Ok(()),
        )
        .unwrap();
        assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 40);
        assert!(states.iter().all(|s| s.2 == 1), "{states:?}");
        assert_eq!(states[0].0, Some(caller));
        assert!(states[1..].iter().all(|s| s.0 != Some(caller)));
    }

    /// Work that fails once, on the first index from 2 on that a spawned
    /// worker claims (the calling thread's, when it works alone), and
    /// counts the claims that start after that failure.  The calling
    /// thread works slowly, so a run that stopped only once the calling
    /// thread took the error would let the other workers claim many more.
    fn late_claims(workers: usize, n: usize) -> (String, usize) {
        let caller = thread::current().id();
        let failed = AtomicBool::new(false);
        let late = AtomicUsize::new(0);
        let err = ordered(
            vec![(); workers],
            n,
            |_, index| {
                if failed.load(Ordering::SeqCst) {
                    late.fetch_add(1, Ordering::SeqCst);
                }
                let on_caller = thread::current().id() == caller;
                if index >= 2
                    && (workers == 1 || !on_caller)
                    && !failed.swap(true, Ordering::SeqCst)
                {
                    return Err(io::Error::other("failed"));
                }
                thread::sleep(Duration::from_millis(if on_caller { 30 } else { 1 }));
                Ok(index)
            },
            |_| Ok(()),
            |_, _| Ok(()),
        )
        .unwrap_err();
        (err.to_string(), late.into_inner())
    }

    #[test]
    fn the_first_work_error_stops_the_other_workers_at_their_next_claim() {
        for workers in [1, 2, 3, 6] {
            let (err, late) = late_claims(workers, 64);
            assert_eq!(err, "failed");
            assert!(
                late < workers,
                "{late} claims after the error, {workers} workers"
            );
        }
    }

    #[test]
    fn a_work_error_ends_an_unbounded_run_promptly() {
        for workers in [1, 2, 3] {
            let (err, late) = late_claims(workers, usize::MAX);
            assert_eq!(err, "failed");
            assert!(
                late < workers,
                "{late} claims after the error, {workers} workers"
            );
        }
    }

    #[test]
    fn a_failing_emit_stops_every_worker_with_its_error() {
        for workers in [1, 2, 3, 8] {
            for fail_at in [0, 1, 5, 19] {
                // Claims that start after the failing `emit`, which sets
                // `failed` as it returns its error.
                let (failed, late) = (AtomicBool::new(false), AtomicUsize::new(0));
                let finished = AtomicUsize::new(0);
                let err = ordered(
                    vec![(); workers],
                    usize::MAX,
                    |_, index| {
                        if failed.load(Ordering::SeqCst) {
                            late.fetch_add(1, Ordering::SeqCst);
                        }
                        thread::sleep(Duration::from_micros(100));
                        Ok(index)
                    },
                    |_| {
                        finished.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    },
                    |index, _| {
                        if index == fail_at {
                            failed.store(true, Ordering::SeqCst);
                            return Err(io::Error::other("sink full"));
                        }
                        Ok(())
                    },
                )
                .unwrap_err();
                assert_eq!(err.to_string(), "sink full", "{workers} workers");
                assert_eq!(finished.into_inner(), 0, "a stopped run finishes nothing");
                let late = late.into_inner();
                assert!(
                    late < workers,
                    "{late} claims after the error, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn the_run_error_is_the_lowest_failed_index_not_the_first_in_time() {
        // The spawned worker holds its first claim, `held`, until the
        // calling thread has failed on a higher index, and then fails too
        // (or finishes).  The calling thread takes its own error before it
        // reads the channel, so a run keeping the first error in time
        // would report the higher index.
        let caller = thread::current().id();
        for lower_fails in [true, false] {
            let (hold, spawned_held) = mpsc::sync_channel(1);
            let (go, spawned_go) = mpsc::sync_channel(1);
            let (spawned_held, spawned_go) = (Mutex::new(spawned_held), Mutex::new(spawned_go));
            let (held, higher) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut emitted = Vec::new();
            let err = ordered(
                vec![false; 2],
                4,
                |claimed, index| {
                    let first = !std::mem::replace(claimed, true);
                    if thread::current().id() != caller {
                        if first {
                            hold.send(index).unwrap();
                            spawned_go.lock().unwrap().recv().unwrap();
                            if lower_fails {
                                return Err(io::Error::other(format!("failed at {index}")));
                            }
                        }
                        return Ok(index);
                    }
                    if first {
                        let index = spawned_held.lock().unwrap().recv().unwrap();
                        held.store(index, Ordering::SeqCst);
                    }
                    if index < held.load(Ordering::SeqCst) {
                        return Ok(index);
                    }
                    higher.store(index, Ordering::SeqCst);
                    go.send(()).unwrap();
                    Err(io::Error::other(format!("failed at {index}")))
                },
                |_| Ok(()),
                |index, _| {
                    emitted.push(index);
                    Ok(())
                },
            )
            .unwrap_err();
            let (held, higher) = (held.into_inner(), higher.into_inner());
            assert!(held < higher, "{held} {higher}");
            // Every index below the failed one is still emitted.
            let lowest = if lower_fails { held } else { higher };
            assert_eq!(err.to_string(), format!("failed at {lowest}"));
            assert_eq!(emitted, (0..lowest).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_finish_error_is_the_run_error() {
        for workers in [1, 3] {
            let err = ordered(
                vec![(); workers],
                10,
                |_, index| Ok(index),
                |_| Err(io::Error::other("trailer missing")),
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err.to_string(), "trailer missing");
        }
    }

    #[test]
    fn a_panicking_worker_is_an_error_on_any_thread() {
        let caller = thread::current().id();
        for on_caller in [true, false] {
            let result = ordered(
                vec![(); 3],
                usize::MAX,
                |_, index| {
                    if index >= 3 && (thread::current().id() == caller) == on_caller {
                        panic!("worker {index} gave up");
                    }
                    thread::sleep(Duration::from_micros(100));
                    Ok(index)
                },
                |_| Ok(()),
                |_, _| Ok::<(), io::Error>(()),
            );
            let err = result.unwrap_err();
            assert_eq!(
                err.to_string(),
                "a worker panicked",
                "on the caller: {on_caller}"
            );
        }
        let payload = ordered(
            vec![(); 2],
            4,
            |_, _| -> Result<(), WorkerPanic> { panic!("kept") },
            |_| Ok(()),
            |_, ()| Ok(()),
        )
        .unwrap_err();
        assert_eq!(payload.0.downcast_ref::<&str>(), Some(&"kept"));
    }
}
