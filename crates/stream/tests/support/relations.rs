//! Metamorphic relations of the reduction: transforms of a trace whose
//! effect on its reduction the paper's definitions fix, each with the
//! matching transform of a reduced trace.  A relation needs no second
//! implementation to compare with: reducing the transformed trace must
//! give the transformed reduction, on any input and through any driver.
//!
//! * *Shift*: a constant added to every time stamp shifts every execution
//!   start by that constant and changes nothing else, because stored
//!   segments are rebased to their own start.
//! * *Rank order*: the ranks reversed and renumbered in their new order
//!   reduce to the reduced ranks reversed and renumbered alike, because
//!   each rank is reduced on its own: no match state crosses from rank to
//!   rank.

use trace_model::{AppTrace, Rank, ReducedAppTrace, Time, TraceRecord};

/// `app` with `by` nanoseconds added to every time stamp.
pub fn shifted(app: &AppTrace, by: u64) -> AppTrace {
    let shift = |time: &mut Time| *time = Time::from_nanos(time.as_nanos() + by);
    let mut shifted = app.clone();
    let records = shifted.ranks.iter_mut().flat_map(|rank| &mut rank.records);
    for record in records {
        match record {
            TraceRecord::SegmentBegin { time, .. } | TraceRecord::SegmentEnd { time, .. } => {
                shift(time)
            }
            TraceRecord::Event(event) => {
                shift(&mut event.start);
                shift(&mut event.end);
            }
        }
    }
    shifted
}

/// What reducing [`shifted`]`(app, by)` must give, where `reduced` is the
/// reduction of `app`.
pub fn shifted_reduction(reduced: &ReducedAppTrace, by: u64) -> ReducedAppTrace {
    let mut shifted = reduced.clone();
    let execs = shifted.ranks.iter_mut().flat_map(|rank| &mut rank.execs);
    for exec in execs {
        exec.start = Time::from_nanos(exec.start.as_nanos() + by);
    }
    shifted
}

/// `app` with its ranks in reverse order, renumbered 0, 1, … in that order.
pub fn reversed(app: &AppTrace) -> AppTrace {
    let mut reversed = app.clone();
    reversed.ranks.reverse();
    for (number, rank) in reversed.ranks.iter_mut().enumerate() {
        rank.rank = Rank(number as u32);
    }
    reversed
}

/// What reducing [`reversed`]`(app)` must give, where `reduced` is the
/// reduction of `app`.
pub fn reversed_reduction(reduced: &ReducedAppTrace) -> ReducedAppTrace {
    let mut reversed = reduced.clone();
    reversed.ranks.reverse();
    for (number, rank) in reversed.ranks.iter_mut().enumerate() {
        rank.rank = Rank(number as u32);
    }
    reversed
}
