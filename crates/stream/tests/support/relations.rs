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
//! * *Scale*: every time stamp and wait multiplied by a factor multiplies
//!   every stored and execution time by it, with absDiff's threshold
//!   multiplied too and every other threshold kept: relDiff, the Minkowski
//!   and the wavelet methods compare relative to the larger value, and
//!   iter_k ignores time.  iter_avg's representative is a rounded average,
//!   so its times may differ from the scaled ones by 1 ns.
//! * *Prefix*: each rank cut just after the end of half its segments
//!   reduces to the first half of the whole rank's execution log, with the
//!   whole rank's first stored segments, because the reduction is online
//!   and keeps the first match: no later segment changes how an earlier
//!   one was matched.  iter_avg's stored representatives are averages,
//!   which move until the rank ends, so for it only the log is a prefix.

use trace_model::{
    AppTrace, Rank, ReducedAppTrace, ReducedRankTrace, StoredSegment, Time, TraceRecord,
};

/// `app` with `stamp` applied to every time stamp and `wait` to every
/// event's wait.
fn retimed(app: &AppTrace, stamp: impl Fn(&mut Time), wait: impl Fn(&mut Time)) -> AppTrace {
    let mut retimed = app.clone();
    let records = retimed.ranks.iter_mut().flat_map(|rank| &mut rank.records);
    for record in records {
        match record {
            TraceRecord::SegmentBegin { time, .. } | TraceRecord::SegmentEnd { time, .. } => {
                stamp(time)
            }
            TraceRecord::Event(event) => {
                stamp(&mut event.start);
                stamp(&mut event.end);
                wait(&mut event.wait);
            }
        }
    }
    retimed
}

/// `app` with `by` nanoseconds added to every time stamp.
pub fn shifted(app: &AppTrace, by: u64) -> AppTrace {
    let shift = |time: &mut Time| *time = Time::from_nanos(time.as_nanos() + by);
    retimed(app, shift, |_| {})
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

/// `app` with every time stamp and wait multiplied by `factor`.
pub fn scaled(app: &AppTrace, factor: u64) -> AppTrace {
    let scale = |time: &mut Time| *time = Time::from_nanos(time.as_nanos() * factor);
    retimed(app, scale, scale)
}

/// What reducing [`scaled`]`(app, factor)` must give, where `reduced` is
/// the reduction of `app`.
pub fn scaled_reduction(reduced: &ReducedAppTrace, factor: u64) -> ReducedAppTrace {
    let mut scaled = reduced.clone();
    for time in times(&mut scaled) {
        *time = Time::from_nanos(time.as_nanos() * factor);
    }
    scaled
}

/// Whether `found` is `expected` with every stored and execution time off
/// by at most `tolerance` nanoseconds, and equal in everything else.
pub fn equal_within(found: &ReducedAppTrace, expected: &ReducedAppTrace, tolerance: u64) -> bool {
    let (mut found, mut expected) = (found.clone(), expected.clone());
    let (found_times, expected_times) = (times(&mut found), times(&mut expected));
    if found_times.len() != expected_times.len() {
        return false;
    }
    // Compared, each pair of times is zeroed: what is left must be equal.
    for (a, b) in found_times.into_iter().zip(expected_times) {
        if a.as_nanos().abs_diff(b.as_nanos()) > tolerance {
            return false;
        }
        (*a, *b) = (Time::ZERO, Time::ZERO);
    }
    found == expected
}

/// Every time of `reduced`: each stored segment's start, end and events'
/// start, end and wait, then each execution's start.
fn times(reduced: &mut ReducedAppTrace) -> Vec<&mut Time> {
    let mut times = Vec::new();
    for rank in &mut reduced.ranks {
        for stored in &mut rank.stored {
            let segment = &mut stored.segment;
            times.extend([&mut segment.start, &mut segment.end]);
            for event in &mut segment.events {
                times.extend([&mut event.start, &mut event.end, &mut event.wait]);
            }
        }
        times.extend(rank.execs.iter_mut().map(|exec| &mut exec.start));
    }
    times
}

/// `app` with each rank cut just after the end of half its segments,
/// rounded down.
pub fn cut(app: &AppTrace) -> AppTrace {
    let mut cut = app.clone();
    for rank in &mut cut.ranks {
        let ends = rank.records.iter().enumerate();
        let mut ends = ends.filter(|(_, record)| matches!(record, TraceRecord::SegmentEnd { .. }));
        let half = ends.clone().count() / 2;
        let last = half.checked_sub(1).and_then(|before| ends.nth(before));
        rank.records.truncate(last.map_or(0, |(at, _)| at + 1));
    }
    cut
}

/// Whether `cut`, the reduction of [`cut`]`(app)`, is the prefix of
/// `whole`, the reduction of `app`, that the prefix relation asks for: per
/// rank, the first half of the execution log, and the first stored
/// segments if `stored`.
pub fn is_prefix(cut: &ReducedAppTrace, whole: &ReducedAppTrace, stored: bool) -> bool {
    let rank_is_prefix = |(cut, whole): (&ReducedRankTrace, &ReducedRankTrace)| {
        let execs = cut.execs.len() == whole.execs.len() / 2 && whole.execs.starts_with(&cut.execs);
        let first = |(cut, whole): (&StoredSegment, &StoredSegment)| {
            cut.id == whole.id && cut.segment == whole.segment
        };
        let stored = !stored
            || cut.stored.len() <= whole.stored.len()
                && cut.stored.iter().zip(&whole.stored).all(first);
        cut.rank == whole.rank && execs && stored
    };
    cut.ranks.len() == whole.ranks.len() && cut.ranks.iter().zip(&whole.ranks).all(rank_is_prefix)
}
