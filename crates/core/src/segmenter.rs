//! Cutting a rank trace into segments (Section 3.1).
//!
//! The tracer brackets every loop iteration (and the init/final phases) with
//! segment markers; the segmenter walks the raw record stream, collects the
//! events between a `SegmentBegin` and its matching `SegmentEnd`, and rebases
//! their time stamps to the segment start.
//!
//! # What is borrowed
//!
//! [`OnlineSegmenter::push`] does not build a segment per segment.  Each
//! event is rebased as it arrives into a buffer the segmenter owns and
//! reuses, and a completed segment is *lent* to the caller as a
//! [`SegmentRef`] that lives until the next `push`.  In the common case — the
//! reducer finds a match and appends one execution — nothing is allocated
//! between the record and the execution log; only a segment that gets stored
//! is copied into an owned [`Segment`].
//!
//! # What the shape hash covers
//!
//! A [`SegmentRef`] carries a 64-bit hash of exactly what
//! [`Segment::same_shape`] compares: the context, then every event's region
//! and call parameters in order (never a time stamp), folded in one event at
//! a time while the segment fills.  The fold is a fixed multiply-rotate, so
//! the value is the same in every run, on every worker and for every driver;
//! same shape implies same hash, and the reducer treats the converse as a
//! hint it verifies (see [`crate::reducer`]).

use trace_model::{CommInfo, ContextId, Event, RankTrace, Segment, Time, TraceRecord};

/// Odd multiplier of the shape-hash fold (the 64-bit golden-ratio constant).
const SHAPE_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fold step: a bijection of the state for every `word`, and order
/// sensitive, so swapping two fields or dropping a trailing event moves the
/// hash.
#[inline]
fn fold(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(23) ^ word).wrapping_mul(SHAPE_HASH_MUL)
}

/// The hash of an empty segment in `context`.
#[inline]
fn shape_hash_seed(context: ContextId) -> u64 {
    fold(SHAPE_HASH_MUL, u64::from(context.0))
}

/// Folds one event's shape — region and call parameters — into `hash`.  The
/// first word carries the variant, which fixes what the later words mean, so
/// distinct shape sequences are distinct word sequences.
#[inline]
fn fold_event(hash: u64, event: &Event) -> u64 {
    let pair = |low: u32, high: u32| u64::from(low) | u64::from(high) << 32;
    let (variant, ranks, tag, bytes) = match event.comm {
        CommInfo::Compute => return fold(hash, pair(event.region.0, 0)),
        CommInfo::Send { peer, tag, bytes } => (1, pair(peer.0, 0), tag, bytes),
        CommInfo::Recv { peer, tag, bytes } => (2, pair(peer.0, 0), tag, bytes),
        CommInfo::SendRecv {
            to,
            from,
            tag,
            bytes,
        } => (3, pair(to.0, from.0), tag, bytes),
        CommInfo::Collective {
            op,
            root,
            comm_size,
            bytes,
        } => (4 + op as u32, pair(root.0, 0), comm_size, bytes),
    };
    let head = fold(hash, pair(event.region.0, variant));
    fold(fold(fold(head, ranks), u64::from(tag)), bytes)
}

/// Statistics about a segmentation pass, used for trace-quality checks and
/// reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentationStats {
    /// Number of complete segments produced.
    pub segments: usize,
    /// Number of events that fell inside a segment.
    pub events_in_segments: usize,
    /// Number of events encountered outside any segment (dropped).
    pub orphan_events: usize,
    /// Number of `SegmentBegin` markers that never saw a matching end
    /// (closed implicitly at the last event).
    pub unterminated_segments: usize,
}

/// A completed segment on loan, with the hash of its shape.
///
/// Made by [`OnlineSegmenter::push`] / [`OnlineSegmenter::finish`] (hash
/// folded in as the events arrived) or by [`SegmentRef::of`] (hash computed
/// in one walk); either way `shape_hash` is a function of the segment's
/// shape alone, which is why no caller can set the fields.
#[derive(Clone, Copy, Debug)]
pub struct SegmentRef<'a> {
    pub(crate) segment: &'a Segment,
    pub(crate) shape_hash: u64,
}

impl<'a> SegmentRef<'a> {
    /// Lends an owned segment, hashing its shape in one walk.
    pub fn of(segment: &'a Segment) -> Self {
        let seed = shape_hash_seed(segment.context);
        SegmentRef {
            segment,
            shape_hash: segment.events.iter().fold(seed, fold_event),
        }
    }

    /// The rebased segment.
    pub fn segment(&self) -> &'a Segment {
        self.segment
    }

    /// The hash of the segment's context and event shapes: equal for any two
    /// segments for which [`Segment::same_shape`] holds.
    pub fn shape_hash(&self) -> u64 {
        self.shape_hash
    }
}

/// Online (record-at-a-time) segmenter.
///
/// The batch helpers below and the streaming reduction path (the
/// `trace_stream` crate) both drive this state machine, so a record stream
/// is segmented identically whether it arrives from an in-memory
/// [`RankTrace`] or one line at a time from a file.  At most one segment is
/// in flight per segmenter — the bounded-memory guarantee the streaming
/// reducer relies on — and its events live in a buffer that is reused from
/// segment to segment.
#[derive(Clone, Debug)]
pub struct OnlineSegmenter {
    /// The segment being filled while `open`.  Until it closes, `end` holds
    /// the latest rebased event end: where an unterminated segment is closed.
    current: Segment,
    /// The segment last closed, the one on loan.  Closing swaps the two, so
    /// a begin marker inside an open segment can start the next one while
    /// its predecessor is still out.
    closed: Segment,
    open: bool,
    /// Shape hash of `current` so far.
    current_hash: u64,
    closed_hash: u64,
    stats: SegmentationStats,
}

impl Default for OnlineSegmenter {
    fn default() -> Self {
        let empty = || Segment::from_absolute(ContextId(0), Time::ZERO, Time::ZERO, []);
        OnlineSegmenter {
            current: empty(),
            closed: empty(),
            open: false,
            current_hash: 0,
            closed_hash: 0,
            stats: SegmentationStats::default(),
        }
    }
}

impl OnlineSegmenter {
    /// Creates a segmenter with no segment in flight.
    pub fn new() -> Self {
        OnlineSegmenter::default()
    }

    /// Feeds one record, lending out a segment if this record completed one.
    pub fn push(&mut self, record: &TraceRecord) -> Option<SegmentRef<'_>> {
        match record {
            TraceRecord::SegmentBegin { context, time } => {
                // An open segment is unterminated: close it at the latest
                // known time.
                let unterminated = self.open;
                if unterminated {
                    self.close(true);
                }
                self.open = true;
                self.current.context = *context;
                self.current.start = *time;
                self.current.end = Time::ZERO;
                self.current.events.clear();
                self.current_hash = shape_hash_seed(*context);
                unterminated.then(|| self.lent())
            }
            // A mismatched end marker closes the open segment at the marker
            // time anyway, attributing it to its own context.
            TraceRecord::SegmentEnd { context, time } if self.open => {
                self.current.end = *time - self.current.start;
                self.close(self.current.context != *context);
                Some(self.lent())
            }
            // End without a begin: ignore.
            TraceRecord::SegmentEnd { .. } => None,
            TraceRecord::Event(event) => {
                if self.open {
                    let event = event.rebased(self.current.start);
                    self.current_hash = fold_event(self.current_hash, &event);
                    self.current.end = self.current.end.max(event.end);
                    self.current.events.push(event);
                } else {
                    self.stats.orphan_events += 1;
                }
                None
            }
        }
    }

    /// Closes the in-flight segment (if any) at its latest known time.  Call
    /// once at the end of the record stream.
    pub fn finish(&mut self) -> Option<SegmentRef<'_>> {
        if !self.open {
            return None;
        }
        self.close(true);
        Some(self.lent())
    }

    /// True if a segment is currently in flight.
    pub fn has_open_segment(&self) -> bool {
        self.open
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SegmentationStats {
        self.stats
    }

    /// Moves the open segment, its end set, to `closed`.
    fn close(&mut self, unterminated: bool) {
        self.open = false;
        self.stats.unterminated_segments += usize::from(unterminated);
        self.stats.events_in_segments += self.current.events.len();
        self.stats.segments += 1;
        std::mem::swap(&mut self.current, &mut self.closed);
        self.closed_hash = self.current_hash;
    }

    fn lent(&self) -> SegmentRef<'_> {
        SegmentRef {
            segment: &self.closed,
            shape_hash: self.closed_hash,
        }
    }
}

/// Cuts a rank trace into rebased segments; also returns statistics about
/// malformed marker structure (orphan events, unterminated segments).
pub fn segments_of_rank_with_stats(trace: &RankTrace) -> (Vec<Segment>, SegmentationStats) {
    let mut segmenter = OnlineSegmenter::new();
    let mut segments = Vec::new();
    for record in &trace.records {
        if let Some(lent) = segmenter.push(record) {
            segments.push(lent.segment().clone());
        }
    }
    if let Some(lent) = segmenter.finish() {
        segments.push(lent.segment().clone());
    }
    (segments, segmenter.stats())
}

/// Cuts a rank trace into rebased segments.
pub fn segments_of_rank(trace: &RankTrace) -> Vec<Segment> {
    segments_of_rank_with_stats(trace).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{ContextId, Event, Rank, RegionId};

    fn event(start: u64, end: u64) -> Event {
        Event::compute(RegionId(0), Time::from_nanos(start), Time::from_nanos(end))
    }

    #[test]
    fn well_formed_trace_segments_cleanly() {
        let mut rt = RankTrace::new(Rank(0));
        let ctx = ContextId(3);
        for base in [100u64, 300, 500] {
            rt.begin_segment(ctx, Time::from_nanos(base));
            rt.push_event(event(base + 10, base + 50));
            rt.push_event(event(base + 60, base + 120));
            rt.end_segment(ctx, Time::from_nanos(base + 150));
        }
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 3);
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.events_in_segments, 6);
        assert_eq!(stats.orphan_events, 0);
        assert_eq!(stats.unterminated_segments, 0);
        for (i, seg) in segments.iter().enumerate() {
            assert_eq!(seg.start.as_nanos(), 100 + 200 * i as u64);
            assert_eq!(seg.end.as_nanos(), 150);
            assert_eq!(seg.events.len(), 2);
            assert_eq!(seg.events[0].start.as_nanos(), 10);
            assert_eq!(seg.events[1].end.as_nanos(), 120);
            assert!(seg.is_well_formed());
        }
    }

    #[test]
    fn orphan_events_are_counted_and_dropped() {
        let mut rt = RankTrace::new(Rank(0));
        rt.push_event(event(0, 5));
        rt.begin_segment(ContextId(0), Time::from_nanos(10));
        rt.push_event(event(11, 12));
        rt.end_segment(ContextId(0), Time::from_nanos(13));
        rt.push_event(event(20, 25));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 1);
        assert_eq!(stats.orphan_events, 2);
        assert_eq!(stats.events_in_segments, 1);
    }

    #[test]
    fn unterminated_segment_is_closed_at_last_event() {
        let mut rt = RankTrace::new(Rank(0));
        rt.begin_segment(ContextId(0), Time::from_nanos(10));
        rt.push_event(event(12, 40));
        // A new segment begins without the previous one ending.
        rt.begin_segment(ContextId(0), Time::from_nanos(50));
        rt.push_event(event(51, 60));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 2);
        assert_eq!(stats.unterminated_segments, 2);
        assert_eq!(
            segments[0].end.as_nanos(),
            30,
            "closed at last event end (40) - start (10)"
        );
        assert_eq!(segments[1].end.as_nanos(), 10);
    }

    #[test]
    fn empty_trace_produces_no_segments() {
        let rt = RankTrace::new(Rank(0));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert!(segments.is_empty());
        assert_eq!(stats, SegmentationStats::default());
    }

    #[test]
    fn mismatched_end_marker_closes_open_segment() {
        let mut rt = RankTrace::new(Rank(0));
        rt.begin_segment(ContextId(0), Time::from_nanos(0));
        rt.push_event(event(1, 5));
        rt.end_segment(ContextId(9), Time::from_nanos(6));
        let (segments, stats) = segments_of_rank_with_stats(&rt);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].context, ContextId(0));
        assert_eq!(stats.unterminated_segments, 1);
    }

    #[test]
    fn segments_of_simulated_trace_cover_all_events() {
        use trace_sim::{SizePreset, Workload, WorkloadKind};
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        for rank in &app.ranks {
            let (segments, stats) = segments_of_rank_with_stats(rank);
            assert_eq!(stats.orphan_events, 0);
            assert_eq!(stats.unterminated_segments, 0);
            assert_eq!(stats.events_in_segments, rank.event_count());
            assert_eq!(segments.len(), rank.segment_instance_count());
            assert!(segments.iter().all(Segment::is_well_formed));
        }
    }
}
