//! Segments: the unit of similarity comparison.
//!
//! A segment is the stretch of a rank trace between a `SegmentBegin` and the
//! matching `SegmentEnd` marker.  Before comparison the segment is *rebased*:
//! every event time stamp (and the segment end) is made relative to the
//! segment start, which itself becomes zero.  The absolute start time is kept
//! alongside so that a full trace can be reconstructed later.

use crate::event::Event;
use crate::ids::ContextId;
use crate::time::Time;

/// The structural identity of a segment used to decide *eligibility* for a
/// match: same code location (context), same events in the same order, same
/// message-passing parameters.
///
/// Two segments with equal keys may still fail to match under a similarity
/// metric; two segments with different keys can never match.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentKey {
    /// Segment context (code location).
    pub context: ContextId,
    /// Region and call-parameter shape of every event, in order.
    pub shape: Vec<(crate::ids::RegionId, crate::event::CommInfo)>,
}

/// A rebased segment of a rank trace.
#[derive(Clone, PartialEq, Debug)]
pub struct Segment {
    /// The segment context (code location) this segment was collected from.
    pub context: ContextId,
    /// Absolute start time of the segment in the original trace.
    pub start: Time,
    /// Segment end time, relative to `start` (i.e. the segment duration).
    pub end: Time,
    /// Events with time stamps relative to `start`, in trace order.
    pub events: Vec<Event>,
}

impl Segment {
    /// Builds a segment from absolute-time events, rebasing everything to
    /// `start`.
    pub fn from_absolute(
        context: ContextId,
        start: Time,
        end: Time,
        events: impl IntoIterator<Item = Event>,
    ) -> Self {
        Segment {
            context,
            start,
            end: end - start,
            events: events.into_iter().map(|e| e.rebased(start)).collect(),
        }
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Duration of the segment (its rebased end time).
    pub fn duration(&self) -> Time {
        self.end
    }

    /// The structural identity of this segment (see [`SegmentKey`]).
    pub fn key(&self) -> SegmentKey {
        SegmentKey {
            context: self.context,
            shape: self.events.iter().map(|e| (e.region, e.comm)).collect(),
        }
    }

    /// True if `other` is *eligible* to match this segment: same context,
    /// same number of events, same event regions and call parameters in the
    /// same order.  Mirrors `compareSegments` in the paper up to (but not
    /// including) the similarity test.
    pub fn same_shape(&self, other: &Segment) -> bool {
        self.context == other.context
            && self.events.len() == other.events.len()
            && self
                .events
                .iter()
                .zip(&other.events)
                .all(|(a, b)| a.matches_shape(b))
    }

    /// Number of entries in [`Segment::measurement_vector`].
    pub(crate) fn measurement_len(&self) -> usize {
        1 + 2 * self.events.len()
    }

    /// The measurement vector compared by the distance metrics: the segment
    /// end time followed by each event's start and end time (all relative to
    /// the segment start), matching the vectors used in Figure 2 of the
    /// paper, e.g. `(49, 1, 17, 18, 48)` for a two-event segment.
    pub fn measurement_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.measurement_len());
        self.measurement_vector_into(&mut v);
        v
    }

    /// Fills `out` with the measurement vector (see
    /// [`Segment::measurement_vector`]), clearing it first.  Reusing one
    /// buffer across segments keeps the hot similarity-matching loop free of
    /// per-comparison allocations.
    pub fn measurement_vector_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.measurement_len());
        out.push(self.end.as_f64());
        for e in &self.events {
            out.push(e.start.as_f64());
            out.push(e.end.as_f64());
        }
    }

    /// The time-stamp vector fed to the wavelet transforms: the relative
    /// segment start (always 0), each event's entry and exit time stamps,
    /// and finally the segment exit time (Section 3.2.1, *Wavelet
    /// transform*).  The caller is responsible for zero-padding to a power
    /// of two.
    pub fn wavelet_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 + 2 * self.events.len());
        v.push(0.0);
        for e in &self.events {
            v.push(e.start.as_f64());
            v.push(e.end.as_f64());
        }
        v.push(self.end.as_f64());
        v
    }

    /// The time-stamp vector (see [`Segment::wavelet_vector`]) as its
    /// consecutive pairs `(0, s₀), (e₀, s₁), …, (e_{k−1}, end)`: the level-1
    /// operands of the wavelet transforms, read straight from the events
    /// so the allocation-free similarity kernels need no vector at all.
    pub fn wavelet_pairs(&self) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        let events = &self.events;
        let end = self.end.as_f64();
        (0..events.len() + 1).map(move |i| {
            let before = if i == 0 {
                0.0
            } else {
                events[i - 1].end.as_f64()
            };
            let after = events.get(i).map_or(end, |e| e.start.as_f64());
            (before, after)
        })
    }

    /// True if every event lies within the segment bounds and is itself
    /// well formed.  Used by property tests and debug assertions.
    pub fn is_well_formed(&self) -> bool {
        self.events
            .iter()
            .all(|e| e.is_well_formed() && e.end <= self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommInfo;
    use crate::ids::{Rank, RegionId};

    fn two_event_segment(start: u64, e0: (u64, u64), e1: (u64, u64), end: u64) -> Segment {
        let events = vec![
            Event::compute(
                RegionId(0),
                Time::from_nanos(start + e0.0),
                Time::from_nanos(start + e0.1),
            ),
            Event::with_comm(
                RegionId(1),
                Time::from_nanos(start + e1.0),
                Time::from_nanos(start + e1.1),
                CommInfo::Collective {
                    op: crate::event::CollectiveOp::Allgather,
                    root: Rank(0),
                    comm_size: 8,
                    bytes: 128,
                },
            ),
        ];
        Segment::from_absolute(
            ContextId(0),
            Time::from_nanos(start),
            Time::from_nanos(start + end),
            events,
        )
    }

    #[test]
    fn rebase_produces_relative_times() {
        // Mirrors s2 from Figure 2: events at relative (1,17) and (18,48),
        // segment end at 49.
        let s = two_event_segment(100, (1, 17), (18, 48), 49);
        assert_eq!(s.start.as_nanos(), 100);
        assert_eq!(s.end.as_nanos(), 49);
        assert_eq!(s.events[0].start.as_nanos(), 1);
        assert_eq!(s.events[0].end.as_nanos(), 17);
        assert_eq!(s.events[1].start.as_nanos(), 18);
        assert_eq!(s.events[1].end.as_nanos(), 48);
        assert!(s.is_well_formed());
    }

    #[test]
    fn measurement_vector_matches_paper_layout() {
        let s = two_event_segment(0, (1, 17), (18, 48), 49);
        assert_eq!(s.measurement_vector(), vec![49.0, 1.0, 17.0, 18.0, 48.0]);
    }

    #[test]
    fn wavelet_vector_starts_at_zero_and_ends_at_exit() {
        let s = two_event_segment(0, (1, 17), (18, 48), 49);
        assert_eq!(s.wavelet_vector(), vec![0.0, 1.0, 17.0, 18.0, 48.0, 49.0]);
    }

    #[test]
    fn vector_fill_apis_clear_and_match_the_allocating_versions() {
        let s = two_event_segment(0, (1, 17), (18, 48), 49);
        let mut buf = vec![f64::NAN; 32];
        s.measurement_vector_into(&mut buf);
        assert_eq!(buf, s.measurement_vector());
        assert_eq!(buf.len(), s.measurement_len());
        let pairs = s.wavelet_pairs();
        assert_eq!(pairs.len(), 3);
        let flattened: Vec<f64> = pairs.flat_map(|(a, b)| [a, b]).collect();
        assert_eq!(flattened, s.wavelet_vector());
    }

    #[test]
    fn same_shape_ignores_timing_but_not_structure() {
        let a = two_event_segment(0, (1, 17), (18, 48), 49);
        let b = two_event_segment(500, (1, 40), (41, 50), 51);
        assert!(a.same_shape(&b));
        assert_eq!(a.key(), b.key());

        let mut c = b.clone();
        c.events.pop();
        assert!(!a.same_shape(&c), "different event count");

        let mut d = b.clone();
        d.context = ContextId(9);
        assert!(!a.same_shape(&d), "different context");
    }
}
