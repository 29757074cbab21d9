//! The segmenter as it stood before it lent its segments out: every segment
//! a fresh `Vec<Event>`, rebased by `Segment::from_absolute` when it closes
//! (only the name and the `use` lines differ).  The reference
//! `segmenter_equivalence.rs` compares the borrowing segmenter against,
//! segment for segment; `shape_hash.rs` shares the event generator below it.
//! Nothing outside `tests/` links this.

// Each suite uses its half.
#![allow(dead_code)]

use proptest::prelude::*;
use trace_model::{CollectiveOp, CommInfo, Event, Rank, RegionId, Segment, Time, TraceRecord};
use trace_reduce::SegmentationStats;

/// Online (record-at-a-time) segmenter that owns and returns its segments.
#[derive(Clone, Debug, Default)]
pub struct OwningSegmenter {
    current: Option<(trace_model::ContextId, Time, Vec<trace_model::Event>)>,
    stats: SegmentationStats,
}

impl OwningSegmenter {
    /// Creates a segmenter with no segment in flight.
    pub fn new() -> Self {
        OwningSegmenter::default()
    }

    /// Feeds one record, returning a segment if this record completed one.
    pub fn push(&mut self, record: &TraceRecord) -> Option<Segment> {
        match record {
            TraceRecord::SegmentBegin { context, time } => {
                let closed = self.current.take().map(|(ctx, start, events)| {
                    // Unterminated segment: close it at the latest known time.
                    self.stats.unterminated_segments += 1;
                    let end = events.iter().map(|e| e.end).max().unwrap_or(start);
                    self.emit(ctx, start, end, events)
                });
                self.current = Some((*context, *time, Vec::new()));
                closed
            }
            TraceRecord::SegmentEnd { context, time } => {
                match self.current.take() {
                    Some((ctx, start, events)) => {
                        if ctx != *context {
                            // Mismatched end marker: close the open segment at
                            // the marker time anyway, attributing it to its
                            // own context.
                            self.stats.unterminated_segments += 1;
                        }
                        Some(self.emit(ctx, start, *time, events))
                    }
                    // End without a begin: ignore.
                    None => None,
                }
            }
            TraceRecord::Event(event) => {
                if let Some((_, _, events)) = self.current.as_mut() {
                    events.push(*event);
                } else {
                    self.stats.orphan_events += 1;
                }
                None
            }
        }
    }

    /// Closes the in-flight segment (if any) at its latest known time.  Call
    /// once at the end of the record stream.
    pub fn finish(&mut self) -> Option<Segment> {
        self.current.take().map(|(ctx, start, events)| {
            self.stats.unterminated_segments += 1;
            let end = events.iter().map(|e| e.end).max().unwrap_or(start);
            self.emit(ctx, start, end, events)
        })
    }

    /// True if a segment is currently in flight.
    pub fn has_open_segment(&self) -> bool {
        self.current.is_some()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SegmentationStats {
        self.stats
    }

    fn emit(
        &mut self,
        ctx: trace_model::ContextId,
        start: Time,
        end: Time,
        events: Vec<trace_model::Event>,
    ) -> Segment {
        self.stats.events_in_segments += events.len();
        self.stats.segments += 1;
        Segment::from_absolute(ctx, start, end, events)
    }
}

/// An id that is usually one of three values — so that two draws often agree
/// — and sometimes anything at all.
fn small_or_any() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..3, 0u32..3, any::<u32>()]
}

/// Call parameters of every one of the five [`CommInfo`] variants.
pub fn arbitrary_comm() -> impl Strategy<Value = CommInfo> {
    let bytes = || prop_oneof![0u64..3, any::<u64>()];
    prop_oneof![
        Just(CommInfo::Compute),
        (small_or_any(), small_or_any(), bytes()).prop_map(|(peer, tag, bytes)| CommInfo::Send {
            peer: Rank(peer),
            tag,
            bytes
        }),
        (small_or_any(), small_or_any(), bytes()).prop_map(|(peer, tag, bytes)| CommInfo::Recv {
            peer: Rank(peer),
            tag,
            bytes
        }),
        (small_or_any(), small_or_any(), small_or_any(), bytes()).prop_map(
            |(to, from, tag, bytes)| CommInfo::SendRecv {
                to: Rank(to),
                from: Rank(from),
                tag,
                bytes
            }
        ),
        (0usize..8, small_or_any(), small_or_any(), bytes()).prop_map(
            |(op, root, comm_size, bytes)| CommInfo::Collective {
                op: CollectiveOp::ALL[op],
                root: Rank(root),
                comm_size,
                bytes
            }
        ),
    ]
}

/// An event of arbitrary shape whose time stamps lie anywhere in
/// `0..horizon` — in particular before the start of the segment it lands in.
pub fn arbitrary_event(horizon: u64) -> impl Strategy<Value = Event> {
    (small_or_any(), 0..horizon, 0..horizon, arbitrary_comm()).prop_map(
        |(region, start, length, comm)| {
            Event::with_comm(
                RegionId(region),
                Time::from_nanos(start),
                Time::from_nanos(start + length),
                comm,
            )
        },
    )
}
