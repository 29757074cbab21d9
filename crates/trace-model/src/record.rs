//! Raw per-rank trace records.
//!
//! The tracer (in this workspace, the simulator's tracing backend; in the
//! paper, Dyninst-inserted instrumentation) writes a flat stream of records
//! per rank: segment begin/end markers interleaved with completed events.

use crate::event::Event;
use crate::ids::{ContextId, Rank};
use crate::time::Time;

/// One record in the raw per-rank trace stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceRecord {
    /// A segment context begins (e.g. the top of a loop iteration).
    SegmentBegin {
        /// The segment context being entered.
        context: ContextId,
        /// Time at which the segment starts.
        time: Time,
    },
    /// The current segment context ends.
    SegmentEnd {
        /// The segment context being left.
        context: ContextId,
        /// Time at which the segment ends.
        time: Time,
    },
    /// A completed event (function invocation) inside the current segment.
    Event(Event),
}

/// One item of a full trace read a rank section at a time, as every
/// full-trace reader yields them, text or container: a section opens, its
/// records follow in order, and it closes.
#[derive(Clone, Debug, PartialEq)]
pub enum AppItem {
    /// A rank section opened.
    RankStart(Rank),
    /// A record inside the open rank section.
    Record(TraceRecord),
    /// The open rank section closed.
    RankEnd(Rank),
}

impl TraceRecord {
    /// The time stamp associated with the record: marker time, or event
    /// start time for event records.
    pub fn time(&self) -> Time {
        match self {
            TraceRecord::SegmentBegin { time, .. } | TraceRecord::SegmentEnd { time, .. } => *time,
            TraceRecord::Event(e) => e.start,
        }
    }

    /// Returns the contained event, if this record is an event.
    pub fn as_event(&self) -> Option<&Event> {
        match self {
            TraceRecord::Event(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RegionId;

    #[test]
    fn record_time_accessors() {
        let begin = TraceRecord::SegmentBegin {
            context: ContextId(0),
            time: Time::from_nanos(10),
        };
        let event = TraceRecord::Event(Event::compute(
            RegionId(1),
            Time::from_nanos(12),
            Time::from_nanos(20),
        ));
        let end = TraceRecord::SegmentEnd {
            context: ContextId(0),
            time: Time::from_nanos(25),
        };
        assert_eq!(begin.time().as_nanos(), 10);
        assert_eq!(event.time().as_nanos(), 12);
        assert_eq!(end.time().as_nanos(), 25);
        assert!(event.as_event().is_some());
        assert!(begin.as_event().is_none());
    }
}
