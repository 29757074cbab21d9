//! Full per-rank and application traces.

use crate::event::Event;
use crate::ids::{ContextId, ContextTable, Rank, RegionTable};
use crate::record::{AppItem, TraceRecord};
use crate::reduced::ReducedAppTrace;
use crate::time::{Duration, Time};

/// The full trace of a single rank: a time-ordered stream of records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankTrace {
    /// The rank this trace was collected from.
    pub rank: Rank,
    /// Raw trace records in collection order.
    pub records: Vec<TraceRecord>,
}

impl RankTrace {
    /// Creates an empty rank trace.
    pub fn new(rank: Rank) -> Self {
        RankTrace {
            rank,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Appends a segment-begin marker.
    pub fn begin_segment(&mut self, context: ContextId, time: Time) {
        self.push(TraceRecord::SegmentBegin { context, time });
    }

    /// Appends a segment-end marker.
    pub fn end_segment(&mut self, context: ContextId, time: Time) {
        self.push(TraceRecord::SegmentEnd { context, time });
    }

    /// Appends an event record.
    pub fn push_event(&mut self, event: Event) {
        self.push(TraceRecord::Event(event));
    }

    /// Number of records (markers plus events).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterator over the event records only.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.records.iter().filter_map(TraceRecord::as_event)
    }

    /// Number of event records.
    pub fn event_count(&self) -> usize {
        self.events().count()
    }

    /// The end time of the trace: the largest time stamp seen.
    pub fn end_time(&self) -> Time {
        self.records
            .iter()
            .map(|r| match r {
                TraceRecord::Event(e) => e.end,
                other => other.time(),
            })
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Total time spent in a given region across the whole trace.
    pub fn time_in_region(&self, region: crate::ids::RegionId) -> Duration {
        self.events()
            .filter(|e| e.region == region)
            .map(|e| e.duration())
            .sum()
    }

    /// Collects all event time stamps (start and end of every event, in
    /// record order).  This is the sequence compared by the approximation
    /// distance metric.
    pub fn timestamp_vector(&self) -> Vec<Time> {
        let mut v = Vec::with_capacity(2 * self.event_count());
        for e in self.events() {
            v.push(e.start);
            v.push(e.end);
        }
        v
    }

    /// True if records are sorted by time stamp and all events are well
    /// formed.  Used by property tests and the simulator's self-checks.
    pub fn is_well_formed(&self) -> bool {
        let times_ok = self.records.windows(2).all(|w| w[0].time() <= w[1].time());
        let events_ok = self.events().all(Event::is_well_formed);
        times_ok && events_ok
    }

    /// Number of `SegmentBegin` markers, i.e. how many segment instances the
    /// trace contains.
    pub fn segment_instance_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, TraceRecord::SegmentBegin { .. }))
            .count()
    }
}

/// Most rank slots a trace reader reserves on a declared rank count alone.
/// The text header's `TRACE RANKS <n>` and the container preamble's count
/// are bare numbers, and a 28-byte file can declare 2^60 ranks; past this
/// many, the rank list grows only as sections actually arrive.
pub(crate) const MAX_RESERVED_RANKS: usize = 4096;

/// What a trace file holds ahead of its first rank section, in either
/// format: the program name, the declared rank count and the interned
/// region/context name tables every record is read against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTables {
    /// Human-readable name of the traced program.
    pub name: String,
    /// Number of rank sections the file declares.
    pub declared_ranks: usize,
    /// Region (function) name table.
    pub regions: RegionTable,
    /// Segment-context name table.
    pub contexts: ContextTable,
}

impl TraceTables {
    /// A full trace under these tables with no ranks yet, and room for the
    /// declared ones (at most `MAX_RESERVED_RANKS` up front).
    pub fn app_trace(&self) -> AppTrace {
        AppTrace {
            name: self.name.clone(),
            regions: self.regions.clone(),
            contexts: self.contexts.clone(),
            ranks: Vec::with_capacity(self.declared_ranks.min(MAX_RESERVED_RANKS)),
        }
    }

    /// A reduced trace under these tables with no ranks yet, like
    /// [`TraceTables::app_trace`].
    pub fn reduced_trace(&self) -> ReducedAppTrace {
        ReducedAppTrace {
            name: self.name.clone(),
            regions: self.regions.clone(),
            contexts: self.contexts.clone(),
            ranks: Vec::with_capacity(self.declared_ranks.min(MAX_RESERVED_RANKS)),
        }
    }
}

/// A merged application trace: one [`RankTrace`] per rank plus the shared
/// region and context name tables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppTrace {
    /// Human-readable name of the traced program (e.g. `late_sender`).
    pub name: String,
    /// Region (function) name table shared by all ranks.
    pub regions: RegionTable,
    /// Segment-context name table shared by all ranks.
    pub contexts: ContextTable,
    /// Per-rank traces, indexed by rank order.
    pub ranks: Vec<RankTrace>,
}

impl AppTrace {
    /// Adds what a full-trace reader yields next: a rank start opens a new
    /// last rank, and a record — with `more`, the rest of its batch — goes
    /// to the last rank.  Readers yield records only inside the section
    /// they opened last, so nothing else is checked.
    pub fn push_item(&mut self, item: AppItem, more: &[TraceRecord]) {
        match item {
            AppItem::RankStart(rank) => self.ranks.push(RankTrace::new(rank)),
            AppItem::Record(first) => {
                if let Some(rank) = self.ranks.last_mut() {
                    rank.push(first);
                    rank.records.extend_from_slice(more);
                }
            }
            AppItem::RankEnd(_) => {}
        }
    }

    /// Creates an empty application trace with `n_ranks` empty rank traces.
    pub fn new(name: impl Into<String>, n_ranks: usize) -> Self {
        AppTrace {
            name: name.into(),
            regions: RegionTable::new(),
            contexts: ContextTable::new(),
            ranks: (0..n_ranks)
                .map(|r| RankTrace::new(Rank::from(r)))
                .collect(),
        }
    }

    /// Number of ranks in the trace.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Total number of event records across all ranks.
    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(RankTrace::event_count).sum()
    }

    /// The end time of the whole run (max across ranks).
    pub fn end_time(&self) -> Time {
        self.ranks
            .iter()
            .map(RankTrace::end_time)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// True if every rank trace is well formed.
    pub fn is_well_formed(&self) -> bool {
        self.ranks.iter().all(RankTrace::is_well_formed)
    }

    /// Returns the trace of a given rank, if present.
    pub fn rank(&self, rank: Rank) -> Option<&RankTrace> {
        self.ranks.get(rank.as_usize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommInfo;
    use crate::ids::RegionId;

    fn sample_trace() -> AppTrace {
        let mut app = AppTrace::new("sample", 2);
        let work = app.regions.intern("do_work");
        let recv = app.regions.intern("MPI_Recv");
        let ctx = app.contexts.intern("main.1");
        for (r, offset) in [(0usize, 0u64), (1, 5)] {
            let rank = &mut app.ranks[r];
            rank.begin_segment(ctx, Time::from_nanos(offset));
            rank.push_event(Event::compute(
                work,
                Time::from_nanos(offset + 1),
                Time::from_nanos(offset + 10),
            ));
            rank.push_event(Event::with_comm(
                recv,
                Time::from_nanos(offset + 10),
                Time::from_nanos(offset + 30),
                CommInfo::Recv {
                    peer: Rank(((r + 1) % 2) as u32),
                    tag: 0,
                    bytes: 8,
                },
            ));
            rank.end_segment(ctx, Time::from_nanos(offset + 31));
        }
        app
    }

    #[test]
    fn rank_trace_accessors() {
        let app = sample_trace();
        let rt = &app.ranks[0];
        assert_eq!(rt.len(), 4);
        assert_eq!(rt.event_count(), 2);
        assert_eq!(rt.segment_instance_count(), 1);
        assert_eq!(rt.end_time().as_nanos(), 31);
        assert!(rt.is_well_formed());
        assert_eq!(rt.timestamp_vector().len(), 4);
    }

    #[test]
    fn time_in_region_sums_durations() {
        let app = sample_trace();
        let work = app.regions.lookup("do_work").unwrap();
        assert_eq!(app.ranks[0].time_in_region(work).as_nanos(), 9);
        let missing = RegionId(99);
        assert_eq!(app.ranks[0].time_in_region(missing).as_nanos(), 0);
    }

    #[test]
    fn app_trace_totals() {
        let app = sample_trace();
        assert_eq!(app.rank_count(), 2);
        assert_eq!(app.total_events(), 4);
        assert_eq!(app.end_time().as_nanos(), 36);
        assert!(app.is_well_formed());
    }

    #[test]
    fn out_of_order_records_detected() {
        let mut rt = RankTrace::new(Rank(0));
        rt.push_event(Event::compute(
            RegionId(0),
            Time::from_nanos(50),
            Time::from_nanos(60),
        ));
        rt.push_event(Event::compute(
            RegionId(0),
            Time::from_nanos(10),
            Time::from_nanos(20),
        ));
        assert!(!rt.is_well_formed());
    }
}
