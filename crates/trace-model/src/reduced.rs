//! Reduced traces: representative segments plus a segment-execution log.
//!
//! The reduction keeps, per rank, a list of *stored segments* (one
//! representative per behaviour found by the similarity metric) and a list of
//! *segment executions* `(representative id, absolute start time)` — the
//! `storedSegments` and `segmentExecs` structures of Section 3.1.  A full
//! trace can be approximated again by replaying each execution's
//! representative at its recorded start time.

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::{ContextTable, Rank, RegionTable};
use crate::segment::Segment;
use crate::time::Time;
use crate::trace::{AppTrace, RankTrace};

/// Identifier of a stored representative segment within one rank's reduced
/// trace.
pub(crate) type StoredSegmentId = u32;

/// A representative segment kept in the reduced trace.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSegment {
    /// Identifier referenced by [`SegmentExec`] entries.
    pub id: StoredSegmentId,
    /// The representative segment (rebased to its own start).
    pub segment: Segment,
    /// How many segment instances this representative stands for (including
    /// itself).  Used by the averaging reducer and by reporting.
    pub represented: u32,
}

/// One entry of the segment-execution log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentExec {
    /// Which stored segment executed.
    pub segment: StoredSegmentId,
    /// Absolute start time of this execution in the original trace.
    pub start: Time,
}

/// A reduced rank whose segment ids break the reduced format's rules, which
/// the text reader applies line by line and
/// [`ReducedAppTrace::check_ids`] applies to a trace in hand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredIdError {
    /// A stored segment's id is not its position: stored ids are dense.
    Sparse {
        /// The rank that stores it.
        rank: Rank,
        /// The id its position gives it.
        expected: u64,
        /// The id it carries.
        found: StoredSegmentId,
    },
    /// An execution names a stored segment its rank does not hold.
    Unknown {
        /// The rank of the execution.
        rank: Rank,
        /// The stored segment id it names.
        id: StoredSegmentId,
    },
}

impl fmt::Display for StoredIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            StoredIdError::Sparse {
                rank,
                expected,
                found,
            } => {
                write!(
                    f,
                    "{rank}: stored ids must be dense; expected {expected} got {found}"
                )
            }
            StoredIdError::Unknown { rank, id } => {
                write!(
                    f,
                    "{rank}: execution references unknown stored segment {id}"
                )
            }
        }
    }
}

impl std::error::Error for StoredIdError {}

/// The reduced trace of a single rank.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReducedRankTrace {
    /// The rank this reduced trace belongs to.
    pub rank: Rank,
    /// Stored representative segments, indexed by their id.
    pub stored: Vec<StoredSegment>,
    /// Execution log in original trace order.
    pub execs: Vec<SegmentExec>,
}

impl ReducedRankTrace {
    /// Creates an empty reduced trace for `rank`.
    pub fn new(rank: Rank) -> Self {
        ReducedRankTrace {
            rank,
            stored: Vec::new(),
            execs: Vec::new(),
        }
    }

    /// Number of stored representative segments.
    pub fn stored_count(&self) -> usize {
        self.stored.len()
    }

    /// Number of segment executions (equals the number of segment instances
    /// in the original trace).
    pub fn exec_count(&self) -> usize {
        self.execs.len()
    }

    /// Number of matches that occurred: executions that reused an existing
    /// representative instead of storing a new one.
    pub fn match_count(&self) -> usize {
        self.exec_count().saturating_sub(self.stored_count())
    }

    /// Number of *possible* matches, limited by program structure: an
    /// execution can only possibly match if an earlier segment instance had
    /// the same context, events and call parameters (Section 4.3.2).
    pub fn possible_match_count(&self) -> usize {
        let distinct_keys: BTreeSet<_> = self.stored.iter().map(|s| s.segment.key()).collect();
        self.exec_count().saturating_sub(distinct_keys.len())
    }

    /// Degree of matching: matches / possible matches, in `[0, 1]`.
    /// Returns 1.0 when no matches are possible (nothing was missed).
    pub fn degree_of_matching(&self) -> f64 {
        let possible = self.possible_match_count();
        if possible == 0 {
            1.0
        } else {
            self.match_count() as f64 / possible as f64
        }
    }

    /// Looks up a stored segment by id.  Stored ids are dense — every
    /// reducer numbers its representatives by position, and
    /// [`ReducedRankTrace::check_ids`] refuses a trace that does not — so
    /// this is one index; a segment stored elsewhere than its id is `None`.
    pub fn stored_segment(&self, id: StoredSegmentId) -> Option<&StoredSegment> {
        self.stored.get(id as usize).filter(|s| s.id == id)
    }

    /// Checks the reduced format's id rules: stored ids are dense (each is
    /// its position), and every execution names a stored segment that
    /// exists.  Returns the first violation, stored segments first.
    pub fn check_ids(&self) -> Result<(), StoredIdError> {
        let ids = self.stored.iter().map(|stored| stored.id);
        if let Some((expected, found)) = (0u64..).zip(ids).find(|&(at, id)| u64::from(id) != at) {
            return Err(StoredIdError::Sparse {
                rank: self.rank,
                expected,
                found,
            });
        }
        let stored = self.stored.len();
        let mut execs = self.execs.iter().map(|exec| exec.segment);
        match execs.find(|&id| id as usize >= stored) {
            Some(id) => Err(StoredIdError::Unknown {
                rank: self.rank,
                id,
            }),
            None => Ok(()),
        }
    }

    /// Reconstructs an approximate full rank trace by replaying each
    /// execution's representative segment at its recorded start time.
    ///
    /// Unknown segment ids are skipped; every reducer in this workspace
    /// produces self-consistent ids, so skipping only happens for corrupted
    /// inputs.
    pub fn reconstruct(&self) -> RankTrace {
        let mut trace = RankTrace::new(self.rank);
        for exec in &self.execs {
            let Some(stored) = self.stored_segment(exec.segment) else {
                continue;
            };
            let seg = &stored.segment;
            trace.begin_segment(seg.context, exec.start);
            for event in &seg.events {
                trace.push_event(event.offset(exec.start));
            }
            trace.end_segment(seg.context, exec.start + seg.end);
        }
        trace
    }
}

/// The reduced trace of a whole application run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReducedAppTrace {
    /// Name of the traced program.
    pub name: String,
    /// Region name table (shared with the full trace).
    pub regions: RegionTable,
    /// Context name table (shared with the full trace).
    pub contexts: ContextTable,
    /// Per-rank reduced traces.
    pub ranks: Vec<ReducedRankTrace>,
}

impl ReducedAppTrace {
    /// Creates an empty reduced application trace that shares the name
    /// tables of `full`.
    pub fn for_app(full: &AppTrace) -> Self {
        ReducedAppTrace {
            name: full.name.clone(),
            regions: full.regions.clone(),
            contexts: full.contexts.clone(),
            ranks: Vec::with_capacity(full.rank_count()),
        }
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Total stored representative segments across ranks.
    pub fn total_stored(&self) -> usize {
        self.ranks.iter().map(ReducedRankTrace::stored_count).sum()
    }

    /// Total segment executions across ranks.
    pub fn total_execs(&self) -> usize {
        self.ranks.iter().map(ReducedRankTrace::exec_count).sum()
    }

    /// Application-wide degree of matching: total matches over total
    /// possible matches (Section 4.3.2).
    pub fn degree_of_matching(&self) -> f64 {
        let matches: usize = self.ranks.iter().map(ReducedRankTrace::match_count).sum();
        let possible: usize = self
            .ranks
            .iter()
            .map(ReducedRankTrace::possible_match_count)
            .sum();
        if possible == 0 {
            1.0
        } else {
            matches as f64 / possible as f64
        }
    }

    /// Checks every rank's ids ([`ReducedRankTrace::check_ids`]), in rank
    /// order.
    pub fn check_ids(&self) -> Result<(), StoredIdError> {
        self.ranks.iter().try_for_each(ReducedRankTrace::check_ids)
    }

    /// Reconstructs an approximate full application trace.
    pub fn reconstruct(&self) -> AppTrace {
        AppTrace {
            name: self.name.clone(),
            regions: self.regions.clone(),
            contexts: self.contexts.clone(),
            ranks: self
                .ranks
                .iter()
                .map(ReducedRankTrace::reconstruct)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::ids::{ContextId, RegionId};

    fn segment(context: u32, duration: u64, event_end: u64) -> Segment {
        Segment {
            context: ContextId(context),
            start: Time::ZERO,
            end: Time::from_nanos(duration),
            events: vec![Event::compute(
                RegionId(0),
                Time::from_nanos(1),
                Time::from_nanos(event_end),
            )],
        }
    }

    fn reduced_with_two_reps() -> ReducedRankTrace {
        let mut r = ReducedRankTrace::new(Rank(0));
        r.stored.push(StoredSegment {
            id: 0,
            segment: segment(0, 50, 20),
            represented: 2,
        });
        r.stored.push(StoredSegment {
            id: 1,
            segment: segment(0, 80, 70),
            represented: 1,
        });
        r.execs = vec![
            SegmentExec {
                segment: 0,
                start: Time::from_nanos(0),
            },
            SegmentExec {
                segment: 1,
                start: Time::from_nanos(100),
            },
            SegmentExec {
                segment: 0,
                start: Time::from_nanos(200),
            },
        ];
        r
    }

    #[test]
    fn counting_matches_and_possible_matches() {
        let r = reduced_with_two_reps();
        assert_eq!(r.exec_count(), 3);
        assert_eq!(r.stored_count(), 2);
        assert_eq!(r.match_count(), 1);
        // Both representatives share the same key (same context and shape),
        // so 2 of the 3 instances could possibly have matched.
        assert_eq!(r.possible_match_count(), 2);
        assert!((r.degree_of_matching() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degree_of_matching_is_one_when_nothing_possible() {
        let mut r = ReducedRankTrace::new(Rank(0));
        r.stored.push(StoredSegment {
            id: 0,
            segment: segment(0, 10, 5),
            represented: 1,
        });
        r.execs.push(SegmentExec {
            segment: 0,
            start: Time::ZERO,
        });
        assert_eq!(r.possible_match_count(), 0);
        assert_eq!(r.degree_of_matching(), 1.0);
    }

    #[test]
    fn reconstruct_replays_segments_at_exec_starts() {
        let r = reduced_with_two_reps();
        let trace = r.reconstruct();
        assert_eq!(trace.segment_instance_count(), 3);
        assert_eq!(trace.event_count(), 3);
        let events: Vec<_> = trace.events().collect();
        assert_eq!(events[0].start.as_nanos(), 1);
        assert_eq!(events[1].start.as_nanos(), 101);
        assert_eq!(events[1].end.as_nanos(), 170);
        assert_eq!(events[2].start.as_nanos(), 201);
        assert!(trace.is_well_formed());
    }

    #[test]
    fn reconstruct_skips_unknown_ids() {
        let mut r = reduced_with_two_reps();
        r.execs.push(SegmentExec {
            segment: 99,
            start: Time::from_nanos(500),
        });
        let trace = r.reconstruct();
        assert_eq!(trace.segment_instance_count(), 3);
    }

    #[test]
    fn check_ids_names_the_first_sparse_or_unknown_id() {
        let mut r = reduced_with_two_reps();
        assert_eq!(r.check_ids(), Ok(()));
        r.execs.push(SegmentExec {
            segment: 2,
            start: Time::from_nanos(500),
        });
        let unknown = StoredIdError::Unknown {
            rank: Rank(0),
            id: 2,
        };
        assert_eq!(r.check_ids(), Err(unknown));
        assert_eq!(
            unknown.to_string(),
            "rank 0: execution references unknown stored segment 2"
        );
        // A stored id out of place is named first, by its position.
        r.stored.swap(0, 1);
        let sparse = StoredIdError::Sparse {
            rank: Rank(0),
            expected: 0,
            found: 1,
        };
        assert_eq!(r.check_ids(), Err(sparse));
        assert_eq!(
            sparse.to_string(),
            "rank 0: stored ids must be dense; expected 0 got 1"
        );
        // A segment stored away from its id is not found by it.
        assert!(r.stored_segment(1).is_none());
    }

    #[test]
    fn app_level_aggregation() {
        let mut app = ReducedAppTrace::default();
        app.ranks.push(reduced_with_two_reps());
        app.ranks.push(reduced_with_two_reps());
        assert_eq!(app.total_stored(), 4);
        assert_eq!(app.total_execs(), 6);
        assert!((app.degree_of_matching() - 0.5).abs() < 1e-12);
        let full = app.reconstruct();
        assert_eq!(full.rank_count(), 2);
    }
}
