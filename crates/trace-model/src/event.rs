//! Events: completed program activities with entry/exit time stamps.
//!
//! Following the paper, an *event* is a completed invocation of a traced
//! region: it has a start time stamp, an end time stamp, an identifier (the
//! region), and, for message-passing calls, the call parameters.  Segment
//! matching requires that candidate segments contain the same events in the
//! same order and that "all message passing calls and parameters are the
//! same" (Section 4.3.2), which is why the communication metadata is part of
//! the event identity.

use crate::ids::{Rank, RegionId};
use crate::time::{Duration, Time};

/// The collective operation performed by a collective event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CollectiveOp {
    /// `MPI_Barrier`-style N-to-N synchronization with no payload.
    Barrier,
    /// `MPI_Bcast`: 1-to-N, root sends to all.
    Bcast,
    /// `MPI_Scatter`: 1-to-N, root distributes distinct pieces.
    Scatter,
    /// `MPI_Gather`: N-to-1, root collects from all.
    Gather,
    /// `MPI_Reduce`: N-to-1 with a reduction at the root.
    Reduce,
    /// `MPI_Allgather`: N-to-N gather to every rank.
    Allgather,
    /// `MPI_Allreduce`: N-to-N reduction to every rank.
    Allreduce,
    /// `MPI_Alltoall`: N-to-N personalized exchange.
    Alltoall,
}

impl CollectiveOp {
    /// True for operations where every participant must wait for every other
    /// participant (the "N-to-N" communication pattern of the paper).
    pub fn is_n_to_n(self) -> bool {
        matches!(
            self,
            CollectiveOp::Barrier
                | CollectiveOp::Allgather
                | CollectiveOp::Allreduce
                | CollectiveOp::Alltoall
        )
    }

    /// True for 1-to-N operations (late root blocks all receivers).
    pub fn is_one_to_n(self) -> bool {
        matches!(self, CollectiveOp::Bcast | CollectiveOp::Scatter)
    }

    /// True for N-to-1 operations (late senders block the root).
    pub fn is_n_to_one(self) -> bool {
        matches!(self, CollectiveOp::Gather | CollectiveOp::Reduce)
    }

    /// Canonical MPI-style function name for this operation.
    pub fn mpi_name(self) -> &'static str {
        match self {
            CollectiveOp::Barrier => "MPI_Barrier",
            CollectiveOp::Bcast => "MPI_Bcast",
            CollectiveOp::Scatter => "MPI_Scatter",
            CollectiveOp::Gather => "MPI_Gather",
            CollectiveOp::Reduce => "MPI_Reduce",
            CollectiveOp::Allgather => "MPI_Allgather",
            CollectiveOp::Allreduce => "MPI_Allreduce",
            CollectiveOp::Alltoall => "MPI_Alltoall",
        }
    }

    /// All collective operations, used by tests and the codec.
    pub const ALL: [CollectiveOp; 8] = [
        CollectiveOp::Barrier,
        CollectiveOp::Bcast,
        CollectiveOp::Scatter,
        CollectiveOp::Gather,
        CollectiveOp::Reduce,
        CollectiveOp::Allgather,
        CollectiveOp::Allreduce,
        CollectiveOp::Alltoall,
    ];
}

/// Communication metadata attached to an event.
///
/// `Compute` events carry no metadata; point-to-point events carry the peer,
/// tag and payload size; collectives carry the operation, root and
/// communicator size.  These parameters participate in segment-match
/// eligibility.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum CommInfo {
    /// A purely local computation region (e.g. `do_work`).
    #[default]
    Compute,
    /// A blocking or synchronous send to `peer`.
    Send {
        /// Destination rank.
        peer: Rank,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A blocking receive from `peer`.
    Recv {
        /// Source rank.
        peer: Rank,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A combined send/receive exchange (e.g. `MPI_Sendrecv`).
    SendRecv {
        /// Destination rank of the send half.
        to: Rank,
        /// Source rank of the receive half.
        from: Rank,
        /// Message tag.
        tag: u32,
        /// Payload size in bytes (per direction).
        bytes: u64,
    },
    /// A collective operation over `comm_size` ranks.
    Collective {
        /// Which collective operation.
        op: CollectiveOp,
        /// Root rank (meaningful for rooted collectives; 0 otherwise).
        root: Rank,
        /// Number of participating ranks.
        comm_size: u32,
        /// Per-rank payload size in bytes.
        bytes: u64,
    },
}

impl CommInfo {
    /// True if the event represents any message-passing call.
    pub fn is_communication(&self) -> bool {
        !matches!(self, CommInfo::Compute)
    }
}

/// A completed invocation of a traced region.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Event {
    /// The traced region (function) that executed.
    pub region: RegionId,
    /// Entry time stamp.  Absolute in a [`crate::trace::RankTrace`], relative
    /// to the segment start inside a [`crate::segment::Segment`].
    pub start: Time,
    /// Exit time stamp (same base as `start`).
    pub end: Time,
    /// Communication metadata / call parameters.
    pub comm: CommInfo,
    /// Time within the event spent blocked waiting on other ranks.  The
    /// simulator records this to make the ground-truth analysis exact; the
    /// analysis crate recomputes wait states from timings alone when
    /// diagnosing reconstructed traces.
    pub wait: Duration,
}

impl Event {
    /// Creates a computation event.
    pub fn compute(region: RegionId, start: Time, end: Time) -> Self {
        Event {
            region,
            start,
            end,
            comm: CommInfo::Compute,
            wait: Duration::ZERO,
        }
    }

    /// Creates an event with communication metadata.
    pub fn with_comm(region: RegionId, start: Time, end: Time, comm: CommInfo) -> Self {
        Event {
            region,
            start,
            end,
            comm,
            wait: Duration::ZERO,
        }
    }

    /// Sets the blocked-waiting portion of the event and returns it.
    pub fn with_wait(mut self, wait: Duration) -> Self {
        self.wait = wait;
        self
    }

    /// Wall-clock duration of the event.
    #[inline]
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// True if the event's timestamps are ordered (`start <= end`).
    #[inline]
    pub fn is_well_formed(&self) -> bool {
        self.start <= self.end && self.wait <= self.duration()
    }

    /// Returns the event with both time stamps shifted earlier by `base`
    /// (used when rebasing a segment to its start time).
    pub fn rebased(&self, base: Time) -> Event {
        Event {
            start: self.start - base,
            end: self.end - base,
            ..*self
        }
    }

    /// Returns the event with both time stamps shifted later by `offset`
    /// (used when reconstructing an approximate full trace).
    pub fn offset(&self, offset: Time) -> Event {
        Event {
            start: self.start + offset,
            end: self.end + offset,
            ..*self
        }
    }

    /// True if two events may be considered for a match: same region, same
    /// kind of call and same call parameters (peer/tag/size/op/root).
    ///
    /// This is the "same events in the same order, and all message passing
    /// calls and parameters are the same" requirement of the paper; the
    /// timings are *not* part of eligibility, they are what the similarity
    /// metrics compare.
    pub(crate) fn matches_shape(&self, other: &Event) -> bool {
        self.region == other.region && self.comm == other.comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(id: u32) -> RegionId {
        RegionId(id)
    }

    #[test]
    fn collective_categories_are_disjoint() {
        for op in CollectiveOp::ALL {
            let cats = [op.is_n_to_n(), op.is_one_to_n(), op.is_n_to_one()];
            assert_eq!(
                cats.iter().filter(|&&c| c).count(),
                1,
                "{op:?} must be in exactly one category"
            );
        }
    }

    #[test]
    fn mpi_names_unique() {
        let mut names: Vec<_> = CollectiveOp::ALL.iter().map(|o| o.mpi_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CollectiveOp::ALL.len());
    }

    #[test]
    fn rebase_and_offset_round_trip() {
        let e = Event::compute(region(1), Time::from_nanos(120), Time::from_nanos(180));
        let rebased = e.rebased(Time::from_nanos(100));
        assert_eq!(rebased.start.as_nanos(), 20);
        assert_eq!(rebased.end.as_nanos(), 80);
        let back = rebased.offset(Time::from_nanos(100));
        assert_eq!(back, e);
    }

    #[test]
    fn duration_and_well_formed() {
        let e = Event::compute(region(0), Time::from_nanos(5), Time::from_nanos(25));
        assert_eq!(e.duration().as_nanos(), 20);
        assert!(e.is_well_formed());
        let bad = Event {
            start: Time::from_nanos(30),
            end: Time::from_nanos(10),
            ..e
        };
        assert!(!bad.is_well_formed());
        let too_much_wait = e.with_wait(Duration::from_nanos(21));
        assert!(!too_much_wait.is_well_formed());
    }

    #[test]
    fn matches_shape_requires_same_parameters() {
        let send_a = Event::with_comm(
            region(2),
            Time::ZERO,
            Time::from_nanos(10),
            CommInfo::Send {
                peer: Rank(1),
                tag: 7,
                bytes: 1024,
            },
        );
        let send_b = Event::with_comm(
            region(2),
            Time::from_nanos(100),
            Time::from_nanos(160),
            CommInfo::Send {
                peer: Rank(1),
                tag: 7,
                bytes: 1024,
            },
        );
        let send_other_peer = Event::with_comm(
            region(2),
            Time::ZERO,
            Time::from_nanos(10),
            CommInfo::Send {
                peer: Rank(2),
                tag: 7,
                bytes: 1024,
            },
        );
        assert!(send_a.matches_shape(&send_b), "timings do not matter");
        assert!(!send_a.matches_shape(&send_other_peer), "peer matters");
    }

    #[test]
    fn comm_info_classification() {
        assert!(!CommInfo::Compute.is_communication());
        let coll = CommInfo::Collective {
            op: CollectiveOp::Alltoall,
            root: Rank(0),
            comm_size: 8,
            bytes: 64,
        };
        assert!(coll.is_communication());
    }
}
