//! Properties of the shape hash a [`SegmentRef`] carries.
//!
//! The reducer relies on one direction only — segments of the same shape
//! hash alike, so a bucket is never missed — and verifies the other with
//! [`Segment::same_shape`].  The near-miss cases pin that the fold really
//! reads every field in its place: a hash that ignored one would still be
//! correct, but would file distinct shapes in one chain on real traces.

mod oracle;

use proptest::prelude::*;

use oracle::arbitrary_event;
use trace_model::{CommInfo, ContextId, Event, Rank, Segment, Time};
use trace_reduce::SegmentRef;

fn segment(context: u32, events: &[Event]) -> Segment {
    Segment::from_absolute(
        ContextId(context),
        Time::ZERO,
        Time::from_nanos(1_000),
        events.iter().copied(),
    )
}

fn hash(segment: &Segment) -> u64 {
    SegmentRef::of(segment).shape_hash()
}

/// The same call with two parameters exchanged, or under the sibling variant.
fn near_misses(comm: CommInfo) -> Vec<CommInfo> {
    match comm {
        CommInfo::Send { peer, tag, bytes } => vec![
            CommInfo::Send {
                peer: Rank(tag),
                tag: peer.0,
                bytes,
            },
            CommInfo::Recv { peer, tag, bytes },
        ],
        CommInfo::Recv { peer, tag, bytes } => vec![
            CommInfo::Recv {
                peer: Rank(tag),
                tag: peer.0,
                bytes,
            },
            CommInfo::Send { peer, tag, bytes },
        ],
        CommInfo::SendRecv {
            to,
            from,
            tag,
            bytes,
        } => vec![
            CommInfo::SendRecv {
                to: from,
                from: to,
                tag,
                bytes,
            },
            CommInfo::SendRecv {
                to: Rank(tag),
                from,
                tag: to.0,
                bytes,
            },
        ],
        CommInfo::Collective {
            op,
            root,
            comm_size,
            bytes,
        } => vec![CommInfo::Collective {
            op,
            root: Rank(comm_size),
            comm_size: root.0,
            bytes,
        }],
        CommInfo::Compute => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn same_shape_implies_same_hash(
        context in 0u32..2,
        other_context in 0u32..2,
        events in prop::collection::vec(arbitrary_event(500), 0..5),
        others in prop::collection::vec(arbitrary_event(500), 0..5),
        shifts in prop::collection::vec(0u64..400, 5),
    ) {
        let a = segment(context, &events);
        // Another segment altogether: small id ranges make shapes meet.
        let b = segment(other_context, &others);
        if a.same_shape(&b) {
            prop_assert_eq!(hash(&a), hash(&b));
        }
        // The same shape at other times.
        let moved: Vec<Event> = events
            .iter()
            .zip(&shifts)
            .map(|(e, &shift)| Event { wait: e.wait + Time::from_nanos(shift), ..e.offset(Time::from_nanos(shift)) })
            .collect();
        let c = Segment { start: Time::from_nanos(77), ..segment(context, &moved) };
        prop_assert!(a.same_shape(&c));
        prop_assert_eq!(hash(&a), hash(&c));
    }

    #[test]
    fn near_miss_shapes_hash_apart(
        context in any::<u32>(),
        events in prop::collection::vec(arbitrary_event(500), 1..6),
        at in any::<prop::sample::Index>(),
    ) {
        let a = segment(context, &events);

        let elsewhere = segment(context ^ 1, &events);
        assert_ne!(hash(&a), hash(&elsewhere), "another context");

        let prefix = segment(context, &events[..events.len() - 1]);
        assert_ne!(hash(&a), hash(&prefix), "a prefix of the events");

        let at = at.index(events.len());
        for comm in near_misses(events[at].comm) {
            let mut changed = events.clone();
            changed[at].comm = comm;
            let b = segment(context, &changed);
            if !a.same_shape(&b) {
                assert_ne!(hash(&a), hash(&b), "event {} as {:?}", at, comm);
            }
        }

        let mut region = events.clone();
        region[at].region.0 ^= 1;
        assert_ne!(hash(&a), hash(&segment(context, &region)), "another region");
    }
}
