//! Differential test of the borrowing [`OnlineSegmenter`] against the owning
//! segmenter it replaced (`oracle/`), on record streams with every kind of
//! malformed marker structure: a begin inside an open segment, an end whose
//! context does not match, an end without a begin, orphan events, empty
//! segments, events stamped *before* their segment's start (so the rebase
//! saturates) and a stream that stops with a segment open.  Both must cut
//! the same segments in the same order and count the same
//! [`trace_reduce::SegmentationStats`]; the hash lent with each segment must
//! be the one [`SegmentRef::of`] computes from the finished segment.

mod oracle;

use proptest::prelude::*;

use oracle::{arbitrary_event, OwningSegmenter};
use trace_model::{ContextId, Rank, RankTrace, Segment, Time, TraceRecord};
use trace_reduce::{segments_of_rank, OnlineSegmenter, SegmentRef};

/// Time stamps of markers and events are drawn from the same short range,
/// independently: nothing orders them.
const HORIZON: u64 = 400;

fn arbitrary_record() -> impl Strategy<Value = TraceRecord> {
    let marker = || (0u32..3, 0..HORIZON);
    prop_oneof![
        marker().prop_map(|(context, time)| TraceRecord::SegmentBegin {
            context: ContextId(context),
            time: Time::from_nanos(time),
        }),
        marker().prop_map(|(context, time)| TraceRecord::SegmentEnd {
            context: ContextId(context),
            time: Time::from_nanos(time),
        }),
        arbitrary_event(HORIZON).prop_map(TraceRecord::Event),
        arbitrary_event(HORIZON).prop_map(TraceRecord::Event),
    ]
}

/// What a lent segment must equal: the oracle's owned one, hash included.
fn assert_same(lent: Option<SegmentRef<'_>>, owned: Option<Segment>, at: usize) {
    match (lent, owned) {
        (None, None) => {}
        (Some(lent), Some(owned)) => {
            assert_eq!(lent.segment(), &owned, "segment closed by record {at}");
            assert_eq!(
                lent.shape_hash(),
                SegmentRef::of(&owned).shape_hash(),
                "hash of the segment closed by record {at}"
            );
        }
        (lent, owned) => panic!("record {at}: lent {lent:?}, oracle {owned:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn borrowing_segmenter_cuts_what_the_owning_one_did(
        records in prop::collection::vec(arbitrary_record(), 0..60),
    ) {
        let mut segmenter = OnlineSegmenter::new();
        let mut oracle = OwningSegmenter::new();
        for (at, record) in records.iter().enumerate() {
            assert_same(segmenter.push(record), oracle.push(record), at);
            prop_assert_eq!(segmenter.has_open_segment(), oracle.has_open_segment());
            prop_assert_eq!(segmenter.stats(), oracle.stats());
        }
        assert_same(segmenter.finish(), oracle.finish(), records.len());
        prop_assert!(!segmenter.has_open_segment());
        prop_assert_eq!(segmenter.stats(), oracle.stats());
        // Finishing twice lends nothing and counts nothing.
        prop_assert!(segmenter.finish().is_none());
        prop_assert_eq!(segmenter.stats(), oracle.stats());

        // The batch helper is the same machine, collected.
        let mut trace = RankTrace::new(Rank(0));
        trace.records = records.clone();
        let mut oracle = OwningSegmenter::new();
        let mut expected: Vec<Segment> = records.iter().filter_map(|r| oracle.push(r)).collect();
        expected.extend(oracle.finish());
        prop_assert_eq!(segments_of_rank(&trace), expected);
    }
}
