//! The naive reference reduction the differential suites compare against.
//!
//! It shares nothing with [`crate::reducer`] that could hide a bug there: it
//! groups stored representatives under an owned [`SegmentKey`] in a
//! `BTreeMap` — no shape hash, no collision chain — and compares with the
//! allocating [`segments_match`] predicate.  Only the segmentation pass and
//! the `iter_avg` accumulator are common.

use std::collections::BTreeMap;

use trace_model::{
    AppTrace, RankTrace, ReducedAppTrace, ReducedRankTrace, SegmentExec, SegmentKey, StoredSegment,
    Time,
};

use crate::features::MatchStats;
use crate::method::{Method, MethodConfig};
use crate::metric::segments_match;
use crate::reducer::{AverageState, RankReduction};
use crate::segmenter::segments_of_rank_with_stats;

/// Naive reference implementation of the stored-segments reduction: the
/// pre-fast-path behaviour, comparing the incoming segment against each
/// stored representative with the allocating [`segments_match`] predicate
/// (measurement vectors and wavelet transforms recomputed per comparison,
/// no prefilters, no early abandoning).
///
/// Kept — and exported — purely so property tests and benches can assert
/// that the cached fast path produces bit-identical output and measure the
/// speedup; production callers should use [`crate::Reducer`].
pub fn reduce_rank_reference(config: MethodConfig, trace: &RankTrace) -> RankReduction {
    let (segments, segmentation) = segments_of_rank_with_stats(trace);
    let mut reduced = ReducedRankTrace::new(trace.rank);
    let mut buckets: BTreeMap<SegmentKey, Vec<u32>> = BTreeMap::new();
    let mut averages: BTreeMap<u32, AverageState> = BTreeMap::new();
    let mut matching = MatchStats::default();

    for segment in segments {
        let key = segment.key();
        let start = segment.start;
        let bucket = buckets.entry(key).or_default();

        let matched: Option<u32> = match config.method {
            Method::IterAvg => bucket.first().copied(),
            Method::IterK => {
                if bucket.len() >= config.iter_k() {
                    bucket.last().copied()
                } else {
                    None
                }
            }
            _ => {
                matching.eligible += bucket.len();
                bucket.iter().copied().find(|&id| {
                    let stored = &reduced.stored[id as usize].segment;
                    matching.comparisons += 1;
                    matching.full_kernels += 1;
                    let accepted = segments_match(&config, &segment, stored);
                    if accepted {
                        matching.matches += 1;
                    }
                    accepted
                })
            }
        };

        match matched {
            Some(id) => {
                reduced.execs.push(SegmentExec { segment: id, start });
                reduced.stored[id as usize].represented += 1;
                if config.method == Method::IterAvg {
                    averages
                        .get_mut(&id)
                        .expect("iter_avg representative must have an accumulator")
                        .accumulate(&segment);
                }
            }
            None => {
                let id = reduced.stored.len() as u32;
                bucket.push(id);
                if config.method == Method::IterAvg {
                    averages.insert(id, AverageState::new(&segment));
                }
                let mut stored_segment = segment;
                stored_segment.start = Time::ZERO;
                reduced.stored.push(StoredSegment {
                    id,
                    segment: stored_segment,
                    represented: 1,
                });
                reduced.execs.push(SegmentExec { segment: id, start });
            }
        }
    }

    if config.method == Method::IterAvg {
        for stored in &mut reduced.stored {
            if let Some(avg) = averages.get(&stored.id) {
                avg.finalize_into(&mut stored.segment);
            }
        }
    }

    RankReduction {
        reduced,
        segmentation,
        matching,
    }
}

/// Naive reference reduction of a whole application trace (see
/// [`reduce_rank_reference`]).
pub fn reduce_app_reference(config: MethodConfig, app: &AppTrace) -> ReducedAppTrace {
    let mut reduced = ReducedAppTrace::for_app(app);
    for rank in &app.ranks {
        reduced
            .ranks
            .push(reduce_rank_reference(config, rank).reduced);
    }
    reduced
}
