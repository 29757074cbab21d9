//! The naive stored-segments reduction the differential suites compare the
//! production reducer against.  Nothing outside `tests/`, `benches/` and
//! `examples/` links this; the suites include it with `#[path]`.
//!
//! It shares as little as possible with `trace_reduce::Reducer`, so that a
//! bug there cannot hide in both: stored representatives are grouped under
//! an owned [`SegmentKey`] in a `BTreeMap` (no shape hash, no collision
//! chain, no candidate index), every comparison runs the allocating
//! [`segments_match`] predicate (measurement vectors and wavelet transforms
//! recomputed per comparison, no prefilters, no early abandoning), and
//! `iter_avg` keeps its own running sums.  Only the segmentation pass is
//! common.

// Each includer uses its part.
#![allow(dead_code)]

use std::collections::BTreeMap;

use trace_model::{
    AppTrace, RankTrace, ReducedAppTrace, ReducedRankTrace, Segment, SegmentExec, SegmentKey,
    StoredSegment, Time,
};
use trace_reduce::segmenter::segments_of_rank_with_stats;
use trace_reduce::{segments_match, MatchStats, Method, MethodConfig, RankReduction};

/// `iter_avg`'s running sums for one representative: every instance's
/// segment end and event start / end, summed in trace order.
struct Sums {
    instances: u32,
    end: f64,
    events: Vec<(f64, f64)>,
}

impl Sums {
    fn new(events: usize) -> Sums {
        Sums {
            instances: 0,
            end: 0.0,
            events: vec![(0.0, 0.0); events],
        }
    }

    fn add(&mut self, segment: &Segment) {
        self.instances += 1;
        self.end += segment.end.as_f64();
        for (sum, event) in self.events.iter_mut().zip(&segment.events) {
            sum.0 += event.start.as_f64();
            sum.1 += event.end.as_f64();
        }
    }

    /// Writes the averages into `segment`, stretching its end over any
    /// averaged event end that rounded past it.
    fn average_into(&self, segment: &mut Segment) {
        let n = f64::from(self.instances);
        segment.end = Time::from_f64(self.end / n);
        for (event, sum) in segment.events.iter_mut().zip(&self.events) {
            event.start = Time::from_f64(sum.0 / n);
            event.end = Time::from_f64(sum.1 / n);
            segment.end = segment.end.max(event.end);
        }
    }
}

/// Reduces one rank the naive way: for every segment, scan the stored
/// representatives of its [`SegmentKey`] in insertion order and take the
/// first one [`segments_match`] accepts (`iter_k` / `iter_avg` by their
/// iteration rules), else store the segment.  Only the comparison, full
/// kernel, match and eligible counters are filled.
pub fn reduce_rank_reference(config: MethodConfig, trace: &RankTrace) -> RankReduction {
    let (segments, segmentation) = segments_of_rank_with_stats(trace);
    let mut reduced = ReducedRankTrace::new(trace.rank);
    let mut buckets: BTreeMap<SegmentKey, Vec<u32>> = BTreeMap::new();
    let mut sums: Vec<Sums> = Vec::new();
    let mut matching = MatchStats::default();

    for segment in segments {
        let start = segment.start;
        let bucket = buckets.entry(segment.key()).or_default();
        let matched = match config.method {
            Method::IterAvg => bucket.first().copied(),
            Method::IterK => bucket
                .last()
                .copied()
                .filter(|_| bucket.len() >= config.iter_k()),
            _ => {
                matching.eligible += bucket.len();
                bucket.iter().copied().find(|&id| {
                    matching.comparisons += 1;
                    matching.full_kernels += 1;
                    segments_match(&config, &segment, &reduced.stored[id as usize].segment)
                })
            }
        };
        let id = matched.unwrap_or(reduced.stored.len() as u32);
        if config.method == Method::IterAvg {
            if matched.is_none() {
                sums.push(Sums::new(segment.events.len()));
            }
            sums[id as usize].add(&segment);
        }
        match matched {
            Some(id) => {
                if config.method.is_distance_method() {
                    matching.matches += 1;
                }
                reduced.stored[id as usize].represented += 1;
            }
            None => {
                bucket.push(id);
                reduced.stored.push(StoredSegment {
                    id,
                    segment: Segment {
                        start: Time::ZERO,
                        ..segment
                    },
                    represented: 1,
                });
            }
        }
        reduced.execs.push(SegmentExec { segment: id, start });
    }

    if config.method == Method::IterAvg {
        for (stored, sums) in reduced.stored.iter_mut().zip(&sums) {
            sums.average_into(&mut stored.segment);
        }
    }
    RankReduction {
        reduced,
        segmentation,
        matching,
    }
}

/// [`reduce_rank_reference`] over every rank of an application trace.
pub fn reduce_app_reference(config: MethodConfig, app: &AppTrace) -> ReducedAppTrace {
    let mut reduced = ReducedAppTrace::for_app(app);
    reduced.ranks = app
        .ranks
        .iter()
        .map(|rank| reduce_rank_reference(config, rank).reduced)
        .collect();
    reduced
}
