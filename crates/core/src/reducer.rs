//! The stored-segments reduction algorithm (Section 3.1).
//!
//! For every rank the reducer walks the segments in trace order and, for
//! each new segment, looks for an *eligible* stored representative (same
//! context, same events in the same order, same message-passing parameters)
//! that the configured similarity method accepts.  On a match only the
//! `(representative id, start time)` pair is appended to the execution log;
//! otherwise the segment is stored as a new representative.
//!
//! The two iteration-based methods specialize this loop:
//!
//! * `iter_k` stores the first `k` instances of every segment pattern and
//!   maps later instances to the most recently stored one (the paper's
//!   footnote: missing executions are filled in with the last collected
//!   segment of the pattern);
//! * `iter_avg` stores exactly one instance per pattern whose measurements
//!   are the running average over all instances.
//!
//! # Borrowed segments, hashed shapes
//!
//! [`OnlineRankReducer::push_segment`] takes a [`SegmentRef`]: the segment
//! stays in its producer's buffer, and an owned [`Segment`] is built only
//! for the minority that end up stored.  Eligibility is one probe of an
//! ordered `shape hash → bucket numbers` map, each candidate bucket verified
//! with [`Segment::same_shape`] against the first representative stored in
//! it, then an index into a `Vec` of buckets.  Verification needs no table of
//! shapes because a bucket only comes into being when its first
//! representative is stored — the representative *is* the shape — so no
//! shape is kept twice, and a hash collision costs one extra compare, never
//! a wrong match.  The worst case is the one the algorithm already has: a
//! linear scan of the eligible candidates.
//!
//! Distance methods run through one match loop: the bucket's
//! [`crate::index`] window skips the candidates it proves unmatchable and
//! visits the rest in insertion order through the cached-feature kernels
//! ([`crate::features`]).  Each stored representative carries a
//! [`SegmentFeatures`] cache computed once at store time, the incoming
//! segment's features are computed once per segment into a reusable
//! [`MatchScratch`], and admissible prefilters / early-abandoning kernels
//! prune comparisons the similarity test would reject anyway.  The naive
//! loop this replaced lives on as test support, and the differential suite
//! requires bit-identical [`ReducedRankTrace`]s from both.

use std::collections::BTreeMap;

use trace_model::{
    AppTrace, RankTrace, ReducedAppTrace, ReducedRankTrace, Segment, SegmentExec, StoredSegment,
    Time,
};

use crate::features::{
    segments_match_cached, FeatureKind, MatchScratch, MatchStats, SegmentFeatures,
};
use crate::index::CandidateIndex;
use crate::method::{Method, MethodConfig};
use crate::segmenter::{segments_of_rank_with_stats, SegmentRef, SegmentationStats};

/// The result of reducing one rank's trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RankReduction {
    /// The reduced trace (stored representatives plus execution log).
    pub reduced: ReducedRankTrace,
    /// Statistics from the segmentation pass.
    pub segmentation: SegmentationStats,
    /// Similarity-matching counters (comparisons, prefilter hits, early
    /// abandons, index prunes).
    pub matching: MatchStats,
}

/// Running-average accumulator used by `iter_avg`.
#[derive(Clone, Debug)]
struct AverageState {
    count: f64,
    end_sum: f64,
    event_sums: Vec<(f64, f64)>,
}

impl AverageState {
    fn new(segment: &Segment) -> Self {
        AverageState {
            count: 1.0,
            end_sum: segment.end.as_f64(),
            event_sums: segment
                .events
                .iter()
                .map(|e| (e.start.as_f64(), e.end.as_f64()))
                .collect(),
        }
    }

    fn accumulate(&mut self, segment: &Segment) {
        self.count += 1.0;
        self.end_sum += segment.end.as_f64();
        for (sum, event) in self.event_sums.iter_mut().zip(&segment.events) {
            sum.0 += event.start.as_f64();
            sum.1 += event.end.as_f64();
        }
    }

    /// Writes the averaged measurements into `segment`.
    fn finalize_into(&self, segment: &mut Segment) {
        segment.end = Time::from_f64(self.end_sum / self.count);
        for (event, sum) in segment.events.iter_mut().zip(&self.event_sums) {
            event.start = Time::from_f64(sum.0 / self.count);
            event.end = Time::from_f64(sum.1 / self.count);
            // Averaged events may drift past the averaged segment end by a
            // rounding error; clamp to keep the segment well formed.
            if event.end > segment.end {
                segment.end = event.end;
            }
        }
    }
}

/// One same-shape candidate bucket: stored-representative ids in insertion
/// order plus, for the distance methods, the center-sorted candidate index
/// over their cached features.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Stored ids in insertion order — the paper's scan order.  `ids[0]` is
    /// the representative the bucket's shape is read from; it is pushed by
    /// the call that creates the bucket, so no lookup sees `ids` empty.
    ids: Vec<u32>,
    /// Candidate index; empty for the iteration-based methods.
    index: CandidateIndex,
}

/// The eligibility lookup every loop that buckets by shape goes through:
/// stored-representative ids grouped by structural identity.  Scanning a
/// bucket in insertion order is equivalent to the paper's linear scan
/// restricted to eligible segments.
#[derive(Clone, Debug, Default)]
struct ShapeBuckets {
    /// Bucket numbers by shape hash, in creation order; more than one only
    /// where distinct shapes collide.
    by_hash: BTreeMap<u64, Vec<u32>>,
    buckets: Vec<Bucket>,
}

impl ShapeBuckets {
    /// The bucket of `incoming`'s shape, told from the others under its hash
    /// by the first representative `stored` in each.  A shape not seen before
    /// gets a new, empty bucket: nothing in it can match, so the caller
    /// stores `incoming` and pushes its id before the next lookup.
    fn bucket_of(&mut self, incoming: SegmentRef<'_>, stored: &[StoredSegment]) -> &mut Bucket {
        let chain = self.by_hash.entry(incoming.shape_hash).or_default();
        let known = chain.iter().map(|&number| number as usize).find(|&number| {
            let first = self.buckets[number].ids[0] as usize;
            incoming.segment.same_shape(&stored[first].segment)
        });
        let number = known.unwrap_or_else(|| {
            chain.push(self.buckets.len() as u32);
            self.buckets.push(Bucket::default());
            self.buckets.len() - 1
        });
        &mut self.buckets[number]
    }
}

/// The owned copy of `incoming` that is stored: rebased, with the absolute
/// start kept only in the execution log.
fn stored_segment(id: u32, incoming: &Segment) -> StoredSegment {
    StoredSegment {
        id,
        segment: Segment {
            start: Time::ZERO,
            ..incoming.clone()
        },
        represented: 1,
    }
}

/// Online (segment-at-a-time) form of the stored-segments algorithm.
///
/// [`Reducer::reduce_rank`] and the streaming reduction path (the
/// `trace_stream` crate) both drive this state machine, so a rank is
/// reduced identically whether its segments arrive from an in-memory
/// [`RankTrace`] or one at a time from a file.  The state held between
/// segments is exactly the reduced trace under construction (stored
/// representatives plus the execution log) and the per-shape match buckets —
/// never the full segment stream.
#[derive(Clone, Debug)]
pub struct OnlineRankReducer {
    config: MethodConfig,
    reduced: ReducedRankTrace,
    // The match loop visits a bucket's candidates minus the ones its window
    // proves unmatchable — in insertion order.
    shapes: ShapeBuckets,
    // Running averages for iter_avg, indexed by stored id: every stored
    // representative has one, pushed when it is stored.
    averages: Vec<AverageState>,
    // Cached features per stored representative, indexed like
    // `reduced.stored`.  Empty for the iteration-based methods, which
    // never run a similarity kernel.
    features: Vec<SegmentFeatures>,
    // Reusable buffers + counters for the cached matching kernels.
    scratch: MatchScratch,
}

impl OnlineRankReducer {
    /// Creates an empty reduction state for one rank under `reducer`'s
    /// method, reusing the buffers of `scratch` (its counters are reset).
    /// Drivers that reduce many ranks thread the scratch from rank to rank
    /// through [`OnlineRankReducer::finish`], so feature buffers are
    /// allocated once per worker.
    pub fn new(reducer: &Reducer, rank: trace_model::Rank, mut scratch: MatchScratch) -> Self {
        scratch.reset_stats();
        OnlineRankReducer {
            config: reducer.config,
            reduced: ReducedRankTrace::new(rank),
            shapes: ShapeBuckets::default(),
            averages: Vec::new(),
            features: Vec::new(),
            scratch,
        }
    }

    /// Feeds the next segment in trace order — on loan: it is copied only if
    /// it ends up stored — recording an [`trace_obs::Stage::Index`] span into
    /// `obs` when a stored representative is inserted into the candidate
    /// index.  Store events are rare (one per representative, not one per
    /// segment), so the clock is only read on that path, and never with a
    /// disabled shard.
    pub fn push_segment(&mut self, incoming: SegmentRef<'_>, obs: &mut trace_obs::ObsShard) {
        let segment = incoming.segment;
        let start = segment.start;
        let config = self.config;
        let is_distance = config.method.is_distance_method();
        if is_distance {
            // Features are computed once per incoming segment and reused
            // for every candidate in the bucket — and, if the segment ends
            // up stored, cloned into its representative cache.
            self.scratch.prepare_incoming(config.method, segment);
        }
        let bucket = self.shapes.bucket_of(incoming, &self.reduced.stored);

        let matched: Option<u32> = match config.method {
            Method::IterAvg => bucket.ids.first().copied(),
            Method::IterK => {
                if bucket.ids.len() >= config.iter_k() {
                    bucket.ids.last().copied()
                } else {
                    None
                }
            }
            _ => {
                let MatchScratch {
                    incoming,
                    stats,
                    index_buf,
                    ..
                } = &mut self.scratch;
                let incoming = &*incoming;
                let features = &self.features;
                stats.eligible += bucket.ids.len();
                bucket
                    .index
                    .find_first(&config, incoming, stats, index_buf, |id, stats| {
                        segments_match_cached(&config, incoming, &features[id as usize], stats)
                    })
            }
        };

        match matched {
            Some(id) => {
                self.reduced.execs.push(SegmentExec { segment: id, start });
                self.reduced.stored[id as usize].represented += 1;
                if config.method == Method::IterAvg {
                    self.averages[id as usize].accumulate(segment);
                }
            }
            None => {
                let id = self.reduced.stored.len() as u32;
                bucket.ids.push(id);
                if config.method == Method::IterAvg {
                    self.averages.push(AverageState::new(segment));
                }
                if is_distance {
                    let span = obs.start();
                    let features = self.scratch.clone_incoming();
                    bucket.index.insert(id, config.method, &features);
                    self.features.push(features);
                    obs.end(trace_obs::Stage::Index, span);
                }
                // The cached features are unaffected by the rebase: they
                // only read times that are already relative to the segment
                // start.
                self.reduced.stored.push(stored_segment(id, segment));
                self.reduced.execs.push(SegmentExec { segment: id, start });
            }
        }
    }

    /// Number of stored representatives so far.
    pub fn stored_count(&self) -> usize {
        self.reduced.stored_count()
    }

    /// The similarity-matching counters accumulated by this reducer.
    pub fn match_stats(&self) -> MatchStats {
        self.scratch.stats()
    }

    /// Completes the reduction (finalizing `iter_avg` running averages) and
    /// returns the reduced rank trace together with the scratch, for the
    /// caller to thread into the next rank's reducer.
    pub fn finish(mut self) -> (ReducedRankTrace, MatchScratch) {
        for (stored, avg) in self.reduced.stored.iter_mut().zip(&self.averages) {
            avg.finalize_into(&mut stored.segment);
        }
        (self.reduced, self.scratch)
    }
}

/// Reduces traces: a similarity method and the recorder the run is observed
/// through, which every driver — here, in [`crate::parallel`] and in the
/// `trace_stream` crate — takes together as one `&Reducer`.  The recorder is disabled unless
/// [`Reducer::with_recorder`] attaches one; recording observes a run and
/// never steers it, so the reduced output is bit-identical either way.
#[derive(Clone, Debug)]
pub struct Reducer {
    config: MethodConfig,
    recorder: trace_obs::Recorder,
}

impl Reducer {
    /// Creates a reducer for the given method configuration.
    pub fn new(config: MethodConfig) -> Self {
        Reducer {
            config,
            recorder: trace_obs::Recorder::disabled(),
        }
    }

    /// Convenience constructor using the paper's default threshold.
    pub fn with_default_threshold(method: Method) -> Self {
        Reducer::new(MethodConfig::with_default_threshold(method))
    }

    /// Returns the reducer observed through `recorder`: drivers record
    /// their stage spans into one shard per worker and drain the merged
    /// counters into it exactly once per run.
    pub fn with_recorder(mut self, recorder: &trace_obs::Recorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// The method configuration in use.
    pub fn config(&self) -> MethodConfig {
        self.config
    }

    /// The recorder runs are observed through (disabled by default).
    pub fn recorder(&self) -> &trace_obs::Recorder {
        &self.recorder
    }

    /// Reduces a single rank trace.  The rank's stage spans go to the
    /// recorder; its counters are returned in the [`RankReduction`], not
    /// drained — whoever merges ranks drains the total once.
    pub fn reduce_rank(&self, trace: &RankTrace) -> RankReduction {
        self.reduce_rank_on(trace, &mut MatchScratch::new(), &mut self.recorder.shard())
    }

    /// [`Reducer::reduce_rank`] on a worker's own scratch and shard: the
    /// buffers are threaded from rank to rank (the counters in the returned
    /// [`RankReduction::matching`] cover only this rank), and the shard
    /// takes one [`trace_obs::Stage::Segment`] and one
    /// [`trace_obs::Stage::Match`] span per rank — nothing per segment.
    pub(crate) fn reduce_rank_on(
        &self,
        trace: &RankTrace,
        scratch: &mut MatchScratch,
        obs: &mut trace_obs::ObsShard,
    ) -> RankReduction {
        let span = obs.start();
        let (segments, segmentation) = segments_of_rank_with_stats(trace);
        obs.end(trace_obs::Stage::Segment, span);
        let mut online = OnlineRankReducer::new(self, trace.rank, std::mem::take(scratch));
        let span = obs.start();
        for segment in &segments {
            online.push_segment(SegmentRef::of(segment), obs);
        }
        obs.end(trace_obs::Stage::Match, span);
        let matching = online.match_stats();
        let (reduced, returned) = online.finish();
        *scratch = returned;
        RankReduction {
            reduced,
            segmentation,
            matching,
        }
    }

    /// Reduces every rank of an application trace on the calling thread:
    /// [`crate::reduce_app_parallel_with_stats`] with one worker.
    pub fn reduce_app(&self, app: &AppTrace) -> ReducedAppTrace {
        crate::parallel::reduce_app_parallel_with_stats(self, app, 1).0
    }
}

/// Reduces one rank trace with a caller-supplied similarity predicate.
///
/// This is the extension point used by the extended method catalogue
/// ([`crate::extended`]): the stored-segments algorithm is exactly the
/// paper's (same-shape eligibility, scan stored representatives in insertion
/// order, store a new representative on mismatch), but the similarity test
/// between a new segment and a stored representative is `predicate(new,
/// stored)` instead of one of the nine paper methods.
pub fn reduce_rank_with_predicate<F>(trace: &RankTrace, predicate: F) -> RankReduction
where
    F: Fn(&Segment, &Segment) -> bool,
{
    reduce_rank_by(trace, FeatureKind::None, |new, _, stored, _| {
        predicate(new, stored)
    })
}

/// Reduces every rank of an application trace with a caller-supplied
/// similarity predicate (see [`reduce_rank_with_predicate`]).
pub fn reduce_app_with_predicate<F>(app: &AppTrace, predicate: F) -> ReducedAppTrace
where
    F: Fn(&Segment, &Segment) -> bool,
{
    let mut reduced = ReducedAppTrace::for_app(app);
    for rank in &app.ranks {
        reduced
            .ranks
            .push(reduce_rank_with_predicate(rank, &predicate).reduced);
    }
    reduced
}

/// The stored-segments loop with the similarity test left open:
/// `accepts(new, new features, stored, stored features)`, the features being
/// those of `kind` — one computation per incoming segment, one per stored
/// representative, never one per comparison (empty for
/// [`FeatureKind::None`]).  Every candidate is a full comparison: no index,
/// no prefilter.
///
/// This is how the extended catalogue's measurement/wavelet-space methods
/// (`cosine`, `normEuclidean`, `cdf97Wave`) run; methods that read raw
/// segment structure (DTW's banded warping, the delta-time histograms) go
/// through [`reduce_rank_with_predicate`].
pub(crate) fn reduce_rank_by<F>(trace: &RankTrace, kind: FeatureKind, accepts: F) -> RankReduction
where
    F: Fn(&Segment, &SegmentFeatures, &Segment, &SegmentFeatures) -> bool,
{
    let (segments, segmentation) = segments_of_rank_with_stats(trace);
    let mut reduced = ReducedRankTrace::new(trace.rank);
    let mut shapes = ShapeBuckets::default();
    let mut features: Vec<SegmentFeatures> = Vec::new();
    let mut scratch = MatchScratch::new();
    let mut matching = MatchStats::default();

    for segment in &segments {
        scratch.prepare_incoming_kind(kind, segment);
        let ids = &mut shapes
            .bucket_of(SegmentRef::of(segment), &reduced.stored)
            .ids;

        matching.eligible += ids.len();
        let matched = ids.iter().copied().find(|&id| {
            let stored = &reduced.stored[id as usize].segment;
            matching.comparisons += 1;
            matching.full_kernels += 1;
            let accepted = accepts(segment, &scratch.incoming, stored, &features[id as usize]);
            if accepted {
                matching.matches += 1;
            }
            accepted
        });

        let id = match matched {
            Some(id) => {
                reduced.stored[id as usize].represented += 1;
                id
            }
            None => {
                let id = reduced.stored.len() as u32;
                ids.push(id);
                features.push(scratch.clone_incoming());
                reduced.stored.push(stored_segment(id, segment));
                id
            }
        };
        let start = segment.start;
        reduced.execs.push(SegmentExec { segment: id, start });
    }

    RankReduction {
        reduced,
        segmentation,
        matching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::segments_match;
    use trace_model::{ContextId, Event, Rank, RegionId};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// A rank trace with `n` iterations of one loop whose event duration is
    /// chosen per iteration by `durations`.
    fn looped_trace(durations: &[u64]) -> RankTrace {
        let mut rt = RankTrace::new(Rank(0));
        let ctx = ContextId(0);
        let mut now = 0u64;
        for &d in durations {
            rt.begin_segment(ctx, Time::from_nanos(now));
            rt.push_event(Event::compute(
                RegionId(0),
                Time::from_nanos(now + 10),
                Time::from_nanos(now + 10 + d),
            ));
            rt.end_segment(ctx, Time::from_nanos(now + 20 + d));
            now += 20 + d;
        }
        rt
    }

    #[test]
    fn identical_iterations_collapse_to_one_representative() {
        let rt = looped_trace(&[1000; 20]);
        for method in Method::ALL {
            let reducer = Reducer::with_default_threshold(method);
            let r = reducer.reduce_rank(&rt).reduced;
            assert_eq!(r.exec_count(), 20, "{method}");
            let expected_stored = if method == Method::IterK { 10 } else { 1 };
            assert_eq!(r.stored_count(), expected_stored, "{method}");
            // Every instance is represented exactly once across the stored
            // representatives; iter_k attributes the surplus to the last one.
            let represented: u32 = r.stored.iter().map(|s| s.represented).sum();
            assert_eq!(represented, 20, "{method}");
            if method != Method::IterK {
                assert_eq!(r.stored[0].represented, 20, "{method}");
            }
        }
    }

    #[test]
    fn dissimilar_iterations_are_kept_separate_by_distance_methods() {
        // Alternate short and 10x longer iterations.
        let durations: Vec<u64> = (0..20)
            .map(|i| if i % 2 == 0 { 1_000 } else { 10_000 })
            .collect();
        let rt = looped_trace(&durations);
        for method in [
            Method::RelDiff,
            Method::Manhattan,
            Method::Euclidean,
            Method::Chebyshev,
            Method::AvgWave,
            Method::HaarWave,
        ] {
            let reducer = Reducer::with_default_threshold(method);
            let r = reducer.reduce_rank(&rt).reduced;
            assert_eq!(
                r.stored_count(),
                2,
                "{method} should keep one representative per behaviour"
            );
            assert_eq!(r.exec_count(), 20);
        }
        // iter_avg merges everything regardless.
        let r = Reducer::with_default_threshold(Method::IterAvg)
            .reduce_rank(&rt)
            .reduced;
        assert_eq!(r.stored_count(), 1);
    }

    #[test]
    fn iter_k_keeps_exactly_k_instances_per_pattern() {
        let rt = looped_trace(&[1000; 25]);
        let reducer = Reducer::new(MethodConfig::new(Method::IterK, 5.0));
        let r = reducer.reduce_rank(&rt).reduced;
        assert_eq!(r.stored_count(), 5);
        assert_eq!(r.exec_count(), 25);
        // Later executions reference the last stored instance.
        assert!(r.execs[10..].iter().all(|e| e.segment == 4));
    }

    #[test]
    fn iter_avg_stores_running_average_measurements() {
        let rt = looped_trace(&[1000, 2000, 3000]);
        let reducer = Reducer::with_default_threshold(Method::IterAvg);
        let r = reducer.reduce_rank(&rt).reduced;
        assert_eq!(r.stored_count(), 1);
        assert_eq!(r.stored[0].represented, 3);
        let avg_event = r.stored[0].segment.events[0];
        // Event starts at 10 in every instance; ends at 10 + {1000,2000,3000}.
        assert_eq!(avg_event.start.as_nanos(), 10);
        assert_eq!(avg_event.end.as_nanos(), 2010);
        assert_eq!(r.stored[0].segment.end.as_nanos(), 2020);
    }

    #[test]
    fn exec_log_preserves_start_times_in_order() {
        let rt = looped_trace(&[500; 5]);
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let r = reducer.reduce_rank(&rt).reduced;
        let starts: Vec<u64> = r.execs.iter().map(|e| e.start.as_nanos()).collect();
        assert_eq!(starts, vec![0, 520, 1040, 1560, 2080]);
        // Reconstruction puts events back at their absolute times.
        let rebuilt = r.reconstruct();
        assert!(rebuilt.is_well_formed());
        assert_eq!(rebuilt.event_count(), 5);
        assert_eq!(rebuilt.events().next().unwrap().start.as_nanos(), 10);
    }

    #[test]
    fn segments_with_different_contexts_never_match() {
        let mut rt = RankTrace::new(Rank(0));
        for (ctx, base) in [(0u32, 0u64), (1, 100), (0, 200), (1, 300)] {
            rt.begin_segment(ContextId(ctx), Time::from_nanos(base));
            rt.push_event(Event::compute(
                RegionId(0),
                Time::from_nanos(base + 1),
                Time::from_nanos(base + 50),
            ));
            rt.end_segment(ContextId(ctx), Time::from_nanos(base + 60));
        }
        let r = Reducer::with_default_threshold(Method::IterAvg)
            .reduce_rank(&rt)
            .reduced;
        assert_eq!(r.stored_count(), 2, "one representative per context");
        assert_eq!(r.exec_count(), 4);
        assert_eq!(r.degree_of_matching(), 1.0);
    }

    #[test]
    fn reduce_app_covers_every_rank_and_reconstructs() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let reduced = reducer.reduce_app(&app);
        assert_eq!(reduced.rank_count(), app.rank_count());
        for (rrt, rt) in reduced.ranks.iter().zip(&app.ranks) {
            assert_eq!(rrt.exec_count(), rt.segment_instance_count());
        }
        let approx = reduced.reconstruct();
        // Note: the reconstruction is an *approximation* — a representative
        // segment may be slightly longer than the instance it stands in for,
        // so record times can locally overlap; we only require structural
        // equivalence here.
        assert_eq!(approx.rank_count(), app.rank_count());
        // Reconstruction preserves the number of events because every
        // execution replays a representative with the same event count
        // (segments only match when shapes are identical).
        assert_eq!(approx.total_events(), app.total_events());
    }

    #[test]
    fn tighter_thresholds_store_at_least_as_many_segments() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in [Method::RelDiff, Method::Euclidean, Method::AvgWave] {
            let mut previous = usize::MAX;
            for threshold in [1.0, 0.6, 0.2, 0.05] {
                let reduced = Reducer::new(MethodConfig::new(method, threshold)).reduce_app(&app);
                let stored = reduced.total_stored();
                assert!(stored >= 1);
                if previous != usize::MAX {
                    assert!(
                        stored >= previous,
                        "{method}: stored {stored} at threshold {threshold} must be >= {previous}"
                    );
                }
                previous = stored;
            }
        }
    }

    #[test]
    fn degree_of_matching_is_high_for_regular_trace() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        assert!(
            reduced.degree_of_matching() > 0.9,
            "regular benchmark should match >90% of possible matches, got {}",
            reduced.degree_of_matching()
        );
    }

    #[test]
    fn rel_diff_stores_more_segments_than_minkowski_on_regular_trace() {
        // The paper finds relDiff to be the strictest practical metric on
        // the regular benchmarks (largest files, lowest degree of matching):
        // the tiny, highly variable time stamps near the segment start fail
        // the relative-difference test long before they matter to a
        // magnitude-scaled distance like Euclidean.
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Small).generate();
        let rel = Reducer::with_default_threshold(Method::RelDiff).reduce_app(&app);
        let euc = Reducer::with_default_threshold(Method::Euclidean).reduce_app(&app);
        assert!(
            rel.total_stored() >= euc.total_stored(),
            "relDiff ({}) should store at least as many representatives as Euclidean ({})",
            rel.total_stored(),
            euc.total_stored()
        );
        assert!(
            rel.degree_of_matching() <= euc.degree_of_matching(),
            "relDiff must not out-match Euclidean on a regular benchmark"
        );
    }

    #[test]
    fn predicate_reducer_with_always_true_matches_like_iter_avg_structure() {
        let rt = looped_trace(&[1000, 2000, 3000, 4000]);
        let r = reduce_rank_with_predicate(&rt, |_, _| true).reduced;
        assert_eq!(r.stored_count(), 1);
        assert_eq!(r.exec_count(), 4);
        assert_eq!(r.stored[0].represented, 4);
    }

    #[test]
    fn predicate_reducer_with_always_false_stores_every_instance() {
        let rt = looped_trace(&[1000; 6]);
        let r = reduce_rank_with_predicate(&rt, |_, _| false).reduced;
        assert_eq!(r.stored_count(), 6);
        assert_eq!(r.exec_count(), 6);
        assert_eq!(r.degree_of_matching(), 0.0);
    }

    #[test]
    fn predicate_reducer_never_mixes_shapes() {
        // Even an always-true predicate only sees same-shape candidates.
        let mut rt = RankTrace::new(Rank(0));
        for (ctx, base) in [(0u32, 0u64), (1, 100), (0, 200)] {
            rt.begin_segment(ContextId(ctx), Time::from_nanos(base));
            rt.push_event(Event::compute(
                RegionId(ctx),
                Time::from_nanos(base + 1),
                Time::from_nanos(base + 50),
            ));
            rt.end_segment(ContextId(ctx), Time::from_nanos(base + 60));
        }
        let r = reduce_rank_with_predicate(&rt, |_, _| true).reduced;
        assert_eq!(r.stored_count(), 2);
    }

    #[test]
    fn predicate_matching_paper_metric_reproduces_reducer_output() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let config = MethodConfig::with_default_threshold(Method::Euclidean);
        let via_reducer = Reducer::new(config).reduce_app(&app);
        let via_predicate = reduce_app_with_predicate(&app, |a, b| segments_match(&config, a, b));
        assert_eq!(via_reducer.total_stored(), via_predicate.total_stored());
        assert_eq!(via_reducer.total_execs(), via_predicate.total_execs());
    }

    #[test]
    fn colliding_shape_hashes_cannot_change_the_output() {
        // Every segment of every rank is filed under hash 0, so all shapes
        // share one chain and only `same_shape` tells them apart; the output
        // must equal the same reducer's with real hashes.
        let mut longest_chain = 0;
        for workload in Workload::all(SizePreset::Tiny) {
            let app = workload.generate();
            for method in Method::ALL {
                let config = MethodConfig::with_default_threshold(method);
                let reducer = Reducer::new(config);
                for rank in &app.ranks {
                    let mut online =
                        OnlineRankReducer::new(&reducer, rank.rank, MatchScratch::new());
                    let mut obs = trace_obs::ObsShard::disabled();
                    for segment in &crate::segments_of_rank(rank) {
                        let shape_hash = 0;
                        online.push_segment(
                            SegmentRef {
                                segment,
                                shape_hash,
                            },
                            &mut obs,
                        );
                    }
                    assert!(online.shapes.by_hash.len() <= 1);
                    let distinct = online.shapes.buckets.len();
                    longest_chain = longest_chain.max(distinct);
                    let hashed = reducer.reduce_rank(rank);
                    assert_eq!(
                        online.finish().0,
                        hashed.reduced,
                        "{method} on {} rank {}, {distinct} shapes in one chain",
                        workload.kind.name(),
                        rank.rank.0
                    );
                }
            }
        }
        assert!(longest_chain > 1, "no rank had two shapes to collide");
    }
}
