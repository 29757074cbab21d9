//! Cached per-segment features and allocation-free similarity kernels.
//!
//! The stored-segments algorithm (Section 3.1) compares every incoming
//! segment against the stored representatives that share its structural
//! key.  The naive predicates in [`crate::metric`] rebuild measurement
//! vectors — and, for the wavelet methods, re-run the full transform on
//! *both* segments — for every candidate comparison.  This module removes
//! that repeated work without changing a single match decision:
//!
//! * [`SegmentFeatures`] caches, per segment, what the configured method
//!   reads on every comparison.  For the measurement-vector family that is
//!   the vector with its duration and maximum, plus the one norm the
//!   method's prefilter reads: L1 for Manhattan, L2 for Euclidean (and the
//!   extended cosine), none for relDiff, absDiff and Chebyshev.
//!   For the wavelet methods it is the coefficients and their largest
//!   magnitude, computed in one pass straight from the events
//!   ([`WaveletKind::transform_pairs_into`] over [`Segment::wavelet_pairs`]):
//!   no time-stamp vector, no copy-back between levels, no second pass for
//!   the maximum.  Stored representatives compute features once at store
//!   time; incoming segments once per segment (not per candidate).  No
//!   L2 norm of the wavelet coefficients is ever computed: no kernel and no
//!   window of the candidate index ([`crate::index`]) reads one.
//! * [`MatchScratch`] owns the reusable buffers (and the running
//!   [`MatchStats`]), so a whole rank — or, handed from one
//!   [`crate::reducer::OnlineRankReducer`] to the next, a whole stream of
//!   ranks — is matched without per-comparison allocations.
//! * [`segments_match_cached`] runs cheap *admissible* prefilters before
//!   any full kernel (per-method lower bounds from the segment duration,
//!   the cached norms and the leading wavelet coefficient that prove
//!   `distance > threshold · scale` in O(1)), then early-abandoning kernels
//!   that stop as soon as the running sum alone exceeds the bound.
//!
//! # Equivalence discipline
//!
//! The acceptance bar for this fast path is *bit-identical* reduced traces,
//! so every shortcut is justified against the exact floating-point
//! behaviour of the naive predicates, not against real-number algebra:
//!
//! * **Shared scalar kernels.**  The full kernels accumulate the very same
//!   expressions, in the same order, as [`trace_model::stats`] /
//!   [`trace_wavelet::coefficient_distance`], so a comparison that is not
//!   pruned produces the identical distance value.
//! * **Monotone partial sums.**  Adding a non-negative f64 term never
//!   decreases a rounded-to-nearest sum, and `sqrt`/division by a positive
//!   constant are monotone; therefore a partial sum (or per-row DTW
//!   minimum) that already exceeds the bound proves the completed naive
//!   distance does too.  Early abandons only ever fire on comparisons the
//!   naive predicate also rejects.
//! * **Exact duration prefilters.**  The first entry of the measurement
//!   vector is the segment duration, so the duration lower bounds are
//!   literally the first term of the naive computation, compared with the
//!   identical bound value.
//! * **Slacked norm prefilters.**  The reverse triangle inequality
//!   (`|‖a‖ − ‖b‖| ≤ ‖a − b‖`) holds for exact reals, but the computed
//!   L1/L2 norms carry accumulation error proportional to the norm
//!   *magnitude* — which can exceed a small gap outright for long
//!   segments with large timestamps.  The gap is therefore reduced by the
//!   absolute `norm_gap_slack` (a multiple of `n · ε · (‖a‖ + ‖b‖)`) and
//!   compared against a bound inflated by the distance computation's own
//!   worst-case accumulation factor, restoring a provable implication
//!   "prefilter rejects ⇒ naive kernel rejects".  The sup-norm
//!   (Chebyshev) gap involves no accumulation, so a relative
//!   `SUP_GAP_MARGIN` suffices there.
//! * **One-pass features.**  The fused transform computes every
//!   coefficient as the same `(a ± b) * scale` on the same operands as
//!   [`trace_wavelet::average_transform`] / [`trace_wavelet::haar_transform`]
//!   of [`Segment::wavelet_vector`] — zero padding included, whose pairs
//!   give `(0 ± 0) * scale = +0.0` — so the coefficients are bit-identical.
//!   Its running maximum folds `|c|` as coefficients are written rather
//!   than in vector order, and `max` over non-negative finite values does
//!   not depend on order.
//!
//! The naive loop these kernels replaced survives as test support
//! (`tests/support/reference.rs`); the differential suite in
//! `tests/index_equivalence.rs` drives the reducer and that reference
//! across all nine methods and the threshold grids and requires identical
//! output.

use trace_model::{stats, Segment};
use trace_wavelet::WaveletKind;

use crate::method::{Method, MethodConfig};
use crate::metric::abs_diff_limit;

/// Safety factor applied to the *sup-norm* (single-value) gap lower bound.
/// The cached maxima are exact folds of input values, their subtraction is
/// correctly rounded, and every Chebyshev distance term is a correctly
/// rounded single subtraction — all errors are relative to the quantities
/// being compared, so shrinking by one part in 10⁹ (versus a worst case of
/// a few parts in 10¹⁶) makes the float comparison admissible.  This
/// reasoning does NOT extend to the accumulated L1/L2 norms, whose error
/// is relative to the norm *magnitude*; those prefilters use the additive
/// [`norm_gap_slack`] instead.
const SUP_GAP_MARGIN: f64 = 1.0 - 1e-9;

/// Absolute slack for the accumulated-norm gap prefilters.
///
/// An `n`-term norm accumulation carries rounding error bounded by
/// `~n · ε` *relative to the norm magnitude* — for long segments with
/// large timestamps that absolute error can exceed a small norm gap
/// entirely, so a multiplicative margin on the gap is not admissible (two
/// near-identical hour-long segments have norms ~10¹⁶ whose last-ulp
/// rounding is ~2 ns, larger than a few-ns distance bound).  Subtracting
/// `4 · n · ε · (‖a‖ + ‖b‖)` — double the worst-case accumulation error of
/// both norms combined — restores a provable lower bound on the exact gap,
/// and the comparison side inflates the threshold bound by the matching
/// `1 + 4 · n · ε` to absorb the distance computation's own accumulation
/// error.
fn norm_gap_slack(n: usize, norm_a: f64, norm_b: f64) -> f64 {
    4.0 * n as f64 * f64::EPSILON * (norm_a + norm_b)
}

/// The comparison-side inflation factor paired with [`norm_gap_slack`].
/// Shared with the candidate index ([`crate::index`]), which inflates the
/// threshold by it before deriving its window.
pub(crate) fn distance_error_factor(n: usize) -> f64 {
    1.0 + 4.0 * n as f64 * f64::EPSILON
}

/// Which cached features a similarity method consumes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FeatureKind {
    /// Iteration-based methods: no similarity kernel, no features.
    None,
    /// Measurement-vector methods (relDiff, absDiff, Minkowski family), with
    /// the one norm of the vector the method reads.
    Measurements(Norm),
    /// Wavelet methods: transformed time-stamp vector.
    Wavelet(WaveletKind),
}

/// The norm of the measurement vector a method's kernel reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Norm {
    /// Nothing reads a norm (relDiff, absDiff, Chebyshev, normEuclidean).
    None,
    /// Sum of absolute values (Manhattan).
    L1,
    /// Square root of the sum of squares (Euclidean, cosine).
    L2,
}

/// The features the given method reads during matching.
pub(crate) fn feature_kind(method: Method) -> FeatureKind {
    match method {
        Method::RelDiff | Method::AbsDiff | Method::Chebyshev => {
            FeatureKind::Measurements(Norm::None)
        }
        Method::Manhattan => FeatureKind::Measurements(Norm::L1),
        Method::Euclidean => FeatureKind::Measurements(Norm::L2),
        Method::AvgWave => FeatureKind::Wavelet(WaveletKind::Average),
        Method::HaarWave => FeatureKind::Wavelet(WaveletKind::Haar),
        Method::IterK | Method::IterAvg => FeatureKind::None,
    }
}

/// Per-segment feature cache: everything a similarity method reads about
/// one side of a comparison, computed once instead of once per candidate.
///
/// Only the fields the configured method needs are populated (the
/// measurement-vector family fills the vector fields and its one norm, the
/// wavelet methods the coefficient fields); the unused representation stays
/// empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SegmentFeatures {
    /// The measurement vector ([`Segment::measurement_vector`]).
    pub(crate) measurements: Vec<f64>,
    /// Largest measurement (`stats::max` over `measurements`).
    pub(crate) max_measurement: f64,
    /// Segment duration — `measurements[0]`, the first value every
    /// measurement-vector kernel compares.
    pub(crate) duration: f64,
    /// The [`Norm`] of the measurement vector the method reads; 0 when it
    /// reads none.
    pub(crate) norm: f64,
    /// Wavelet coefficients of the time-stamp vector for the configured
    /// transform ([`Segment::wavelet_vector`] padded and transformed).
    pub(crate) coeffs: Vec<f64>,
    /// Largest absolute wavelet coefficient.
    pub(crate) coeff_max_abs: f64,
}

impl SegmentFeatures {
    /// Computes the features `config.method` needs for `segment`.
    ///
    /// Convenience constructor for tests and benches; the reduction loop
    /// itself goes through [`MatchScratch`] so buffers are reused.
    pub fn for_config(config: &MethodConfig, segment: &Segment) -> SegmentFeatures {
        let mut features = SegmentFeatures::default();
        features.fill(feature_kind(config.method), segment, &mut Vec::new());
        features
    }

    /// (Re)computes the features for `segment`, reusing this value's
    /// buffers plus the caller's wavelet level scratch.
    fn fill(&mut self, kind: FeatureKind, segment: &Segment, level_tmp: &mut Vec<f64>) {
        match kind {
            FeatureKind::None => {
                self.measurements.clear();
                self.coeffs.clear();
            }
            FeatureKind::Measurements(norm) => {
                segment.measurement_vector_into(&mut self.measurements);
                // The measurement vector always starts with the segment end
                // time, so it is never empty.
                self.duration = self.measurements[0];
                self.max_measurement = stats::max(&self.measurements);
                self.norm = match norm {
                    Norm::None => 0.0,
                    Norm::L1 => self.measurements.iter().map(|v| v.abs()).sum(),
                    Norm::L2 => self.measurements.iter().map(|v| v * v).sum::<f64>().sqrt(),
                };
                self.coeffs.clear();
            }
            FeatureKind::Wavelet(kind) => {
                self.coeff_max_abs =
                    kind.transform_pairs_into(segment.wavelet_pairs(), &mut self.coeffs, level_tmp);
                self.measurements.clear();
            }
        }
    }
}

/// Instrumentation counters for one matching run: how many candidate
/// comparisons ran, and how each was resolved.
///
/// `comparisons = prefilter_rejects + early_abandons + full_kernels`;
/// `matches ≤ full_kernels` (a pruned comparison is always a reject).
///
/// With the candidate index ([`crate::index`]) in front of the match loop,
/// `comparisons` counts only the candidates actually *visited*; the
/// candidates the index skipped are `index_window_prunes`.
/// [`MatchStats::candidates`] reconstructs the number of candidates a plain
/// linear scan would have examined (including its truncation at the first
/// match), so `candidates()` equals a linear scan's `comparisons` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Candidate pairs tested (visited) after shape bucketing and index
    /// pruning.
    pub comparisons: usize,
    /// Comparisons rejected by an O(1) lower bound before any kernel ran.
    pub prefilter_rejects: usize,
    /// Comparisons whose kernel was abandoned mid-loop once the running
    /// sum alone exceeded the threshold bound.
    pub early_abandons: usize,
    /// Comparisons whose kernel ran to completion.
    pub full_kernels: usize,
    /// Comparisons that accepted (always via a completed kernel).
    pub matches: usize,
    /// Candidates skipped unvisited because they fell outside the index's
    /// sorted center window.
    pub index_window_prunes: usize,
    /// Total same-shape stored candidates eligible across all queries (the
    /// summed bucket sizes), regardless of how each scan terminated.  The
    /// denominator of [`MatchStats::visited_fraction`]: a full scan with
    /// no first-match truncation would visit exactly this many.
    pub eligible: usize,
}

impl MatchStats {
    /// Adds the counters of another (e.g. per-rank or per-worker) run.
    pub fn absorb(&mut self, other: &MatchStats) {
        self.comparisons += other.comparisons;
        self.prefilter_rejects += other.prefilter_rejects;
        self.early_abandons += other.early_abandons;
        self.full_kernels += other.full_kernels;
        self.matches += other.matches;
        self.index_window_prunes += other.index_window_prunes;
        self.eligible += other.eligible;
    }

    /// Drains these counters into an observability shard under the
    /// canonical `match.*` metric names.  Call once per merged total (not
    /// per rank) so sharded drivers don't double-count.
    pub fn record_into(&self, obs: &mut trace_obs::ObsShard) {
        if !obs.is_enabled() {
            return;
        }
        use trace_obs::names;
        obs.add(names::MATCH_COMPARISONS, self.comparisons as u64);
        obs.add(
            names::MATCH_PREFILTER_REJECTS,
            self.prefilter_rejects as u64,
        );
        obs.add(names::MATCH_EARLY_ABANDONS, self.early_abandons as u64);
        obs.add(names::MATCH_FULL_KERNELS, self.full_kernels as u64);
        obs.add(names::MATCH_MATCHES, self.matches as u64);
        obs.add(
            names::MATCH_INDEX_WINDOW_PRUNES,
            self.index_window_prunes as u64,
        );
        obs.add(names::MATCH_ELIGIBLE, self.eligible as u64);
    }

    /// Candidates a linear first-match scan would have examined: the
    /// visited comparisons plus everything the index pruned.
    pub fn candidates(&self) -> usize {
        self.comparisons + self.index_window_prunes
    }

    /// Fraction of *eligible* stored candidates actually visited — the
    /// sub-linearity figure of merit (0.0 when no candidates arose).
    /// First-match truncation already keeps this below 1.0 on a linear
    /// scan; the index has to push it further down.
    pub fn visited_fraction(&self) -> f64 {
        fraction(self.comparisons, self.eligible)
    }

    /// Fraction of scan-equivalent candidates the index skipped unvisited
    /// (relative to what a linear first-match scan would have examined).
    pub fn index_prune_rate(&self) -> f64 {
        fraction(self.index_window_prunes, self.candidates())
    }

    /// Fraction of comparisons resolved by a prefilter (0.0 when none ran).
    pub fn prefilter_reject_rate(&self) -> f64 {
        fraction(self.prefilter_rejects, self.comparisons)
    }

    /// Fraction of comparisons resolved by early abandoning.
    pub fn early_abandon_rate(&self) -> f64 {
        fraction(self.early_abandons, self.comparisons)
    }

    /// Fraction of comparisons that never ran a full kernel.
    pub fn pruned_rate(&self) -> f64 {
        fraction(
            self.prefilter_rejects + self.early_abandons,
            self.comparisons,
        )
    }
}

fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Reusable matching state: the incoming segment's features, the wavelet
/// working buffers and the run's [`MatchStats`].
///
/// One scratch serves an entire rank — and survives across ranks via
/// [`crate::reducer::OnlineRankReducer::new`] /
/// [`crate::reducer::OnlineRankReducer::finish`], so every driver allocates
/// a feature buffer set once per worker, not once per segment.
#[derive(Clone, Debug, Default)]
pub struct MatchScratch {
    /// Features of the segment currently being matched.
    pub(crate) incoming: SegmentFeatures,
    /// Per-level scratch for the in-place wavelet transform.
    pub(crate) level_tmp: Vec<f64>,
    /// Surviving-candidate bitset for the candidate index.
    pub(crate) index_buf: Vec<u64>,
    /// Counters accumulated since the last [`MatchScratch::reset_stats`].
    pub(crate) stats: MatchStats,
}

impl MatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> MatchStats {
        self.stats
    }

    /// Zeroes the counters (buffers keep their capacity).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = MatchStats::default();
    }

    /// Computes the incoming segment's features into the scratch buffers.
    pub(crate) fn prepare_incoming(&mut self, method: Method, segment: &Segment) {
        self.prepare_incoming_kind(feature_kind(method), segment);
    }

    /// Like [`MatchScratch::prepare_incoming`], but for an explicit
    /// [`FeatureKind`] — the cached-predicate drivers of the extended
    /// catalogue use feature kinds with no paper-method name (CDF 9/7).
    pub(crate) fn prepare_incoming_kind(&mut self, kind: FeatureKind, segment: &Segment) {
        self.incoming.fill(kind, segment, &mut self.level_tmp);
    }

    /// Clones the incoming features into an owned cache entry for a newly
    /// stored representative (the one allocation per stored segment).
    pub(crate) fn clone_incoming(&self) -> SegmentFeatures {
        self.incoming.clone()
    }
}

/// The cached-feature equivalent of [`crate::metric::segments_match`]:
/// decides whether the incoming segment matches a stored representative,
/// using only the two feature caches.
///
/// Returns exactly what the naive predicate returns for the underlying
/// segments (see the module docs for why), while resolving most rejecting
/// comparisons via an O(1) prefilter or an early-abandoned kernel.  The
/// iteration-based methods never reach a similarity kernel and report
/// `true`, mirroring the naive dispatcher.
pub fn segments_match_cached(
    config: &MethodConfig,
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    stats: &mut MatchStats,
) -> bool {
    stats.comparisons += 1;
    let accepted = match config.method {
        Method::RelDiff => rel_diff_cached(incoming, stored, config.threshold, stats),
        Method::AbsDiff => abs_diff_cached(incoming, stored, config.threshold, stats),
        Method::Manhattan => manhattan_cached(incoming, stored, config.threshold, stats),
        Method::Euclidean => euclidean_cached(incoming, stored, config.threshold, stats),
        Method::Chebyshev => chebyshev_cached(incoming, stored, config.threshold, stats),
        Method::AvgWave | Method::HaarWave => {
            wavelet_cached(incoming, stored, config.threshold, stats)
        }
        Method::IterK | Method::IterAvg => {
            stats.full_kernels += 1;
            true
        }
    };
    if accepted {
        stats.matches += 1;
    }
    accepted
}

/// `relDiff`: every paired measurement within `threshold` relative
/// difference.  The duration prefilter *is* the first paired test.
fn rel_diff_cached(
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    threshold: f64,
    stats: &mut MatchStats,
) -> bool {
    if stats::relative_difference(incoming.duration, stored.duration) > threshold {
        stats.prefilter_rejects += 1;
        return false;
    }
    stats.full_kernels += 1;
    incoming
        .measurements
        .iter()
        .zip(&stored.measurements)
        .all(|(&x, &y)| stats::relative_difference(x, y) <= threshold)
}

/// `absDiff`: every paired measurement within `threshold_us` microseconds.
fn abs_diff_cached(
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    threshold_us: f64,
    stats: &mut MatchStats,
) -> bool {
    let limit = abs_diff_limit(threshold_us);
    if (incoming.duration - stored.duration).abs() > limit {
        stats.prefilter_rejects += 1;
        return false;
    }
    stats.full_kernels += 1;
    incoming
        .measurements
        .iter()
        .zip(&stored.measurements)
        .all(|(&x, &y)| (x - y).abs() <= limit)
}

/// Manhattan: L1 distance within `threshold` times the largest measurement.
fn manhattan_cached(
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    threshold: f64,
    stats: &mut MatchStats,
) -> bool {
    let bound = threshold * incoming.max_measurement.max(stored.max_measurement);
    // |Δduration| is the first term of the L1 sum: an exact lower bound.
    if (incoming.duration - stored.duration).abs() > bound {
        stats.prefilter_rejects += 1;
        return false;
    }
    // Reverse triangle inequality on the cached L1 norms, with absolute
    // slack for the norms' accumulation error (see `norm_gap_slack`).
    let n = incoming.measurements.len();
    let norm_gap =
        (incoming.norm - stored.norm).abs() - norm_gap_slack(n, incoming.norm, stored.norm);
    if norm_gap > bound * distance_error_factor(n) {
        stats.prefilter_rejects += 1;
        return false;
    }
    let mut sum = 0.0;
    for (&x, &y) in incoming.measurements.iter().zip(&stored.measurements) {
        sum += (x - y).abs();
        if sum > bound {
            stats.early_abandons += 1;
            return false;
        }
    }
    stats.full_kernels += 1;
    true
}

/// Euclidean: L2 distance within `threshold` times the largest measurement.
fn euclidean_cached(
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    threshold: f64,
    stats: &mut MatchStats,
) -> bool {
    let bound = threshold * incoming.max_measurement.max(stored.max_measurement);
    // sqrt of the first squared term: an exact lower bound on the computed
    // distance (partial sums and sqrt are monotone).
    let d0 = incoming.duration - stored.duration;
    if (d0 * d0).sqrt() > bound {
        stats.prefilter_rejects += 1;
        return false;
    }
    let n = incoming.measurements.len();
    let norm_gap =
        (incoming.norm - stored.norm).abs() - norm_gap_slack(n, incoming.norm, stored.norm);
    if norm_gap > bound * distance_error_factor(n) {
        stats.prefilter_rejects += 1;
        return false;
    }
    let bound_sq = bound * bound;
    let mut sum = 0.0;
    for (&x, &y) in incoming.measurements.iter().zip(&stored.measurements) {
        let d = x - y;
        sum += d * d;
        // The squared comparison is a cheap trigger; the sqrt confirms the
        // abandon so a bound whose square rounded down can never cause a
        // decision the completed kernel would not also make.
        if sum > bound_sq && sum.sqrt() > bound {
            stats.early_abandons += 1;
            return false;
        }
    }
    stats.full_kernels += 1;
    sum.sqrt() <= bound
}

/// Chebyshev: largest single difference within `threshold` times the
/// largest measurement.
fn chebyshev_cached(
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    threshold: f64,
    stats: &mut MatchStats,
) -> bool {
    let bound = threshold * incoming.max_measurement.max(stored.max_measurement);
    if (incoming.duration - stored.duration).abs() > bound {
        stats.prefilter_rejects += 1;
        return false;
    }
    // Measurements are non-negative times, so the cached maxima are the
    // sup norms and their gap lower-bounds the Chebyshev distance.  The
    // maxima are exact input values (no accumulation), so a relative
    // margin suffices here — see `SUP_GAP_MARGIN`.
    if (incoming.max_measurement - stored.max_measurement).abs() * SUP_GAP_MARGIN > bound {
        stats.prefilter_rejects += 1;
        return false;
    }
    for (&x, &y) in incoming.measurements.iter().zip(&stored.measurements) {
        if (x - y).abs() > bound {
            stats.early_abandons += 1;
            return false;
        }
    }
    stats.full_kernels += 1;
    true
}

/// Wavelet methods: Euclidean distance between the cached coefficient
/// vectors within `threshold` times the largest absolute coefficient.
fn wavelet_cached(
    incoming: &SegmentFeatures,
    stored: &SegmentFeatures,
    threshold: f64,
    stats: &mut MatchStats,
) -> bool {
    let bound = threshold * incoming.coeff_max_abs.max(stored.coeff_max_abs);
    // The overall-trend coefficients are index 0 of both vectors: their
    // squared gap is the first term of the coefficient distance.
    let d0 = incoming.coeffs.first().copied().unwrap_or(0.0)
        - stored.coeffs.first().copied().unwrap_or(0.0);
    if (d0 * d0).sqrt() > bound {
        stats.prefilter_rejects += 1;
        return false;
    }
    let bound_sq = bound * bound;
    let n = incoming.coeffs.len().max(stored.coeffs.len());
    let mut sum = 0.0;
    for i in 0..n {
        let x = incoming.coeffs.get(i).copied().unwrap_or(0.0);
        let y = stored.coeffs.get(i).copied().unwrap_or(0.0);
        let d = x - y;
        sum += d * d;
        if sum > bound_sq && sum.sqrt() > bound {
            stats.early_abandons += 1;
            return false;
        }
    }
    stats.full_kernels += 1;
    sum.sqrt() <= bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::segments_match;
    use trace_model::{ContextId, Event, RegionId, Time};

    fn segment(e0: (u64, u64), e1: (u64, u64), end: u64) -> Segment {
        Segment {
            context: ContextId(0),
            start: Time::ZERO,
            end: Time::from_nanos(end),
            events: vec![
                Event::compute(RegionId(0), Time::from_nanos(e0.0), Time::from_nanos(e0.1)),
                Event::compute(RegionId(1), Time::from_nanos(e1.0), Time::from_nanos(e1.1)),
            ],
        }
    }

    fn figure2_segments() -> (Segment, Segment, Segment) {
        (
            segment((1, 20), (21, 49), 50),
            segment((1, 40), (41, 50), 51),
            segment((1, 17), (18, 48), 49),
        )
    }

    #[test]
    fn cached_decisions_agree_with_the_naive_predicate() {
        let (s0, s1, s2) = figure2_segments();
        let pairs = [(&s0, &s1), (&s0, &s2), (&s1, &s2), (&s0, &s0)];
        for method in Method::ALL {
            let thresholds: Vec<f64> = std::iter::once(method.default_threshold())
                .chain(method.threshold_grid())
                .chain([0.0])
                .collect();
            for threshold in thresholds {
                let config = MethodConfig::new(method, threshold);
                for (a, b) in pairs {
                    let fa = SegmentFeatures::for_config(&config, a);
                    let fb = SegmentFeatures::for_config(&config, b);
                    let mut stats = MatchStats::default();
                    assert_eq!(
                        segments_match_cached(&config, &fa, &fb, &mut stats),
                        segments_match(&config, a, b),
                        "{method} at {threshold}"
                    );
                }
            }
        }
    }

    #[test]
    fn counters_partition_comparisons() {
        let (s0, s1, s2) = figure2_segments();
        for method in Method::ALL {
            let config = MethodConfig::with_default_threshold(method);
            let mut stats = MatchStats::default();
            for (a, b) in [(&s0, &s1), (&s0, &s2), (&s1, &s2), (&s2, &s2)] {
                let fa = SegmentFeatures::for_config(&config, a);
                let fb = SegmentFeatures::for_config(&config, b);
                segments_match_cached(&config, &fa, &fb, &mut stats);
            }
            assert_eq!(stats.comparisons, 4, "{method}");
            assert_eq!(
                stats.prefilter_rejects + stats.early_abandons + stats.full_kernels,
                stats.comparisons,
                "{method}"
            );
            assert!(stats.matches <= stats.full_kernels, "{method}");
            assert!(stats.pruned_rate() <= 1.0, "{method}");
        }
    }

    #[test]
    fn tight_thresholds_resolve_dissimilar_pairs_without_a_full_kernel() {
        let (s0, s1, _) = figure2_segments();
        // s0 vs s1 differ in duration and interior timings; at a zero
        // threshold every distance method can prove the mismatch from the
        // cached duration alone.
        for method in [
            Method::RelDiff,
            Method::AbsDiff,
            Method::Manhattan,
            Method::Euclidean,
            Method::Chebyshev,
            Method::AvgWave,
            Method::HaarWave,
        ] {
            let config = MethodConfig::new(method, 0.0);
            let fa = SegmentFeatures::for_config(&config, &s0);
            let fb = SegmentFeatures::for_config(&config, &s1);
            let mut stats = MatchStats::default();
            assert!(!segments_match_cached(&config, &fa, &fb, &mut stats));
            assert_eq!(stats.prefilter_rejects, 1, "{method}");
            assert_eq!(stats.full_kernels, 0, "{method}");
        }
    }

    #[test]
    fn norm_prefilters_are_admissible_for_long_large_timestamp_segments() {
        // Regression: two ~100-minute segments (1500 events, timestamps up
        // to 7.5·10¹²) differing in a single event end by 3 ns.  Their L1
        // norms (~1.1·10¹⁶) sit above 2⁵³ where one ulp is 2 ns, so the
        // accumulated norms can round to a gap *larger* than the exact
        // 3 ns distance — a multiplicative margin on the gap is not
        // admissible there and once made the fast path reject matches the
        // naive predicate accepts.  The absolute `norm_gap_slack` must
        // keep every decision identical.
        let build = |delta: u64| -> Segment {
            let events: Vec<Event> = (0..1500u64)
                .map(|i| {
                    let start = i * 5_000_000_000;
                    let end = start + 3_999_999_000 + if i == 700 { delta } else { 0 };
                    Event::compute(
                        RegionId((i % 4) as u32),
                        Time::from_nanos(start),
                        Time::from_nanos(end),
                    )
                })
                .collect();
            Segment {
                context: ContextId(0),
                start: Time::ZERO,
                end: Time::from_nanos(1500 * 5_000_000_000),
                events,
            }
        };
        let a = build(0);
        let b = build(3);
        let max = 1500.0 * 5.0e9; // the largest measurement (segment end)
        for method in [
            Method::RelDiff,
            Method::AbsDiff,
            Method::Manhattan,
            Method::Euclidean,
            Method::Chebyshev,
            Method::AvgWave,
            Method::HaarWave,
        ] {
            for bound_ns in [1.0f64, 2.0, 3.0, 3.5, 4.0, 64.0, 1e6] {
                let threshold = if method == Method::AbsDiff {
                    bound_ns / 1_000.0 // microseconds
                } else {
                    bound_ns / max
                };
                let config = MethodConfig::new(method, threshold);
                let fa = SegmentFeatures::for_config(&config, &a);
                let fb = SegmentFeatures::for_config(&config, &b);
                let mut stats = MatchStats::default();
                assert_eq!(
                    segments_match_cached(&config, &fa, &fb, &mut stats),
                    segments_match(&config, &a, &b),
                    "{method} at a {bound_ns} ns bound"
                );
            }
        }
    }

    #[test]
    fn feature_kinds_populate_only_what_the_method_reads() {
        let (s0, _, _) = figure2_segments();
        let wave = SegmentFeatures::for_config(
            &MethodConfig::with_default_threshold(Method::AvgWave),
            &s0,
        );
        assert!(wave.measurements.is_empty());
        assert_eq!(wave.coeffs.len(), 8, "6 time stamps pad to 8");
        let meas = SegmentFeatures::for_config(
            &MethodConfig::with_default_threshold(Method::Euclidean),
            &s0,
        );
        assert!(meas.coeffs.is_empty());
        assert_eq!(meas.measurements, s0.measurement_vector());
        assert_eq!(meas.duration, 50.0);
        assert_eq!(meas.max_measurement, 50.0);
        let sum_of_squares: f64 = s0.measurement_vector().iter().map(|v| v * v).sum();
        assert_eq!(meas.norm, sum_of_squares.sqrt());
        let l1 = SegmentFeatures::for_config(
            &MethodConfig::with_default_threshold(Method::Manhattan),
            &s0,
        );
        assert_eq!(l1.norm, 141.0, "50 + 1 + 20 + 21 + 49");
        let rel = SegmentFeatures::for_config(
            &MethodConfig::with_default_threshold(Method::RelDiff),
            &s0,
        );
        assert_eq!(rel.norm, 0.0, "relDiff reads no norm");
        let iter = SegmentFeatures::for_config(
            &MethodConfig::with_default_threshold(Method::IterAvg),
            &s0,
        );
        assert!(iter.measurements.is_empty() && iter.coeffs.is_empty());
    }

    #[test]
    fn scratch_reuses_buffers_across_segments() {
        let (s0, s1, _) = figure2_segments();
        let mut scratch = MatchScratch::new();
        scratch.prepare_incoming(Method::HaarWave, &s0);
        let first = scratch.clone_incoming();
        scratch.prepare_incoming(Method::HaarWave, &s1);
        let second = scratch.clone_incoming();
        assert_ne!(first, second);
        // Refilling from s0 reproduces the first features exactly.
        scratch.prepare_incoming(Method::HaarWave, &s0);
        assert_eq!(scratch.clone_incoming(), first);
        scratch.stats.comparisons = 7;
        scratch.reset_stats();
        assert_eq!(scratch.stats(), MatchStats::default());
    }

    #[test]
    fn match_stats_absorb_adds_counters() {
        let mut a = MatchStats {
            comparisons: 10,
            prefilter_rejects: 4,
            early_abandons: 2,
            full_kernels: 4,
            matches: 3,
            index_window_prunes: 30,
            eligible: 50,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.comparisons, 20);
        assert_eq!(a.matches, 6);
        assert_eq!(a.index_window_prunes, 60);
        assert_eq!(a.candidates(), 80);
        assert_eq!(a.eligible, 100);
        assert!((a.prefilter_reject_rate() - 0.4).abs() < 1e-12);
        assert!((a.early_abandon_rate() - 0.2).abs() < 1e-12);
        assert!((a.pruned_rate() - 0.6).abs() < 1e-12);
        assert!((a.visited_fraction() - 0.2).abs() < 1e-12);
        assert!((a.index_prune_rate() - 0.75).abs() < 1e-12);
        assert_eq!(MatchStats::default().prefilter_reject_rate(), 0.0);
        assert_eq!(MatchStats::default().visited_fraction(), 0.0);
    }
}
