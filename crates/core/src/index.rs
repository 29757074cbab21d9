//! Sub-linear candidate index over stored-representative features.
//!
//! The stored-segments reduction (Section 3.1) matches every incoming
//! segment against the *first* stored representative its similarity method
//! accepts, scanning the same-shape bucket in insertion order.  PR 5's
//! cached fast path made each of those comparisons cheap, but the scan
//! itself stayed linear in the bucket size.  This module replaces the scan
//! with a `CandidateIndex` that prunes most candidates *before* they are
//! visited, while returning the survivors **in insertion order** so the
//! winning representative — and therefore the reduced trace — is
//! bit-identical to the linear scan:
//!
//! * **Duration-sorted window.**  Entries are kept sorted by a per-method
//!   *center* (segment duration for the measurement-vector methods, the
//!   leading "overall trend" coefficient for the wavelet methods) so the
//!   exact per-candidate duration lower bound of the cached kernels becomes
//!   one binary-search window per incoming segment.  The window is widened
//!   conservatively (see below), so it only ever excludes candidates the
//!   kernel provably rejects.
//! * **Triangle-inequality pivots.**  For the metric methods (Manhattan /
//!   Euclidean / Chebyshev / absDiff and the wavelet coefficient
//!   distances), each entry stores its exact kernel distance to a small
//!   pivot set: the *origin* (the zero vector — whose "distance" is the
//!   L1/L2/sup norm, making the norm-gap prefilter of [`crate::features`]
//!   the special case of pivoting) plus the first few stored representatives
//!   of the bucket.  A candidate whose pivot distance differs from the
//!   incoming segment's by more than the (slack-adjusted) threshold bound
//!   cannot match and is skipped without being visited.
//! * **Adaptive engagement.**  The prefiltered kernels reject a candidate
//!   in a couple of flops, so the index only pays for itself when it can
//!   skip *many* candidates per query.  Buckets below `SCAN_MIN_BUCKET`
//!   are scanned directly; windows admitting more than half a bucket are
//!   walked in insertion order with a per-entry interval test instead of
//!   binary search plus re-sort; representative-pivot distances are only
//!   materialized once a bucket reaches `PIVOT_MIN_BUCKET`.  Every
//!   variant excludes the same candidates, so counters and output are
//!   unchanged — only the constant factor moves.
//!
//! # Why pruning preserves first-match semantics
//!
//! The index returns a **superset-filtered subsequence**: every candidate
//! it yields still runs the full cached predicate, and every candidate it
//! skips is *proven* (under conservative floating-point slack) to be one
//! the predicate would reject.  Since survivors are visited in insertion
//! order, the first accepted candidate is exactly the first candidate the
//! linear scan would have accepted — not merely the nearest one.  Only
//! exclusions need a proof; inclusions cost one (cheap, cached) predicate
//! call.  This is what lets the window arithmetic be sloppy-but-safe: any
//! doubt is resolved by widening, never by tightening.
//!
//! # Floating-point discipline
//!
//! All window endpoints are computed with two layers of slack:
//!
//! * the threshold is inflated by `distance_error_factor``(n)` — the same
//!   `1 + 4 · n · ε` factor the norm prefilters use — to absorb the
//!   kernel's own worst-case accumulation error over `n` terms, and
//! * every endpoint is additionally widened by the relative
//!   `WINDOW_SLACK` (~2⁻⁴⁰, ~4000× the worst case of the handful of
//!   endpoint flops), which dominates the per-operation rounding of the
//!   window arithmetic itself.
//!
//! Pivot pruning reuses `norm_gap_slack` / `distance_error_factor`
//! verbatim: the reverse triangle inequality `|d(i,p) − d(s,p)| ≤ d(i,s)`
//! holds for exact reals, the computed pivot distances carry accumulation
//! error proportional to their magnitude, so the gap is reduced by the
//! absolute slack and compared against a bound inflated by the kernel's
//! error factor — exactly the argument documented for the norm prefilters
//! in [`crate::features`], of which the origin pivot is the special case.
//!
//! Ordering is deterministic: entries sort by `f64::total_cmp` over centers
//! normalized with `+ 0.0` (so `-0.0` and `0.0` compare equal), ties broken
//! by insertion position, and survivors are re-sorted by insertion position
//! before visiting.

use std::cmp::Ordering;

use trace_model::stats;
use trace_wavelet::coefficient_distance;

use crate::features::{distance_error_factor, norm_gap_slack, MatchStats, SegmentFeatures};
use crate::method::{Method, MethodConfig};
use crate::metric::abs_diff_limit;

/// Relative widening applied to every window endpoint (and to the
/// threshold before deriving endpoints).  ~2⁻⁴⁰: thousands of times the
/// rounding of the few flops that compute an endpoint, yet far too small
/// to let through any candidate a kernel could reject for a real
/// (non-borderline-by-2⁻⁴⁰) reason — and borderline candidates are merely
/// *visited*, never misjudged, because survivors still run the kernel.
const WINDOW_SLACK: f64 = 1e-12;

/// Number of stored-representative pivots per bucket (the origin pivot is
/// always on top of these).  The first `MAX_PIVOTS` entries of a bucket
/// serve as its pivots: they are the representatives every historic scan
/// visited first, so their kernel distances are computed for most incoming
/// segments anyway.
const MAX_PIVOTS: usize = 4;

/// Representative pivots only engage once a bucket is at least this large;
/// below that, the window plus the free origin pivot prune enough and the
/// extra pivot kernel evaluations per query would cost more than the scan.
/// Pivot distances are also only *materialized* once a bucket crosses this
/// size (backfilled for the existing entries), so buckets that never grow
/// large never pay the insert-time kernel evaluations.
const PIVOT_MIN_BUCKET: usize = 8;

/// Buckets smaller than this are scanned directly in insertion order: the
/// prefiltered kernel rejects a candidate in a couple of flops, so for a
/// handful of candidates the window arithmetic plus binary search costs
/// more than it can possibly save.  The index must be *free* when it
/// cannot help — most buckets of the paper workloads hold only a few
/// representatives.
const SCAN_MIN_BUCKET: usize = 8;

/// Which candidate-search strategy the reducer uses for the distance
/// methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CandidateSearch {
    /// Duration-window + pivot-pruned index (`CandidateIndex`); the
    /// default.  Bit-identical output to [`CandidateSearch::LinearScan`].
    #[default]
    Indexed,
    /// PR 5's linear bucket scan (every candidate visited).  Kept for
    /// benchmarking the index against and for equivalence tests.
    LinearScan,
}

/// One indexed stored representative.
#[derive(Clone, Debug)]
struct IndexEntry {
    /// Stored-representative id (index into the reducer's feature table).
    id: u32,
    /// Sort key: duration (measurement methods) or leading wavelet
    /// coefficient, normalized so `-0.0` sorts as `0.0`.
    center: f64,
    /// Scale of the entry: largest measurement / largest absolute wavelet
    /// coefficient.  Bounds the candidate-dependent threshold scale.
    extent: f64,
    /// Exact kernel distance to the zero vector — the norm that the
    /// configured metric induces (L1/L2/sup norm, or the L2 norm of the
    /// wavelet coefficients).  Unused (0) for `relDiff`.
    origin_dist: f64,
    /// Exact kernel distances to the bucket's representative pivots
    /// (entries `0..min(position, MAX_PIVOTS)`); slots beyond that are 0
    /// and never read.
    pivot_dists: [f64; MAX_PIVOTS],
}

/// Sorted, pivoted candidate index for one same-shape bucket.
///
/// Insertion order of entries mirrors the bucket's stored order, which is
/// what [`CandidateIndex::find_first`] restores before visiting survivors.
#[derive(Clone, Debug, Default)]
pub(crate) struct CandidateIndex {
    /// Entries in insertion (stored) order.
    entries: Vec<IndexEntry>,
    /// Entry positions sorted by `(center, position)` ascending.
    order: Vec<u32>,
    /// Largest `extent - center` over all entries.  Within a bucket the
    /// extent always dominates the center (the measurement vector contains
    /// the duration; the coefficient max-abs dominates the leading
    /// coefficient), so this is ≥ 0 and bounds any entry's extent by
    /// `center + max_excess` — which turns the candidate-dependent
    /// threshold scale `t · max(extent_i, extent_s)` into a solvable
    /// window over centers.
    max_excess: f64,
    /// How many leading entries have their `pivot_dists` materialized.
    /// Stays 0 until the bucket reaches [`PIVOT_MIN_BUCKET`], then tracks
    /// `entries.len()`: small buckets never pay the insert-time kernel
    /// evaluations for pivot distances they would never consult.
    pivots_filled: usize,
}

impl CandidateIndex {
    /// Indexes the representative `id` (whose features are
    /// `all[id as usize]`).  Must be called in stored order.
    pub(crate) fn insert(&mut self, id: u32, config: &MethodConfig, all: &[SegmentFeatures]) {
        let features = &all[id as usize];
        let method = config.method;
        let center = center_of(method, features) + 0.0;
        let extent = extent_of(method, features);
        self.max_excess = self.max_excess.max(extent - center);
        let position = self.entries.len() as u32;
        let at = self.order.partition_point(|&p| {
            self.entries[p as usize].center.total_cmp(&center) != Ordering::Greater
        });
        self.order.insert(at, position);
        self.entries.push(IndexEntry {
            id,
            center,
            extent,
            origin_dist: origin_distance(method, features),
            pivot_dists: [0.0; MAX_PIVOTS],
        });
        if uses_pivots(method) && self.entries.len() >= PIVOT_MIN_BUCKET {
            self.fill_pivot_dists(method, all);
        }
    }

    /// Materializes `pivot_dists` for every entry that does not have them
    /// yet.  Called once the bucket reaches [`PIVOT_MIN_BUCKET`]: the first
    /// crossing backfills the whole bucket, later inserts fill just the new
    /// entry, so the amortized cost is at most [`MAX_PIVOTS`] kernel
    /// evaluations per stored representative — and zero for buckets that
    /// stay small.
    fn fill_pivot_dists(&mut self, method: Method, all: &[SegmentFeatures]) {
        while self.pivots_filled < self.entries.len() {
            let i = self.pivots_filled;
            let mut dists = [0.0; MAX_PIVOTS];
            for (p, dist) in dists.iter_mut().enumerate().take(i.min(MAX_PIVOTS)) {
                let pivot = &all[self.entries[p].id as usize];
                *dist = pivot_distance(method, &all[self.entries[i].id as usize], pivot);
            }
            self.entries[i].pivot_dists = dists;
            self.pivots_filled += 1;
        }
    }

    /// Finds the first stored representative (in insertion order) that
    /// `try_match` accepts, pruning candidates the window / pivot bounds
    /// prove unmatchable.  `buf` is a reusable scratch buffer for the
    /// surviving positions.
    ///
    /// Counter contract: candidates skipped by the window / pivots are
    /// counted into [`MatchStats::index_window_prunes`] /
    /// [`MatchStats::index_pivot_prunes`]; `try_match` itself counts the
    /// visited comparisons.  Together they reconstruct exactly the number
    /// of candidates a linear scan would have examined
    /// ([`MatchStats::candidates`]), including the truncation at the first
    /// match.  Buckets below [`SCAN_MIN_BUCKET`] degenerate to that linear
    /// scan outright (no prunes attributed) — the identity holds trivially.
    pub(crate) fn find_first<F>(
        &self,
        config: &MethodConfig,
        incoming: &SegmentFeatures,
        all: &[SegmentFeatures],
        stats: &mut MatchStats,
        buf: &mut Vec<u32>,
        mut try_match: F,
    ) -> Option<u32>
    where
        F: FnMut(u32, &mut MatchStats) -> bool,
    {
        let total = self.entries.len();
        if total == 0 {
            return None;
        }
        if total < SCAN_MIN_BUCKET {
            // Small bucket: the prefiltered kernel is cheaper per candidate
            // than any window arithmetic.  Plain insertion-order scan; the
            // kernel counts its comparisons, nothing is attributed to the
            // index, and `candidates()` degenerates to `comparisons` —
            // exactly the linear scan's bookkeeping.
            return self
                .entries
                .iter()
                .find(|entry| try_match(entry.id, stats))
                .map(|entry| entry.id);
        }
        let method = config.method;
        let n = term_count(method, incoming);
        let (lo, hi) = self.center_window(config, incoming, n);
        let begin = match lo {
            Some(lo) => self.order.partition_point(|&p| {
                self.entries[p as usize].center.total_cmp(&lo) == Ordering::Less
            }),
            None => 0,
        };
        let end = match hi {
            Some(hi) => self.order.partition_point(|&p| {
                self.entries[p as usize].center.total_cmp(&hi) != Ordering::Greater
            }),
            None => total,
        };
        buf.clear();
        if (end - begin) * 2 <= total {
            if begin < end {
                buf.extend_from_slice(&self.order[begin..end]);
                // Entry positions ascending == insertion order: first-match
                // semantics depend on visiting survivors in this order.
                buf.sort_unstable();
            }
        } else {
            // Wide window: re-sorting most of the bucket would cost
            // O(w log w) per query.  Walk the entries in insertion order
            // instead, applying the *same* interval test the binary search
            // encodes — identical survivors, identical counters, linear
            // worst case.
            buf.extend(self.entries.iter().enumerate().filter_map(|(p, entry)| {
                let below = lo.is_some_and(|lo| entry.center.total_cmp(&lo) == Ordering::Less);
                let above = hi.is_some_and(|hi| entry.center.total_cmp(&hi) == Ordering::Greater);
                (!below && !above).then_some(p as u32)
            }));
        }

        let pivoting = uses_pivots(method);
        let origin_incoming = if pivoting {
            origin_distance(method, incoming)
        } else {
            0.0
        };
        // Representative-pivot distances from the incoming segment,
        // computed lazily: only when a candidate survives the cheaper
        // checks and actually has that pivot distance on record.
        let use_rep_pivots = pivoting && total >= PIVOT_MIN_BUCKET;
        let mut query_dists = [0.0f64; MAX_PIVOTS];
        let mut query_known = [false; MAX_PIVOTS];
        let factor = distance_error_factor(n);

        let mut visited = 0usize;
        let mut pivot_rejects = 0usize;
        for &position in buf.iter() {
            let entry = &self.entries[position as usize];
            if pivoting
                && self.pivot_rejects(
                    config,
                    incoming,
                    all,
                    entry,
                    position as usize,
                    n,
                    factor,
                    origin_incoming,
                    use_rep_pivots,
                    &mut query_dists,
                    &mut query_known,
                )
            {
                pivot_rejects += 1;
                continue;
            }
            visited += 1;
            if try_match(entry.id, stats) {
                // A linear scan would have examined every candidate up to
                // and including this position; attribute the skipped ones.
                let scanned = position as usize + 1;
                stats.index_window_prunes += scanned - visited - pivot_rejects;
                stats.index_pivot_prunes += pivot_rejects;
                return Some(entry.id);
            }
        }
        stats.index_window_prunes += total - visited - pivot_rejects;
        stats.index_pivot_prunes += pivot_rejects;
        None
    }

    /// True when the origin / representative pivots prove `entry` cannot
    /// match the incoming segment.
    #[allow(clippy::too_many_arguments)]
    fn pivot_rejects(
        &self,
        config: &MethodConfig,
        incoming: &SegmentFeatures,
        all: &[SegmentFeatures],
        entry: &IndexEntry,
        position: usize,
        n: usize,
        factor: f64,
        origin_incoming: f64,
        use_rep_pivots: bool,
        query_dists: &mut [f64; MAX_PIVOTS],
        query_known: &mut [bool; MAX_PIVOTS],
    ) -> bool {
        let bound = match_bound(config, incoming, entry.extent);
        let inflated = bound * factor;
        // Origin pivot: both distances are norms, the query's computed once
        // per `find_first`.
        let gap = (origin_incoming - entry.origin_dist).abs()
            - norm_gap_slack(n, origin_incoming, entry.origin_dist);
        if gap > inflated {
            return true;
        }
        if !use_rep_pivots {
            return false;
        }
        for p in 0..position.min(MAX_PIVOTS) {
            if !query_known[p] {
                let pivot = &all[self.entries[p].id as usize];
                query_dists[p] = pivot_distance(config.method, incoming, pivot);
                query_known[p] = true;
            }
            let gap = (query_dists[p] - entry.pivot_dists[p]).abs()
                - norm_gap_slack(n, query_dists[p], entry.pivot_dists[p]);
            if gap > inflated {
                return true;
            }
        }
        false
    }

    /// The center window `[lo, hi]` outside which no candidate can match
    /// the incoming segment (`None` = unbounded on that side).
    ///
    /// Derivations (exact reals, with `τ` the threshold inflated by the
    /// kernel error factor and [`WINDOW_SLACK`]; `c`/`x` the incoming
    /// center/extent, `E` the bucket's `max_excess`, so every stored
    /// extent obeys `extent_s ≤ center_s + E`):
    ///
    /// * `relDiff`: a match requires `|c − c_s| / max(c, c_s) ≤ τ` (the
    ///   duration pair is the kernel's first test), so
    ///   `c·(1−τ) ≤ c_s ≤ c/(1−τ)`; no window when `τ ≥ 1`.
    /// * `absDiff`: the duration pair must satisfy `|c − c_s| ≤ limit`,
    ///   so `c − limit ≤ c_s ≤ c + limit`.
    /// * Minkowski / wavelet: a match requires
    ///   `|c − c_s| ≤ τ·max(x, extent_s)`.  If the incoming extent
    ///   dominates: `|c − c_s| ≤ τ·x`.  Otherwise
    ///   `|c − c_s| ≤ τ·(c_s + E)`, which solves to
    ///   `c_s ≥ (c − τE)/(1+τ)` and, when `τ < 1`,
    ///   `c_s ≤ (c + τE)/(1−τ)`.  The window takes the weaker (min/max)
    ///   bound of the two cases; the upper side is unbounded when `τ ≥ 1`.
    fn center_window(
        &self,
        config: &MethodConfig,
        incoming: &SegmentFeatures,
        n: usize,
    ) -> (Option<f64>, Option<f64>) {
        let method = config.method;
        let c = center_of(method, incoming) + 0.0;
        let tau = config.threshold * distance_error_factor(n) * (1.0 + WINDOW_SLACK);
        match method {
            Method::RelDiff => {
                let denom = 1.0 - tau;
                if denom <= 0.0 {
                    return (None, None);
                }
                (Some(widen_lo(c * denom)), Some(widen_hi(c / denom)))
            }
            Method::AbsDiff => {
                let limit = abs_diff_limit(config.threshold) * (1.0 + WINDOW_SLACK);
                (Some(widen_lo(c - limit)), Some(widen_hi(c + limit)))
            }
            Method::Manhattan
            | Method::Euclidean
            | Method::Chebyshev
            | Method::AvgWave
            | Method::HaarWave => {
                let x = extent_of(method, incoming);
                let excess = self.max_excess * (1.0 + WINDOW_SLACK);
                let lo = (c - tau * x).min((c - tau * excess) / (1.0 + tau));
                let denom = 1.0 - tau;
                let hi = if denom > 0.0 {
                    Some(widen_hi((c + tau * x).max((c + tau * excess) / denom)))
                } else {
                    None
                };
                (Some(widen_lo(lo)), hi)
            }
            Method::IterK | Method::IterAvg => (None, None),
        }
    }
}

/// Moves a lower endpoint down by the relative [`WINDOW_SLACK`] (works for
/// negative endpoints too).
fn widen_lo(x: f64) -> f64 {
    x - x.abs() * WINDOW_SLACK
}

/// Moves an upper endpoint up by the relative [`WINDOW_SLACK`].
fn widen_hi(x: f64) -> f64 {
    x + x.abs() * WINDOW_SLACK
}

/// The sort key of a segment under `method`: its duration, or the leading
/// ("overall trend") wavelet coefficient.
fn center_of(method: Method, features: &SegmentFeatures) -> f64 {
    match method {
        Method::AvgWave | Method::HaarWave => features.coeffs.first().copied().unwrap_or(0.0),
        _ => features.duration,
    }
}

/// The scale of a segment under `method`: the value the threshold is
/// multiplied by (or an upper bound of it that the excess trick uses).
fn extent_of(method: Method, features: &SegmentFeatures) -> f64 {
    match method {
        Method::AvgWave | Method::HaarWave => features.coeff_max_abs,
        _ => features.max_measurement,
    }
}

/// Number of accumulation terms the kernel's error factor must cover.
fn term_count(method: Method, incoming: &SegmentFeatures) -> usize {
    match method {
        Method::AvgWave | Method::HaarWave => incoming.coeffs.len(),
        _ => incoming.measurements.len(),
    }
}

/// True for methods whose kernel is a metric: triangle-inequality pivots
/// (including the origin pivot) are admissible.  `relDiff` is not a metric
/// (its scale changes per pair) and the iteration methods have no kernel.
fn uses_pivots(method: Method) -> bool {
    matches!(
        method,
        Method::AbsDiff
            | Method::Manhattan
            | Method::Euclidean
            | Method::Chebyshev
            | Method::AvgWave
            | Method::HaarWave
    )
}

/// The distance of a segment to the zero vector under the method's metric:
/// the cached L1 / L2 / sup norm of the measurement vector, or the L2 norm
/// of the wavelet coefficients.  Only the index reads that last one, so it
/// is computed here — once per stored entry at insert, once per query of a
/// bucket the index engages on — not once per segment.
fn origin_distance(method: Method, features: &SegmentFeatures) -> f64 {
    match method {
        Method::Manhattan | Method::Euclidean => features.norm,
        // Measurements are non-negative, so the cached maximum *is* the
        // sup norm the Chebyshev / absDiff per-pair tests induce.
        Method::Chebyshev | Method::AbsDiff => features.max_measurement,
        Method::AvgWave | Method::HaarWave => {
            features.coeffs.iter().map(|v| v * v).sum::<f64>().sqrt()
        }
        Method::RelDiff | Method::IterK | Method::IterAvg => 0.0,
    }
}

/// The exact kernel distance between two feature caches under the method's
/// metric — the same scalar kernels the full similarity tests run, so the
/// slack argument for the norm prefilters transfers verbatim.
fn pivot_distance(method: Method, a: &SegmentFeatures, b: &SegmentFeatures) -> f64 {
    match method {
        Method::Manhattan => stats::manhattan_distance(&a.measurements, &b.measurements),
        Method::Euclidean => stats::euclidean_distance(&a.measurements, &b.measurements),
        Method::Chebyshev | Method::AbsDiff => {
            stats::chebyshev_distance(&a.measurements, &b.measurements)
        }
        Method::AvgWave | Method::HaarWave => coefficient_distance(&a.coeffs, &b.coeffs),
        Method::RelDiff | Method::IterK | Method::IterAvg => {
            unreachable!("pivoting is only enabled for metric methods")
        }
    }
}

/// The acceptance bound the kernel compares its distance against, computed
/// with the identical expression (`threshold * max(incoming, stored)` for
/// the scaled metrics; the fixed microsecond limit for `absDiff`).
fn match_bound(config: &MethodConfig, incoming: &SegmentFeatures, stored_extent: f64) -> f64 {
    match config.method {
        Method::AbsDiff => abs_diff_limit(config.threshold),
        Method::AvgWave | Method::HaarWave => {
            config.threshold * incoming.coeff_max_abs.max(stored_extent)
        }
        _ => config.threshold * incoming.max_measurement.max(stored_extent),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{segments_match_cached, MatchScratch};
    use trace_model::{ContextId, Event, RegionId, Segment, Time};

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

    /// A family of same-shape segments with scaled timings.
    fn scaled_family(scales: &[u64]) -> Vec<Segment> {
        scales
            .iter()
            .map(|&s| segment((s, 20 * s), (21 * s, 49 * s), 50 * s))
            .collect()
    }

    fn distance_methods() -> [Method; 7] {
        [
            Method::RelDiff,
            Method::AbsDiff,
            Method::Manhattan,
            Method::Euclidean,
            Method::Chebyshev,
            Method::AvgWave,
            Method::HaarWave,
        ]
    }

    /// Drives the index and a plain scan over the same stored set and
    /// asserts the identical winner for every probe.
    fn assert_index_matches_scan(method: Method, threshold: f64, family: &[Segment]) {
        let config = MethodConfig::new(method, threshold);
        let features: Vec<SegmentFeatures> = family
            .iter()
            .map(|s| SegmentFeatures::for_config(&config, s))
            .collect();
        let mut index = CandidateIndex::default();
        for id in 0..family.len() as u32 {
            index.insert(id, &config, &features);
        }
        let mut buf = Vec::new();
        for probe in &features {
            let mut stats = MatchStats::default();
            let indexed = index.find_first(
                &config,
                probe,
                &features,
                &mut stats,
                &mut buf,
                |id, stats| segments_match_cached(&config, probe, &features[id as usize], stats),
            );
            let mut scan_stats = MatchStats::default();
            let scanned = (0..family.len() as u32).find(|&id| {
                segments_match_cached(&config, probe, &features[id as usize], &mut scan_stats)
            });
            assert_eq!(indexed, scanned, "{method} at {threshold}");
            assert_eq!(
                stats.candidates(),
                scan_stats.comparisons,
                "{method} at {threshold}: pruned + visited must equal the scan's workload"
            );
        }
    }

    #[test]
    fn index_agrees_with_scan_on_a_scaled_family() {
        // 12 members exercise the window + pivot path, 3 the small-bucket
        // fallback scan; the counter identity must hold on both.
        let family = scaled_family(&[1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]);
        let small = scaled_family(&[1, 4, 9]);
        for method in distance_methods() {
            for threshold in [0.0, 0.05, 0.2, 0.8, 1.0, 10.0] {
                let threshold = if method == Method::AbsDiff {
                    threshold * 10.0 // microseconds
                } else {
                    threshold
                };
                assert_index_matches_scan(method, threshold, &family);
                assert_index_matches_scan(method, threshold, &small);
            }
        }
    }

    #[test]
    fn index_returns_candidates_in_insertion_order_not_center_order() {
        // Stored out of duration order: the sorted window must not change
        // which candidate is visited first.
        let family = scaled_family(&[10, 2, 7, 3, 9, 1, 8, 4, 6, 5]);
        for method in distance_methods() {
            assert_index_matches_scan(method, 0.4, &family);
        }
    }

    #[test]
    fn window_excludes_only_kernel_rejected_candidates() {
        // Every candidate the window drops must be one the kernel rejects:
        // verify by checking the full cross product.
        let family = scaled_family(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512]);
        for method in distance_methods() {
            for threshold in [0.01, 0.2, 0.9] {
                let config = MethodConfig::new(method, threshold);
                let features: Vec<SegmentFeatures> = family
                    .iter()
                    .map(|s| SegmentFeatures::for_config(&config, s))
                    .collect();
                let mut index = CandidateIndex::default();
                for id in 0..family.len() as u32 {
                    index.insert(id, &config, &features);
                }
                let mut buf = Vec::new();
                for probe in &features {
                    let mut stats = MatchStats::default();
                    let mut visited = Vec::new();
                    index.find_first(
                        &config,
                        probe,
                        &features,
                        &mut stats,
                        &mut buf,
                        |id, stats| {
                            visited.push(id);
                            // Never accept, so every survivor is visited.
                            segments_match_cached(&config, probe, &features[id as usize], stats);
                            false
                        },
                    );
                    for id in 0..family.len() as u32 {
                        if !visited.contains(&id) {
                            let mut s = MatchStats::default();
                            assert!(
                                !segments_match_cached(
                                    &config,
                                    probe,
                                    &features[id as usize],
                                    &mut s
                                ),
                                "{method} at {threshold}: pruned candidate {id} actually matches"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_index_finds_nothing() {
        let config = MethodConfig::with_default_threshold(Method::Euclidean);
        let index = CandidateIndex::default();
        let mut stats = MatchStats::default();
        let mut buf = Vec::new();
        let probe = SegmentFeatures::for_config(&config, &segment((1, 2), (3, 4), 5));
        let found = index.find_first(&config, &probe, &[], &mut stats, &mut buf, |_, _| true);
        assert_eq!(found, None);
        assert_eq!(stats, MatchStats::default());
    }

    #[test]
    fn scratch_reuse_does_not_leak_state_between_queries() {
        let family = scaled_family(&[1, 3, 9, 27, 81, 243, 729, 2187]);
        let config = MethodConfig::new(Method::Manhattan, 0.3);
        let features: Vec<SegmentFeatures> = family
            .iter()
            .map(|s| SegmentFeatures::for_config(&config, s))
            .collect();
        let mut index = CandidateIndex::default();
        for id in 0..family.len() as u32 {
            index.insert(id, &config, &features);
        }
        let mut scratch = MatchScratch::new();
        let mut buf = Vec::new();
        // Querying twice with the same probe must give the same answer and
        // the same per-query counter deltas.
        let mut first = MatchStats::default();
        let a = index.find_first(
            &config,
            &features[3],
            &features,
            &mut first,
            &mut buf,
            |id, s| segments_match_cached(&config, &features[3], &features[id as usize], s),
        );
        let mut second = MatchStats::default();
        let b = index.find_first(
            &config,
            &features[3],
            &features,
            &mut second,
            &mut buf,
            |id, s| segments_match_cached(&config, &features[3], &features[id as usize], s),
        );
        assert_eq!(a, b);
        assert_eq!(first, second);
        scratch.reset_stats();
    }
}
