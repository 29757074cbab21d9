//! Sub-linear candidate index over stored-representative features: the
//! reducer's one candidate search.
//!
//! The stored-segments reduction (Section 3.1) matches every incoming
//! segment against the *first* stored representative its similarity method
//! accepts, scanning the same-shape bucket in insertion order.  The cached
//! kernels of [`crate::features`] make each of those comparisons cheap, but
//! a plain scan stays linear in the bucket size.  A `CandidateIndex`
//! prunes candidates *before* they are visited, while returning the
//! survivors **in insertion order**, so the winning representative — and
//! therefore the reduced trace — is bit-identical to the scan:
//!
//! * **Duration-sorted window.**  Entries are kept sorted by a per-method
//!   *center* (segment duration for the measurement-vector methods, the
//!   leading "overall trend" coefficient for the wavelet methods) so the
//!   exact per-candidate duration lower bound of the cached kernels becomes
//!   one binary-search window per incoming segment.  The window is widened
//!   conservatively (see below), so it only ever excludes candidates the
//!   kernel provably rejects.
//! * **Insertion-order survivors.**  The window's entries are marked in a
//!   bitset over entry positions and visited in ascending position, which
//!   is insertion order, without sorting the window.
//! * **Small buckets are scanned.**  The prefiltered kernels reject a
//!   candidate in a couple of flops, so the window only pays for itself
//!   when it can skip *many* candidates per query.  Buckets below
//!   `SCAN_MIN_BUCKET` are scanned directly in insertion order; that scan
//!   visits a superset of the window's survivors in the same order, so
//!   output is unchanged and no prune is counted.
//!
//! # Why pruning preserves first-match semantics
//!
//! The index returns a **superset-filtered subsequence**: every candidate
//! it yields still runs the full cached predicate, and every candidate it
//! skips is *proven* (under conservative floating-point slack) to be one
//! the predicate would reject.  Since survivors are visited in insertion
//! order, the first accepted candidate is exactly the first candidate a
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
//! Ordering is deterministic: entries sort by `f64::total_cmp` over centers
//! normalized with `+ 0.0` (so `-0.0` and `0.0` compare equal), ties broken
//! by insertion position, and survivors are visited by insertion position.

use std::cmp::Ordering;

use crate::features::{distance_error_factor, MatchStats, SegmentFeatures};
use crate::method::{Method, MethodConfig};
use crate::metric::abs_diff_limit;

/// Relative widening applied to every window endpoint (and to the
/// threshold before deriving endpoints).  ~2⁻⁴⁰: thousands of times the
/// rounding of the few flops that compute an endpoint, yet far too small
/// to let through any candidate a kernel could reject for a real
/// (non-borderline-by-2⁻⁴⁰) reason — and borderline candidates are merely
/// *visited*, never misjudged, because survivors still run the kernel.
const WINDOW_SLACK: f64 = 1e-12;

/// Buckets smaller than this are scanned directly in insertion order: the
/// prefiltered kernel rejects a candidate in a couple of flops, so for a
/// handful of candidates the window arithmetic plus binary search costs
/// more than it can possibly save.  The index must be *free* when it
/// cannot help — most buckets of the paper workloads hold only a few
/// representatives.
const SCAN_MIN_BUCKET: usize = 8;

/// One indexed stored representative.
#[derive(Clone, Debug)]
struct IndexEntry {
    /// Stored-representative id (index into the reducer's feature table).
    id: u32,
    /// Sort key: duration (measurement methods) or leading wavelet
    /// coefficient, normalized so `-0.0` sorts as `0.0`.
    center: f64,
}

/// Center-sorted candidate index for one same-shape bucket.
///
/// Insertion order of entries mirrors the bucket's stored order, which is
/// the order [`CandidateIndex::find_first`] visits survivors in.
#[derive(Clone, Debug, Default)]
pub(crate) struct CandidateIndex {
    /// Entries in insertion (stored) order.
    entries: Vec<IndexEntry>,
    /// Entry positions sorted by `(center, position)` ascending.
    order: Vec<u32>,
    /// Largest `extent - center` over all entries, the extent being the
    /// scale the threshold multiplies (largest measurement / largest
    /// absolute wavelet coefficient).  Within a bucket the extent always
    /// dominates the center (the measurement vector contains the duration;
    /// the coefficient max-abs dominates the leading coefficient), so this
    /// is ≥ 0 and bounds any entry's extent by `center + max_excess` —
    /// which turns the candidate-dependent threshold scale
    /// `t · max(extent_i, extent_s)` into a solvable window over centers.
    max_excess: f64,
}

impl CandidateIndex {
    /// Indexes the stored representative `id`, whose features are
    /// `features`.  Must be called in stored order.
    pub(crate) fn insert(&mut self, id: u32, method: Method, features: &SegmentFeatures) {
        let center = center_of(method, features) + 0.0;
        self.max_excess = self.max_excess.max(extent_of(method, features) - center);
        let position = self.entries.len() as u32;
        let at = self.order.partition_point(|&p| {
            self.entries[p as usize].center.total_cmp(&center) != Ordering::Greater
        });
        self.order.insert(at, position);
        self.entries.push(IndexEntry { id, center });
    }

    /// Finds the first stored representative (in insertion order) that
    /// `try_match` accepts, pruning candidates the center window proves
    /// unmatchable.  `buf` is a reusable scratch buffer for the surviving
    /// positions' bitset.
    ///
    /// Counter contract: candidates the window skipped are counted into
    /// [`MatchStats::index_window_prunes`]; `try_match` itself counts the
    /// visited comparisons.  Together they reconstruct exactly the number
    /// of candidates a linear scan would have examined
    /// ([`MatchStats::candidates`]), including the truncation at the first
    /// match.  Buckets below [`SCAN_MIN_BUCKET`] degenerate to that linear
    /// scan outright (no prunes attributed) — the identity holds trivially.
    pub(crate) fn find_first<F>(
        &self,
        config: &MethodConfig,
        incoming: &SegmentFeatures,
        stats: &mut MatchStats,
        buf: &mut Vec<u64>,
        mut try_match: F,
    ) -> Option<u32>
    where
        F: FnMut(u32, &mut MatchStats) -> bool,
    {
        let total = self.entries.len();
        if total < SCAN_MIN_BUCKET {
            // Small bucket: the prefiltered kernel is cheaper per candidate
            // than any window arithmetic.  Plain insertion-order scan; the
            // kernel counts its comparisons, nothing is attributed to the
            // index, and `candidates()` degenerates to `comparisons`.
            return self
                .entries
                .iter()
                .find(|entry| try_match(entry.id, stats))
                .map(|entry| entry.id);
        }
        let (lo, hi) = self.center_window(config, incoming);
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
        // The survivors as a bitset over entry positions, walked in
        // ascending position == insertion order: first-match semantics
        // depend on visiting survivors in this order.  Marking costs one
        // bit per survivor and the walk one word per 64 entries, so no
        // window is ever sorted.
        buf.clear();
        buf.resize(total.div_ceil(64), 0);
        for &p in &self.order[begin..end] {
            buf[p as usize / 64] |= 1 << (p % 64);
        }
        let mut visited = 0;
        for (word, &bits) in buf.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let position = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let id = self.entries[position].id;
                if try_match(id, stats) {
                    // A linear scan would have examined every candidate up
                    // to and including this position; attribute the
                    // skipped ones.
                    stats.index_window_prunes += position - visited;
                    return Some(id);
                }
                visited += 1;
            }
        }
        stats.index_window_prunes += total - visited;
        None
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
    ) -> (Option<f64>, Option<f64>) {
        let method = config.method;
        let c = center_of(method, incoming) + 0.0;
        let n = term_count(method, incoming);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::segments_match_cached;
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
            index.insert(id, config.method, &features[id as usize]);
        }
        let mut buf = Vec::new();
        for probe in &features {
            let mut stats = MatchStats::default();
            let indexed = index.find_first(&config, probe, &mut stats, &mut buf, |id, stats| {
                segments_match_cached(&config, probe, &features[id as usize], stats)
            });
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
        // 12 members exercise the window path, 3 the small-bucket
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
        // which candidate is visited first.  The 150-member family spreads
        // each probe's matches over several 64-entry words of the
        // survivor bitset.
        let shuffled: Vec<u64> = (0..150).map(|i| 1 + (i * 97) % 150).collect();
        for family in [
            scaled_family(&[10, 2, 7, 3, 9, 1, 8, 4, 6, 5]),
            scaled_family(&shuffled),
        ] {
            for method in distance_methods() {
                assert_index_matches_scan(method, 0.4, &family);
            }
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
                    index.insert(id, config.method, &features[id as usize]);
                }
                let mut buf = Vec::new();
                for probe in &features {
                    let mut stats = MatchStats::default();
                    let mut visited = Vec::new();
                    index.find_first(&config, probe, &mut stats, &mut buf, |id, stats| {
                        visited.push(id);
                        // Never accept, so every survivor is visited.
                        segments_match_cached(&config, probe, &features[id as usize], stats);
                        false
                    });
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
        let found = index.find_first(&config, &probe, &mut stats, &mut buf, |_, _| true);
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
            index.insert(id, config.method, &features[id as usize]);
        }
        let mut buf = Vec::new();
        // Querying twice with the same probe must give the same answer and
        // the same per-query counter deltas.
        let mut first = MatchStats::default();
        let a = index.find_first(&config, &features[3], &mut first, &mut buf, |id, s| {
            segments_match_cached(&config, &features[3], &features[id as usize], s)
        });
        let mut second = MatchStats::default();
        let b = index.find_first(&config, &features[3], &mut second, &mut buf, |id, s| {
            segments_match_cached(&config, &features[3], &features[id as usize], s)
        });
        assert_eq!(a, b);
        assert_eq!(first, second);
    }
}
