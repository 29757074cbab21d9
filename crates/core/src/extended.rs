//! Extended similarity-method catalogue.
//!
//! The paper's conclusion lists "investigating additional difference
//! methods" as future work.  This module provides that extension on top of
//! the unchanged paper pipeline: every extended method plugs into the same
//! stored-segments algorithm through
//! [`crate::reducer::reduce_rank_with_predicate`], so the comparison with the
//! nine paper methods is apples-to-apples (same segmentation, same
//! eligibility rule, same reconstruction).
//!
//! The extended methods are:
//!
//! * [`ExtendedMethod::Dtw`] — dynamic time warping over the measurement
//!   vector (Hauswirth et al.), tolerant of small shifts in when events
//!   happen inside a segment.
//! * [`ExtendedMethod::Cosine`] — cosine dissimilarity of the measurement
//!   vectors, sensitive to the *shape* of the timing profile but not its
//!   magnitude.
//! * [`ExtendedMethod::NormalizedEuclidean`] — the paper's Euclidean test
//!   with the distance divided by `sqrt(len)`, which removes the bias that
//!   makes long segments easier to match.
//! * [`ExtendedMethod::Cdf97Wave`] — the wavelet test using the CDF 9/7
//!   transform (Gamblin et al.) instead of the average/Haar transforms.
//! * [`ExtendedMethod::HistogramDelta`] — Ratn et al. keep histograms of
//!   delta times; this method matches segments whose delta-time histograms
//!   are close in normalized L1 distance.
//! * [`ExtendedMethod::Paper`] — any of the paper's nine methods, so studies
//!   can sweep the union of both catalogues with one configuration type.

use std::fmt;

use trace_model::{stats, AppTrace, RankTrace, ReducedAppTrace, Segment};
use trace_wavelet::{coefficient_distance, WaveletKind};

use crate::dtw::dtw_within;
use crate::features::{FeatureKind, Norm, SegmentFeatures};
use crate::method::{Method, MethodConfig};
use crate::metric::{segments_match, wavelet_match};
use crate::reducer::{reduce_rank_by, reduce_rank_with_predicate, RankReduction, Reducer};

/// Number of bins used by the delta-time histogram method.
const HISTOGRAM_BINS: usize = 16;

/// Sakoe–Chiba band radius used by the DTW method.  Segment measurement
/// vectors are index-aligned by construction (same shape), so only small,
/// local warps are meaningful.
const DTW_BAND: usize = 2;

/// One method from the extended catalogue.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ExtendedMethod {
    /// One of the paper's nine methods.
    Paper(Method),
    /// Dynamic time warping over the measurement vector.
    Dtw,
    /// Cosine dissimilarity of the measurement vectors.
    Cosine,
    /// Euclidean distance normalized by the square root of the vector length.
    NormalizedEuclidean,
    /// Wavelet test using the CDF 9/7 transform.
    Cdf97Wave,
    /// Normalized L1 distance between delta-time histograms.
    HistogramDelta,
}

impl ExtendedMethod {
    /// The five extension methods (excluding the paper methods).
    pub const EXTENSIONS: [ExtendedMethod; 5] = [
        ExtendedMethod::Dtw,
        ExtendedMethod::Cosine,
        ExtendedMethod::NormalizedEuclidean,
        ExtendedMethod::Cdf97Wave,
        ExtendedMethod::HistogramDelta,
    ];

    /// The full catalogue: the nine paper methods followed by the five
    /// extensions.
    pub fn all() -> Vec<ExtendedMethod> {
        Method::ALL
            .into_iter()
            .map(ExtendedMethod::Paper)
            .chain(Self::EXTENSIONS)
            .collect()
    }

    /// Display name; paper methods keep their paper names.
    pub fn name(self) -> &'static str {
        match self {
            ExtendedMethod::Paper(m) => m.name(),
            ExtendedMethod::Dtw => "dtw",
            ExtendedMethod::Cosine => "cosine",
            ExtendedMethod::NormalizedEuclidean => "normEuclidean",
            ExtendedMethod::Cdf97Wave => "cdf97Wave",
            ExtendedMethod::HistogramDelta => "histDelta",
        }
    }

    /// Looks a method up by name (case-insensitive), searching the paper
    /// catalogue first and the extensions second.
    pub fn by_name(name: &str) -> Option<ExtendedMethod> {
        if let Some(m) = Method::by_name(name) {
            return Some(ExtendedMethod::Paper(m));
        }
        Self::EXTENSIONS
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// True if this is one of the paper's nine methods.
    pub fn is_paper_method(self) -> bool {
        matches!(self, ExtendedMethod::Paper(_))
    }

    /// Default threshold, chosen analogously to the paper's representative
    /// thresholds (magnitude-scaled methods default to 0.2).
    pub fn default_threshold(self) -> f64 {
        match self {
            ExtendedMethod::Paper(m) => m.default_threshold(),
            ExtendedMethod::Dtw => 0.2,
            ExtendedMethod::Cosine => 0.01,
            ExtendedMethod::NormalizedEuclidean => 0.2,
            ExtendedMethod::Cdf97Wave => 0.2,
            ExtendedMethod::HistogramDelta => 0.25,
        }
    }

    /// The threshold grid used by ablation sweeps over the extensions
    /// (paper methods keep their paper grids).
    pub fn threshold_grid(self) -> Vec<f64> {
        match self {
            ExtendedMethod::Paper(m) => m.threshold_grid(),
            ExtendedMethod::Cosine => vec![0.001, 0.005, 0.01, 0.05, 0.1, 0.5],
            ExtendedMethod::Dtw
            | ExtendedMethod::NormalizedEuclidean
            | ExtendedMethod::Cdf97Wave
            | ExtendedMethod::HistogramDelta => vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0],
        }
    }
}

impl fmt::Display for ExtendedMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An extended method plus its threshold.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ExtendedConfig {
    /// The similarity method.
    pub method: ExtendedMethod,
    /// The threshold parameter (same interpretation as [`MethodConfig`] for
    /// paper methods; a relative factor for all extensions).
    pub threshold: f64,
}

impl ExtendedConfig {
    /// Creates a configuration with an explicit threshold.
    pub fn new(method: ExtendedMethod, threshold: f64) -> Self {
        ExtendedConfig { method, threshold }
    }

    /// Creates a configuration using the method's default threshold.
    pub fn with_default_threshold(method: ExtendedMethod) -> Self {
        ExtendedConfig::new(method, method.default_threshold())
    }

    /// Every method of the full catalogue at its default threshold.
    pub fn all_defaults() -> Vec<ExtendedConfig> {
        ExtendedMethod::all()
            .into_iter()
            .map(ExtendedConfig::with_default_threshold)
            .collect()
    }

    /// Short label such as `dtw(0.2)` used in reports.
    pub fn label(&self) -> String {
        format!("{}({})", self.method.name(), self.threshold)
    }
}

/// Cosine dissimilarity (`1 - cosine similarity`) between two vectors.
/// Returns 0 for two zero vectors and 1 when exactly one of them is zero.
pub fn cosine_dissimilarity(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let norm_a: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let norm_b: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    // lint:allow(float_eq) -- exact zero-vector guards per the documented definition; norms are non-negative
    if norm_a == 0.0 && norm_b == 0.0 {
        0.0
    // lint:allow(float_eq) -- exact zero-vector guards per the documented definition; norms are non-negative
    } else if norm_a == 0.0 || norm_b == 0.0 {
        1.0
    } else {
        (1.0 - dot / (norm_a * norm_b)).max(0.0)
    }
}

/// Delta times of a segment: the gaps between consecutive entries of the
/// time-stamp vector (segment start, event entry/exit pairs, segment end).
/// These are the quantities Ratn et al. aggregate into histograms.
pub fn delta_times(segment: &Segment) -> Vec<f64> {
    let v = segment.wavelet_vector();
    v.windows(2).map(|w| (w[1] - w[0]).abs()).collect()
}

/// Histogram of `values` with `bins` equal-width bins over `[0, max]`,
/// normalized so the counts sum to 1.  An all-zero input produces a
/// histogram with all mass in the first bin.
pub fn normalized_histogram(values: &[f64], bins: usize, max: f64) -> Vec<f64> {
    let mut hist = vec![0.0; bins.max(1)];
    if values.is_empty() {
        return hist;
    }
    let width = if max > 0.0 { max / bins as f64 } else { 1.0 };
    for &v in values {
        let mut idx = (v / width).floor() as usize;
        if idx >= hist.len() {
            idx = hist.len() - 1;
        }
        hist[idx] += 1.0;
    }
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        for h in &mut hist {
            *h /= total;
        }
    }
    hist
}

/// Normalized L1 distance between two histograms (half the sum of absolute
/// bin differences, so the result lies in `[0, 1]`).
pub fn histogram_distance(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    let mut sum = 0.0;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        sum += (x - y).abs();
    }
    sum / 2.0
}

/// Delta-time histogram similarity test (Ratn et al. style): the histograms
/// of the two segments' delta times must be within `threshold` in normalized
/// L1 distance.
pub fn histogram_delta_match(a: &Segment, b: &Segment, threshold: f64) -> bool {
    let da = delta_times(a);
    let db = delta_times(b);
    let max = stats::max(&da).max(stats::max(&db));
    let ha = normalized_histogram(&da, HISTOGRAM_BINS, max);
    let hb = normalized_histogram(&db, HISTOGRAM_BINS, max);
    histogram_distance(&ha, &hb) <= threshold
}

/// DTW similarity test: the band-limited, path-normalized DTW distance
/// between the measurement vectors must not exceed `threshold` times the
/// largest measurement in the pair (the same magnitude scaling the paper
/// uses for the Minkowski distances).
///
/// Decided through [`dtw_within`], which abandons the dynamic program as
/// soon as a whole row's minimum cumulative cost normalizes past the
/// bound — the decision is identical to comparing the full
/// [`crate::dtw::normalized_dtw_distance`], rejections just cost fewer
/// rows.
pub fn dtw_match(a: &Segment, b: &Segment, threshold: f64) -> bool {
    let va = a.measurement_vector();
    let vb = b.measurement_vector();
    let max_value = stats::max(&va).max(stats::max(&vb));
    dtw_within(&va, &vb, Some(DTW_BAND), threshold * max_value)
}

/// Cosine similarity test: the cosine dissimilarity of the measurement
/// vectors must not exceed `threshold`.
pub fn cosine_match(a: &Segment, b: &Segment, threshold: f64) -> bool {
    cosine_dissimilarity(&a.measurement_vector(), &b.measurement_vector()) <= threshold
}

/// Length-normalized Euclidean test: the Euclidean distance divided by
/// `sqrt(len)` must not exceed `threshold` times the largest measurement.
pub fn normalized_euclidean_match(a: &Segment, b: &Segment, threshold: f64) -> bool {
    let va = a.measurement_vector();
    let vb = b.measurement_vector();
    if va.is_empty() && vb.is_empty() {
        return true;
    }
    let distance = stats::euclidean_distance(&va, &vb) / (va.len().max(1) as f64).sqrt();
    let max_value = stats::max(&va).max(stats::max(&vb));
    distance <= threshold * max_value
}

/// Cosine dissimilarity over cached measurement features: only the dot
/// product is computed per pair; the norms come from the feature cache.
/// The cache fills its L2 `norm` with the identical expression
/// [`cosine_dissimilarity`] evaluates, so the result is bit-identical to
/// running the naive predicate on the raw measurement vectors.
fn cosine_dissimilarity_cached(a: &SegmentFeatures, b: &SegmentFeatures) -> f64 {
    let dot: f64 = a
        .measurements
        .iter()
        .zip(&b.measurements)
        .map(|(x, y)| x * y)
        .sum();
    let norm_a = a.norm;
    let norm_b = b.norm;
    // lint:allow(float_eq) -- exact zero-vector guards mirroring `cosine_dissimilarity`; norms are non-negative
    if norm_a == 0.0 && norm_b == 0.0 {
        0.0
    // lint:allow(float_eq) -- exact zero-vector guards mirroring `cosine_dissimilarity`; norms are non-negative
    } else if norm_a == 0.0 || norm_b == 0.0 {
        1.0
    } else {
        (1.0 - dot / (norm_a * norm_b)).max(0.0)
    }
}

/// [`normalized_euclidean_match`] over cached features: the cached maxima
/// are the same `stats::max` folds the naive test computes per comparison.
fn normalized_euclidean_cached(a: &SegmentFeatures, b: &SegmentFeatures, threshold: f64) -> bool {
    if a.measurements.is_empty() && b.measurements.is_empty() {
        return true;
    }
    let distance = stats::euclidean_distance(&a.measurements, &b.measurements)
        / (a.measurements.len().max(1) as f64).sqrt();
    let max_value = a.max_measurement.max(b.max_measurement);
    distance <= threshold * max_value
}

/// The CDF 9/7 wavelet test over cached coefficients.  `max(max_abs(a),
/// max_abs(b))` equals the joint `max_abs_coefficient(a, b)` fold exactly
/// (the maximum of two sub-folds of a max fold), so this is bit-identical
/// to [`wavelet_match`] with [`WaveletKind::Cdf97`].
fn cdf97_wave_cached(a: &SegmentFeatures, b: &SegmentFeatures, threshold: f64) -> bool {
    let distance = coefficient_distance(&a.coeffs, &b.coeffs);
    let max_coefficient = a.coeff_max_abs.max(b.coeff_max_abs);
    distance <= threshold * max_coefficient
}

/// Dispatches the similarity test for an extended configuration.
pub fn segments_match_extended(config: &ExtendedConfig, a: &Segment, b: &Segment) -> bool {
    match config.method {
        ExtendedMethod::Paper(m) => segments_match(&MethodConfig::new(m, config.threshold), a, b),
        ExtendedMethod::Dtw => dtw_match(a, b, config.threshold),
        ExtendedMethod::Cosine => cosine_match(a, b, config.threshold),
        ExtendedMethod::NormalizedEuclidean => normalized_euclidean_match(a, b, config.threshold),
        ExtendedMethod::Cdf97Wave => wavelet_match(a, b, WaveletKind::Cdf97, config.threshold),
        ExtendedMethod::HistogramDelta => histogram_delta_match(a, b, config.threshold),
    }
}

/// Reduces traces with an extended method configuration.
///
/// Paper methods delegate to the unchanged [`Reducer`] — so `iter_k` and
/// `iter_avg` keep their special stored-segment handling and the distance
/// methods get the candidate index ([`crate::index`]).  Extension methods
/// that read only measurement vectors or wavelet coefficients (`cosine`,
/// `normEuclidean`, `cdf97Wave`) run through the cached-feature candidate
/// path (features computed once per segment, once per representative);
/// `cosine` gets no index window because it is scale-invariant — a segment
/// of any duration can be a perfect cosine match — so no duration bound is
/// admissible for it.  Only the structural methods (DTW's banded warping,
/// the delta-time histograms) remain on the naive per-comparison
/// predicate.
#[derive(Clone, Copy, Debug)]
pub struct ExtendedReducer {
    config: ExtendedConfig,
}

impl ExtendedReducer {
    /// Creates a reducer for the given extended configuration.
    pub fn new(config: ExtendedConfig) -> Self {
        ExtendedReducer { config }
    }

    /// Convenience constructor using the method's default threshold.
    pub fn with_default_threshold(method: ExtendedMethod) -> Self {
        ExtendedReducer::new(ExtendedConfig::with_default_threshold(method))
    }

    /// The configuration in use.
    pub fn config(&self) -> ExtendedConfig {
        self.config
    }

    /// Reduces a single rank trace.
    pub fn reduce_rank(&self, trace: &RankTrace) -> RankReduction {
        let threshold = self.config.threshold;
        match self.config.method {
            ExtendedMethod::Paper(m) => {
                Reducer::new(MethodConfig::new(m, threshold)).reduce_rank(trace)
            }
            ExtendedMethod::Cosine => reduce_rank_by(
                trace,
                FeatureKind::Measurements(Norm::L2),
                move |_, a, _, b| cosine_dissimilarity_cached(a, b) <= threshold,
            ),
            ExtendedMethod::NormalizedEuclidean => reduce_rank_by(
                trace,
                FeatureKind::Measurements(Norm::None),
                move |_, a, _, b| normalized_euclidean_cached(a, b, threshold),
            ),
            ExtendedMethod::Cdf97Wave => reduce_rank_by(
                trace,
                FeatureKind::Wavelet(WaveletKind::Cdf97),
                move |_, a, _, b| cdf97_wave_cached(a, b, threshold),
            ),
            ExtendedMethod::Dtw | ExtendedMethod::HistogramDelta => {
                let config = self.config;
                reduce_rank_with_predicate(trace, move |a, b| {
                    segments_match_extended(&config, a, b)
                })
            }
        }
    }

    /// Reduces every rank of an application trace.
    pub fn reduce_app(&self, app: &AppTrace) -> ReducedAppTrace {
        match self.config.method {
            ExtendedMethod::Paper(m) => {
                Reducer::new(MethodConfig::new(m, self.config.threshold)).reduce_app(app)
            }
            _ => {
                let mut reduced = ReducedAppTrace::for_app(app);
                for rank in &app.ranks {
                    reduced.ranks.push(self.reduce_rank(rank).reduced);
                }
                reduced
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{ContextId, Event, RegionId, Time};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

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
    fn catalogue_contains_paper_and_extension_methods() {
        let all = ExtendedMethod::all();
        assert_eq!(all.len(), 9 + 5);
        assert_eq!(all.iter().filter(|m| m.is_paper_method()).count(), 9);
        let mut names: Vec<_> = all.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14, "names must be unique");
    }

    #[test]
    fn by_name_round_trips_both_catalogues() {
        for method in ExtendedMethod::all() {
            assert_eq!(ExtendedMethod::by_name(method.name()), Some(method));
        }
        assert_eq!(
            ExtendedMethod::by_name("avgWave"),
            Some(ExtendedMethod::Paper(Method::AvgWave))
        );
        assert_eq!(ExtendedMethod::by_name("DTW"), Some(ExtendedMethod::Dtw));
        assert_eq!(ExtendedMethod::by_name("bogus"), None);
    }

    #[test]
    fn default_config_labels_and_grids() {
        let cfg = ExtendedConfig::with_default_threshold(ExtendedMethod::Dtw);
        assert_eq!(cfg.label(), "dtw(0.2)");
        assert_eq!(ExtendedConfig::all_defaults().len(), 14);
        for method in ExtendedMethod::EXTENSIONS {
            assert_eq!(method.threshold_grid().len(), 6);
        }
    }

    #[test]
    fn cosine_dissimilarity_edge_cases() {
        assert_eq!(cosine_dissimilarity(&[], &[]), 0.0);
        assert_eq!(cosine_dissimilarity(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(cosine_dissimilarity(&[1.0, 0.0], &[0.0, 0.0]), 1.0);
        assert!(cosine_dissimilarity(&[1.0, 2.0], &[2.0, 4.0]) < 1e-12);
        let opposite = cosine_dissimilarity(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((opposite - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_is_normalized_and_distance_bounded() {
        let h = normalized_histogram(&[1.0, 2.0, 3.0, 10.0], 4, 10.0);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let empty = normalized_histogram(&[], 4, 10.0);
        assert_eq!(empty, vec![0.0; 4]);
        let d = histogram_distance(&h, &empty);
        assert!(d > 0.0 && d <= 1.0 + 1e-12);
        assert_eq!(histogram_distance(&h, &h), 0.0);
    }

    #[test]
    fn delta_times_follow_the_wavelet_vector() {
        let (s0, _, _) = figure2_segments();
        // wavelet vector: 0, 1, 20, 21, 49, 50 -> deltas 1, 19, 1, 28, 1.
        assert_eq!(delta_times(&s0), vec![1.0, 19.0, 1.0, 28.0, 1.0]);
    }

    #[test]
    fn every_extension_matches_identical_segments() {
        let (s0, _, _) = figure2_segments();
        for method in ExtendedMethod::EXTENSIONS {
            let cfg = ExtendedConfig::with_default_threshold(method);
            assert!(
                segments_match_extended(&cfg, &s0, &s0),
                "{method} must match a segment with itself"
            );
        }
    }

    #[test]
    fn extensions_are_symmetric() {
        let (s0, s1, s2) = figure2_segments();
        for method in ExtendedMethod::EXTENSIONS {
            let cfg = ExtendedConfig::with_default_threshold(method);
            for (a, b) in [(&s0, &s1), (&s0, &s2), (&s1, &s2)] {
                assert_eq!(
                    segments_match_extended(&cfg, a, b),
                    segments_match_extended(&cfg, b, a),
                    "{method} must be symmetric"
                );
            }
        }
    }

    #[test]
    fn figure2_pairs_behave_sensibly_under_extensions() {
        let (s0, s1, s2) = figure2_segments();
        // s0 and s2 are nearly identical; s1 is the outlier.
        for method in [
            ExtendedMethod::Dtw,
            ExtendedMethod::NormalizedEuclidean,
            ExtendedMethod::Cdf97Wave,
        ] {
            let cfg = ExtendedConfig::with_default_threshold(method);
            assert!(
                segments_match_extended(&cfg, &s0, &s2),
                "{method} should match the near-identical pair"
            );
        }
        // A very tight threshold rejects the dissimilar pair for every
        // magnitude-scaled extension.
        for method in [
            ExtendedMethod::Dtw,
            ExtendedMethod::NormalizedEuclidean,
            ExtendedMethod::Cdf97Wave,
        ] {
            let cfg = ExtendedConfig::new(method, 0.001);
            assert!(
                !segments_match_extended(&cfg, &s2, &s1),
                "{method} at a tight threshold should reject the outlier"
            );
        }
    }

    #[test]
    fn dtw_tolerates_shifts_that_pointwise_methods_reject() {
        // Two segments with identical durations but the second event shifted
        // later: relDiff at a strict threshold rejects, DTW accepts.
        let a = segment((10, 20), (30, 40), 100);
        let b = segment((10, 20), (34, 44), 100);
        assert!(dtw_match(&a, &b, 0.05));
        assert!(!crate::metric::rel_diff_match(&a, &b, 0.05));
    }

    #[test]
    fn extended_reducer_delegates_paper_methods() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let via_paper = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        let via_extended =
            ExtendedReducer::with_default_threshold(ExtendedMethod::Paper(Method::AvgWave))
                .reduce_app(&app);
        assert_eq!(via_paper.total_stored(), via_extended.total_stored());
        assert_eq!(via_paper.total_execs(), via_extended.total_execs());
    }

    #[test]
    fn cached_feature_extensions_are_bit_identical_to_the_predicate_path() {
        // The ported extensions (cosine / normEuclidean / cdf97Wave) run on
        // the cached-feature candidate path; the naive per-comparison
        // predicate must agree on every threshold of the grid.
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in [
            ExtendedMethod::Cosine,
            ExtendedMethod::NormalizedEuclidean,
            ExtendedMethod::Cdf97Wave,
        ] {
            for threshold in method.threshold_grid() {
                let config = ExtendedConfig::new(method, threshold);
                let cached = ExtendedReducer::new(config).reduce_app(&app);
                let naive = crate::reducer::reduce_app_with_predicate(&app, |a, b| {
                    segments_match_extended(&config, a, b)
                });
                assert_eq!(cached, naive, "{method} at {threshold}");
            }
        }
    }

    #[test]
    fn extended_reducer_reduces_and_reconstructs_with_every_extension() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in ExtendedMethod::EXTENSIONS {
            let reduced = ExtendedReducer::with_default_threshold(method).reduce_app(&app);
            assert_eq!(reduced.rank_count(), app.rank_count(), "{method}");
            assert!(reduced.total_stored() >= 1, "{method}");
            let approx = reduced.reconstruct();
            assert_eq!(approx.total_events(), app.total_events(), "{method}");
        }
    }

    #[test]
    fn tighter_thresholds_do_not_store_fewer_segments() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        for method in [
            ExtendedMethod::Dtw,
            ExtendedMethod::NormalizedEuclidean,
            ExtendedMethod::Cdf97Wave,
            ExtendedMethod::HistogramDelta,
        ] {
            let mut previous = 0usize;
            for threshold in [1.0, 0.4, 0.1, 0.01] {
                let reduced =
                    ExtendedReducer::new(ExtendedConfig::new(method, threshold)).reduce_app(&app);
                let stored = reduced.total_stored();
                assert!(
                    stored >= previous,
                    "{method}: stored {stored} at {threshold} must be >= {previous}"
                );
                previous = stored;
            }
        }
    }
}
