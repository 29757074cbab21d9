//! Similarity predicates for segment comparison (Section 3.2).
//!
//! Every predicate assumes the two segments already have the same *shape*
//! (same context, same events in the same order, same message-passing
//! parameters) — that eligibility test is [`trace_model::Segment::same_shape`]
//! and is performed by the reducer before the similarity test, exactly as
//! `compareSegments` does in the paper.

use trace_model::stats;
use trace_model::Segment;

use crate::method::{Method, MethodConfig};
use crate::wavelet::{coefficient_distance, max_abs_coefficient, WaveletKind};

/// Nanoseconds per microsecond; `absDiff` thresholds are specified in
/// microseconds to match the paper's 10^1..10^6 grid.
const NS_PER_US: f64 = 1_000.0;

/// The `absDiff` limit in nanoseconds for a threshold in microseconds.
/// Shared by the naive predicate below and the cached fast path
/// ([`crate::features`]) so both compute the identical bound.
pub(crate) fn abs_diff_limit(threshold_us: f64) -> f64 {
    threshold_us * NS_PER_US
}

/// Relative-difference test: every paired measurement must differ by at most
/// `threshold` in relative terms.
pub(crate) fn rel_diff_match(a: &Segment, b: &Segment, threshold: f64) -> bool {
    let va = a.measurement_vector();
    let vb = b.measurement_vector();
    va.iter()
        .zip(&vb)
        .all(|(&x, &y)| stats::relative_difference(x, y) <= threshold)
}

/// Absolute-difference test: every paired measurement must differ by at most
/// `threshold_us` microseconds.
pub(crate) fn abs_diff_match(a: &Segment, b: &Segment, threshold_us: f64) -> bool {
    let limit = abs_diff_limit(threshold_us);
    let va = a.measurement_vector();
    let vb = b.measurement_vector();
    va.iter().zip(&vb).all(|(&x, &y)| (x - y).abs() <= limit)
}

/// Minkowski-distance test (`order` 1 = Manhattan, 2 = Euclidean,
/// `None` = Chebyshev): the distance between the measurement vectors must
/// not exceed `threshold` times the largest measurement in the pair.
///
/// Orders 1 and 2 use the dedicated [`stats::manhattan_distance`] /
/// [`stats::euclidean_distance`] kernels (no `powf`), the same scalar code
/// the early-abandoning fast path accumulates term by term — so the two
/// paths agree bit for bit, not just approximately.
pub(crate) fn minkowski_match(
    a: &Segment,
    b: &Segment,
    order: Option<f64>,
    threshold: f64,
) -> bool {
    let va = a.measurement_vector();
    let vb = b.measurement_vector();
    let distance = match order {
        Some(m) => {
            // lint:allow(float_eq) -- exact dispatch sentinels: orders 1 and 2 select the powf-free kernels
            if m == 1.0 {
                stats::manhattan_distance(&va, &vb)
            // lint:allow(float_eq) -- exact dispatch sentinels: orders 1 and 2 select the powf-free kernels
            } else if m == 2.0 {
                stats::euclidean_distance(&va, &vb)
            } else {
                stats::minkowski_distance(&va, &vb, m)
            }
        }
        None => stats::chebyshev_distance(&va, &vb),
    };
    let max_value = stats::max(&va).max(stats::max(&vb));
    distance <= threshold * max_value
}

/// Wavelet test: transform both time-stamp vectors, compare with the
/// Euclidean distance, and test against `threshold` times the largest
/// coefficient in the pair of transformed vectors (Section 3.2.1 and the
/// worked example of Figure 3).
pub(crate) fn wavelet_match(a: &Segment, b: &Segment, kind: WaveletKind, threshold: f64) -> bool {
    let ta = kind.transform(&a.wavelet_vector());
    let tb = kind.transform(&b.wavelet_vector());
    let distance = coefficient_distance(&ta, &tb);
    let max_coefficient = max_abs_coefficient(&ta, &tb);
    distance <= threshold * max_coefficient
}

/// Dispatches the similarity test for a method configuration.
///
/// The iteration-based methods are not distance tests: `iter_avg` matches
/// any same-shape segment by definition, and `iter_k`'s keep-the-first-`k`
/// policy is enforced by the reducer (which counts stored representatives),
/// so both return `true` here.
pub fn segments_match(config: &MethodConfig, a: &Segment, b: &Segment) -> bool {
    match config.method {
        Method::RelDiff => rel_diff_match(a, b, config.threshold),
        Method::AbsDiff => abs_diff_match(a, b, config.threshold),
        Method::Manhattan => minkowski_match(a, b, Some(1.0), config.threshold),
        Method::Euclidean => minkowski_match(a, b, Some(2.0), config.threshold),
        Method::Chebyshev => minkowski_match(a, b, None, config.threshold),
        Method::AvgWave => wavelet_match(a, b, WaveletKind::Average, config.threshold),
        Method::HaarWave => wavelet_match(a, b, WaveletKind::Haar, config.threshold),
        Method::IterK | Method::IterAvg => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{ContextId, Event, RegionId, Time};

    /// Builds the three segments of the paper's Figure 2 (times in
    /// nanoseconds so the numbers match the figure exactly).
    fn figure2_segments() -> (Segment, Segment, Segment) {
        let seg = |e0: (u64, u64), e1: (u64, u64), end: u64| Segment {
            context: ContextId(0),
            start: Time::ZERO,
            end: Time::from_nanos(end),
            events: vec![
                Event::compute(RegionId(0), Time::from_nanos(e0.0), Time::from_nanos(e0.1)),
                Event::compute(RegionId(1), Time::from_nanos(e1.0), Time::from_nanos(e1.1)),
            ],
        };
        let s0 = seg((1, 20), (21, 49), 50);
        let s1 = seg((1, 40), (41, 50), 51);
        let s2 = seg((1, 17), (18, 48), 49);
        (s0, s1, s2)
    }

    #[test]
    fn rel_diff_matches_the_figure_2_walkthrough() {
        let (s0, s1, s2) = figure2_segments();
        // With threshold 0.5, s2 does not match s1 (do_work end: 17 vs 40,
        // relative difference 0.58) but does match s0 (max 0.15).
        assert!(!rel_diff_match(&s2, &s1, 0.5));
        assert!(rel_diff_match(&s2, &s0, 0.5));
    }

    #[test]
    fn abs_diff_matches_the_figure_2_walkthrough() {
        let (s0, s1, s2) = figure2_segments();
        // Threshold of 20 time units (here nanoseconds = 0.02 us): s2 vs s1
        // fails (23 apart), s2 vs s0 passes (max 3 apart).
        assert!(!abs_diff_match(&s2, &s1, 20.0 / 1_000.0));
        assert!(abs_diff_match(&s2, &s0, 20.0 / 1_000.0));
    }

    #[test]
    fn minkowski_matches_the_figure_2_walkthrough() {
        let (s0, s1, s2) = figure2_segments();
        // Threshold 0.2: the max measurement of (s2, s1) is 51, so the
        // largest acceptable distance is 10.2; the distances are 50, 32.6
        // and 23, so no Minkowski variant matches.
        assert!(!minkowski_match(&s2, &s1, Some(1.0), 0.2));
        assert!(!minkowski_match(&s2, &s1, Some(2.0), 0.2));
        assert!(!minkowski_match(&s2, &s1, None, 0.2));
        // Against s0 the distances are 8, 4.5 and 3 with a cap of 10, so all
        // three match.
        assert!(minkowski_match(&s2, &s0, Some(1.0), 0.2));
        assert!(minkowski_match(&s2, &s0, Some(2.0), 0.2));
        assert!(minkowski_match(&s2, &s0, None, 0.2));
    }

    #[test]
    fn wavelet_matches_the_figure_3_walkthrough() {
        let (s0, _s1, s2) = figure2_segments();
        // Figure 3 compares s0 and s2 with the average transform at
        // threshold 0.2 and finds a match (distance 1.9 <= 3.5).
        assert!(wavelet_match(&s0, &s2, WaveletKind::Average, 0.2));
        assert!(wavelet_match(&s0, &s2, WaveletKind::Haar, 0.2));
    }

    #[test]
    fn identical_segments_match_under_every_method() {
        let (s0, _, _) = figure2_segments();
        for method in Method::ALL {
            let cfg = MethodConfig::with_default_threshold(method);
            assert!(
                segments_match(&cfg, &s0, &s0),
                "{method} must match a segment with itself"
            );
        }
    }

    #[test]
    fn zero_threshold_distance_methods_reject_different_segments() {
        let (s0, _, s2) = figure2_segments();
        for method in [
            Method::RelDiff,
            Method::AbsDiff,
            Method::Manhattan,
            Method::Euclidean,
            Method::Chebyshev,
            Method::AvgWave,
            Method::HaarWave,
        ] {
            let cfg = MethodConfig::new(method, 0.0);
            assert!(
                !segments_match(&cfg, &s0, &s2),
                "{method} with zero threshold must reject differing segments"
            );
            assert!(segments_match(&cfg, &s0, &s0));
        }
    }

    #[test]
    fn iteration_methods_always_report_a_match() {
        let (s0, s1, _) = figure2_segments();
        assert!(segments_match(
            &MethodConfig::with_default_threshold(Method::IterAvg),
            &s0,
            &s1
        ));
        assert!(segments_match(
            &MethodConfig::new(Method::IterK, 1.0),
            &s0,
            &s1
        ));
    }

    #[test]
    fn similarity_tests_are_symmetric() {
        let (s0, s1, s2) = figure2_segments();
        for method in Method::ALL {
            let cfg = MethodConfig::with_default_threshold(method);
            for (a, b) in [(&s0, &s1), (&s0, &s2), (&s1, &s2)] {
                assert_eq!(
                    segments_match(&cfg, a, b),
                    segments_match(&cfg, b, a),
                    "{method} must be symmetric"
                );
            }
        }
    }

    #[test]
    fn rel_diff_is_stricter_for_early_small_timestamps() {
        // The paper's discussion: timestamps 1 vs 2 fail a 0.25 threshold
        // even though they are one unit apart, while 100 vs 125 pass.
        let seg = |t0: u64, t1: u64| Segment {
            context: ContextId(0),
            start: Time::ZERO,
            end: Time::from_nanos(t1 + 1),
            events: vec![Event::compute(
                RegionId(0),
                Time::from_nanos(t0),
                Time::from_nanos(t1),
            )],
        };
        assert!(!rel_diff_match(&seg(1, 200), &seg(2, 200), 0.25));
        assert!(rel_diff_match(&seg(100, 200), &seg(125, 200), 0.25));
    }
}
