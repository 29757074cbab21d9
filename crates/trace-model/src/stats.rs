//! Small numeric helpers shared by the evaluation and analysis crates.

/// The `q`-quantile (0.0..=1.0) of the values using the nearest-rank method.
///
/// The paper's *approximation distance* is the 90th percentile of absolute
/// time-stamp differences, i.e. `percentile(diffs, 0.9)`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let mut sorted: Vec<f64> = values.to_vec();
    // total_cmp gives NaNs a fixed position instead of the
    // comparator-dependent placement partial_cmp would allow.
    sorted.sort_by(f64::total_cmp);
    // lint:allow(float_eq) -- exact sentinel check: q was just clamped, 0.0 means "the minimum"
    if q == 0.0 {
        return sorted[0];
    }
    // Nearest-rank: smallest value such that at least q·N values are <= it.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The maximum of a slice; 0.0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0f64, f64::max)
}

/// Relative difference between two scalars as used by the `relDiff` metric:
/// `|x1 - x2| / max(|x1|, |x2|)`, defined as 0 when both values are 0.
pub fn relative_difference(x1: f64, x2: f64) -> f64 {
    let denom = x1.abs().max(x2.abs());
    // lint:allow(float_eq) -- exact zero guard against dividing by zero, per the relDiff definition
    if denom == 0.0 {
        0.0
    } else {
        (x1 - x2).abs() / denom
    }
}

/// Minkowski distance of order `m` between two equal-length vectors.
/// `m = 1` is the Manhattan distance, `m = 2` the Euclidean distance.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is used.
pub fn minkowski_distance(a: &[f64], b: &[f64], m: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs().powf(m)).sum();
    sum.powf(1.0 / m)
}

/// Manhattan (L1) distance between two equal-length vectors: the sum of the
/// absolute component differences.  Equivalent to
/// [`minkowski_distance`]`(a, b, 1.0)` but computed without `powf`, so the
/// similarity fast path and the naive reference path share the exact same
/// floating-point result.
pub fn manhattan_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Chebyshev (L-infinity) distance between two equal-length vectors: the
/// largest absolute component difference.
pub fn chebyshev_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 15.0);
        assert_eq!(percentile(&v, 0.30), 20.0);
        assert_eq!(percentile(&v, 0.40), 20.0);
        assert_eq!(percentile(&v, 0.50), 35.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn percentile_90_matches_paper_definition() {
        // 10 values, the 90th percentile is the 9th smallest.
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.9), 9.0);
    }

    #[test]
    fn relative_difference_examples_from_paper() {
        // Comparing events that start at times 1 and 2 gives 0.5.
        assert!((relative_difference(1.0, 2.0) - 0.5).abs() < 1e-12);
        // Comparing 100 and 125 gives 0.2.
        assert!((relative_difference(100.0, 125.0) - 0.2).abs() < 1e-12);
        // x1=17, x2=40 gives 0.575 (the paper rounds to 0.58).
        assert!((relative_difference(17.0, 40.0) - 0.575).abs() < 1e-12);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn distances_match_figure_2_example() {
        // s2 = (49, 1, 17, 18, 48) vs s1 = (51, 1, 40, 41, 50)
        let s2 = [49.0, 1.0, 17.0, 18.0, 48.0];
        let s1 = [51.0, 1.0, 40.0, 41.0, 50.0];
        assert_eq!(minkowski_distance(&s2, &s1, 1.0), 50.0);
        assert!((minkowski_distance(&s2, &s1, 2.0) - 32.6).abs() < 0.1);
        assert_eq!(chebyshev_distance(&s2, &s1), 23.0);

        // s2 vs s0 = (50, 1, 20, 21, 49): distances 8, ~4.5, 3.
        let s0 = [50.0, 1.0, 20.0, 21.0, 49.0];
        assert_eq!(minkowski_distance(&s2, &s0, 1.0), 8.0);
        assert!((euclidean_distance(&s2, &s0) - 4.47).abs() < 0.05);
        assert_eq!(chebyshev_distance(&s2, &s0), 3.0);
    }

    #[test]
    fn euclidean_equals_minkowski_order_two() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert!((euclidean_distance(&a, &b) - minkowski_distance(&a, &b, 2.0)).abs() < 1e-12);
        assert_eq!(euclidean_distance(&a, &b), 5.0);
    }

    #[test]
    fn manhattan_equals_minkowski_order_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(manhattan_distance(&a, &b), 7.0);
        assert!((manhattan_distance(&a, &b) - minkowski_distance(&a, &b, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn max_helper() {
        assert_eq!(max(&[]), 0.0);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
    }
}
