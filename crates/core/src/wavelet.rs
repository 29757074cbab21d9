//! Discrete wavelet transforms used by the wavelet similarity metrics.
//!
//! The paper's `avgWave` and `haarWave` metrics transform the time-stamp
//! vector of each segment with a discrete wavelet transform and then compare
//! the transformed vectors with the Euclidean distance (Section 3.2.1,
//! *Wavelet transform*).  Both transforms repeatedly decompose a signal of
//! length `L` (a power of two) into `L/2` *trends* and `L/2` *fluctuations*
//! computed from pairs of adjacent values, and then recurse on the trends
//! until a single overall trend remains.  The output layout is
//!
//! ```text
//! [ overall trend | level-k fluctuations | ... | level-1 fluctuations ]
//! ```
//!
//! * the **average transform**: `trend = (a + b) / 2`,
//!   `fluctuation = (a - b) / 2`;
//! * the **Haar transform**: the same values multiplied by `√2`
//!   (`trend = (a + b) / √2`, `fluctuation = (a - b) / √2`), which makes the
//!   transform orthonormal and therefore preserves Euclidean distances.
//!
//! Input vectors are zero-padded to the next power of two, exactly as the
//! paper describes.

/// Which wavelet transform to apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaveletKind {
    /// The plain averaging transform (`avgWave` in the paper).
    Average,
    /// The Haar transform (`haarWave` in the paper).
    Haar,
}

impl WaveletKind {
    /// Applies this transform to `values` (padding to a power of two first).
    pub(crate) fn transform(self, values: &[f64]) -> Vec<f64> {
        match self {
            WaveletKind::Average => average_transform(values),
            WaveletKind::Haar => haar_transform(values),
        }
    }

    /// Transforms the signal `[a₀, b₀, a₁, b₁, …]`, handed over as its
    /// consecutive pairs `(aᵢ, bᵢ)`, writing the coefficients into `out`
    /// (replacing its contents) with `tmp` as level scratch, and returns the
    /// largest absolute coefficient.
    ///
    /// Bit-identical to `WaveletKind::transform` of the flattened signal
    /// followed by [`max_abs_coefficient`], with no signal buffer and
    /// no allocation once the two buffers have grown.  For the average and
    /// Haar transforms level 1 is computed straight from the pairs, the
    /// coarser levels in place in `tmp`, each fluctuation is written once
    /// into its final slot of `out` and its magnitude folded into the
    /// maximum as it is written.  Every coefficient is the same
    /// `(a ± b) * scale` on the same operands as in the allocating form, and
    /// `max` over non-negative values does not depend on their order.
    pub fn transform_pairs_into(
        self,
        pairs: impl ExactSizeIterator<Item = (f64, f64)>,
        out: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) -> f64 {
        let scale = match self {
            WaveletKind::Average => 0.5,
            WaveletKind::Haar => std::f64::consts::FRAC_1_SQRT_2,
        };
        let n = next_power_of_two(2 * pairs.len());
        // Pairs past the signal are zero padding: their trend and
        // fluctuation `(0 ± 0) * scale` are the +0.0 both buffers start with.
        out.clear();
        out.resize(n, 0.0);
        tmp.clear();
        tmp.resize(n.div_ceil(2), 0.0);
        let mut len = n / 2;
        let mut max_abs = 0.0f64;
        for ((a, b), (trend, fluctuation)) in pairs.zip(tmp.iter_mut().zip(&mut out[len..])) {
            *trend = (a + b) * scale;
            *fluctuation = (a - b) * scale;
            raise_to_abs(&mut max_abs, *fluctuation);
        }
        // Trend `i` of a coarser level overwrites `tmp[i]` only after pair
        // `(2i, 2i + 1)` has been read, and no later pair reads index `i`.
        while len > 1 {
            let half = len / 2;
            for i in 0..half {
                let (a, b) = (tmp[2 * i], tmp[2 * i + 1]);
                tmp[i] = (a + b) * scale;
                let fluctuation = (a - b) * scale;
                out[half + i] = fluctuation;
                raise_to_abs(&mut max_abs, fluctuation);
            }
            len = half;
        }
        out[0] = tmp[0];
        raise_to_abs(&mut max_abs, out[0]);
        max_abs
    }
}

/// Raises the running maximum `max` (never NaN) to `|value|`.  The same
/// maximum `f64::max` folds, NaN included (it leaves `max` unchanged), but a
/// plain compare keeps `f64::max`'s NaN handling off the accumulator's
/// dependency chain.
fn raise_to_abs(max: &mut f64, value: f64) {
    if value.abs() > *max {
        *max = value.abs();
    }
}

/// The smallest power of two that is `>= n` (and at least 1).
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `values` zero-padded at the end to the next power-of-two length.
pub fn pad_to_power_of_two(values: &[f64]) -> Vec<f64> {
    let target = next_power_of_two(values.len());
    let mut out = Vec::with_capacity(target);
    out.extend_from_slice(values);
    out.resize(target, 0.0);
    out
}

/// One decomposition level: splits `values` (even length) into
/// `(trends, fluctuations)` scaled by `scale`.
fn decompose_level(values: &[f64], scale: f64) -> (Vec<f64>, Vec<f64>) {
    debug_assert!(values.len().is_multiple_of(2));
    let half = values.len() / 2;
    let mut trends = Vec::with_capacity(half);
    let mut fluctuations = Vec::with_capacity(half);
    for pair in values.chunks_exact(2) {
        trends.push((pair[0] + pair[1]) * scale);
        fluctuations.push((pair[0] - pair[1]) * scale);
    }
    (trends, fluctuations)
}

/// Full multi-level decomposition with the given per-level pair scale.
fn full_transform(values: &[f64], scale: f64) -> Vec<f64> {
    let padded = pad_to_power_of_two(values);
    let n = padded.len();
    if n == 1 {
        return padded;
    }
    // Collect fluctuations from the finest level to the coarsest, then put
    // the final trend first followed by coarsest..finest fluctuations.
    let mut levels: Vec<Vec<f64>> = Vec::new();
    let mut current = padded;
    while current.len() > 1 {
        let (trends, fluctuations) = decompose_level(&current, scale);
        levels.push(fluctuations);
        current = trends;
    }
    let mut out = Vec::with_capacity(n);
    out.push(current[0]);
    for fluctuations in levels.into_iter().rev() {
        out.extend(fluctuations);
    }
    out
}

/// The average wavelet transform (`avgWave`): pairwise averages and halved
/// differences, applied recursively.  The input is zero-padded to the next
/// power of two.
pub fn average_transform(values: &[f64]) -> Vec<f64> {
    full_transform(values, 0.5)
}

/// The Haar wavelet transform (`haarWave`): the average transform with every
/// level multiplied by `√2`, making it orthonormal.  The input is
/// zero-padded to the next power of two.
pub fn haar_transform(values: &[f64]) -> Vec<f64> {
    full_transform(values, std::f64::consts::FRAC_1_SQRT_2)
}

/// Euclidean distance between two coefficient vectors.
///
/// The vectors may have different lengths (segments of different durations
/// pad to different powers of two); the shorter one is treated as
/// zero-extended, which mirrors comparing the zero-padded originals.
pub fn coefficient_distance(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().max(b.len());
    let mut sum = 0.0;
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0.0);
        let y = b.get(i).copied().unwrap_or(0.0);
        sum += (x - y) * (x - y);
    }
    sum.sqrt()
}

/// Largest absolute coefficient in either vector.  The wavelet metrics scale
/// their threshold by this value.
pub fn max_abs_coefficient(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .chain(b.iter())
        .map(|v| v.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn next_power_of_two_values() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(2), 2);
        assert_eq!(next_power_of_two(3), 4);
        assert_eq!(next_power_of_two(6), 8);
        assert_eq!(next_power_of_two(8), 8);
        assert_eq!(next_power_of_two(9), 16);
    }

    #[test]
    fn padding_preserves_prefix_and_zero_fills() {
        let padded = pad_to_power_of_two(&[1.0, 2.0, 3.0]);
        assert_eq!(padded, vec![1.0, 2.0, 3.0, 0.0]);
        let already = pad_to_power_of_two(&[1.0, 2.0]);
        assert_eq!(already, vec![1.0, 2.0]);
        assert_eq!(pad_to_power_of_two(&[]), vec![0.0]);
    }

    #[test]
    fn padded_length_is_a_power_of_two() {
        for n in 0..40 {
            let v = vec![1.0; n];
            let padded = pad_to_power_of_two(&v);
            assert!(padded.len().is_power_of_two());
            assert!(padded.len() >= n);
        }
    }

    #[test]
    fn single_level_average_example() {
        // [4, 6, 10, 12] -> trends [5, 11], fluctuations [-1, -1]
        //                -> overall trend 8, coarse fluctuation -3.
        let t = average_transform(&[4.0, 6.0, 10.0, 12.0]);
        assert_close(&t, &[8.0, -3.0, -1.0, -1.0], 1e-12);
    }

    #[test]
    fn haar_is_average_scaled_by_sqrt_two_per_level() {
        let avg = average_transform(&[4.0, 6.0, 10.0, 12.0]);
        let haar = haar_transform(&[4.0, 6.0, 10.0, 12.0]);
        // Two levels deep: overall trend and coarse fluctuation picked up
        // (√2)², the finest fluctuations picked up √2.
        assert!((haar[0] - avg[0] * 2.0).abs() < 1e-12);
        assert!((haar[1] - avg[1] * 2.0).abs() < 1e-12);
        assert!((haar[2] - avg[2] * std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!((haar[3] - avg[3] * std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn haar_preserves_euclidean_distance() {
        let a = [0.0, 1.0, 17.0, 18.0, 48.0, 49.0];
        let b = [0.0, 1.0, 40.0, 41.0, 50.0, 51.0];
        let direct = coefficient_distance(&pad_to_power_of_two(&a), &pad_to_power_of_two(&b));
        let transformed = coefficient_distance(&haar_transform(&a), &haar_transform(&b));
        assert!(
            (direct - transformed).abs() < 1e-9,
            "Haar must preserve distances: {direct} vs {transformed}"
        );
    }

    #[test]
    fn average_coefficients_are_smaller_than_haar() {
        let v = [0.0, 1.0, 17.0, 18.0, 48.0, 49.0];
        let avg_max = max_abs_coefficient(&average_transform(&v), &[]);
        let haar_max = max_abs_coefficient(&haar_transform(&v), &[]);
        assert!(avg_max < haar_max);
    }

    #[test]
    fn constant_signal_has_zero_fluctuations() {
        let t = average_transform(&[7.0; 8]);
        assert!((t[0] - 7.0).abs() < 1e-12);
        for &f in &t[1..] {
            assert!(f.abs() < 1e-12);
        }
    }

    #[test]
    fn transforms_pad_to_power_of_two_lengths() {
        assert_eq!(average_transform(&[1.0, 2.0, 3.0]).len(), 4);
        assert_eq!(haar_transform(&[1.0; 6]).len(), 8);
        assert_eq!(average_transform(&[5.0]).len(), 1);
        assert_eq!(average_transform(&[]).len(), 1);
    }

    #[test]
    fn transform_pairs_into_is_bit_identical_to_the_allocating_transform() {
        let signals: Vec<Vec<f64>> = vec![
            vec![],
            vec![5.0, 0.0],
            vec![0.0, 1.0, 17.0, 18.0, 48.0, 49.0],
            vec![4.0, 6.0, 10.0, 12.0],
            (0..38).map(|i| (i as f64) * 1.75 - 11.0).collect(),
        ];
        let mut out = vec![f64::NAN; 3];
        let mut tmp = vec![f64::NAN; 70];
        for kind in [WaveletKind::Average, WaveletKind::Haar] {
            for signal in &signals {
                let pairs = signal.chunks_exact(2).map(|pair| (pair[0], pair[1]));
                let max_abs = kind.transform_pairs_into(pairs, &mut out, &mut tmp);
                let reference = kind.transform(signal);
                assert_eq!(out.len(), reference.len(), "{kind:?} {signal:?}");
                for (a, b) in out.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} {signal:?}");
                }
                let expected = max_abs_coefficient(&reference, &[]);
                assert_eq!(max_abs.to_bits(), expected.to_bits(), "{kind:?} {signal:?}");
            }
        }
    }

    #[test]
    fn kind_dispatch_matches_free_functions() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(WaveletKind::Average.transform(&v), average_transform(&v));
        assert_eq!(WaveletKind::Haar.transform(&v), haar_transform(&v));
    }

    #[test]
    fn distance_handles_unequal_lengths() {
        let a = [3.0, 4.0];
        let b = [3.0];
        assert_eq!(coefficient_distance(&a, &b), 4.0);
        assert_eq!(coefficient_distance(&b, &a), 4.0);
    }

    #[test]
    fn distance_of_identical_vectors_is_zero() {
        let a = [1.0, -2.0, 5.5];
        assert_eq!(coefficient_distance(&a, &a), 0.0);
    }

    #[test]
    fn max_abs_considers_both_vectors_and_signs() {
        assert_eq!(max_abs_coefficient(&[1.0, -7.0], &[2.0]), 7.0);
        assert_eq!(max_abs_coefficient(&[], &[]), 0.0);
    }
}
