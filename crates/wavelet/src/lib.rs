#![forbid(unsafe_code)]
//! Discrete wavelet transforms used by the wavelet similarity metrics.
//!
//! The paper's `avgWave` and `haarWave` metrics transform the time-stamp
//! vector of each segment with a discrete wavelet transform and then compare
//! the transformed vectors with the Euclidean distance (Section 3.2.1,
//! *Wavelet transform*):
//!
//! * the **average transform** iteratively replaces pairs of values with
//!   their pairwise averages (trends) and differences (fluctuations), e.g.
//!   `[a, b] → trend (a+b)/2, fluctuation (a-b)/2`;
//! * the **Haar transform** does the same but multiplies both trends and
//!   fluctuations by `√2`, which preserves the Euclidean distance between
//!   input vectors.
//!
//! Input vectors are zero-padded to the next power of two, exactly as the
//! paper describes.

#![warn(missing_docs)]

pub mod pad;
pub mod transform;

pub use pad::{next_power_of_two, pad_to_power_of_two};
pub use transform::{average_transform, haar_transform, WaveletKind};

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
