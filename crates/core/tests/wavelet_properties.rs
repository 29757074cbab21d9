//! Property-based tests for the wavelet transforms, with the inverse
//! transforms as the round-trip oracle.

use proptest::prelude::*;

use trace_reduce::wavelet::{
    average_transform, coefficient_distance, haar_transform, max_abs_coefficient,
    pad_to_power_of_two,
};

/// Inverts one decomposition level: `t = (a + b) s`, `f = (a - b) s`, so
/// `a = (t + f) / 2s` and `b = (t - f) / 2s`.
fn reconstruct_level(trends: &[f64], fluctuations: &[f64], scale: f64) -> Vec<f64> {
    let inv = 1.0 / (2.0 * scale);
    trends
        .iter()
        .zip(fluctuations)
        .flat_map(|(t, f)| [(t + f) * inv, (t - f) * inv])
        .collect()
}

/// Inverts a full transform of the given per-level scale, whose
/// coefficient vector has a power-of-two length.
fn full_inverse(coefficients: &[f64], scale: f64) -> Vec<f64> {
    assert!(coefficients.len().is_power_of_two());
    let mut trends = vec![coefficients[0]];
    let mut offset = 1;
    while offset < coefficients.len() {
        let fluctuations = &coefficients[offset..offset + trends.len()];
        trends = reconstruct_level(&trends, fluctuations, scale);
        offset += fluctuations.len();
    }
    trends
}

/// Inverse of [`average_transform`] (up to the zero padding).
fn inverse_average_transform(coefficients: &[f64]) -> Vec<f64> {
    full_inverse(coefficients, 0.5)
}

/// Inverse of [`haar_transform`] (up to the zero padding).
fn inverse_haar_transform(coefficients: &[f64]) -> Vec<f64> {
    full_inverse(coefficients, std::f64::consts::FRAC_1_SQRT_2)
}

#[test]
fn inverse_round_trips_power_of_two_inputs() {
    let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
    for (recovered, kind) in [
        (inverse_average_transform(&average_transform(&v)), "average"),
        (inverse_haar_transform(&haar_transform(&v)), "haar"),
    ] {
        assert!(close(&recovered, &v, 1e-9), "{kind}: {recovered:?}");
    }
}

fn signal() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, 1..64)
}

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transforms_produce_power_of_two_lengths(v in signal()) {
        prop_assert!(average_transform(&v).len().is_power_of_two());
        prop_assert!(haar_transform(&v).len().is_power_of_two());
        prop_assert!(average_transform(&v).len() >= v.len());
    }

    #[test]
    fn average_then_inverse_recovers_padded_signal(v in signal()) {
        let padded = pad_to_power_of_two(&v);
        let recovered = inverse_average_transform(&average_transform(&v));
        prop_assert!(close(&recovered, &padded, 1e-6 * (1.0 + max_abs_coefficient(&padded, &[]))));
    }

    #[test]
    fn haar_then_inverse_recovers_padded_signal(v in signal()) {
        let padded = pad_to_power_of_two(&v);
        let recovered = inverse_haar_transform(&haar_transform(&v));
        prop_assert!(close(&recovered, &padded, 1e-6 * (1.0 + max_abs_coefficient(&padded, &[]))));
    }

    #[test]
    fn haar_preserves_euclidean_distance(pair in (1usize..64).prop_flat_map(|len| (
        prop::collection::vec(-1.0e6..1.0e6f64, len),
        prop::collection::vec(-1.0e6..1.0e6f64, len),
    ))) {
        // Distance preservation holds for equal-length inputs, which is the
        // only case the similarity metric ever compares (segments must have
        // the same number of events to be eligible for a match).
        let (a, b) = pair;
        let direct = coefficient_distance(&pad_to_power_of_two(&a), &pad_to_power_of_two(&b));
        let transformed = coefficient_distance(&haar_transform(&a), &haar_transform(&b));
        let tol = 1e-6 * (1.0 + direct);
        prop_assert!((direct - transformed).abs() <= tol,
            "direct {direct} vs transformed {transformed}");
    }

    #[test]
    fn identical_signals_have_zero_distance(a in signal()) {
        prop_assert_eq!(coefficient_distance(&average_transform(&a), &average_transform(&a)), 0.0);
        prop_assert_eq!(coefficient_distance(&haar_transform(&a), &haar_transform(&a)), 0.0);
    }

    #[test]
    fn average_coefficients_never_exceed_haar(a in signal()) {
        let avg = max_abs_coefficient(&average_transform(&a), &[]);
        let haar = max_abs_coefficient(&haar_transform(&a), &[]);
        prop_assert!(avg <= haar + 1e-12);
    }

    #[test]
    fn transform_is_linear_in_the_signal(a in signal(), k in -4.0..4.0f64) {
        let scaled: Vec<f64> = a.iter().map(|v| v * k).collect();
        let t_scaled = average_transform(&scaled);
        let scaled_t: Vec<f64> = average_transform(&a).iter().map(|v| v * k).collect();
        let tol = 1e-6 * (1.0 + max_abs_coefficient(&scaled_t, &[]));
        prop_assert!(close(&t_scaled, &scaled_t, tol));
    }
}
