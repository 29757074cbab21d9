//! Differentials for the per-segment features at their edges.
//!
//! * The fused wavelet transform — level 1 straight from the segment's
//!   time-stamp pairs, the coarser levels in place, the largest magnitude
//!   folded in as coefficients are written — against the allocating
//!   [`average_transform`] / [`haar_transform`] of
//!   [`Segment::wavelet_vector`] and [`max_abs_coefficient`], bit for bit:
//!   every event count from 0 to 40 (vectors landing exactly on a power of
//!   two and just past one), zero-length events, time stamps up to 2⁶⁰ ns.
//! * [`segments_match_cached`] against the naive [`segments_match`] for all
//!   nine methods at the pair's exact decision threshold and one ulp either
//!   side — the borderline cases whole-workload suites rarely reach.

use proptest::prelude::*;

use trace_model::{ContextId, Event, RegionId, Segment, Time};
use trace_reduce::wavelet::{average_transform, haar_transform, max_abs_coefficient, WaveletKind};
use trace_reduce::{
    segments_match, segments_match_cached, MatchStats, Method, MethodConfig, SegmentFeatures,
};

/// A segment of `k` events laid out by `steps`: the gap before each event,
/// its duration, …, and the gap to the segment end (`2k + 1` of them).
fn build(k: usize, steps: &[u64]) -> Segment {
    let mut steps = steps.iter();
    let mut now = 0u64;
    let mut tick = || {
        now += steps.next().copied().unwrap_or(0);
        Time::from_nanos(now)
    };
    let events = (0..k)
        .map(|i| {
            let start = tick();
            Event::compute(RegionId((i % 3) as u32), start, tick())
        })
        .collect();
    Segment {
        context: ContextId(0),
        start: Time::ZERO,
        end: tick(),
        events,
    }
}

/// Event counts biased towards the padding edges: 1, 3, 7 and 15 events
/// give 4, 8, 16 and 32 time stamps; one more event lands just past.
fn event_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(3usize),
        Just(7usize),
        Just(15usize),
        Just(2usize),
        Just(4usize),
        Just(8usize),
        Just(16usize),
        0usize..41,
    ]
}

/// `2k + 1` steps whose sum stays below 2^bits; a quarter of them zero —
/// zero-length events and back-to-back calls.
fn steps(k: usize, bits: u32) -> impl Strategy<Value = Vec<u64>> {
    let parts = 2 * k as u64 + 1;
    prop::collection::vec((any::<u64>(), 0u8..4), 2 * k + 1).prop_map(move |raw| {
        raw.iter()
            .map(|&(value, selector)| match (selector, bits) {
                (0, _) | (_, 0) => 0,
                _ => (value >> (64 - bits)) / parts,
            })
            .collect()
    })
}

fn segment_strategy() -> impl Strategy<Value = Segment> {
    (event_count(), 0u32..61)
        .prop_flat_map(|(k, bits)| steps(k, bits).prop_map(move |steps| build(k, &steps)))
}

/// Two segments of one shape: the second a few-nanosecond perturbation of
/// the first (norms nearly equal, so the slacked prefilters are at their
/// edge) or timed independently.
fn same_shape_pair() -> impl Strategy<Value = (Segment, Segment)> {
    (event_count(), 0u32..61, 0u8..2).prop_flat_map(|(k, bits, mode)| {
        let jitter = prop::collection::vec(0u64..8, 2 * k + 1);
        (steps(k, bits), steps(k, bits), jitter).prop_map(move |(first, other, jitter)| {
            let second: Vec<u64> = if mode == 0 {
                first
                    .iter()
                    .zip(&jitter)
                    .map(|(step, ns)| step + ns)
                    .collect()
            } else {
                other
            };
            (build(k, &first), build(k, &second))
        })
    })
}

fn assert_fused_transform_is_bit_identical(segment: &Segment) {
    let vector = segment.wavelet_vector();
    let mut out = Vec::new();
    let mut tmp = Vec::new();
    for (kind, reference) in [
        (WaveletKind::Average, average_transform(&vector)),
        (WaveletKind::Haar, haar_transform(&vector)),
    ] {
        let max_abs = kind.transform_pairs_into(segment.wavelet_pairs(), &mut out, &mut tmp);
        assert_eq!(out.len(), reference.len(), "{kind:?} of {vector:?}");
        for (i, (fused, naive)) in out.iter().zip(&reference).enumerate() {
            assert_eq!(
                fused.to_bits(),
                naive.to_bits(),
                "{kind:?} coefficient {i} of {vector:?}"
            );
        }
        let expected = max_abs_coefficient(&reference, &[]);
        assert_eq!(
            max_abs.to_bits(),
            expected.to_bits(),
            "{kind:?} of {vector:?}"
        );
    }
}

#[test]
fn fused_transform_covers_every_size_up_to_forty_events() {
    for k in 0..=40 {
        for bits in [0, 10, 40, 60] {
            // Every fourth step zero, the others spread below 2^bits.
            let parts = 2 * k as u64 + 1;
            let steps: Vec<u64> = (0..parts)
                .map(|i| match (i % 4, bits) {
                    (0, _) | (_, 0) => 0,
                    _ => (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) / parts,
                })
                .collect();
            assert_fused_transform_is_bit_identical(&build(k, &steps));
        }
    }
}

/// The smallest threshold the naive predicate accepts `a` against `b` at:
/// every method's decision is monotone in the threshold, and non-negative
/// floats order like their bit patterns, so bisecting the bits finds it
/// exactly.
fn decision_threshold(method: Method, a: &Segment, b: &Segment) -> f64 {
    let accepts =
        |bits: u64| segments_match(&MethodConfig::new(method, f64::from_bits(bits)), a, b);
    let (mut lo, mut hi) = (0u64, f64::MAX.to_bits());
    if accepts(lo) {
        return 0.0;
    }
    assert!(accepts(hi), "{method} rejects at the largest threshold");
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if accepts(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_transform_is_bit_identical_to_the_allocating_transform(
        segment in segment_strategy(),
    ) {
        assert_fused_transform_is_bit_identical(&segment);
    }

    #[test]
    fn cached_decisions_agree_at_the_decision_threshold(pair in same_shape_pair()) {
        let (a, b) = pair;
        prop_assert!(a.same_shape(&b));
        for method in Method::ALL {
            let boundary = decision_threshold(method, &a, &b);
            for threshold in [boundary.next_down(), boundary, boundary.next_up()] {
                let config = MethodConfig::new(method, threshold);
                let fa = SegmentFeatures::for_config(&config, &a);
                let fb = SegmentFeatures::for_config(&config, &b);
                for (x, fx, y, fy) in [(&a, &fa, &b, &fb), (&b, &fb, &a, &fa)] {
                    let mut stats = MatchStats::default();
                    prop_assert_eq!(
                        segments_match_cached(&config, fx, fy, &mut stats),
                        segments_match(&config, x, y),
                        "{} at {:e} (boundary {:e})",
                        method,
                        threshold,
                        boundary
                    );
                }
            }
        }
    }
}
