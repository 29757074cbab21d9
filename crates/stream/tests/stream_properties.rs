//! Property: streaming reduction ≡ in-memory reduction.
//!
//! Random multi-rank traces (mixed contexts, event shapes and timings,
//! including repeated same-shape segments so matching actually happens) are
//! serialized to the text format and reduced twice — once in memory via
//! [`trace_reduce::Reducer`], once via [`trace_stream::reduce_stream`] —
//! for every `Method` variant.  Stored segments and execution logs must be
//! identical, and the sharded driver must agree with both — and with the
//! naive reference reduction the core differential suite uses.

#[path = "../../core/tests/support/reference.rs"]
mod reference;

use std::io::Cursor;

use proptest::prelude::*;
use reference::{reduce_app_reference, reduce_rank_reference};
use trace_format::write_app_trace;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};
use trace_stream::{reduce_stream, reduce_stream_sharded};

fn build_trace(rank_specs: &[Vec<SegmentSpec>]) -> trace_model::AppTrace {
    trace_from_specs("proptrace", rank_specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_reducer_equals_in_memory_reducer(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..10),
        1..4,
    )) {
        let app = build_trace(&rank_specs);
        prop_assert!(app.is_well_formed());
        let text = write_app_trace(&app);

        for method in Method::ALL {
            let config = MethodConfig::with_default_threshold(method);
            let in_memory = Reducer::new(config).reduce_app(&app);
            let streamed = reduce_stream(&Reducer::new(config), Cursor::new(text.as_bytes()))
                .expect("generated traces parse");
            // Same stored segments, same execution logs, for every rank.
            prop_assert_eq!(&streamed.reduced, &in_memory, "{}", method);
            // And the resident bound holds: stored + one in-flight segment
            // per (single) active rank.
            prop_assert!(
                streamed.stats.peak_resident_segments <= streamed.stats.stored + 1,
                "{}: peak {} vs stored {}",
                method,
                streamed.stats.peak_resident_segments,
                streamed.stats.stored
            );
        }
    }

    #[test]
    fn sharded_streaming_agrees_with_sequential(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..8),
        1..5,
    )) {
        let app = build_trace(&rank_specs);
        let text = write_app_trace(&app);
        let config = MethodConfig::with_default_threshold(Method::AvgWave);
        let sequential = reduce_stream(&Reducer::new(config), Cursor::new(text.as_bytes())).unwrap();
        for shards in [2usize, 3] {
            let sharded = reduce_stream_sharded(&Reducer::new(config), shards, |_| {
                Ok(Cursor::new(text.as_bytes().to_vec()))
            })
            .unwrap();
            prop_assert_eq!(&sharded.reduced, &sequential.reduced, "{} shards", shards);
        }
    }
}

#[test]
fn thresholded_methods_agree_across_the_threshold_grid() {
    // Sweep the paper's threshold grids on one fixed trace: the streaming
    // and in-memory reducers must agree at every operating point, not just
    // the defaults.
    let specs: Vec<Vec<SegmentSpec>> = vec![
        (0..20)
            .map(|i| (0u8, (i % 3) as u8, (i * 97 % 1500) as u16))
            .collect(),
        (0..15)
            .map(|i| (1u8, (i % 2) as u8, (i * 131 % 900) as u16))
            .collect(),
    ];
    let app = build_trace(&specs);
    let text = write_app_trace(&app);
    for method in Method::ALL {
        for threshold in method.threshold_grid() {
            let config = MethodConfig::new(method, threshold);
            let in_memory = Reducer::new(config).reduce_app(&app);
            let streamed =
                reduce_stream(&Reducer::new(config), Cursor::new(text.as_bytes())).unwrap();
            assert_eq!(streamed.reduced, in_memory, "{method} @ {threshold}");
        }
    }
}

#[test]
fn streaming_and_sharded_drivers_match_the_naive_reference_path() {
    // The streaming loop drives the cached fast path (scratch threaded
    // from rank to rank); its output must still be bit-identical to the
    // naive reference reducer across all nine methods and the threshold
    // grids, sequentially and sharded.
    let specs: Vec<Vec<SegmentSpec>> = (0..4)
        .map(|rank| {
            (0..18)
                .map(|i| {
                    (
                        (rank % 2) as u8,
                        ((i + rank) % 3) as u8,
                        ((i * 89 + rank * 37) % 1400) as u16,
                    )
                })
                .collect()
        })
        .collect();
    let app = build_trace(&specs);
    let text = write_app_trace(&app);
    for method in Method::ALL {
        for threshold in std::iter::once(method.default_threshold()).chain(method.threshold_grid())
        {
            let config = MethodConfig::new(method, threshold);
            let reference = reduce_app_reference(config, &app);
            let streamed =
                reduce_stream(&Reducer::new(config), Cursor::new(text.as_bytes())).unwrap();
            assert_eq!(streamed.reduced, reference, "{method} @ {threshold}");
            // Fast-path counters partition; matches are the same decisions
            // the reference made.
            let matching = streamed.stats.matching;
            assert_eq!(
                matching.prefilter_rejects + matching.early_abandons + matching.full_kernels,
                matching.comparisons,
                "{method} @ {threshold}"
            );
            for shards in [2usize, 3] {
                let sharded = reduce_stream_sharded(&Reducer::new(config), shards, |_| {
                    Ok(Cursor::new(text.as_bytes().to_vec()))
                })
                .unwrap();
                assert_eq!(
                    sharded.reduced, reference,
                    "{method} @ {threshold}, {shards} shards"
                );
            }
        }
    }
}

#[test]
fn streaming_index_counters_reconcile_with_the_reference_scan() {
    // The streaming loop drives the candidate index.  Every candidate the
    // naive reference compared must be accounted for by the streamed
    // counters — either visited (`comparisons`) or attributed to a window
    // prune — and the sharded driver must aggregate the identical totals,
    // merely in a different worker order.  (60 segments
    // per rank: the per-shape buckets must outgrow the index's
    // small-bucket fallback for the prune counters to be non-trivial.)
    let specs: Vec<Vec<SegmentSpec>> = (0..3)
        .map(|rank| {
            (0..60)
                .map(|i| {
                    (
                        (rank % 2) as u8,
                        (i % 3) as u8,
                        ((i * 211 + rank * 53) % 1600) as u16,
                    )
                })
                .collect()
        })
        .collect();
    let app = build_trace(&specs);
    let text = write_app_trace(&app);
    for method in Method::ALL.into_iter().filter(|m| m.is_distance_method()) {
        let config = MethodConfig::with_default_threshold(method);
        let reference_comparisons: usize = app
            .ranks
            .iter()
            .map(|rank| reduce_rank_reference(config, rank).matching.comparisons)
            .sum();
        let streamed = reduce_stream(&Reducer::new(config), Cursor::new(text.as_bytes())).unwrap();
        assert_eq!(
            streamed.stats.matching.candidates(),
            reference_comparisons,
            "{method}: streamed candidates must cover the reference scan"
        );
        assert!(
            streamed.stats.matching.comparisons <= reference_comparisons,
            "{method}: the index must never visit more than the scan"
        );
        for shards in [2usize, 3] {
            let sharded = reduce_stream_sharded(&Reducer::new(config), shards, |_| {
                Ok(Cursor::new(text.as_bytes().to_vec()))
            })
            .unwrap();
            assert_eq!(
                sharded.stats.matching, streamed.stats.matching,
                "{method} with {shards} shards: counters aggregate identically"
            );
        }
    }
}
