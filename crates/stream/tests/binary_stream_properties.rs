//! Property: streaming reduction of a chunked binary container ≡ in-memory
//! reduction of the decoded trace, for all nine paper methods, any chunk
//! size, any codec, and any shard count.

use std::io::Cursor;

use proptest::prelude::*;
use trace_container::{encode_app_container, ChunkSpec, Codec};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};
use trace_stream::{reduce_container_file, reduce_container_stream};

fn build_trace(rank_specs: &[Vec<SegmentSpec>]) -> trace_model::AppTrace {
    trace_from_specs("binprop", rank_specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn binary_streaming_equals_in_memory_for_every_method(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..10),
        1..4,
    ), segments_per_chunk in 1usize..8) {
        let app = build_trace(&rank_specs);
        prop_assert!(app.is_well_formed());
        // Compressed containers must be indistinguishable from uncompressed
        // ones to the reduction pipeline, for every method.
        for codec in [Codec::None, Codec::DeltaLz] {
            let spec = ChunkSpec::with_segments(segments_per_chunk).codec(codec);
            let bytes = encode_app_container(&app, spec);

            for method in Method::ALL {
                let config = MethodConfig::with_default_threshold(method);
                let in_memory = Reducer::new(config).reduce_app(&app);
                let streamed = reduce_container_stream(&Reducer::new(config), Cursor::new(&bytes))
                    .expect("generated containers decode");
                prop_assert_eq!(&streamed.reduced, &in_memory, "{} ({})", method, codec.name());
                prop_assert!(
                    streamed.stats.peak_resident_segments <= streamed.stats.stored + 1,
                    "{} ({}): peak {} vs stored {}",
                    method,
                    codec.name(),
                    streamed.stats.peak_resident_segments,
                    streamed.stats.stored
                );
            }
        }
    }

    #[test]
    fn index_sharded_ingestion_agrees_with_sequential(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..8),
        1..5,
    ), codec in prop_oneof![Just(Codec::None), Just(Codec::DeltaLz)]) {
        let app = build_trace(&rank_specs);
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(3).codec(codec));
        let mut path = std::env::temp_dir();
        path.push(format!(
            "trace_stream_binprop_{}_{}.trc",
            std::process::id(),
            rank_specs.len()
        ));
        std::fs::write(&path, &bytes).unwrap();

        let config = MethodConfig::with_default_threshold(Method::AvgWave);
        let sequential = reduce_container_stream(&Reducer::new(config), Cursor::new(&bytes)).unwrap();
        for shards in [2usize, 3] {
            let sharded = reduce_container_file(&Reducer::new(config), &path, shards).unwrap();
            prop_assert_eq!(
                &sharded.reduced, &sequential.reduced,
                "{} shards ({})", shards, codec.name()
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn thresholded_methods_agree_across_the_threshold_grid_on_compressed_input() {
    let specs: Vec<Vec<SegmentSpec>> = vec![
        (0..20)
            .map(|i| (0u8, (i % 3) as u8, (i * 97 % 1500) as u16))
            .collect(),
        (0..15)
            .map(|i| (1u8, (i % 2) as u8, (i * 131 % 900) as u16))
            .collect(),
    ];
    let app = build_trace(&specs);
    let bytes = encode_app_container(&app, ChunkSpec::with_segments(4).codec(Codec::DeltaLz));
    for method in Method::ALL {
        for threshold in method.threshold_grid() {
            let config = MethodConfig::new(method, threshold);
            let in_memory = Reducer::new(config).reduce_app(&app);
            let streamed =
                reduce_container_stream(&Reducer::new(config), Cursor::new(&bytes)).unwrap();
            assert_eq!(streamed.reduced, in_memory, "{method} @ {threshold}");
        }
    }
}
