//! Acceptance tests for binary streaming (ISSUE 3 and ISSUE 4 acceptance
//! criteria), the container analogue of `bounded_memory.rs`: on an
//! amplified container at least 10× larger than the resident bound,
//!
//! * `reduce --stream` over a v2 container — compressed or not — is
//!   identical to decoding the container in memory and reducing it
//!   with the batch reducer, and
//! * peak resident state stays bounded — both the segment bound
//!   (stored + one in-flight) and the chunk bound (one decoded chunk: its
//!   stored bytes, its LZ output or its batch of records, whichever is
//!   largest — far below the decoded trace), and
//! * index-sharded ingestion (`--shards N`) matches the single-shard
//!   output, and
//! * at the paper preset, a `delta-lz` container is at least 2× smaller on
//!   disk than an uncompressed one while reducing to the identical output.

use std::io::Cursor;

use trace_container::{read_app_container, ChunkSpec, Codec};
use trace_model::{AppTrace, TraceRecord};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_stream::{reduce_container_file, reduce_container_stream};

/// An amplified Late Sender container: the run replayed back-to-back,
/// streamed straight into container chunks via the sim's writer.
fn amplified_container(repeats: usize, segments_per_chunk: usize, codec: Codec) -> Vec<u8> {
    Workload::new(WorkloadKind::LateSender, SizePreset::Tiny)
        .write_container_amplified_to(
            Vec::new(),
            repeats,
            ChunkSpec::with_segments(segments_per_chunk).codec(codec),
        )
        .expect("writing to a Vec cannot fail")
}

/// What the trace takes once decoded, in the unit `peak_chunk_bytes` counts
/// a chunk's batch in: records times the size of one.
fn decoded_bytes(app: &AppTrace) -> usize {
    let records: usize = app.ranks.iter().map(|rank| rank.records.len()).sum();
    records * std::mem::size_of::<TraceRecord>()
}

#[test]
fn resident_state_stays_an_order_of_magnitude_below_the_container() {
    for codec in [Codec::None, Codec::DeltaLz] {
        let bytes = amplified_container(60, 8, codec);
        let config = MethodConfig::with_default_threshold(Method::AvgWave);
        let streamed = reduce_container_stream(&Reducer::new(config), Cursor::new(&bytes)).unwrap();

        // Segment bound: stored representatives + one in-flight segment.
        let bound = streamed.stats.stored + 1;
        assert!(streamed.stats.peak_resident_segments <= bound);
        assert!(
            streamed.stats.segments >= 10 * streamed.stats.peak_resident_segments,
            "trace too small for the claim: {} segments vs peak resident {}",
            streamed.stats.segments,
            streamed.stats.peak_resident_segments
        );

        // Chunk bound: the most one chunk takes — its decoded batch of
        // records, which outweighs its stored and its decompressed bytes —
        // is far below the decoded trace (the monolithic v1 path would hold
        // all of it).
        let app = read_app_container(&bytes[..]).unwrap();
        let one_record = std::mem::size_of::<TraceRecord>();
        assert!(streamed.stats.peak_chunk_bytes >= one_record);
        assert!(
            decoded_bytes(&app) >= 10 * streamed.stats.peak_chunk_bytes,
            "{}: peak chunk {} vs decoded trace {} bytes",
            codec.name(),
            streamed.stats.peak_chunk_bytes,
            decoded_bytes(&app)
        );

        // Identical to the in-memory binary path: decode the whole
        // container and reduce it in memory.
        let in_memory = Reducer::new(config).reduce_app(&app);
        assert_eq!(streamed.reduced, in_memory);
    }
}

#[test]
fn big_container_end_to_end_through_a_file_with_shards() {
    for codec in [Codec::None, Codec::DeltaLz] {
        let bytes = amplified_container(40, 16, codec);
        let decoded = decoded_bytes(&read_app_container(&bytes[..]).unwrap());
        let mut path = std::env::temp_dir();
        path.push(format!(
            "trace_stream_big_container_{}_{}.trc",
            std::process::id(),
            codec.name()
        ));
        std::fs::write(&path, &bytes).unwrap();

        let config = MethodConfig::with_default_threshold(Method::RelDiff);
        let sequential =
            reduce_container_stream(&Reducer::new(config), Cursor::new(&bytes)).unwrap();
        for shards in [2, 4] {
            let sharded = reduce_container_file(&Reducer::new(config), &path, shards).unwrap();
            // Index-sharded ingestion matches the single-shard output
            // exactly.
            assert_eq!(
                sharded.reduced,
                sequential.reduced,
                "{shards} shards ({})",
                codec.name()
            );
            // Per-reader chunk bound holds under sharding too.
            assert!(decoded >= 10 * sharded.stats.peak_chunk_bytes);
            assert!(sharded.stats.segments >= 10 * sharded.stats.peak_resident_segments);
        }

        let _ = std::fs::remove_file(&path);
    }
}

/// ISSUE 4 acceptance criterion: at the paper preset, `delta-lz` halves
/// the container (at least) and changes nothing about the reduction output
/// or the one-decoded-chunk residency.  The workload is the paper's
/// real-application trace (Sweep3D); the interference-heavy benchmarks
/// carry deliberately injected timing noise that no lossless codec can
/// remove (whole-file zlib-9 manages ~1.8× on `dyn_load_balance`, this
/// subsystem's per-chunk `delta-lz` ~1.7×), and EXPERIMENTS.md Table 5
/// records the per-codec ratios across that spectrum.
#[test]
fn paper_preset_delta_lz_at_least_halves_the_container() {
    let workload = Workload::new(WorkloadKind::Sweep3d8p, SizePreset::Paper);
    let none = workload
        .write_container_to(Vec::new(), ChunkSpec::default())
        .expect("writing to a Vec cannot fail");
    let dlz = workload
        .write_container_to(Vec::new(), ChunkSpec::with_codec(Codec::DeltaLz))
        .expect("writing to a Vec cannot fail");
    assert!(
        none.len() >= 2 * dlz.len(),
        "delta-lz must at least halve the paper-preset container: \
         {} vs {} bytes (ratio {:.2})",
        dlz.len(),
        none.len(),
        none.len() as f64 / dlz.len() as f64
    );

    // The compressed container reduces to the identical output of both
    // the uncompressed streaming path and the in-memory path.
    let config = MethodConfig::with_default_threshold(Method::AvgWave);
    let from_dlz = reduce_container_stream(&Reducer::new(config), Cursor::new(&dlz)).unwrap();
    let from_none = reduce_container_stream(&Reducer::new(config), Cursor::new(&none)).unwrap();
    let app = read_app_container(&none[..]).unwrap();
    let in_memory = Reducer::new(config).reduce_app(&app);
    assert_eq!(from_dlz.reduced, from_none.reduced);
    assert_eq!(from_dlz.reduced, in_memory);

    // Still one decoded chunk resident: the compressed reader's peak
    // matches the uncompressed reader's (same chunk grouping, so the same
    // largest batch of records, which outweighs either file's bytes for
    // that chunk) and stays an order of magnitude below the decoded trace.
    assert_eq!(
        from_dlz.stats.peak_chunk_bytes,
        from_none.stats.peak_chunk_bytes
    );
    assert!(decoded_bytes(&app) >= 10 * from_dlz.stats.peak_chunk_bytes);
}
