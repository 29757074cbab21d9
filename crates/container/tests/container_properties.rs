//! Property tests for the chunked container: round-trips across chunk-size
//! and codec grids for randomized traces, and corruption (truncation, bit
//! flips, bad magic/version/codec/trailer) yielding typed errors, never
//! panics or silent misreads.

use proptest::prelude::*;
use trace_container::layout::chunk_end;
use trace_container::{
    decode_app_any, encode_app_container, encode_reduced_container, read_app_container, read_index,
    read_reduced_container, rewrite_index, ChunkReader, ChunkSpec, Codec, ContainerError,
    RankSectionEntry, ReducedChunkReader,
};
use trace_model::{
    AppItem, ContextId, ContextTable, Rank, ReducedAppTrace, ReducedRankTrace, RegionTable,
    Segment, SegmentExec, StoredSegment, Time,
};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};

fn build_trace(rank_specs: &[Vec<SegmentSpec>]) -> trace_model::AppTrace {
    trace_from_specs("containerprop", rank_specs)
}

/// The chunk-size grid: one segment per chunk, small primes, and
/// effectively whole-rank chunks.
const CHUNK_GRID: [usize; 5] = [1, 2, 3, 17, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn app_traces_round_trip_across_the_chunk_and_codec_grids(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..10),
        1..4,
    )) {
        let app = build_trace(&rank_specs);
        prop_assert!(app.is_well_formed());
        for segments_per_chunk in CHUNK_GRID {
            for codec in [Codec::None, Codec::DeltaLz] {
                let spec = ChunkSpec::with_segments(segments_per_chunk).codec(codec);
                let bytes = encode_app_container(&app, spec);
                let decoded = read_app_container(&bytes[..]).expect("round trip");
                prop_assert_eq!(
                    &decoded, &app,
                    "{} segments/chunk, codec {}",
                    segments_per_chunk, codec.name()
                );
                // The fallback dispatcher agrees on v2 input.
                prop_assert_eq!(&decode_app_any(&bytes).expect("dispatch"), &app);
            }
        }
    }

    #[test]
    fn reduced_traces_round_trip_across_the_chunk_and_codec_grids(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 1..10),
        1..4,
    )) {
        let app = build_trace(&rank_specs);
        let reduced = Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff))
            .reduce_app(&app);
        for segments_per_chunk in CHUNK_GRID {
            for codec in [Codec::None, Codec::DeltaLz] {
                let spec = ChunkSpec::with_segments(segments_per_chunk).codec(codec);
                let bytes = encode_reduced_container(&reduced, spec);
                let decoded = read_reduced_container(&bytes[..]).expect("round trip");
                prop_assert_eq!(
                    &decoded, &reduced,
                    "{} segments/chunk, codec {}",
                    segments_per_chunk, codec.name()
                );
            }
        }
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..500), 1..6),
        1..3,
    ), cut_fraction in 0.0f64..1.0) {
        let app = build_trace(&rank_specs);
        for codec in [Codec::None, Codec::DeltaLz] {
            let bytes = encode_app_container(&app, ChunkSpec::with_segments(2).codec(codec));
            let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
            // Every proper prefix must fail to decode — the trailer check
            // makes even "clean" chunk-boundary cuts detectable.
            let err = read_app_container(&bytes[..cut]).expect_err("truncated");
            prop_assert!(
                matches!(
                    err,
                    ContainerError::Truncated { .. }
                        | ContainerError::BadMagic { .. }
                        | ContainerError::Codec(_)
                        | ContainerError::Compress(_)
                        | ContainerError::BadTrailer
                        | ContainerError::CountMismatch { .. }
                        | ContainerError::UnexpectedChunk { .. }
                ),
                "unexpected error class: {:?}",
                err
            );
        }
    }
}

#[test]
fn payload_corruption_is_detected_by_crc() {
    let app = build_trace(&[vec![(0, 0, 10), (0, 0, 12), (1, 1, 40)], vec![(1, 2, 7)]]);
    for codec in [Codec::None, Codec::DeltaLz] {
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(1).codec(codec));
        // Flip one bit in every byte position past the header in turn;
        // decoding must never succeed with a *different* trace, and payload
        // flips must surface as BadCrc — the CRC covers the *stored* bytes,
        // so corruption is caught before decompression even runs (framing
        // flips may show up as other typed errors, e.g. a flipped codec
        // byte is an unknown-codec Compress error).
        let mut crc_errors = 0usize;
        for pos in 6..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            match read_app_container(&corrupt[..]) {
                Ok(decoded) => assert_eq!(
                    decoded,
                    app,
                    "byte {pos}: corruption decoded to a different trace ({})",
                    codec.name()
                ),
                Err(ContainerError::BadCrc { .. }) => crc_errors += 1,
                Err(_) => {}
            }
        }
        assert!(
            crc_errors * 2 > bytes.len() - 6,
            "most single-bit flips should be CRC-detected ({}): {crc_errors} of {}",
            codec.name(),
            bytes.len() - 6
        );
    }
}

#[test]
fn crafted_compressed_payloads_with_valid_crcs_are_typed_errors() {
    // Build a delta-lz container, then splice garbage into a compressed
    // RECORDS payload *with a recomputed CRC*: the framing is pristine, the
    // CRC matches, and only the codec layer can reject it.
    let app = build_trace(&[(0..12).map(|i| (0u8, 0u8, (50 + i * 13) as u16)).collect()]);
    let bytes = encode_app_container(
        &app,
        ChunkSpec::with_segments(usize::MAX).codec(Codec::DeltaLz),
    );
    let (header, mut chunks, trailer) = split_chunks(&bytes);
    let records_pos = chunks
        .iter()
        .position(|c| c[0] == 3 && c[1] == Codec::DeltaLz.as_byte())
        .expect("a compressed RECORDS chunk");
    // Truncate the compressed payload by one byte and re-frame it.
    let chunk = &mut chunks[records_pos];
    let new_payload = chunk[10..chunk.len() - 1].to_vec();
    reframe(chunk, &new_payload);
    let mut crafted = header;
    let mut index_offset = crafted.len() as u64;
    for (i, chunk) in chunks.iter().enumerate() {
        if i + 1 == chunks.len() {
            index_offset = crafted.len() as u64;
        }
        crafted.extend_from_slice(chunk);
    }
    crafted.extend_from_slice(&index_offset.to_le_bytes());
    crafted.extend_from_slice(&trailer[8..]);

    let err = read_app_container(&crafted[..]).expect_err("crafted payload");
    assert!(matches!(err, ContainerError::Compress(_)), "{err:?}");
}

#[test]
fn a_preamble_declaring_2_to_the_60_ranks_is_a_typed_error_not_an_allocation() {
    // Header plus one CRC-valid PREAMBLE chunk: empty name, empty tables and
    // a rank count of 2^60 — 28 bytes in all.  Both whole-file readers must
    // run out of input, not reserve 2^60 rank slots on the varint's word.
    let mut preamble = vec![0u8, 0, 0];
    trace_model::codec::varint::write_u64(&mut preamble, 1 << 60);
    for payload_kind in [0u8, 1] {
        let mut crafted = trace_container::CONTAINER_MAGIC.to_vec();
        crafted.extend_from_slice(&[trace_container::CONTAINER_VERSION, payload_kind]);
        trace_container::layout::write_chunk(
            &mut crafted,
            trace_container::ChunkKind::Preamble,
            Codec::None,
            &preamble,
        )
        .unwrap();
        assert_eq!(crafted.len(), 28);
        let err = if payload_kind == 0 {
            read_app_container(&crafted[..]).map(|_| ()).unwrap_err()
        } else {
            read_reduced_container(&crafted[..])
                .map(|_| ())
                .unwrap_err()
        };
        assert!(matches!(err, ContainerError::Truncated { .. }), "{err:?}");
    }
}

#[test]
fn bad_magic_version_and_trailer_are_typed_errors() {
    let app = build_trace(&[vec![(0, 0, 1)]]);
    let bytes = encode_app_container(&app, ChunkSpec::default());

    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        read_app_container(&bad_magic[..]),
        Err(ContainerError::BadMagic { .. })
    ));

    let mut bad_version = bytes.clone();
    bad_version[4] = 99;
    assert!(matches!(
        read_app_container(&bad_version[..]),
        Err(ContainerError::UnsupportedVersion(99))
    ));

    let mut bad_trailer = bytes.clone();
    let last = bad_trailer.len() - 1;
    bad_trailer[last] = b'?';
    let mut cursor = std::io::Cursor::new(&bad_trailer);
    assert!(matches!(
        read_index(&mut cursor),
        Err(ContainerError::BadTrailer)
    ));
    // The sequential reader also validates the trailer after the index.
    assert!(read_app_container(&bad_trailer[..]).is_err());

    // An app container is not accepted where a reduced trace is expected.
    assert!(matches!(
        read_reduced_container(&bytes[..]),
        Err(ContainerError::UnexpectedChunk { .. })
    ));
}

#[test]
fn index_offsets_survive_every_chunk_size() {
    let app = build_trace(&[
        (0..12)
            .map(|i| (0u8, (i % 3) as u8, (i * 31) as u16))
            .collect(),
        (0..7)
            .map(|i| (1u8, (i % 2) as u8, (i * 57) as u16))
            .collect(),
        vec![(0, 1, 3)],
    ]);
    for segments_per_chunk in CHUNK_GRID {
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(segments_per_chunk));
        let mut cursor = std::io::Cursor::new(&bytes);
        let index = read_index(&mut cursor).unwrap();
        assert_eq!(index.sections.len(), app.rank_count());
        for (entry, rank) in index.sections.iter().zip(&app.ranks) {
            assert_eq!(entry.rank, rank.rank);
            assert_eq!(entry.records, rank.records.len() as u64);
            assert_eq!(entry.segments, rank.segment_instance_count() as u64);
            assert!(entry.offset < bytes.len() as u64);
        }
    }
}

/// `bytes`, a container, with the entries of its index footer rewritten by
/// `edit`; every chunk stays CRC-valid.
fn with_index(bytes: &[u8], edit: impl FnOnce(&mut Vec<RankSectionEntry>)) -> Vec<u8> {
    rewrite_index(bytes, edit).unwrap()
}

/// The index faults, each applied to `bytes`: entries that list another
/// section, or list it elsewhere or in other counts than the file holds.
fn index_faults(bytes: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    // The chunk after a section's RANK_BEGIN.
    let one_chunk_on = |offset: u64| chunk_end(bytes, offset).unwrap();
    vec![
        ("duplicated", with_index(bytes, |s| s[1] = s[0])),
        ("swapped", with_index(bytes, |s| s.swap(1, 2))),
        (
            "one chunk off",
            with_index(bytes, |s| s[2].offset = one_chunk_on(s[2].offset)),
        ),
        ("rank", with_index(bytes, |s| s[2].rank = s[1].rank)),
        (
            "last rank",
            with_index(bytes, |s| s.last_mut().unwrap().rank = s[0].rank),
        ),
        ("chunks", with_index(bytes, |s| s[2].chunks += 1)),
        ("records", with_index(bytes, |s| s[2].records -= 1)),
        ("segments", with_index(bytes, |s| s[2].segments += 1)),
        ("events", with_index(bytes, |s| s[2].events += 1)),
        (
            "out of the file",
            with_index(bytes, |s| {
                s[1].offset = 1 << 40;
                s[1].records = 1 << 40;
                s[2].offset = 1 << 41;
            }),
        ),
        (
            "back to an earlier section",
            with_index(bytes, |s| s.last_mut().unwrap().offset = s[1].offset),
        ),
    ]
}

/// What reading `bytes` the way index-sharded workers do says: the
/// sections must tile the file from where the preamble ends, and each
/// reads against its span.
fn read_by_index(bytes: &[u8]) -> Result<Vec<Vec<AppItem>>, ContainerError> {
    let index = read_index(&mut std::io::Cursor::new(bytes))?;
    index.check_tiling(ChunkReader::new(bytes)?.offset())?;
    let mut sections = Vec::new();
    for i in 0..index.sections.len() {
        let span = index.span(i).unwrap();
        let mut reader = ChunkReader::section(&bytes[span.entry.offset as usize..], span);
        let mut items = Vec::new();
        while let Some(item) = reader.next_item()? {
            items.push(item);
        }
        sections.push(items);
    }
    Ok(sections)
}

#[test]
fn a_crafted_index_is_refused_by_every_reader() {
    use trace_sim::{SizePreset, Workload, WorkloadKind};
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let reduced = Reducer::with_default_threshold(Method::RelDiff).reduce_app(&app);
    let refused = |result: Result<(), ContainerError>| {
        matches!(
            result,
            Err(ContainerError::IndexMismatch { .. } | ContainerError::IndexOrder { .. })
        )
    };
    for codec in [Codec::None, Codec::DeltaLz] {
        let spec = ChunkSpec::with_segments(4).codec(codec);
        let bytes = encode_app_container(&app, spec);
        assert_eq!(read_by_index(&bytes).unwrap().len(), app.rank_count());
        for (fault, crafted) in index_faults(&bytes) {
            let what = format!("{fault} under {}", codec.name());
            let whole = read_app_container(&crafted[..]).map(drop);
            assert!(refused(whole), "{what}: whole file");
            assert!(
                refused(read_by_index(&crafted).map(drop)),
                "{what}: by index"
            );
        }

        let bytes = encode_reduced_container(&reduced, spec);
        assert_eq!(read_reduced_container(&bytes[..]).unwrap(), reduced);
        for (fault, crafted) in index_faults(&bytes) {
            let what = format!("{fault} under {}", codec.name());
            assert!(
                refused(read_reduced_container(&crafted[..]).map(drop)),
                "{what}"
            );
        }
    }

    // A byte between the INDEX chunk and the trailer: the footer no longer
    // ends the file where the trailer says, for either way of reading.
    let bytes = encode_app_container(&app, ChunkSpec::default());
    let mut crafted = bytes[..bytes.len() - 12].to_vec();
    crafted.push(0);
    crafted.extend_from_slice(&bytes[bytes.len() - 12..]);
    let bad_trailer = |e: ContainerError| matches!(e, ContainerError::BadTrailer);
    assert!(bad_trailer(
        read_index(&mut std::io::Cursor::new(&crafted)).unwrap_err()
    ));
    assert!(bad_trailer(read_app_container(&crafted[..]).unwrap_err()));
}

/// Splits a container file into `(header, framed chunks, trailer)` using
/// only the public framing layout (kind byte + codec byte + u32le length +
/// u32le CRC).
fn split_chunks(bytes: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>, Vec<u8>) {
    let header = bytes[..6].to_vec();
    let trailer = bytes[bytes.len() - 12..].to_vec();
    let mut chunks = Vec::new();
    let mut pos = 6;
    while pos < bytes.len() - 12 {
        let len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
        chunks.push(bytes[pos..pos + 10 + len].to_vec());
        pos += 10 + len;
    }
    (header, chunks, trailer)
}

/// Replaces a framed chunk's payload, with a CRC that matches it.
fn reframe(chunk: &mut Vec<u8>, payload: &[u8]) {
    chunk.truncate(2);
    chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    chunk.extend_from_slice(&trace_container::crc32(payload).to_le_bytes());
    chunk.extend_from_slice(payload);
}

/// Everything a reader yields up to its first error, pulled one item at a
/// time or — `by_slice` — with the rest of each chunk taken as a slice
/// behind its first record.
fn drain(bytes: &[u8], by_slice: bool) -> (Vec<AppItem>, Option<String>) {
    let mut reader = ChunkReader::new(bytes).unwrap();
    let mut items = Vec::new();
    loop {
        match reader.next_item() {
            Ok(Some(item)) => {
                let is_record = matches!(item, AppItem::Record(_));
                items.push(item);
                if by_slice && is_record {
                    let rest = reader.take_records();
                    items.extend(rest.iter().map(|record| AppItem::Record(*record)));
                }
            }
            Ok(None) => return (items, None),
            Err(err) => return (items, Some(format!("{err:?}"))),
        }
    }
}

#[test]
fn item_and_slice_iteration_agree_also_on_a_rank_end_that_lies() {
    let app = build_trace(&[
        (0..9)
            .map(|i| (0u8, (i % 3) as u8, (i * 41) as u16))
            .collect(),
        (0..5).map(|i| (1u8, 0u8, (i * 17) as u16)).collect(),
    ]);
    let expected: Vec<AppItem> = app
        .ranks
        .iter()
        .flat_map(|rank| {
            let records = rank.records.iter().map(|r| AppItem::Record(*r));
            std::iter::once(AppItem::RankStart(rank.rank))
                .chain(records)
                .chain(std::iter::once(AppItem::RankEnd(rank.rank)))
        })
        .collect();
    for segments_per_chunk in [1, 3, 128] {
        for codec in [Codec::None, Codec::DeltaLz] {
            let spec = ChunkSpec::with_segments(segments_per_chunk).codec(codec);
            let bytes = encode_app_container(&app, spec);
            let by_item = drain(&bytes, false);
            assert_eq!(by_item, (expected.clone(), None), "{segments_per_chunk}");
            assert_eq!(drain(&bytes, true), by_item, "{segments_per_chunk}");

            // The last section's RANK_END declares one record too many
            // (rank, chunks, then the record count: one byte each here).
            let (header, mut chunks, trailer) = split_chunks(&bytes);
            let rank_end = chunks.iter().rposition(|c| c[0] == 6).unwrap();
            let mut summary = chunks[rank_end][10..].to_vec();
            assert!(summary[2] < 0x7f, "a one-byte count");
            summary[2] += 1;
            reframe(&mut chunks[rank_end], &summary);
            let mut lying = header;
            chunks
                .iter()
                .for_each(|chunk| lying.extend_from_slice(chunk));
            lying.extend_from_slice(&trailer);

            let (items, err) = drain(&lying, false);
            assert_eq!(
                items,
                expected[..expected.len() - 1],
                "{segments_per_chunk}"
            );
            let err = err.expect("the count does not reconcile");
            assert!(
                err.contains("CountMismatch") && err.contains("section records"),
                "{err}"
            );
            assert_eq!(
                drain(&lying, true),
                (items, Some(err)),
                "{segments_per_chunk}"
            );
        }
    }
}

#[test]
fn a_chunk_that_fails_to_decode_leaves_no_records_behind() {
    // One segment per chunk; the second chunk of the section loses its last
    // byte (CRC recomputed), so it fails only after most of its records have
    // decoded.  None of them may come out — not with the error, and not in
    // front of the third chunk's records.
    let app = build_trace(&[(0..3).map(|i| (0u8, 1u8, (600 + i * 7) as u16)).collect()]);
    for codec in [Codec::None, Codec::DeltaLz] {
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(1).codec(codec));
        let (header, mut chunks, trailer) = split_chunks(&bytes);
        let records: Vec<usize> = (0..chunks.len()).filter(|&i| chunks[i][0] == 3).collect();
        assert_eq!(records.len(), 3);
        let cut = chunks[records[1]][10..chunks[records[1]].len() - 1].to_vec();
        reframe(&mut chunks[records[1]], &cut);
        let mut crafted = header;
        chunks
            .iter()
            .for_each(|chunk| crafted.extend_from_slice(chunk));
        crafted.extend_from_slice(&trailer);

        let per_chunk = app.ranks[0].records.len() / 3;
        let mut reader = ChunkReader::new(&crafted[..]).unwrap();
        assert!(matches!(
            reader.next_item().unwrap(),
            Some(AppItem::RankStart(_))
        ));
        let first = reader.next_item().unwrap().unwrap();
        assert_eq!(first, AppItem::Record(app.ranks[0].records[0]));
        assert_eq!(reader.take_records(), &app.ranks[0].records[1..per_chunk]);
        assert!(reader.next_item().is_err(), "{}", codec.name());
        assert!(reader.take_records().is_empty(), "{}", codec.name());
        let third = reader.next_item().unwrap().unwrap();
        assert_eq!(
            third,
            AppItem::Record(app.ranks[0].records[2 * per_chunk]),
            "{}",
            codec.name()
        );
        assert_eq!(
            reader.take_records(),
            &app.ranks[0].records[2 * per_chunk + 1..]
        );
    }
}

#[test]
fn stored_after_execs_is_rejected_even_with_valid_crcs() {
    let app = build_trace(&[vec![(0, 0, 10), (0, 0, 11), (1, 1, 900)]]);
    let reduced =
        Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff)).reduce_app(&app);
    let bytes = encode_reduced_container(&reduced, ChunkSpec::with_segments(1));
    assert_eq!(read_reduced_container(&bytes[..]).unwrap(), reduced);

    // Swap the last STORED chunk with the first EXECS chunk: every CRC
    // stays valid, only the order violates the format.
    let (header, mut chunks, trailer) = split_chunks(&bytes);
    let stored_pos = chunks
        .iter()
        .rposition(|c| c[0] == 4)
        .expect("a STORED chunk");
    let execs_pos = chunks
        .iter()
        .position(|c| c[0] == 5)
        .expect("an EXECS chunk");
    assert!(stored_pos < execs_pos);
    chunks.swap(stored_pos, execs_pos);
    let mut swapped = header;
    for chunk in &chunks {
        swapped.extend_from_slice(chunk);
    }
    // The total byte count ahead of the INDEX chunk is unchanged, so the
    // trailer still points at the index; only the chunk order is illegal.
    swapped.extend_from_slice(&trailer);
    let err = read_reduced_container(&swapped[..]).expect_err("out-of-order chunks");
    assert!(
        matches!(err, ContainerError::UnexpectedChunk { .. }),
        "{err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_reduced_readers_kth_rank_is_its_collects_kth(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..10),
        1..5,
    )) {
        let app = build_trace(&rank_specs);
        let reduced = Reducer::new(MethodConfig::with_default_threshold(Method::AvgWave))
            .reduce_app(&app);
        for segments_per_chunk in CHUNK_GRID {
            for codec in [Codec::None, Codec::DeltaLz] {
                let spec = ChunkSpec::with_segments(segments_per_chunk).codec(codec);
                let bytes = encode_reduced_container(&reduced, spec);
                let collected = read_reduced_container(&bytes[..]).expect("round trip");
                let mut reader = ReducedChunkReader::new(&bytes[..]).expect("opens");
                prop_assert_eq!(reader.preamble().declared_ranks, collected.ranks.len());
                for (k, rank) in collected.ranks.iter().enumerate() {
                    let pulled = reader.next_rank().expect("a rank section");
                    prop_assert_eq!(pulled.as_ref(), Some(rank), "rank {} ({})", k, codec.name());
                }
                prop_assert_eq!(reader.next_rank().expect("the trailer"), None);
                prop_assert_eq!(reader.next_rank().expect("stays done"), None);
            }
        }
    }
}

/// A one-rank reduced trace of `stored` representatives, stored under the
/// ids `id` gives their positions, and ten times as many executions, the
/// `k`-th naming the stored id `exec(k)`.  No reducer writes such a trace;
/// the container's encoder takes it as it is.
fn crafted_reduced(
    stored: usize,
    id: impl Fn(usize) -> u32,
    exec: impl Fn(usize) -> u32,
) -> ReducedAppTrace {
    let mut rank = ReducedRankTrace::new(Rank(0));
    rank.stored = (0..stored)
        .map(|at| StoredSegment {
            id: id(at),
            segment: Segment {
                context: ContextId(0),
                start: Time::ZERO,
                end: Time::from_nanos(10),
                events: Vec::new(),
            },
            represented: 10,
        })
        .collect();
    rank.execs = (0..10 * stored)
        .map(|k| SegmentExec {
            segment: exec(k),
            start: Time::from_nanos(100 * k as u64),
        })
        .collect();
    ReducedAppTrace {
        name: "crafted".into(),
        regions: RegionTable::from_names(Vec::new()),
        contexts: ContextTable::from_names(vec!["main.1".into()]),
        ranks: vec![rank],
    }
}

#[test]
fn sparse_stored_ids_and_executions_of_unknown_segments_are_refused_by_the_reader() {
    // The codec bounds ids (it refuses one past `u32::MAX`) and the reader
    // relates them at the end of each rank section: it names the first
    // violation, whatever the trace's size, and returns no rank that breaks
    // the id rules.
    for stored in [2_000, 20_000] {
        let last = stored as u32 - 1;
        let reversed = crafted_reduced(stored, |at| last - at as u32, |k| (k % stored) as u32);
        // Executions name every stored id and, in turn, the one past them.
        let unknown = crafted_reduced(stored, |at| at as u32, |k| (k % (stored + 1)) as u32);
        for codec in [Codec::None, Codec::DeltaLz] {
            for (crafted, message) in [
                (
                    &reversed,
                    format!("rank 0: stored ids must be dense; expected 0 got {last}"),
                ),
                (
                    &unknown,
                    format!("rank 0: execution references unknown stored segment {stored}"),
                ),
            ] {
                let bytes = encode_reduced_container(crafted, ChunkSpec::with_codec(codec));
                let err = read_reduced_container(&bytes[..]).unwrap_err();
                assert!(matches!(err, ContainerError::StoredIds(_)), "{err:?}");
                assert_eq!(err.to_string(), message);
                assert_eq!(
                    Err(err.to_string()),
                    crafted.check_ids().map_err(|e| e.to_string())
                );
            }
        }
    }
    let dense = crafted_reduced(2_000, |at| at as u32, |k| (k % 2_000) as u32);
    let bytes = encode_reduced_container(&dense, ChunkSpec::default());
    assert_eq!(read_reduced_container(&bytes[..]).unwrap(), dense);
}

#[test]
fn a_rank_end_declaring_one_execution_too_many_names_the_executions() {
    let app = build_trace(&[vec![(0, 0, 10), (0, 0, 11), (1, 1, 900)]]);
    let reduced =
        Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff)).reduce_app(&app);
    let (stored, execs) = (reduced.ranks[0].stored.len(), reduced.ranks[0].execs.len());
    for codec in [Codec::None, Codec::DeltaLz] {
        let bytes = encode_reduced_container(&reduced, ChunkSpec::with_codec(codec));
        let (header, mut chunks, trailer) = split_chunks(&bytes);
        // RANK_END: rank, chunks, items, stored segments, executions — one
        // byte each here.  Only the execution count lies.
        let rank_end = chunks.iter().position(|c| c[0] == 6).unwrap();
        let mut summary = chunks[rank_end][10..].to_vec();
        assert_eq!(summary.len(), 5, "one-byte counts");
        assert_eq!(
            summary[2..],
            [(stored + execs) as u8, stored as u8, execs as u8]
        );
        summary[4] += 1;
        reframe(&mut chunks[rank_end], &summary);
        let mut lying = header;
        chunks
            .iter()
            .for_each(|chunk| lying.extend_from_slice(chunk));
        lying.extend_from_slice(&trailer);

        let err = read_reduced_container(&lying[..]).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "reduced section executions: file declares {}, found {execs}",
                execs + 1
            ),
            "{}",
            codec.name()
        );
    }
}

#[test]
fn a_rank_end_declaring_one_chunk_too_many_names_the_chunks() {
    let app = build_trace(&[vec![(0, 0, 10), (0, 0, 11), (1, 1, 900)]]);
    let reduced =
        Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff)).reduce_app(&app);
    let app_bytes = encode_app_container(&app, ChunkSpec::default());
    let reduced_bytes = encode_reduced_container(&reduced, ChunkSpec::default());
    for (what, bytes) in [("section", app_bytes), ("reduced section", reduced_bytes)] {
        let (header, mut chunks, trailer) = split_chunks(&bytes);
        // RANK_END: rank, then the chunk count, one byte each here.
        let rank_end = chunks.iter().position(|c| c[0] == 6).unwrap();
        let mut summary = chunks[rank_end][10..].to_vec();
        let found = summary[1];
        summary[1] += 1;
        reframe(&mut chunks[rank_end], &summary);
        let mut lying = header;
        chunks
            .iter()
            .for_each(|chunk| lying.extend_from_slice(chunk));
        lying.extend_from_slice(&trailer);

        let err = match what {
            "section" => read_app_container(&lying[..]).map(drop).unwrap_err(),
            _ => read_reduced_container(&lying[..]).map(drop).unwrap_err(),
        };
        let declared = found + 1;
        let message = format!("{what} chunks: file declares {declared}, found {found}");
        assert_eq!(err.to_string(), message);
    }
}
