//! Writer-level half of the encoder differential suite
//! (`crates/compress/tests/encoder_equivalence.rs` is the chunk-level half):
//! a whole container written through the record-fed, table-reusing encode
//! path equals, byte for byte, one assembled chunk by chunk with the
//! previous `lz_compress` and `column_encode` — the same oracle module — and
//! the writer's keep-it-raw-unless-smaller rule.

#[path = "../../compress/tests/oracle/mod.rs"]
mod oracle;

use std::io::Cursor;

use trace_compress::PayloadClass;
use trace_container::layout::write_chunk;
use trace_container::{
    encode_app_container, encode_reduced_container, read_index, read_reduced_container, ChunkKind,
    ChunkSpec, Codec, INDEX_MAGIC,
};
use trace_model::codec::varint::write_u64;
use trace_model::{
    CommInfo, ContextId, ContextTable, Event, Rank, ReducedAppTrace, ReducedRankTrace, RegionId,
    RegionTable, Segment, SegmentExec, StoredSegment, Time,
};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};

/// What the previous encoder stored for a payload chunk under `codec`.
fn oracle_compress(codec: Codec, class: PayloadClass, rows: &[u8]) -> Vec<u8> {
    match codec {
        Codec::None => rows.to_vec(),
        Codec::Lz => oracle::lz_compress(rows),
        Codec::DeltaLz => {
            oracle::lz_compress(&oracle::column_encode(class, rows).expect("writer rows"))
        }
    }
}

/// Rebuilds the container `raw` (written under [`Codec::None`], so every
/// payload chunk holds its row bytes) as the writer would have written it
/// under `codec` with the oracle as its encoder.  Also returns the kinds of
/// the payload chunks that fell back to raw storage.
fn assemble_with_oracle(raw: &[u8], codec: Codec) -> (Vec<u8>, Vec<ChunkKind>) {
    let mut sections = read_index(&mut Cursor::new(raw)).expect("index").sections;
    let mut out = raw[..6].to_vec();
    let mut section_offsets = Vec::new();
    let mut fallbacks = Vec::new();
    let mut pos = 6;
    while pos < raw.len() - 12 {
        let kind = ChunkKind::from_byte(raw[pos]).expect("chunk kind");
        assert_eq!(raw[pos + 1], Codec::None.as_byte());
        let len = u32::from_le_bytes(raw[pos + 2..pos + 6].try_into().unwrap()) as usize;
        let payload = &raw[pos + 10..pos + 10 + len];
        pos += 10 + len;
        match kind {
            ChunkKind::Records | ChunkKind::Stored | ChunkKind::Execs => {
                let packed = oracle_compress(codec, kind.payload_class(), payload);
                if packed.len() < payload.len() {
                    write_chunk(&mut out, kind, codec, &packed).unwrap();
                } else {
                    fallbacks.push(kind);
                    write_chunk(&mut out, kind, Codec::None, payload).unwrap();
                }
            }
            ChunkKind::Index => {
                let index_offset = out.len() as u64;
                let mut index = Vec::new();
                write_u64(&mut index, sections.len() as u64);
                for (entry, offset) in sections.iter_mut().zip(&section_offsets) {
                    entry.offset = *offset;
                    for field in [
                        u64::from(entry.rank.as_u32()),
                        entry.offset,
                        entry.chunks,
                        entry.records,
                        entry.segments,
                        entry.events,
                    ] {
                        write_u64(&mut index, field);
                    }
                }
                write_chunk(&mut out, kind, Codec::None, &index).unwrap();
                out.extend_from_slice(&index_offset.to_le_bytes());
                out.extend_from_slice(&INDEX_MAGIC);
            }
            ChunkKind::RankBegin => {
                section_offsets.push(out.len() as u64);
                write_chunk(&mut out, kind, Codec::None, payload).unwrap();
            }
            ChunkKind::Preamble | ChunkKind::RankEnd => {
                write_chunk(&mut out, kind, Codec::None, payload).unwrap();
            }
        }
    }
    assert_eq!(section_offsets.len(), sections.len());
    (out, fallbacks)
}

#[test]
fn containers_equal_ones_assembled_from_oracle_compressed_chunks() {
    let mut fallbacks = 0;
    for kind in [
        WorkloadKind::LateSender,
        WorkloadKind::Sweep3d32p,
        WorkloadKind::DynLoadBalance,
    ] {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        let reduced =
            Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff)).reduce_app(&app);
        // The default grouping, and one segment per chunk: chunks too small
        // to pay for their stream headers, so raw fallbacks interleave with
        // compressed chunks through one encoder.
        for spec in [ChunkSpec::default(), ChunkSpec::with_segments(1)] {
            let raw_app = encode_app_container(&app, spec.codec(Codec::None));
            let raw_reduced = encode_reduced_container(&reduced, spec.codec(Codec::None));
            for codec in [Codec::Lz, Codec::DeltaLz] {
                let (expected, raw_chunks) = assemble_with_oracle(&raw_app, codec);
                fallbacks += raw_chunks.len();
                assert!(
                    encode_app_container(&app, spec.codec(codec)) == expected,
                    "{} app container, {spec:?}, {}",
                    app.name,
                    codec.name()
                );
                let (expected, raw_chunks) = assemble_with_oracle(&raw_reduced, codec);
                fallbacks += raw_chunks.len();
                assert!(
                    encode_reduced_container(&reduced, spec.codec(codec)) == expected,
                    "{} reduced container, {spec:?}, {}",
                    app.name,
                    codec.name()
                );
            }
        }
    }
    assert!(fallbacks > 0, "no chunk took the raw fallback");
}

/// A reduced trace whose `STORED` chunks alternate between noise (every
/// numeric field a fresh 64-bit draw: no codec makes that smaller) and
/// regular segments that compress well.
fn half_incompressible_reduced_trace() -> ReducedAppTrace {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state >> 2
    };
    let mut rank = ReducedRankTrace::new(Rank(0));
    for id in 0..8u32 {
        let noisy = id % 2 == 0;
        let events = (0..if noisy { 8 } else { 40u64 })
            .map(|i| {
                let (region, start, length, wait, peer, tag, bytes) = if noisy {
                    let ids = draw();
                    (
                        ids as u32,
                        draw() >> 8,
                        draw() >> 8,
                        draw(),
                        (ids >> 32) as u32,
                        draw() as u32,
                        draw(),
                    )
                } else {
                    (0, i * 100, 80, 5, 1, 3, 1024)
                };
                Event::with_comm(
                    RegionId(region),
                    Time::from_nanos(start),
                    Time::from_nanos(start + length),
                    CommInfo::Send {
                        peer: Rank(peer),
                        tag,
                        bytes,
                    },
                )
                .with_wait(Time::from_nanos(wait))
            })
            .collect();
        rank.stored.push(StoredSegment {
            id,
            represented: 1,
            segment: Segment {
                context: ContextId(0),
                start: Time::ZERO,
                end: Time::from_nanos(4_000),
                events,
            },
        });
        rank.execs.push(SegmentExec {
            segment: id,
            start: Time::from_nanos(u64::from(id) * 5_000),
        });
    }
    ReducedAppTrace {
        name: "half_noise".to_string(),
        regions: RegionTable::from_names(vec!["MPI_Send".to_string()]),
        contexts: ContextTable::from_names(vec!["main.1".to_string()]),
        ranks: vec![rank],
    }
}

#[test]
fn incompressible_stored_chunks_fall_back_to_raw_exactly_as_before() {
    let reduced = half_incompressible_reduced_trace();
    let spec = ChunkSpec::with_segments(1);
    let raw = encode_reduced_container(&reduced, spec.codec(Codec::None));
    for codec in [Codec::Lz, Codec::DeltaLz] {
        let written = encode_reduced_container(&reduced, spec.codec(codec));
        let (expected, fallbacks) = assemble_with_oracle(&raw, codec);
        assert!(written == expected, "{}", codec.name());
        // The four noise segments stay raw, the four regular ones do not.
        let raw_stored = fallbacks.iter().filter(|kind| **kind == ChunkKind::Stored);
        assert_eq!(raw_stored.count(), 4, "{}", codec.name());
        assert_eq!(read_reduced_container(&written[..]).unwrap(), reduced);
    }
}
