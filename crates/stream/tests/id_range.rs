//! Ids that do not fit `u32` are malformed input on every binary decode
//! surface — never an alias of their low 32 bits.
//!
//! The model keeps region, context, rank, message-tag and segment ids as
//! `u32`; the binary formats carry them as `u64` varints.  A CRC-valid chunk
//! holding `u32::MAX + 1` used to decode as id 0 (the text reader closed the
//! same hole earlier).  Each container here is written by the real writer
//! with `u32::MAX` in one field — which must round-trip — and then has that
//! one value raised by one, the chunk re-framed with its CRC recomputed.  A
//! segment id round-trips through the chunk decoders: the reduced reader
//! above them refuses a trace whose stored ids are not dense.
//! `u32::MAX` and `u32::MAX + 1` encode to the same number of bytes, as a
//! varint and as a zig-zag delta alike: under `none` the row payload keeps
//! its length, and under `delta-lz` the column streams, unpacked, raised
//! and packed again, are asserted to, so nothing else in the file moves and
//! the index still points at every section.

use std::io::Cursor;

use trace_compress::{lz_compress, lz_decompress, ChunkDecoder, ChunkItem};
use trace_container::{
    crc32, encode_app_container, encode_reduced_container, read_app_container,
    read_reduced_container, ChunkSpec, Codec, ContainerError,
};
use trace_model::codec::CodecError;
use trace_model::{
    AppTrace, CommInfo, ContextId, Event, Rank, ReducedAppTrace, ReducedRankTrace, RegionId,
    Segment, SegmentExec, StoredIdError, StoredSegment, Time,
};
use trace_obs::ObsShard;
use trace_reduce::{Method, Reducer};
use trace_stream::{reduce_container_file, reduce_container_stream};

const RECORDS: u8 = 3;
const STORED: u8 = 4;
const EXECS: u8 = 5;

/// The field of the generated trace that holds `u32::MAX`.
#[derive(Clone, Copy, Debug)]
enum Field {
    Region,
    Context,
    Peer,
    Tag,
}

/// Two ranks of eight one-event segments, `u32::MAX` in `field` of every
/// record that has it (so that the column form, which stores the value once
/// and zero deltas after it, packs smaller than the rows and the writer keeps
/// the `delta-lz` codec for the chunk).
fn app_with_max_in(field: Field) -> AppTrace {
    let pick = |this: bool| if this { u32::MAX } else { 1 };
    let mut app = AppTrace::new("id_range", 2);
    for rank in &mut app.ranks {
        for i in 0..8u64 {
            let context = ContextId(pick(matches!(field, Field::Context)));
            rank.begin_segment(context, Time::from_nanos(i * 100));
            rank.push_event(Event::with_comm(
                RegionId(pick(matches!(field, Field::Region))),
                Time::from_nanos(i * 100 + 10),
                Time::from_nanos(i * 100 + 60),
                CommInfo::Send {
                    peer: Rank(pick(matches!(field, Field::Peer))),
                    tag: pick(matches!(field, Field::Tag)),
                    bytes: 64,
                },
            ));
            rank.end_segment(context, Time::from_nanos(i * 100 + 90));
        }
    }
    app
}

/// One rank whose eight representatives and eight executions all carry
/// segment id `u32::MAX`.
fn reduced_with_max_ids() -> ReducedAppTrace {
    let mut rank = ReducedRankTrace::new(Rank(0));
    for i in 0..8u64 {
        rank.stored.push(StoredSegment {
            id: u32::MAX,
            represented: 1,
            segment: Segment {
                context: ContextId(0),
                start: Time::ZERO,
                end: Time::from_nanos(50),
                events: vec![Event::compute(
                    RegionId(0),
                    Time::from_nanos(5),
                    Time::from_nanos(45),
                )],
            },
        });
        rank.execs.push(SegmentExec {
            segment: u32::MAX,
            start: Time::from_nanos(i * 100),
        });
    }
    ReducedAppTrace {
        name: "id_range".to_string(),
        regions: Default::default(),
        contexts: Default::default(),
        ranks: vec![rank],
    }
}

/// `bytes` with the first occurrence of `from` replaced by `to`.
fn replace_first(bytes: &[u8], from: [u8; 5], to: [u8; 5]) -> Vec<u8> {
    let at = bytes
        .windows(5)
        .position(|window| window == from)
        .expect("the chunk holds u32::MAX");
    let mut out = bytes.to_vec();
    out[at..at + 5].copy_from_slice(&to);
    out
}

/// The payload bytes of the first chunk of `kind`, and the codec it is
/// stored under.
fn first_chunk(container: &[u8], kind: u8) -> (Codec, std::ops::Range<usize>) {
    let mut pos = 6;
    while pos < container.len() - 12 {
        let len = u32::from_le_bytes(container[pos + 2..pos + 6].try_into().unwrap()) as usize;
        if container[pos] == kind {
            let codec = Codec::from_byte(container[pos + 1]).unwrap();
            return (codec, pos + 10..pos + 10 + len);
        }
        pos += 10 + len;
    }
    panic!("no chunk of kind {kind}");
}

/// Raises the first `u32::MAX` in the first chunk of `kind` to
/// `u32::MAX + 1` and re-frames the chunk with its new length and CRC;
/// asserts the chunk is stored under `codec`, so the test reaches the
/// decoder it means to.
fn raise_first_max_id(container: &[u8], kind: u8, codec: Codec) -> Vec<u8> {
    let (found, range) = first_chunk(container, kind);
    assert_eq!(found, codec, "chunk codec");
    let stored = &container[range.clone()];
    let payload = match codec {
        // A plain varint in the row payload.
        Codec::None => replace_first(
            stored,
            [0xff, 0xff, 0xff, 0xff, 0x0f],
            [0x80, 0x80, 0x80, 0x80, 0x10],
        ),
        // A zig-zag first delta in a column stream, inside the LZ block.
        _ => {
            let columns = lz_decompress(stored).unwrap();
            let raised = replace_first(
                &columns,
                [0xfe, 0xff, 0xff, 0xff, 0x1f],
                [0x80, 0x80, 0x80, 0x80, 0x20],
            );
            lz_compress(&raised).unwrap()
        }
    };
    assert_eq!(
        payload.len(),
        range.len(),
        "the raised chunk keeps its length"
    );
    let mut out = container[..range.start - 8].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&container[range.end..]);
    out
}

/// The items of the first chunk of `kind`, through the chunk decoder alone:
/// the layer that bounds ids, below the reader that relates them.
fn decode_first<T: ChunkItem>(container: &[u8], kind: u8) -> Result<Vec<T>, ContainerError> {
    let (codec, range) = first_chunk(container, kind);
    let mut items = Vec::new();
    let obs = &mut ObsShard::disabled();
    ChunkDecoder::new().decode(codec, &container[range], &mut items, obs)?;
    Ok(items)
}

fn is_out_of_range(err: &ContainerError) -> bool {
    let codec = match err {
        ContainerError::Codec(e) => e,
        ContainerError::Compress(trace_container::CompressError::Codec(e)) => e,
        _ => return false,
    };
    matches!(codec, CodecError::IdOutOfRange { value, .. } if *value == 1 << 32)
}

#[test]
fn app_containers_reject_an_id_one_past_u32_max_and_keep_u32_max() {
    let reducer = Reducer::with_default_threshold(Method::RelDiff);
    for codec in [Codec::None, Codec::DeltaLz] {
        for field in [Field::Region, Field::Context, Field::Peer, Field::Tag] {
            let what = format!("{field:?} under {}", codec.name());
            let app = app_with_max_in(field);
            let valid = encode_app_container(&app, ChunkSpec::with_codec(codec));
            assert_eq!(read_app_container(&valid[..]).unwrap(), app, "{what}");
            let streamed = reduce_container_stream(&reducer, Cursor::new(&valid)).unwrap();
            assert_eq!(streamed.reduced, reducer.reduce_app(&app), "{what}");

            let crafted = raise_first_max_id(&valid, RECORDS, codec);
            let err = read_app_container(&crafted[..]).unwrap_err();
            assert!(is_out_of_range(&err), "{what}: {err:?}");
            let err = reduce_container_stream(&reducer, Cursor::new(&crafted)).unwrap_err();
            assert!(
                err.as_container().is_some_and(is_out_of_range),
                "{what}: {err:?}"
            );

            let mut path = std::env::temp_dir();
            path.push(format!(
                "id_range_{}_{field:?}_{}.trc",
                std::process::id(),
                codec.name()
            ));
            std::fs::write(&path, &crafted).unwrap();
            let err = reduce_container_file(&reducer, &path, 2).unwrap_err();
            let _ = std::fs::remove_file(&path);
            assert!(
                err.as_container().is_some_and(is_out_of_range),
                "{what}: {err:?}"
            );
        }
    }
}

#[test]
fn reduced_containers_reject_a_segment_id_one_past_u32_max_and_keep_u32_max() {
    // `u32::MAX` is a segment id the chunk decoders keep.  No reader hands
    // this trace out, though: its eight stored ids are not dense.
    let reduced = reduced_with_max_ids();
    let rank = &reduced.ranks[0];
    for codec in [Codec::None, Codec::DeltaLz] {
        let what = codec.name();
        let valid = encode_reduced_container(&reduced, ChunkSpec::with_codec(codec));
        let stored: Vec<StoredSegment> = decode_first(&valid, STORED).unwrap();
        let execs: Vec<SegmentExec> = decode_first(&valid, EXECS).unwrap();
        assert_eq!((&stored, &execs), (&rank.stored, &rank.execs), "{what}");
        let err = read_reduced_container(&valid[..]).unwrap_err();
        assert!(
            matches!(
                err,
                ContainerError::StoredIds(StoredIdError::Sparse {
                    expected: 0,
                    found: u32::MAX,
                    ..
                })
            ),
            "{what}: {err:?}"
        );
        for kind in [STORED, EXECS] {
            let crafted = raise_first_max_id(&valid, kind, codec);
            let err = match kind {
                STORED => decode_first::<StoredSegment>(&crafted, kind).map(drop),
                _ => decode_first::<SegmentExec>(&crafted, kind).map(drop),
            };
            let err = err.unwrap_err();
            assert!(
                is_out_of_range(&err),
                "chunk kind {kind} under {what}: {err:?}"
            );
            let err = read_reduced_container(&crafted[..]).unwrap_err();
            assert!(
                is_out_of_range(&err),
                "chunk kind {kind} under {what}: {err:?}"
            );
        }
    }
}
