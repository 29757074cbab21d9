//! Differential suite: the production decoder against the decoder it
//! replaced, item for item and verdict for verdict.
//!
//! `oracle` holds the previous read path verbatim: `column_decode`
//! rebuilding the row payload from the column streams, and the row loops of
//! the container readers parsing that payload again.  [`ChunkDecoder`] goes
//! from the stored bytes to the items in one step; it must yield exactly
//! the oracle's items for every chunk a writer can produce, and accept and
//! refuse exactly the payloads the oracle accepts and refuses, with the same
//! kind of error.  The one intended difference — an id that does not fit
//! `u32` is refused, where the oracle's column reader truncated it — is
//! pinned by `crates/stream/tests/id_range.rs`.

mod chunks;
mod oracle;

use std::fmt::Debug;
use std::sync::OnceLock;

use chunks::{tiny_apps, with_chunks_in_file_order, Chunk};
use oracle::ChunkError;
use proptest::prelude::*;
use trace_compress::{
    column_decode, column_encode, compress, lz_compress, ChunkDecoder, ChunkItem, Codec,
    CompressError, DecodeError, PayloadClass,
};
use trace_model::codec::varint::{read_u64, write_u64};
use trace_model::codec::{CodecError, Reader};
use trace_model::{SegmentExec, StoredSegment, TraceRecord};
use trace_obs::ObsShard;

/// An item kind with its oracle decoder.
trait Item: ChunkItem + PartialEq + Debug {
    fn oracle(codec: Codec, stored: &[u8]) -> Result<Vec<Self>, ChunkError>;
}

impl Item for TraceRecord {
    fn oracle(codec: Codec, stored: &[u8]) -> Result<Vec<Self>, ChunkError> {
        oracle::records(codec, stored)
    }
}

impl Item for StoredSegment {
    fn oracle(codec: Codec, stored: &[u8]) -> Result<Vec<Self>, ChunkError> {
        oracle::stored(codec, stored)
    }
}

impl Item for SegmentExec {
    fn oracle(codec: Codec, stored: &[u8]) -> Result<Vec<Self>, ChunkError> {
        oracle::execs(codec, stored)
    }
}

/// The reader-side buffers of a whole run: one decoder, one item buffer per
/// class, none of them ever replaced.
#[derive(Default)]
struct Reused {
    decoder: ChunkDecoder,
    records: Vec<TraceRecord>,
    stored: Vec<StoredSegment>,
    execs: Vec<SegmentExec>,
}

fn is_id_out_of_range(e: &DecodeError) -> bool {
    matches!(
        e,
        DecodeError::Rows(CodecError::IdOutOfRange { .. })
            | DecodeError::Compress(CompressError::Codec(CodecError::IdOutOfRange { .. }))
    )
}

/// Decodes `stored` into `out` (emptied first, as a reader empties its
/// batch) and with the oracle, and holds the two to the same verdict: the
/// same items, or errors of the same kind.  Returns whether it decoded.
fn agree<T: Item>(
    decoder: &mut ChunkDecoder,
    codec: Codec,
    stored: &[u8],
    out: &mut Vec<T>,
) -> Result<bool, String> {
    out.clear();
    let new = decoder.decode(codec, stored, out, &mut ObsShard::disabled());
    let old = T::oracle(codec, stored);
    if new.is_err() && !out.is_empty() {
        return Err(format!("{} items left behind by a failed chunk", out.len()));
    }
    match (&new, &old) {
        (Ok(()), Ok(items)) if out == items => Ok(true),
        (Ok(()), Ok(_)) => Err("the items differ".to_string()),
        (Err(DecodeError::Compress(_)), Err(ChunkError::Compress(_)))
        | (Err(DecodeError::Rows(_)), Err(ChunkError::Codec(_)))
        | (Err(DecodeError::TrailingRows { .. }), Err(ChunkError::TrailingBytes { .. })) => {
            Ok(false)
        }
        (Err(e), Ok(_)) if is_id_out_of_range(e) => Ok(false),
        _ => Err(format!(
            "verdicts differ: {new:?} against the oracle's {old:?}"
        )),
    }
}

impl Reused {
    fn agree(&mut self, class: PayloadClass, codec: Codec, stored: &[u8]) -> Result<bool, String> {
        let decoder = &mut self.decoder;
        match class {
            PayloadClass::Records => agree(decoder, codec, stored, &mut self.records),
            PayloadClass::Stored => agree(decoder, codec, stored, &mut self.stored),
            PayloadClass::Execs => agree(decoder, codec, stored, &mut self.execs),
            PayloadClass::Opaque => Err("control chunks hold no items".to_string()),
        }
    }
}

#[test]
fn every_chunk_of_the_eighteen_workloads_decodes_to_the_oracles_items() {
    // One decoder and one buffer per class for the whole test, as a reader
    // holds them for a whole file — and longer: scratch and capacity left by
    // every earlier chunk, codec and workload are in play.
    let mut reused = Reused::default();
    let mut chunks = [0usize; 3];
    for app in tiny_apps() {
        with_chunks_in_file_order(&app, |chunk| {
            let class = chunk.class();
            let rows = chunk.rows();
            for codec in [Codec::None, Codec::DeltaLz] {
                let stored = compress(codec, class, &rows).expect("encode");
                let what = format!("{} {class:?} under {}", app.name, codec.name());
                assert_eq!(reused.agree(class, codec, &stored), Ok(true), "{what}");
                // The oracle's items are the writer's.
                match chunk {
                    Chunk::Records(items) => assert_eq!(reused.records, *items, "{what}"),
                    Chunk::Stored(items) => assert_eq!(reused.stored, *items, "{what}"),
                    Chunk::Execs(items) => assert_eq!(reused.execs, *items, "{what}"),
                }
            }
            // The block-level inverse still rebuilds the row payload.
            let columnar = column_encode(class, &rows).expect("columns");
            let rebuilt = column_decode(class, &columnar).expect("rows");
            assert_eq!(rebuilt, oracle::column_decode(class, &columnar).unwrap());
            assert_eq!(rebuilt, rows);
            chunks[class as usize] += 1;
        });
    }
    assert!(chunks.iter().all(|&n| n >= 18), "{chunks:?}");
}

/// One valid chunk in both grammars: `(class, rows, columns)`.
type Valid = (PayloadClass, Vec<u8>, Vec<u8>);

/// A handful of real chunks of every class: what the mutations below start
/// from.
fn corpus() -> &'static [Valid] {
    static CORPUS: OnceLock<Vec<Valid>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = Vec::new();
        let mut taken = [0usize; 3];
        for app in tiny_apps().iter().step_by(4) {
            with_chunks_in_file_order(app, |chunk| {
                let class = chunk.class();
                let rows = chunk.rows();
                // Small chunks keep a case cheap; two per class and workload.
                if rows.len() <= 6_000 && taken[class as usize] < 10 {
                    taken[class as usize] += 1;
                    let columns = column_encode(class, &rows).expect("columns");
                    corpus.push((class, rows, columns));
                }
            });
        }
        assert!(taken.iter().all(|&n| n >= 3), "{taken:?}");
        corpus
    })
}

/// Byte offsets where a columnar payload's parts end: the count, then every
/// stream's length prefix and every stream.
fn stream_boundaries(columns: &[u8]) -> Vec<usize> {
    let mut reader = Reader::new(columns);
    let offset = |reader: &Reader<'_>| columns.len() - reader.remaining();
    let mut bounds = Vec::new();
    read_u64(&mut reader).unwrap();
    bounds.push(offset(&reader));
    while !reader.is_at_end() {
        let len = read_u64(&mut reader).unwrap() as usize;
        bounds.push(offset(&reader));
        reader.read_bytes(len).unwrap();
        bounds.push(offset(&reader));
    }
    bounds
}

/// `payload` with its leading count varint replaced.
fn with_count(payload: &[u8], count: impl FnOnce(u64) -> u64) -> Vec<u8> {
    let mut reader = Reader::new(payload);
    let declared = read_u64(&mut reader).unwrap();
    let mut out = Vec::new();
    write_u64(&mut out, count(declared));
    out.extend_from_slice(&payload[payload.len() - reader.remaining()..]);
    out
}

/// One hostile variant of a valid payload, picked by `kind` and `seed`;
/// `columnar` says which grammar `payload` is in.
fn mutate(payload: &[u8], columnar: bool, kind: u8, seed: u64) -> Vec<u8> {
    let pick = |n: usize| (seed % n.max(1) as u64) as usize;
    match kind {
        // Truncation: at (or a byte after) a stream boundary of a columnar
        // payload, anywhere in a row payload.
        0 if columnar => {
            let bounds = stream_boundaries(payload);
            let at = bounds[pick(bounds.len())] + (seed >> 32) as usize % 2;
            payload[..at.min(payload.len() - 1)].to_vec()
        }
        0 => payload[..pick(payload.len())].to_vec(),
        // A single flipped bit.
        1 => {
            let mut out = payload.to_vec();
            out[pick(payload.len())] ^= 1 << ((seed >> 32) % 8);
            out
        }
        // The declared count off by one, or absurd.
        2 => match seed % 3 {
            0 => with_count(payload, |n| n.wrapping_sub(1)),
            1 => with_count(payload, |n| n + 1),
            _ => with_count(payload, |_| u64::MAX),
        },
        // Two neighbouring streams trade their declared lengths (the bytes
        // stay where they are); in rows, two neighbouring bytes trade places.
        3 if columnar => {
            let bounds = stream_boundaries(payload);
            let streams = (bounds.len() - 1) / 2;
            let first = pick(streams - 1);
            // bounds[2 * i] opens stream i's length prefix, bounds[2 * i + 1]
            // closes it; the stream itself ends at bounds[2 * i + 2].
            let prefix = |i: usize| &payload[bounds[2 * i]..bounds[2 * i + 1]];
            let body = |i: usize| &payload[bounds[2 * i + 1]..bounds[2 * i + 2]];
            let mut out = payload[..bounds[2 * first]].to_vec();
            out.extend_from_slice(prefix(first + 1));
            out.extend_from_slice(body(first));
            out.extend_from_slice(prefix(first));
            out.extend_from_slice(body(first + 1));
            out.extend_from_slice(&payload[bounds[2 * first + 4]..]);
            out
        }
        3 => {
            let mut out = payload.to_vec();
            let at = pick(payload.len() - 1);
            out.swap(at, at + 1);
            out
        }
        // One stream a byte longer than its items, and declared so; in
        // rows, a byte inserted somewhere.
        4 if columnar => {
            let bounds = stream_boundaries(payload);
            let stream = pick((bounds.len() - 1) / 2);
            let (prefix, body_end) = (bounds[2 * stream], bounds[2 * stream + 2]);
            let mut out = payload[..prefix].to_vec();
            write_u64(&mut out, (body_end - bounds[2 * stream + 1] + 1) as u64);
            out.extend_from_slice(&payload[bounds[2 * stream + 1]..body_end]);
            out.push((seed >> 32) as u8 & 0x7f);
            out.extend_from_slice(&payload[body_end..]);
            out
        }
        4 => {
            let mut out = payload.to_vec();
            out.insert(pick(payload.len()), (seed >> 32) as u8);
            out
        }
        // Bytes after the declared content.
        _ => {
            let mut out = payload.to_vec();
            out.extend_from_slice(&seed.to_le_bytes()[..1 + pick(3)]);
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Hostile payloads — truncated, bit-flipped, with a lying count, with
    /// stream lengths exchanged, with a stream a byte too long, with bytes
    /// appended — in both grammars,
    /// bare and inside a valid LZ block: the decoder's verdict is the
    /// oracle's, nothing panics, and a declared count never reserves more
    /// slots than the payload has bytes.
    #[test]
    fn hostile_payloads_get_the_oracles_verdict(
        chunk in 0usize..1_000,
        kind in 0u8..6,
        seed in any::<u64>(),
    ) {
        let corpus = corpus();
        let (class, rows, columns) = &corpus[chunk % corpus.len()];
        let mut reused = Reused::default();
        // Rows are stored bare (`none`) or in an LZ block (`lz`), columns
        // only in an LZ block (`delta-lz`).
        for (columnar, valid, lz) in [(false, rows, Codec::Lz), (true, columns, Codec::DeltaLz)] {
            let hostile = mutate(valid, columnar, kind, seed);
            let packed = lz_compress(&hostile).unwrap();
            let bare = (!columnar).then_some((Codec::None, &hostile));
            for (codec, stored) in bare.into_iter().chain([(lz, &packed)]) {
                // A good chunk first, so that a failure has something to leak.
                let good = compress(codec, *class, rows).unwrap();
                prop_assert_eq!(reused.agree(*class, codec, &good), Ok(true));
                let verdict = reused.agree(*class, codec, stored);
                prop_assert!(
                    verdict.is_ok(),
                    "{:?} under {}, mutation {} seed {}: {:?}",
                    class, codec.name(), kind, seed, verdict
                );
            }
            // Into fresh buffers: what a count reserves on its own word
            // (`Vec`'s smallest allocation is four slots); the LZ block
            // unpacks to `hostile`.
            let limit = hostile.len().max(4);
            let mut obs = ObsShard::disabled();
            let mut decoder = ChunkDecoder::new();
            let capacity = match class {
                PayloadClass::Records => {
                    let mut out: Vec<TraceRecord> = Vec::new();
                    let _ = decoder.decode(lz, &packed, &mut out, &mut obs);
                    out.capacity()
                }
                PayloadClass::Stored => {
                    let mut out: Vec<StoredSegment> = Vec::new();
                    let _ = decoder.decode(lz, &packed, &mut out, &mut obs);
                    out.capacity()
                }
                _ => {
                    let mut out: Vec<SegmentExec> = Vec::new();
                    let _ = decoder.decode(lz, &packed, &mut out, &mut obs);
                    out.capacity()
                }
            };
            prop_assert!(
                capacity <= limit,
                "{:?}, mutation {} seed {}: {} slots for {} bytes",
                class, kind, seed, capacity, hostile.len()
            );
        }
    }
}
