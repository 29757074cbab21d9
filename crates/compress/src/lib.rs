#![forbid(unsafe_code)]
//! Per-chunk trace compression (`trace_compress`).
//!
//! The `.trc` v2 container frames trace data into self-contained chunks;
//! this crate supplies the codecs a chunk payload can be stored under,
//! addressed by the one-byte codec id in the chunk framing
//! (`trace_container`, spec in `docs/container-format.md`):
//!
//! | id | codec | layers |
//! |---:|-------|--------|
//! | 0 | [`Codec::None`] | raw row payload |
//! | 1 | — | retired (the column transform alone); never reassigned |
//! | 2 | [`Codec::Lz`] | LZ byte compressor ([`lz`](mod@lz)) over the rows |
//! | 3 | [`Codec::DeltaLz`] | trace-aware column transform ([`column`](mod@column)), then LZ over the column streams |
//!
//! A chunk under the retired id 1, like any unknown id, is a typed
//! [`CompressError::UnknownCodec`].  The CLI writes `none` and `delta-lz`;
//! `lz` is the opaque block codec and a chunk codec only the library
//! writes.
//!
//! The column transform splits a payload into per-field streams and
//! delta+zigzag+varint-codes the monotone ones (time stamps, region and
//! context ids, segment ids); the LZ backend is a self-contained greedy
//! hash-chain byte compressor with no external dependencies.  The two
//! compose: iterative traces turn into runs of zero deltas under the
//! transform, which the byte compressor then collapses — `delta-lz` is the
//! codec that makes container files pay for themselves at paper scale.
//!
//! Both layers are lossless and deterministic; decompression of untrusted
//! bytes is total (typed [`CompressError`], never a panic or unbounded
//! allocation).
//!
//! Two ways in on the encode side, one implementation.  [`compress`] takes
//! a finished row payload and is what tools and tests call on single
//! blocks.  A container writer, which encodes thousands of small chunks,
//! holds a [`ChunkEncoder`] instead: it owns everything a chunk's encoding
//! needs and the next chunk can reuse — the [`LzEncoder`]'s match-finder
//! tables (`lz` module docs: the `base` scheme that empties them for free),
//! the column stream buffers (filled from the records themselves as the
//! writer appends them, `column` module docs) and the output buffers.  Both
//! produce the same bytes; `tests/encoder_equivalence.rs` holds them, and
//! the implementation they replaced, to that.
//!
//! The decode side mirrors it.  [`decompress`] returns a block's row bytes
//! and is what tools and tests call.  A container reader wants the records,
//! not their row image, and holds a [`ChunkDecoder`]: stored payload in,
//! typed items appended to the reader's own reused buffer out — rows parsed
//! once, column streams read straight into the items, the LZ output in a
//! scratch buffer kept from chunk to chunk ([`decode`](mod@decode) module
//! docs).  `tests/decoder_equivalence.rs` holds it to the items, and the
//! verdicts on hostile payloads, of the row-rebuilding path it replaced.
//!
//! # Quick start
//!
//! ```
//! use trace_compress::{compress, decompress, Codec, PayloadClass};
//!
//! let payload = b"not trace-structured, so use the opaque class".to_vec();
//! let packed = compress(Codec::Lz, PayloadClass::Opaque, &payload).unwrap();
//! assert_eq!(decompress(Codec::Lz, PayloadClass::Opaque, &packed).unwrap(), payload);
//! ```

#![warn(missing_docs)]

pub mod column;
pub mod decode;
pub mod error;
pub mod lz;

use column::ColumnWriter;
pub use column::{column_decode, column_encode, PayloadClass};
pub use decode::{ChunkDecoder, ChunkItem};
pub use error::{CompressError, DecodeError};
pub use lz::{lz_compress, lz_decompress, LzEncoder};

/// A chunk-payload codec, addressed by the codec id byte in the `.trc` v2
/// chunk framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Raw row payload, stored as-is.
    None,
    /// LZ byte compression of the row payload.
    Lz,
    /// Column transform, then LZ over the column streams.
    DeltaLz,
}

impl Codec {
    /// The codec id byte written to the chunk framing.
    pub fn as_byte(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Lz => 2,
            Codec::DeltaLz => 3,
        }
    }

    /// Parses a codec id byte; unknown ids, the retired 1 among them, are
    /// a typed error.
    pub fn from_byte(byte: u8) -> Result<Self, CompressError> {
        Ok(match byte {
            0 => Codec::None,
            2 => Codec::Lz,
            3 => Codec::DeltaLz,
            other => return Err(CompressError::UnknownCodec(other)),
        })
    }

    /// The codec's name, as `--codec` and the per-codec counters spell it.
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Lz => "lz",
            Codec::DeltaLz => "delta-lz",
        }
    }
}

/// Compresses a row chunk payload under `codec`.
///
/// `payload` must be canonical row bytes of the given class as produced by
/// the container writer (the column transform parses them); [`Codec::None`]
/// and [`Codec::Lz`] accept arbitrary bytes.  The output is *not*
/// guaranteed smaller — the container writer compares lengths and falls
/// back to [`Codec::None`] per chunk when compression does not pay.
pub fn compress(
    codec: Codec,
    class: PayloadClass,
    payload: &[u8],
) -> Result<Vec<u8>, CompressError> {
    Ok(match codec {
        Codec::None => payload.to_vec(),
        Codec::Lz => lz_compress(payload)?,
        Codec::DeltaLz => lz_compress(&column_encode(class, payload)?)?,
    })
}

/// Decompresses a chunk payload stored under `codec` back to row bytes.
///
/// Total on untrusted input: every malformed byte sequence maps to a typed
/// [`CompressError`].
pub fn decompress(
    codec: Codec,
    class: PayloadClass,
    payload: &[u8],
) -> Result<Vec<u8>, CompressError> {
    Ok(match codec {
        Codec::None => payload.to_vec(),
        Codec::Lz => lz_decompress(payload)?,
        Codec::DeltaLz => column_decode(class, &lz_decompress(payload)?)?,
    })
}

/// Everything the encode side of one container writer reuses from chunk to
/// chunk: the column streams, the LZ match finder's tables and the two
/// output buffers.
///
/// The writer pushes each item it appends to a chunk's row body
/// ([`ChunkEncoder::record`], [`ChunkEncoder::stored`],
/// [`ChunkEncoder::exec`]) and, when it cuts the chunk, asks for the stored
/// form with [`ChunkEncoder::finish`].  The bytes are exactly
/// [`compress`]`(codec, class, rows)`; what differs is that nothing is
/// allocated, zeroed or parsed back per chunk.
pub struct ChunkEncoder {
    codec: Codec,
    columns: ColumnWriter,
    lz: LzEncoder,
    /// The column stage's output, the LZ stage's input.
    columnar: Vec<u8>,
    /// The LZ stage's output.
    packed: Vec<u8>,
}

impl ChunkEncoder {
    /// Scratch for chunks stored under `codec`.
    pub fn new(codec: Codec) -> Self {
        ChunkEncoder {
            codec,
            columns: ColumnWriter::default(),
            lz: LzEncoder::new(),
            columnar: Vec::new(),
            packed: Vec::new(),
        }
    }

    fn has_column_stage(&self) -> bool {
        self.codec == Codec::DeltaLz
    }

    /// Notes a record appended to the current `RECORDS` chunk.
    pub fn record(&mut self, record: &trace_model::TraceRecord) {
        if self.has_column_stage() {
            self.columns.push_record(record);
        }
    }

    /// Notes a stored segment appended to the current `STORED` chunk.
    pub fn stored(&mut self, stored: &trace_model::StoredSegment) {
        if self.has_column_stage() {
            self.columns.push_stored(stored);
        }
    }

    /// Notes an execution appended to the current `EXECS` chunk.
    pub fn exec(&mut self, exec: &trace_model::SegmentExec) {
        if self.has_column_stage() {
            self.columns.push_exec(exec);
        }
    }

    /// The current chunk under the encoder's codec; `rows` is its row
    /// payload, the very items pushed since the previous call.  The result
    /// is *not* guaranteed smaller than `rows` (see [`compress`]).
    ///
    /// Records a [`trace_obs::Stage::Compress`] span plus
    /// `compress.bytes_in/out` counters (one clock read pair per chunk,
    /// nothing per byte; nothing at all with a disabled shard).
    pub fn finish<'a>(
        &'a mut self,
        class: PayloadClass,
        rows: &'a [u8],
        obs: &mut trace_obs::ObsShard,
    ) -> Result<&'a [u8], CompressError> {
        let span = obs.start();
        let packed: &[u8] = match self.codec {
            Codec::None => rows,
            Codec::Lz => {
                self.lz.compress(rows, &mut self.packed)?;
                &self.packed
            }
            Codec::DeltaLz => {
                self.columns.finish(class, rows, &mut self.columnar)?;
                self.lz.compress(&self.columnar, &mut self.packed)?;
                &self.packed
            }
        };
        obs.end(trace_obs::Stage::Compress, span);
        obs.add(trace_obs::names::COMPRESS_BYTES_IN, rows.len() as u64);
        obs.add(trace_obs::names::COMPRESS_BYTES_OUT, packed.len() as u64);
        Ok(packed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::codec::varint::write_u64;
    use trace_model::codec::write_record;
    use trace_model::{CommInfo, ContextId, Event, Rank, RegionId, Time, TraceRecord};

    /// An iterative trace payload with timing jitter: the *structure*
    /// repeats but the time stamps never do exactly, which is what real
    /// (and simulated) traces look like.
    fn repetitive_records_payload() -> Vec<u8> {
        let mut payload = Vec::new();
        let mut base = 0u64;
        let records: Vec<TraceRecord> = (0..64u64)
            .flat_map(|i| {
                // Deterministic per-iteration jitter, tens of nanoseconds.
                let jitter = (i * i * 2654435761) % 97;
                base += 500 + jitter;
                vec![
                    TraceRecord::SegmentBegin {
                        context: ContextId(0),
                        time: Time::from_nanos(base),
                    },
                    TraceRecord::Event(Event::with_comm(
                        RegionId(1),
                        Time::from_nanos(base + 10 + jitter / 4),
                        Time::from_nanos(base + 90 + jitter / 2),
                        CommInfo::Recv {
                            peer: Rank(3),
                            tag: 11,
                            bytes: 1024,
                        },
                    )),
                    TraceRecord::SegmentEnd {
                        context: ContextId(0),
                        time: Time::from_nanos(base + 100 + jitter),
                    },
                ]
            })
            .collect();
        write_u64(&mut payload, records.len() as u64);
        let mut prev = Time::ZERO;
        for record in &records {
            prev = write_record(&mut payload, record, prev);
        }
        payload
    }

    #[test]
    fn codec_ids_round_trip_and_unknown_ids_error() {
        for (codec, id) in [(Codec::None, 0), (Codec::Lz, 2), (Codec::DeltaLz, 3)] {
            assert_eq!(codec.as_byte(), id);
            assert_eq!(Codec::from_byte(id).unwrap(), codec);
        }
        // 1 is retired, not free.
        for id in [1, 4] {
            assert!(matches!(
                Codec::from_byte(id),
                Err(CompressError::UnknownCodec(unknown)) if unknown == id
            ));
        }
    }

    #[test]
    fn every_codec_round_trips_a_records_payload() {
        let payload = repetitive_records_payload();
        for codec in [Codec::None, Codec::Lz, Codec::DeltaLz] {
            let packed = compress(codec, PayloadClass::Records, &payload).unwrap();
            let unpacked = decompress(codec, PayloadClass::Records, &packed).unwrap();
            assert_eq!(unpacked, payload, "{}", codec.name());
        }
    }

    #[test]
    fn delta_lz_beats_lz_alone_on_repetitive_trace_data() {
        let payload = repetitive_records_payload();
        let lz = compress(Codec::Lz, PayloadClass::Records, &payload).unwrap();
        let delta_lz = compress(Codec::DeltaLz, PayloadClass::Records, &payload).unwrap();
        assert!(lz.len() < payload.len());
        assert!(
            delta_lz.len() <= lz.len(),
            "delta-lz {} vs lz {} vs raw {}",
            delta_lz.len(),
            lz.len(),
            payload.len()
        );
    }
}
