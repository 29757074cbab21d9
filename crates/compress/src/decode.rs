//! The read side of a container's chunks: stored payload in, typed items out.
//!
//! A reader wants records (stored segments, executions), not row bytes.
//! [`ChunkDecoder::decode`] takes a chunk payload exactly as it is stored —
//! under any of the three codecs — and appends its items to a buffer the
//! caller owns and reuses: row codecs (`none`, `lz`) parse the rows once,
//! the column codec (`delta-lz`) reads the column streams straight into
//! the items, and the LZ stage's output lives in a scratch buffer the
//! decoder keeps from chunk to chunk.  No row image is rebuilt for a column
//! chunk and nothing is allocated per chunk once the buffers have grown to
//! the largest one.

use trace_model::codec::varint::read_u64;
use trace_model::codec::{read_exec, read_record, read_stored_segment, CodecError, Reader};
use trace_model::{SegmentExec, StoredSegment, Time, TraceRecord};
use trace_obs::{names, ObsShard, Stage};

use crate::column;
use crate::error::{CompressError, DecodeError};
use crate::lz::lz_decompress_into;
use crate::Codec;

/// The slots to reserve for `count` declared items when the input can back
/// at most `limit` of them: a count is a bare varint, so a reservation made
/// on its word alone would let a few bytes demand any allocation.
pub(crate) fn clamp_count(count: u64, limit: usize) -> usize {
    usize::try_from(count).map_or(limit, |count| count.min(limit))
}

/// An item kind a payload chunk holds: trace records (`RECORDS`), stored
/// representatives (`STORED`) or segment executions (`EXECS`).
///
/// Both functions *append* to `out`; when they fail, `out` may hold the
/// items that preceded the failure ([`ChunkDecoder::decode`] removes them).
pub trait ChunkItem: Sized {
    /// Appends the items of a row payload: the count, then every item, with
    /// the delta clock starting at zero.
    fn decode_rows(rows: &[u8], out: &mut Vec<Self>) -> Result<(), DecodeError>;

    /// Appends the items of a columnar payload ([`column`](mod@column)).
    fn decode_columns(columns: &[u8], out: &mut Vec<Self>) -> Result<(), CompressError>;
}

/// The row payload grammar shared by the three classes; `read` decodes one
/// item.  Every item takes at least two bytes, which bounds the reservation.
fn rows_into<T>(
    rows: &[u8],
    out: &mut Vec<T>,
    what: &'static str,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<(), DecodeError> {
    let mut reader = Reader::new(rows);
    let count = read_u64(&mut reader).map_err(DecodeError::Rows)?;
    out.reserve(clamp_count(count, reader.remaining() / 2));
    for _ in 0..count {
        out.push(read(&mut reader).map_err(DecodeError::Rows)?);
    }
    if !reader.is_at_end() {
        return Err(DecodeError::TrailingRows {
            what,
            bytes: reader.remaining(),
        });
    }
    Ok(())
}

impl ChunkItem for TraceRecord {
    fn decode_rows(rows: &[u8], out: &mut Vec<Self>) -> Result<(), DecodeError> {
        let mut prev = Time::ZERO;
        rows_into(
            rows,
            out,
            "the declared records of a RECORDS payload",
            |reader| {
                let (record, time) = read_record(reader, prev)?;
                prev = time;
                Ok(record)
            },
        )
    }

    fn decode_columns(columns: &[u8], out: &mut Vec<Self>) -> Result<(), CompressError> {
        column::records_from_columns(columns, out)
    }
}

impl ChunkItem for StoredSegment {
    fn decode_rows(rows: &[u8], out: &mut Vec<Self>) -> Result<(), DecodeError> {
        let what = "the declared segments of a STORED payload";
        rows_into(rows, out, what, read_stored_segment)
    }

    fn decode_columns(columns: &[u8], out: &mut Vec<Self>) -> Result<(), CompressError> {
        column::stored_from_columns(columns, out)
    }
}

impl ChunkItem for SegmentExec {
    fn decode_rows(rows: &[u8], out: &mut Vec<Self>) -> Result<(), DecodeError> {
        let mut prev = Time::ZERO;
        rows_into(
            rows,
            out,
            "the declared executions of an EXECS payload",
            |reader| {
                let (exec, start) = read_exec(reader, prev)?;
                prev = start;
                Ok(exec)
            },
        )
    }

    fn decode_columns(columns: &[u8], out: &mut Vec<Self>) -> Result<(), CompressError> {
        column::execs_from_columns(columns, out)
    }
}

/// Everything the decode side of one container reader reuses from chunk to
/// chunk — the LZ stage's output buffer — and the one way a stored payload
/// becomes items.  The mirror image of [`ChunkEncoder`](crate::ChunkEncoder).
#[derive(Default)]
pub struct ChunkDecoder {
    /// The LZ stage's output: row bytes (`lz`) or column streams
    /// (`delta-lz`) of the chunk last unpacked.
    unpacked: Vec<u8>,
}

impl ChunkDecoder {
    /// A decoder with empty scratch.
    pub fn new() -> Self {
        ChunkDecoder::default()
    }

    /// Undoes the byte-level layer of a stored payload: `stored` itself
    /// under `none`, the LZ block's content — in the decoder's
    /// scratch — under `lz` and `delta-lz`.  This is all a control chunk
    /// needs (the column transform does not touch opaque bytes).
    ///
    /// The LZ stage records a [`Stage::Compress`] span and the
    /// `decompress.bytes_in/out` counters; the other codecs record nothing.
    pub fn unpack<'a>(
        &'a mut self,
        codec: Codec,
        stored: &'a [u8],
        obs: &mut ObsShard,
    ) -> Result<&'a [u8], CompressError> {
        if codec == Codec::None {
            return Ok(stored);
        }
        let span = obs.start();
        lz_decompress_into(stored, &mut self.unpacked)?;
        obs.end(Stage::Compress, span);
        obs.add(names::DECOMPRESS_BYTES_IN, stored.len() as u64);
        obs.add(names::DECOMPRESS_BYTES_OUT, self.unpacked.len() as u64);
        Ok(&self.unpacked)
    }

    /// Bytes the LZ scratch holds (the output of the last LZ chunk).
    pub fn unpacked_len(&self) -> usize {
        self.unpacked.len()
    }

    /// Appends the items of a payload stored under `codec` to `out`; a
    /// payload that fails to decode leaves `out` as it was.
    ///
    /// Total on untrusted input: every malformed byte sequence is a typed
    /// [`DecodeError`], and no reservation exceeds what the payload's own
    /// bytes can back.  Beside the LZ stage's span ([`ChunkDecoder::unpack`])
    /// the items decode — rows or columns into items — records one
    /// [`Stage::Parse`] span: two clock reads per chunk, nothing per item.
    pub fn decode<T: ChunkItem>(
        &mut self,
        codec: Codec,
        stored: &[u8],
        out: &mut Vec<T>,
        obs: &mut ObsShard,
    ) -> Result<(), DecodeError> {
        let kept = out.len();
        let bytes = self.unpack(codec, stored, obs)?;
        let span = obs.start();
        let decoded = match codec {
            Codec::None | Codec::Lz => T::decode_rows(bytes, out),
            Codec::DeltaLz => T::decode_columns(bytes, out).map_err(Into::into),
        };
        if decoded.is_err() {
            out.truncate(kept);
        }
        obs.end(Stage::Parse, span);
        decoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, PayloadClass};
    use trace_model::codec::varint::write_u64;
    use trace_model::codec::write_exec;

    fn execs_payload(execs: &[SegmentExec]) -> Vec<u8> {
        let mut rows = Vec::new();
        write_u64(&mut rows, execs.len() as u64);
        let mut prev = Time::ZERO;
        for exec in execs {
            prev = write_exec(&mut rows, exec, prev);
        }
        rows
    }

    #[test]
    fn a_failed_chunk_leaves_nothing_behind_for_the_next() {
        let execs: Vec<SegmentExec> = (0..50u32)
            .map(|i| SegmentExec {
                segment: i % 3,
                start: Time::from_nanos(u64::from(i) * 900),
            })
            .collect();
        let rows = execs_payload(&execs);
        let mut decoder = ChunkDecoder::new();
        let mut obs = ObsShard::disabled();
        let mut out = vec![execs[0]];
        for codec in [Codec::None, Codec::DeltaLz] {
            let stored = compress(codec, PayloadClass::Execs, &rows).unwrap();
            // A bad chunk: the good one cut short, so items decode before
            // the failure.  Nothing of it may stay in the caller's buffer.
            let cut = &stored[..stored.len() - 1];
            assert!(decoder.decode(codec, cut, &mut out, &mut obs).is_err());
            assert_eq!(out, [execs[0]], "{}", codec.name());
            // The good chunk after it, through the same decoder and buffer.
            decoder.decode(codec, &stored, &mut out, &mut obs).unwrap();
            assert_eq!(out[1..], execs[..], "{}", codec.name());
            out.truncate(1);
        }
    }

    #[test]
    fn row_and_column_failures_keep_their_kinds() {
        let mut decoder = ChunkDecoder::new();
        let mut obs = ObsShard::disabled();
        let mut out: Vec<SegmentExec> = Vec::new();
        let mut rows = execs_payload(&[SegmentExec {
            segment: 1,
            start: Time::from_nanos(5),
        }]);
        rows.push(0);
        assert!(matches!(
            decoder.decode(Codec::None, &rows, &mut out, &mut obs),
            Err(DecodeError::TrailingRows { bytes: 1, .. })
        ));
        assert!(matches!(
            decoder.decode(Codec::None, &rows[..2], &mut out, &mut obs),
            Err(DecodeError::Rows(CodecError::UnexpectedEof))
        ));
        // Row bytes are no column streams.
        let packed = crate::lz_compress(&rows).unwrap();
        assert!(matches!(
            decoder.decode(Codec::DeltaLz, &packed, &mut out, &mut obs),
            Err(DecodeError::Compress(_))
        ));
        assert!(matches!(
            decoder.decode(Codec::Lz, &[9, 0xff], &mut out, &mut obs),
            Err(DecodeError::Compress(_))
        ));
        assert!(out.is_empty());
    }
}
