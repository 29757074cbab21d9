//! On-disk layout constants and chunk framing.
//!
//! The byte-level layout is specified in `docs/container-format.md` at the
//! repository root; this module is its executable counterpart.  A container
//! file is
//!
//! ```text
//! header  := magic "TRC2" | version u8 | kind u8
//! file    := header PREAMBLE section* INDEX trailer
//! chunk   := kind u8 | codec u8 | payload_len u32 LE | crc32 u32 LE | payload
//! section := RANK_BEGIN (RECORDS | STORED | EXECS)* RANK_END
//! trailer := index_offset u64 LE | "TRCX"
//! ```
//!
//! Every chunk payload is covered by an IEEE CRC-32 over the *stored*
//! bytes (after compression), so corruption is detected before any
//! decompression runs.  The codec byte names the `trace_compress` codec
//! the payload is stored under; decoded payloads use the varint record
//! codec from `trace_model::codec`, with the delta-time clock restarting
//! at zero in every chunk so chunks decode independently.

use std::io::{self, Read, Write};

use trace_compress::{ChunkDecoder, ChunkItem, Codec, PayloadClass};

use crate::crc::crc32;
use crate::error::ContainerError;

/// Magic bytes opening a chunked container file (`.trc` v2).
pub const CONTAINER_MAGIC: [u8; 4] = *b"TRC2";
/// Magic bytes that opened the retired monolithic v1 files: a full trace
/// (`TRCF`) and a reduced trace (`TRCR`).
const RETIRED_V1_MAGICS: [[u8; 4]; 2] = [*b"TRCF", *b"TRCR"];
/// Magic bytes closing the 12-byte index trailer.
pub const INDEX_MAGIC: [u8; 4] = *b"TRCX";
/// Container layout version written by [`crate::ChunkWriter`].  Version 2
/// added the per-chunk codec byte; version-1 files (written before the
/// compression subsystem existed) are rejected with a typed
/// [`ContainerError::UnsupportedVersion`].
pub const CONTAINER_VERSION: u8 = 2;
/// Total size of the fixed file header (magic + version + kind).
pub(crate) const HEADER_LEN: u64 = 6;
/// Total size of the index trailer (offset + magic).
pub(crate) const TRAILER_LEN: u64 = 12;
/// Size of a chunk's framing header (kind + codec + payload length +
/// CRC-32).
pub(crate) const CHUNK_HEADER_LEN: u64 = 10;

/// What a container file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadKind {
    /// A full application trace (`RECORDS` chunks).
    App,
    /// A reduced trace (`STORED` and `EXECS` chunks).
    Reduced,
}

impl PayloadKind {
    /// The kind byte written to the file header.
    pub fn as_byte(self) -> u8 {
        match self {
            PayloadKind::App => 0,
            PayloadKind::Reduced => 1,
        }
    }

    /// Parses a header kind byte.
    pub fn from_byte(byte: u8) -> Result<Self, ContainerError> {
        match byte {
            0 => Ok(PayloadKind::App),
            1 => Ok(PayloadKind::Reduced),
            other => Err(ContainerError::BadPayloadKind(other)),
        }
    }
}

/// The kind byte opening every chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkKind {
    /// String tables, program name and declared rank count.
    Preamble,
    /// A rank section opens.
    RankBegin,
    /// Raw trace records (app payload).
    Records,
    /// Stored representative segments (reduced payload).
    Stored,
    /// Segment executions (reduced payload).
    Execs,
    /// A rank section closes, with its summary counts.
    RankEnd,
    /// The chunk index (also pointed to by the trailer).
    Index,
}

impl ChunkKind {
    /// The chunk-kind byte written to the framing header.
    pub fn as_byte(self) -> u8 {
        match self {
            ChunkKind::Preamble => 1,
            ChunkKind::RankBegin => 2,
            ChunkKind::Records => 3,
            ChunkKind::Stored => 4,
            ChunkKind::Execs => 5,
            ChunkKind::RankEnd => 6,
            ChunkKind::Index => 7,
        }
    }

    /// Parses a chunk-kind byte.
    pub fn from_byte(byte: u8) -> Result<Self, ContainerError> {
        Ok(match byte {
            1 => ChunkKind::Preamble,
            2 => ChunkKind::RankBegin,
            3 => ChunkKind::Records,
            4 => ChunkKind::Stored,
            5 => ChunkKind::Execs,
            6 => ChunkKind::RankEnd,
            7 => ChunkKind::Index,
            other => return Err(ContainerError::BadChunkKind(other)),
        })
    }

    /// Human-readable name used in [`ContainerError::UnexpectedChunk`].
    pub fn name(self) -> &'static str {
        match self {
            ChunkKind::Preamble => "PREAMBLE",
            ChunkKind::RankBegin => "RANK_BEGIN",
            ChunkKind::Records => "RECORDS",
            ChunkKind::Stored => "STORED",
            ChunkKind::Execs => "EXECS",
            ChunkKind::RankEnd => "RANK_END",
            ChunkKind::Index => "INDEX",
        }
    }

    /// The `trace_compress` payload class this chunk kind decompresses
    /// under: payload chunks carry trace structure the columnar transform
    /// understands, control chunks are opaque bytes.
    pub fn payload_class(self) -> PayloadClass {
        match self {
            ChunkKind::Records => PayloadClass::Records,
            ChunkKind::Stored => PayloadClass::Stored,
            ChunkKind::Execs => PayloadClass::Execs,
            ChunkKind::Preamble | ChunkKind::RankBegin | ChunkKind::RankEnd | ChunkKind::Index => {
                PayloadClass::Opaque
            }
        }
    }
}

/// Writes one framed chunk (header + CRC + payload) to `out`, returning the
/// number of bytes written.  `payload` is stored verbatim; `codec` must
/// name the codec those bytes are already encoded under (the writer's
/// compression step runs before framing).
pub fn write_chunk<W: Write>(
    out: &mut W,
    kind: ChunkKind,
    codec: Codec,
    payload: &[u8],
) -> io::Result<u64> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::other("chunk payload exceeds 4 GiB"))?;
    out.write_all(&[kind.as_byte(), codec.as_byte()])?;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(&crc32(payload).to_le_bytes())?;
    out.write_all(payload)?;
    Ok(CHUNK_HEADER_LEN + u64::from(len))
}

/// Byte offset just past the chunk whose framing header starts at byte
/// `offset` of `bytes`, as its header gives the payload length; `None`
/// where `bytes` holds no whole header there.
pub fn chunk_end(bytes: &[u8], offset: u64) -> Option<u64> {
    let at = usize::try_from(offset).ok()?;
    let len = bytes.get(at.checked_add(2)?..at.checked_add(6)?)?;
    let len = u32::from_le_bytes(len.try_into().ok()?);
    Some(offset + CHUNK_HEADER_LEN + u64::from(len))
}

/// The framing of one chunk as read from the stream.  Its payload stays in
/// the stream, which hands it out decoded: [`ChunkStream::payload`] for a
/// control chunk, [`ChunkStream::decode`] for a payload chunk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawChunk {
    /// The chunk kind.
    pub kind: ChunkKind,
    /// Byte offset of the chunk's framing header in the file.
    pub offset: u64,
}

/// Sequentially reads framed chunks, verifying each payload's CRC-32 and
/// tracking byte offsets plus the most memory one chunk has taken so far
/// (the reader's resident-memory high-water mark).  The stored bytes of the
/// current chunk and the decoder's scratch are buffers the stream keeps
/// from chunk to chunk.
pub(crate) struct ChunkStream<R> {
    inner: R,
    offset: u64,
    /// The stored payload of the chunk last read, and its codec.
    stored: Vec<u8>,
    codec: Codec,
    decoder: ChunkDecoder,
    peak_payload_bytes: usize,
    obs: trace_obs::ObsShard,
}

/// `read_exact` with end-of-input as a typed truncation of `what`.
fn read_exact_from<R: Read>(
    inner: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), ContainerError> {
    inner.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ContainerError::Truncated { what }
        } else {
            ContainerError::Io(e)
        }
    })
}

impl<R: Read> ChunkStream<R> {
    /// Wraps `inner`, which must be positioned at `offset` bytes into the
    /// container file.
    pub fn new(inner: R, offset: u64) -> Self {
        ChunkStream {
            inner,
            offset,
            stored: Vec::new(),
            codec: Codec::None,
            decoder: ChunkDecoder::new(),
            peak_payload_bytes: 0,
            obs: trace_obs::ObsShard::disabled(),
        }
    }

    /// Attaches an observability shard: subsequent chunk reads record
    /// [`trace_obs::Stage::ChunkIo`] (read + CRC), [`trace_obs::Stage::Compress`]
    /// (the LZ stage) and [`trace_obs::Stage::Parse`] (payload into items)
    /// spans and `chunk.reads` counters.  The shard flushes to its recorder
    /// when the stream is dropped.
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.obs = obs;
    }

    /// Current byte offset (start of the next chunk's framing header).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The most memory one chunk has taken so far, in bytes: the larger of
    /// its stored payload, the LZ stage's output and the items it decoded
    /// to (`count * size_of::<item>()`).
    pub(crate) fn peak_payload_bytes(&self) -> usize {
        self.peak_payload_bytes
    }

    fn read_exact(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), ContainerError> {
        read_exact_from(&mut self.inner, buf, what)?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Reads the next framing header, returning the chunk kind, the stored
    /// codec, the payload length and the declared CRC.  The payload is
    /// *not* consumed.
    fn read_frame(&mut self) -> Result<(ChunkKind, Codec, u64, u32), ContainerError> {
        let mut kind_codec = [0u8; 2];
        self.read_exact(&mut kind_codec, "chunk header")?;
        let [kind_byte, codec_byte] = kind_codec;
        let kind = ChunkKind::from_byte(kind_byte)?;
        let codec = Codec::from_byte(codec_byte)?;
        let mut len = [0u8; 4];
        self.read_exact(&mut len, "chunk header")?;
        let mut crc = [0u8; 4];
        self.read_exact(&mut crc, "chunk header")?;
        Ok((
            kind,
            codec,
            u64::from(u32::from_le_bytes(len)),
            u32::from_le_bytes(crc),
        ))
    }

    /// Reads the next chunk in full and verifies it; the payload waits in
    /// the stream for [`ChunkStream::payload`] or [`ChunkStream::decode`].
    ///
    /// The payload buffer grows as bytes actually arrive, in bounded steps,
    /// so a corrupt length field costs a `Truncated` error — never a
    /// multi-gigabyte upfront allocation from untrusted input.  The CRC
    /// covers the stored bytes and is checked here, *before* any decoding,
    /// so a flipped bit is a [`ContainerError::BadCrc`].
    pub(crate) fn next_chunk(&mut self) -> Result<RawChunk, ContainerError> {
        const READ_STEP: u64 = 1 << 20;
        let offset = self.offset;
        let io_span = self.obs.start();
        let (kind, codec, len, expected) = self.read_frame()?;
        self.codec = codec;
        self.stored.clear();
        while (self.stored.len() as u64) < len {
            let take = (len - self.stored.len() as u64).min(READ_STEP) as usize;
            let start = self.stored.len();
            self.stored.resize(start + take, 0);
            // lint:allow(indexing) -- start < stored.len() by the resize on the previous line
            read_exact_from(&mut self.inner, &mut self.stored[start..], "chunk payload")?;
            self.offset += take as u64;
        }
        let found = crc32(&self.stored);
        if found != expected {
            return Err(ContainerError::BadCrc {
                offset,
                expected,
                found,
            });
        }
        self.obs.end(trace_obs::Stage::ChunkIo, io_span);
        self.obs.add(trace_obs::names::CHUNK_READS, 1);
        self.peak_payload_bytes = self.peak_payload_bytes.max(self.stored.len());
        Ok(RawChunk { kind, offset })
    }

    /// The payload of the chunk last read with its byte-level compression
    /// undone — what a control chunk's fields are parsed from (the column
    /// transform leaves control chunks alone).  A crafted payload that
    /// passed the CRC but is not a valid LZ block is a typed
    /// [`ContainerError::Compress`].
    pub(crate) fn payload(&mut self) -> Result<&[u8], ContainerError> {
        let bytes = self
            .decoder
            .unpack(self.codec, &self.stored, &mut self.obs)?;
        self.peak_payload_bytes = self.peak_payload_bytes.max(bytes.len());
        Ok(bytes)
    }

    /// Appends the items of the payload chunk last read — records of a
    /// `RECORDS` chunk, representatives of a `STORED` chunk, executions of
    /// an `EXECS` chunk, as `T` says — to `out`, which is left as it was
    /// when the payload does not decode.  Rows that fail the record codec
    /// are a [`ContainerError::Codec`], bytes after them a
    /// [`ContainerError::TrailingBytes`], a bad LZ block or column stream a
    /// [`ContainerError::Compress`].
    pub fn decode<T: ChunkItem>(&mut self, out: &mut Vec<T>) -> Result<(), ContainerError> {
        let kept = out.len();
        self.decoder
            .decode(self.codec, &self.stored, out, &mut self.obs)?;
        let items = (out.len() - kept) * std::mem::size_of::<T>();
        self.peak_payload_bytes = self
            .peak_payload_bytes
            .max(self.decoder.unpacked_len())
            .max(items);
        Ok(())
    }

    /// Reads the next chunk's framing header and discards its payload
    /// without CRC verification or decompression (used to pass over rank
    /// sections owned by other shards).  Returns the chunk kind.
    pub(crate) fn skip_chunk(&mut self) -> Result<ChunkKind, ContainerError> {
        let (kind, _, len, _) = self.read_frame()?;
        let mut remaining = len;
        let mut scratch = [0u8; 8192];
        while remaining > 0 {
            let take = remaining.min(scratch.len() as u64) as usize;
            // lint:allow(indexing) -- take is clamped to scratch.len() on the previous line
            self.read_exact(&mut scratch[..take], "chunk payload")?;
            remaining -= take as u64;
        }
        Ok(kind)
    }

    /// Consumes and validates the 12-byte trailer that follows the INDEX
    /// chunk, checking that its offset field points at `index_offset`.
    pub(crate) fn finish_trailer(&mut self, index_offset: u64) -> Result<(), ContainerError> {
        let mut trailer = [0u8; TRAILER_LEN as usize];
        self.read_exact(&mut trailer, "index trailer")?;
        let (offset_bytes, magic) = trailer.split_at(8);
        if *magic != INDEX_MAGIC || *offset_bytes != index_offset.to_le_bytes() {
            return Err(ContainerError::BadTrailer);
        }
        // The trailer is the last 12 bytes of a container by definition;
        // anything after it means the trailer we just validated is not the
        // real one (spec invariant 5).
        let mut probe = [0u8; 1];
        match self.inner.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(ContainerError::BadTrailer),
            Err(e) => Err(ContainerError::Io(e)),
        }
    }
}

/// Whether the first four bytes of a file open a container.  A retired
/// monolithic v1 file is refused here, the one place that knows its magic
/// bytes, with [`ContainerError::RetiredV1`]; any other magic is `false`.
pub fn is_container_magic(found: [u8; 4]) -> Result<bool, ContainerError> {
    if RETIRED_V1_MAGICS.contains(&found) {
        return Err(ContainerError::RetiredV1 { found });
    }
    Ok(found == CONTAINER_MAGIC)
}

/// Reads and validates the 6-byte file header, returning the payload kind.
pub(crate) fn read_header<R: Read>(
    stream: &mut ChunkStream<R>,
) -> Result<PayloadKind, ContainerError> {
    let mut magic = [0u8; 4];
    stream.read_exact(&mut magic, "file header")?;
    if !is_container_magic(magic)? {
        return Err(ContainerError::BadMagic { found: magic });
    }
    let mut rest = [0u8; 2];
    stream.read_exact(&mut rest, "file header")?;
    let [version, kind_byte] = rest;
    if version != CONTAINER_VERSION {
        return Err(ContainerError::UnsupportedVersion(version));
    }
    PayloadKind::from_byte(kind_byte)
}

/// Writes the 6-byte file header.
pub(crate) fn write_header<W: Write>(out: &mut W, kind: PayloadKind) -> io::Result<u64> {
    out.write_all(&CONTAINER_MAGIC)?;
    out.write_all(&[CONTAINER_VERSION, kind.as_byte()])?;
    Ok(HEADER_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_round_trip_and_offsets() {
        let mut file = Vec::new();
        let n = write_header(&mut file, PayloadKind::App).unwrap();
        assert_eq!(n, HEADER_LEN);
        let n = write_chunk(&mut file, ChunkKind::Records, Codec::None, b"payload").unwrap();
        assert_eq!(n, CHUNK_HEADER_LEN + 7);

        let mut stream = ChunkStream::new(&file[..], 0);
        assert_eq!(read_header(&mut stream).unwrap(), PayloadKind::App);
        let chunk = stream.next_chunk().unwrap();
        assert_eq!(chunk.kind, ChunkKind::Records);
        assert_eq!(stream.codec, Codec::None);
        assert_eq!(chunk.offset, HEADER_LEN);
        assert_eq!(stream.payload().unwrap(), b"payload");
        assert_eq!(stream.peak_payload_bytes(), 7);
    }

    #[test]
    fn compressed_control_chunk_round_trips_and_tracks_decoded_peak() {
        // Control chunks are opaque to the columnar transform, so LZ is the
        // only codec that changes their bytes.
        let payload = vec![42u8; 4096];
        let stored = trace_compress::lz_compress(&payload).unwrap();
        assert!(stored.len() < payload.len());
        let mut file = Vec::new();
        write_header(&mut file, PayloadKind::App).unwrap();
        write_chunk(&mut file, ChunkKind::Preamble, Codec::Lz, &stored).unwrap();

        let mut stream = ChunkStream::new(&file[..], 0);
        read_header(&mut stream).unwrap();
        assert_eq!(stream.next_chunk().unwrap().kind, ChunkKind::Preamble);
        assert_eq!(stream.codec, Codec::Lz);
        assert_eq!(stream.payload().unwrap(), payload);
        // The peak tracks the *decompressed* resident payload.
        assert_eq!(stream.peak_payload_bytes(), payload.len());
    }

    #[test]
    fn corrupt_payload_is_a_typed_crc_error() {
        let mut file = Vec::new();
        write_header(&mut file, PayloadKind::App).unwrap();
        write_chunk(&mut file, ChunkKind::Records, Codec::None, b"payload").unwrap();
        let last = file.len() - 1;
        file[last] ^= 0x40;

        let mut stream = ChunkStream::new(&file[..], 0);
        read_header(&mut stream).unwrap();
        match stream.next_chunk() {
            Err(ContainerError::BadCrc { offset, .. }) => assert_eq!(offset, HEADER_LEN),
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn unknown_codec_ids_are_typed_errors() {
        // 1 is the retired column-only codec: refused like any unknown id.
        for id in [1, 9] {
            let mut file = Vec::new();
            write_header(&mut file, PayloadKind::App).unwrap();
            write_chunk(&mut file, ChunkKind::Records, Codec::None, b"payload").unwrap();
            // The codec byte is the second byte of the chunk framing.
            file[HEADER_LEN as usize + 1] = id;
            let mut stream = ChunkStream::new(&file[..], 0);
            read_header(&mut stream).unwrap();
            match stream.next_chunk() {
                Err(ContainerError::Compress(trace_compress::CompressError::UnknownCodec(
                    found,
                ))) if found == id => {}
                other => panic!("expected UnknownCodec({id}), got {other:?}"),
            }
        }
    }

    #[test]
    fn kind_bytes_round_trip() {
        for kind in [
            ChunkKind::Preamble,
            ChunkKind::RankBegin,
            ChunkKind::Records,
            ChunkKind::Stored,
            ChunkKind::Execs,
            ChunkKind::RankEnd,
            ChunkKind::Index,
        ] {
            assert_eq!(ChunkKind::from_byte(kind.as_byte()).unwrap(), kind);
        }
        assert!(ChunkKind::from_byte(0).is_err());
        assert!(ChunkKind::from_byte(99).is_err());
        assert!(PayloadKind::from_byte(7).is_err());
    }
}
