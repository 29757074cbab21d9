//! The seekable chunk-index footer.
//!
//! The last 12 bytes of a container file are a trailer pointing back at the
//! `INDEX` chunk, which lists every rank section with its byte offset and
//! summary counts.  A consumer with a seekable handle can therefore assign
//! whole rank sections to workers without scanning the file — the basis of
//! the index-sharded parallel ingestion in `trace_stream`.

use std::io::{Read, Seek, SeekFrom};

use trace_model::codec::varint::{read_u32, read_u64 as varint_read_u64};
use trace_model::codec::Reader;
use trace_model::Rank;

use crate::error::ContainerError;
use crate::layout::{read_header, ChunkKind, ChunkStream, PayloadKind, INDEX_MAGIC, TRAILER_LEN};

/// One rank section as listed in the index footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankSectionEntry {
    /// The rank whose records the section holds.
    pub rank: Rank,
    /// Byte offset of the section's `RANK_BEGIN` chunk.
    pub offset: u64,
    /// Number of payload chunks (`RECORDS`/`STORED`/`EXECS`) in the section.
    pub chunks: u64,
    /// Total items in the section (records, or stored + executions).
    pub records: u64,
    /// Completed segments (app) or stored representatives (reduced).
    pub segments: u64,
    /// Event records (app) or segment executions (reduced).
    pub events: u64,
}

/// The decoded index footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerIndex {
    /// Whether the file holds a full or a reduced trace.
    pub kind: PayloadKind,
    /// One entry per rank section, in file order.
    pub sections: Vec<RankSectionEntry>,
}

/// Parses the payload of an `INDEX` chunk.
pub(crate) fn parse_index_payload(payload: &[u8]) -> Result<Vec<RankSectionEntry>, ContainerError> {
    let mut reader = Reader::new(payload);
    let count = varint_read_u64(&mut reader)?;
    let mut sections = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        sections.push(RankSectionEntry {
            rank: Rank(read_u32(&mut reader, "rank")?),
            offset: varint_read_u64(&mut reader)?,
            chunks: varint_read_u64(&mut reader)?,
            records: varint_read_u64(&mut reader)?,
            segments: varint_read_u64(&mut reader)?,
            events: varint_read_u64(&mut reader)?,
        });
    }
    if !reader.is_at_end() {
        return Err(ContainerError::TrailingBytes {
            what: "the declared entries of an INDEX chunk",
            bytes: reader.remaining(),
        });
    }
    Ok(sections)
}

/// Reads the index footer from a seekable container (file header, trailer
/// and `INDEX` chunk are all validated; the rank sections themselves are
/// not touched).
pub fn read_index<R: Read + Seek>(reader: &mut R) -> Result<ContainerIndex, ContainerError> {
    reader
        .seek(SeekFrom::Start(0))
        .map_err(ContainerError::Io)?;
    let mut stream = ChunkStream::new(&mut *reader, 0);
    let kind = read_header(&mut stream)?;

    let end = reader.seek(SeekFrom::End(0)).map_err(ContainerError::Io)?;
    if end < TRAILER_LEN {
        return Err(ContainerError::BadTrailer);
    }
    reader
        .seek(SeekFrom::End(-(TRAILER_LEN as i64)))
        .map_err(ContainerError::Io)?;
    let mut trailer = [0u8; TRAILER_LEN as usize];
    reader
        .read_exact(&mut trailer)
        .map_err(ContainerError::from)?;
    let (offset_bytes, magic) = trailer.split_at(8);
    if *magic != INDEX_MAGIC {
        return Err(ContainerError::BadTrailer);
    }
    let Some(&offset_bytes) = offset_bytes.first_chunk::<8>() else {
        return Err(ContainerError::BadTrailer);
    };
    let index_offset = u64::from_le_bytes(offset_bytes);
    if index_offset >= end - TRAILER_LEN {
        return Err(ContainerError::BadTrailer);
    }

    reader
        .seek(SeekFrom::Start(index_offset))
        .map_err(ContainerError::Io)?;
    let mut stream = ChunkStream::new(&mut *reader, index_offset);
    let chunk = stream.next_chunk()?;
    if chunk.kind != ChunkKind::Index {
        return Err(ContainerError::UnexpectedChunk {
            expected: "INDEX",
            found: chunk.kind.name(),
        });
    }
    Ok(ContainerIndex {
        kind,
        sections: parse_index_payload(stream.payload()?)?,
    })
}
