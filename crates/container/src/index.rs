//! The seekable chunk-index footer.
//!
//! The last 12 bytes of a container file are a trailer pointing back at the
//! `INDEX` chunk, which lists every rank section with its byte offset and
//! summary counts.  A consumer with a seekable handle can therefore assign
//! whole rank sections to workers without scanning the file — the basis of
//! the index-sharded parallel ingestion in `trace_stream`.
//!
//! The entries tile the file in order: the first section starts where the
//! preamble ends, each ends where the next entry's starts, and the last
//! ends at the `INDEX` chunk.  Every reader holds the footer to that rule
//! and to the sections it reads: a sequential reader compares each entry
//! with the section it read, a seeking one reads its section against its
//! [`SectionSpan`].

use std::io::{self, Read, Seek, SeekFrom, Write};

use trace_model::codec::varint::{read_u32, read_u64 as varint_read_u64, write_u64};
use trace_model::codec::Reader;
use trace_model::Rank;

use crate::error::ContainerError;
use crate::layout::{
    read_header, write_chunk, ChunkKind, ChunkStream, PayloadKind, INDEX_MAGIC, TRAILER_LEN,
};
use trace_compress::Codec;

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

impl RankSectionEntry {
    /// Checks that this, entry `index` of the footer, describes `found`,
    /// the section read at its place: the first field that disagrees is a
    /// [`ContainerError::IndexMismatch`].
    pub(crate) fn check(
        &self,
        index: usize,
        found: &RankSectionEntry,
    ) -> Result<(), ContainerError> {
        let fields = [
            (
                "rank",
                u64::from(self.rank.as_u32()),
                u64::from(found.rank.as_u32()),
            ),
            ("byte offset", self.offset, found.offset),
            ("chunks", self.chunks, found.chunks),
            ("records", self.records, found.records),
            ("segments", self.segments, found.segments),
            ("events", self.events, found.events),
        ];
        match fields.into_iter().find(|(_, listed, read)| listed != read) {
            Some((what, listed, read)) => Err(ContainerError::IndexMismatch {
                entry: index,
                what,
                listed,
                found: read,
            }),
            None => Ok(()),
        }
    }
}

/// One rank section as the index footer places it: a seeking reader
/// reads entry `index` from `entry.offset` and must find the section
/// ending at `end`, where the next entry's starts (or, for the last, the
/// `INDEX` chunk).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionSpan {
    /// The entry's position in the index, from 0.
    pub index: usize,
    /// What the index says of the section.
    pub entry: RankSectionEntry,
    /// Byte offset the section must end at.
    pub end: u64,
}

/// The decoded index footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerIndex {
    /// Whether the file holds a full or a reduced trace.
    pub kind: PayloadKind,
    /// One entry per rank section, in file order.
    pub sections: Vec<RankSectionEntry>,
    /// Byte offset of the `INDEX` chunk, which the trailer points at.
    pub offset: u64,
}

impl ContainerIndex {
    /// Where entry `index` places its section, if there is such an entry.
    pub fn span(&self, index: usize) -> Option<SectionSpan> {
        let entry = *self.sections.get(index)?;
        let next = self.sections.get(index + 1);
        Some(SectionSpan {
            index,
            entry,
            end: next.map_or(self.offset, |next| next.offset),
        })
    }

    /// Checks that the entries tile the file in order from `preamble_end`,
    /// where the preamble chunk ends, to the `INDEX` chunk: the first
    /// section starts at `preamble_end`, and each later one after the one
    /// before it and before the `INDEX` chunk.  The spans then share no
    /// byte and lie inside the file, and with every [`SectionSpan`] read
    /// whole the entries describe the file.
    pub fn check_tiling(&self, preamble_end: u64) -> Result<(), ContainerError> {
        let first = self
            .sections
            .first()
            .map_or(self.offset, |entry| entry.offset);
        if first != preamble_end {
            return Err(ContainerError::IndexMismatch {
                entry: 0,
                what: "byte offset",
                listed: first,
                found: preamble_end,
            });
        }
        let mut after = None;
        for (entry, section) in self.sections.iter().enumerate() {
            let offset = section.offset;
            if after.is_some_and(|after| offset <= after) || offset >= self.offset {
                return Err(ContainerError::IndexOrder {
                    entry,
                    offset,
                    after: after.unwrap_or(preamble_end),
                    before: self.offset,
                });
            }
            after = Some(offset);
        }
        Ok(())
    }
}

/// The fewest bytes an index entry takes: six varints of a byte each.
const MIN_ENTRY_BYTES: usize = 6;

/// Parses the payload of an `INDEX` chunk.
pub(crate) fn parse_index_payload(payload: &[u8]) -> Result<Vec<RankSectionEntry>, ContainerError> {
    let mut reader = Reader::new(payload);
    let count = varint_read_u64(&mut reader)?;
    // The count is untrusted: reserve no more entries than the bytes left
    // can hold.
    let fit = reader.remaining() / MIN_ENTRY_BYTES;
    let mut sections = Vec::with_capacity(count.min(fit as u64) as usize);
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

/// Writes the `INDEX` chunk listing `sections`, at byte `offset` of the
/// file, and the trailer that points back at it: the footer's one writer.
pub fn write_index<W: Write>(
    out: &mut W,
    offset: u64,
    sections: &[RankSectionEntry],
) -> io::Result<()> {
    let mut payload = Vec::new();
    write_u64(&mut payload, sections.len() as u64);
    for entry in sections {
        write_u64(&mut payload, u64::from(entry.rank.as_u32()));
        write_u64(&mut payload, entry.offset);
        write_u64(&mut payload, entry.chunks);
        write_u64(&mut payload, entry.records);
        write_u64(&mut payload, entry.segments);
        write_u64(&mut payload, entry.events);
    }
    write_chunk(out, ChunkKind::Index, Codec::None, &payload)?;
    out.write_all(&offset.to_le_bytes())?;
    out.write_all(&INDEX_MAGIC)
}

/// The container `bytes` with the entries of its index footer rewritten
/// by `edit`, every chunk still CRC-valid: how to make a container whose
/// footer does not describe its sections, to see a reader refuse it.
pub fn rewrite_index(
    bytes: &[u8],
    edit: impl FnOnce(&mut Vec<RankSectionEntry>),
) -> Result<Vec<u8>, ContainerError> {
    let index = read_index(&mut io::Cursor::new(bytes))?;
    let mut sections = index.sections;
    edit(&mut sections);
    let sections_end = usize::try_from(index.offset).ok();
    let mut crafted = sections_end
        .and_then(|end| bytes.get(..end))
        .ok_or(ContainerError::BadTrailer)?
        .to_vec();
    write_index(&mut crafted, index.offset, &sections)?;
    Ok(crafted)
}

/// Reads the index footer from a seekable container (file header, trailer
/// and `INDEX` chunk are all validated, and the chunk must end where the
/// trailer starts; the rank sections themselves are not touched).
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
    let sections = parse_index_payload(stream.payload()?)?;
    // The trailer follows the INDEX chunk directly, as the sequential
    // reader requires.
    if stream.offset() != end - TRAILER_LEN {
        return Err(ContainerError::BadTrailer);
    }
    Ok(ContainerIndex {
        kind,
        sections,
        offset: index_offset,
    })
}
