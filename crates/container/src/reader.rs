//! Streaming container readers, one per payload kind.
//!
//! [`ChunkReader`] pulls the items of an app-trace container over any
//! [`std::io::Read`] source, holding at most one decoded chunk in memory —
//! the binary analogue of the text `trace_format::AppReader`, and it yields
//! the same [`AppItem`]s.  A `RECORDS` chunk is decoded in one call,
//! straight from its stored bytes into a batch of records the reader
//! reuses, and handed on either record by record
//! ([`ChunkReader::next_item`]) or as a slice
//! ([`ChunkReader::take_records`]).  [`ReducedChunkReader`] yields a
//! reduced-trace container one whole rank section per call.  The
//! whole-trace loaders, [`read_app_container`] and
//! [`read_reduced_container`], are collects over these two.  Every reader
//! opens with the file header, so a retired monolithic v1 file is refused
//! by all of them alike, and closes with the same `RANK_END` count check
//! and `INDEX` trailer check.  Every reader holds the index footer to the
//! sections it read: a whole-file reader compares each entry with its
//! section when it reaches the `INDEX` chunk, and a section reader reads
//! its section against the entry that placed it there.

use std::io::Read;

use trace_model::codec::varint::{read_u32, read_u64 as varint_read_u64};
use trace_model::codec::{read_string, read_string_table, Reader};
use trace_model::{
    AppItem, AppTrace, ContextTable, Rank, ReducedAppTrace, ReducedRankTrace, RegionTable,
    TraceRecord, TraceTables,
};

use crate::error::ContainerError;
use crate::index::{RankSectionEntry, SectionSpan};
use crate::layout::{read_header, ChunkKind, ChunkStream, PayloadKind};

/// Decodes a `PREAMBLE` payload: the program name, the string tables
/// shared by every section and the declared rank count.
fn parse_preamble(payload: &[u8]) -> Result<TraceTables, ContainerError> {
    let mut reader = Reader::new(payload);
    let name = read_string(&mut reader)?;
    let regions = RegionTable::from_names(read_string_table(&mut reader)?);
    let contexts = ContextTable::from_names(read_string_table(&mut reader)?);
    let declared_ranks = varint_read_u64(&mut reader)? as usize;
    Ok(TraceTables {
        name,
        declared_ranks,
        regions,
        contexts,
    })
}

/// Opens a whole container of payload `kind`: reads the file header and the
/// preamble chunk that follows it.
fn open<R: Read>(
    reader: R,
    kind: PayloadKind,
) -> Result<(ChunkStream<R>, TraceTables), ContainerError> {
    let mut stream = ChunkStream::new(reader, 0);
    if read_header(&mut stream)? != kind {
        let (expected, found) = match kind {
            PayloadKind::App => ("an app payload (kind byte 0)", "a reduced payload"),
            PayloadKind::Reduced => ("a reduced payload (kind byte 1)", "an app payload"),
        };
        return Err(ContainerError::UnexpectedChunk { expected, found });
    }
    let chunk = stream.next_chunk()?;
    if chunk.kind != ChunkKind::Preamble {
        return Err(ContainerError::UnexpectedChunk {
            expected: "PREAMBLE",
            found: chunk.kind.name(),
        });
    }
    let preamble = parse_preamble(stream.payload()?)?;
    Ok((stream, preamble))
}

/// The rank a `RANK_BEGIN` payload names.
fn parse_rank_begin(payload: &[u8]) -> Result<Rank, ContainerError> {
    Ok(Rank(read_u32(&mut Reader::new(payload), "rank")?))
}

/// A rank section as a reader has met it so far, in the terms of its index
/// entry: the rank its `RANK_BEGIN` names, where that chunk starts, and the
/// payload chunks and items read since.
fn section_begun(rank: Rank, offset: u64) -> RankSectionEntry {
    RankSectionEntry {
        rank,
        offset,
        chunks: 0,
        records: 0,
        segments: 0,
        events: 0,
    }
}

/// A section a whole-file reader has passed, for the `INDEX` chunk to be
/// checked against.  A skipped section was counted in chunks only.
#[derive(Clone, Copy)]
struct ReadSection {
    found: RankSectionEntry,
    decoded: bool,
}

impl ReadSection {
    /// Checks entry `index` of the footer against this section; the item
    /// counts of a skipped section are taken as listed.
    fn check(&self, index: usize, entry: &RankSectionEntry) -> Result<(), ContainerError> {
        let found = match self.decoded {
            true => self.found,
            false => RankSectionEntry {
                records: entry.records,
                segments: entry.segments,
                events: entry.events,
                ..self.found
            },
        };
        entry.check(index, &found)
    }
}

/// What each count of a section is called in an error: payload chunks,
/// records, segments and events of an app section.
const APP_COUNTS: [&str; 4] = [
    "section chunks",
    "section records",
    "section segments",
    "section events",
];

/// The same for a reduced section, whose `RANK_END` counts its payload
/// chunks, its items, its stored segments and its executions.
const REDUCED_COUNTS: [&str; 4] = [
    "reduced section chunks",
    "reduced section items",
    "reduced section stored segments",
    "reduced section executions",
];

/// Checks the counts of the section just read against what the `RANK_END`
/// chunk in the stream's hand declares; each count is named by `names`.
fn end_section<R: Read>(
    stream: &mut ChunkStream<R>,
    found: &RankSectionEntry,
    names: [&'static str; 4],
) -> Result<(), ContainerError> {
    let mut reader = Reader::new(stream.payload()?);
    let rank = Rank(read_u32(&mut reader, "rank")?);
    let declared = [
        varint_read_u64(&mut reader)?,
        varint_read_u64(&mut reader)?,
        varint_read_u64(&mut reader)?,
        varint_read_u64(&mut reader)?,
    ];
    if rank != found.rank {
        return Err(ContainerError::UnexpectedChunk {
            expected: "RANK_END for the open rank",
            found: "RANK_END for another rank",
        });
    }
    let found = [found.chunks, found.records, found.segments, found.events];
    for ((what, declared), found) in names.into_iter().zip(declared).zip(found) {
        if declared != found {
            return Err(ContainerError::CountMismatch {
                what,
                declared,
                found,
            });
        }
    }
    Ok(())
}

/// Checks the `INDEX` chunk in the stream's hand, which sits at
/// `index_offset`, and the trailer after it: the index lists `declared`
/// sections, and each entry describes the section `read` holds in its
/// place.
fn finish_index<R: Read>(
    stream: &mut ChunkStream<R>,
    index_offset: u64,
    declared: usize,
    read: &[ReadSection],
) -> Result<(), ContainerError> {
    let sections = crate::index::parse_index_payload(stream.payload()?)?;
    if read.len() != declared || sections.len() != declared {
        return Err(ContainerError::CountMismatch {
            what: "rank sections",
            declared: declared as u64,
            found: read.len() as u64,
        });
    }
    for (index, (entry, section)) in sections.iter().zip(read).enumerate() {
        section.check(index, entry)?;
    }
    stream.finish_trailer(index_offset)
}

enum ReaderState {
    /// Between rank sections.
    Idle,
    /// Inside a rank section, decoding `RECORDS` chunks; the counts are
    /// those of the chunks decoded so far.
    InSection(RankSectionEntry),
    /// The index (or the single section) has been consumed.
    Done,
}

/// Pull reader for app-trace containers over any [`std::io::Read`] source.
///
/// [`ChunkReader::new`] reads the header and preamble and then iterates the
/// whole file; [`ChunkReader::section`] starts directly at a `RANK_BEGIN`
/// chunk (located via the index footer) and yields exactly that section —
/// the entry point the index-sharded parallel ingestion uses.  Either way
/// the index footer is held to the sections read: the whole-file reader
/// compares every entry with its section at the `INDEX` chunk, and a
/// section reader refuses a section its entry does not describe, or one
/// that does not end where its span says.
///
/// A chunk is decoded whole, so what is wrong with any of its records — and
/// a count that disagrees with its bytes — surfaces when the chunk is
/// reached, before its first record is handed out.
pub struct ChunkReader<R> {
    stream: ChunkStream<R>,
    preamble: Option<TraceTables>,
    state: ReaderState,
    /// The records of the current `RECORDS` chunk; `batch[next..]` have not
    /// been handed out yet.  One buffer, reused from chunk to chunk.
    batch: Vec<TraceRecord>,
    next: usize,
    ranks_seen: usize,
    /// The section a section reader reads; `None` for a whole-file reader.
    span: Option<SectionSpan>,
    /// The sections a whole-file reader has passed.
    read: Vec<ReadSection>,
}

impl<R: Read> ChunkReader<R> {
    /// Opens a whole container: validates the header, requires an app
    /// payload, and decodes the preamble chunk.
    pub fn new(reader: R) -> Result<Self, ContainerError> {
        let (stream, preamble) = open(reader, PayloadKind::App)?;
        Ok(ChunkReader {
            preamble: Some(preamble),
            ..ChunkReader::section_of(stream, None)
        })
    }

    /// Resumes reading at the one rank section `span` places.  `reader`
    /// must be positioned at the section's `RANK_BEGIN` chunk (byte
    /// `span.entry.offset` of the file).  The iteration ends after that
    /// section's `RANK_END`; no preamble is available in this mode.  A
    /// `RANK_BEGIN` for another rank than the entry's, a section whose
    /// counts are not the entry's, or one that does not end at
    /// `span.end`, is a [`ContainerError::IndexMismatch`].
    pub fn section(reader: R, span: SectionSpan) -> Self {
        let stream = ChunkStream::new(reader, span.entry.offset);
        ChunkReader::section_of(stream, Some(span))
    }

    fn section_of(stream: ChunkStream<R>, span: Option<SectionSpan>) -> Self {
        ChunkReader {
            stream,
            preamble: None,
            state: ReaderState::Idle,
            batch: Vec::new(),
            next: 0,
            ranks_seen: 0,
            span,
            read: Vec::new(),
        }
    }

    /// The preamble tables ([`ChunkReader::new`] mode only).
    pub fn preamble(&self) -> Option<&TraceTables> {
        self.preamble.as_ref()
    }

    /// Number of complete rank sections consumed so far.
    pub fn ranks_seen(&self) -> usize {
        self.ranks_seen
    }

    /// Byte offset of the next chunk: right after [`ChunkReader::new`],
    /// where the preamble ends and the first rank section must start.
    pub fn offset(&self) -> u64 {
        self.stream.offset()
    }

    /// The most memory one chunk has taken so far, in bytes — the reader's
    /// resident-memory high-water mark (excluding constant-size state): the
    /// larger of the chunk's stored payload, its LZ output and its decoded
    /// batch, `records * size_of::<TraceRecord>()`.
    pub fn peak_chunk_bytes(&self) -> usize {
        self.stream.peak_payload_bytes()
    }

    /// Attaches an observability shard to the underlying chunk stream (see
    /// `ChunkStream::set_obs`).
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.stream.set_obs(obs);
    }

    /// Closes the open section against the counts its `RANK_END` declares.
    fn end_section(&mut self) -> Result<AppItem, ContainerError> {
        let ReaderState::InSection(found) = std::mem::replace(&mut self.state, ReaderState::Idle)
        else {
            // Only reachable through a caller bug; still a typed error so the
            // decode surface stays panic-free.
            return Err(ContainerError::UnexpectedChunk {
                expected: "an open rank section at RANK_END",
                found: "no open section",
            });
        };
        end_section(&mut self.stream, &found, APP_COUNTS)?;
        self.close_section(ReadSection {
            found,
            decoded: true,
        })?;
        Ok(AppItem::RankEnd(found.rank))
    }

    /// Counts a section whose `RANK_END` has been read.  A section reader
    /// then checks it against its span and is done; a whole-file reader
    /// keeps it for the `INDEX` chunk.
    fn close_section(&mut self, section: ReadSection) -> Result<(), ContainerError> {
        self.ranks_seen += 1;
        let Some(span) = self.span else {
            self.read.push(section);
            return Ok(());
        };
        self.state = ReaderState::Done;
        section.check(span.index, &span.entry)?;
        let end = self.stream.offset();
        if end != span.end {
            return Err(ContainerError::IndexMismatch {
                entry: span.index,
                what: "section end offset",
                listed: span.end,
                found: end,
            });
        }
        Ok(())
    }

    /// Pulls the next item, or `Ok(None)` once the index footer (or, in
    /// section mode, the section's `RANK_END`) has been consumed.
    pub fn next_item(&mut self) -> Result<Option<AppItem>, ContainerError> {
        loop {
            match &mut self.state {
                ReaderState::Done => return Ok(None),
                ReaderState::InSection(seen) => {
                    if let Some(record) = self.batch.get(self.next) {
                        self.next += 1;
                        return Ok(Some(AppItem::Record(*record)));
                    }
                    let chunk = self.stream.next_chunk()?;
                    match chunk.kind {
                        ChunkKind::Records => {
                            self.batch.clear();
                            self.next = 0;
                            self.stream.decode(&mut self.batch)?;
                            seen.chunks += 1;
                            seen.records += self.batch.len() as u64;
                            for record in &self.batch {
                                match record {
                                    TraceRecord::Event(_) => seen.events += 1,
                                    TraceRecord::SegmentEnd { .. } => seen.segments += 1,
                                    TraceRecord::SegmentBegin { .. } => {}
                                }
                            }
                        }
                        ChunkKind::RankEnd => return Ok(Some(self.end_section()?)),
                        other => {
                            return Err(ContainerError::UnexpectedChunk {
                                expected: "RECORDS or RANK_END",
                                found: other.name(),
                            })
                        }
                    }
                }
                ReaderState::Idle => {
                    let chunk = self.stream.next_chunk()?;
                    match chunk.kind {
                        ChunkKind::RankBegin => {
                            let rank = parse_rank_begin(self.stream.payload()?)?;
                            if let Some(span) = self.span.filter(|span| span.entry.rank != rank) {
                                self.state = ReaderState::Done;
                                return Err(ContainerError::IndexMismatch {
                                    entry: span.index,
                                    what: "rank",
                                    listed: span.entry.rank.as_u32().into(),
                                    found: rank.as_u32().into(),
                                });
                            }
                            let begun = section_begun(rank, chunk.offset);
                            self.state = ReaderState::InSection(begun);
                            return Ok(Some(AppItem::RankStart(rank)));
                        }
                        ChunkKind::Index => {
                            // A section-mode reader is done at its section's
                            // end, so never meets an index without a preamble.
                            let declared = self.preamble.as_ref().map(|p| p.declared_ranks);
                            let declared = declared.unwrap_or(self.ranks_seen);
                            finish_index(&mut self.stream, chunk.offset, declared, &self.read)?;
                            self.state = ReaderState::Done;
                            return Ok(None);
                        }
                        other => {
                            return Err(ContainerError::UnexpectedChunk {
                                expected: "RANK_BEGIN or INDEX",
                                found: other.name(),
                            })
                        }
                    }
                }
            }
        }
    }

    /// Hands out, as one slice, the records of the current chunk that
    /// [`ChunkReader::next_item`] has not yielded yet — they follow the
    /// record it returned last.  Empty when the chunk is used up (and
    /// outside a section): the next chunk is decoded by the next
    /// `next_item` call.
    pub fn take_records(&mut self) -> &[TraceRecord] {
        let rest = self.batch.get(self.next..).unwrap_or_default();
        self.next = self.batch.len();
        rest
    }

    /// Skips the remainder of the open rank section without decoding (or
    /// CRC-checking) its chunk payloads.  Returns the skipped rank.
    pub fn skip_current_rank(&mut self) -> Result<Rank, ContainerError> {
        let ReaderState::InSection(mut found) =
            std::mem::replace(&mut self.state, ReaderState::Idle)
        else {
            self.state = ReaderState::Done;
            return Err(ContainerError::UnexpectedChunk {
                expected: "an open rank section to skip",
                found: "no section",
            });
        };
        self.batch.clear();
        self.next = 0;
        // Chunks decoded before the skip count, their items do not: only
        // a section read whole has its item counts checked.
        loop {
            match self.stream.skip_chunk()? {
                ChunkKind::Records => found.chunks += 1,
                ChunkKind::RankEnd => {
                    let decoded = false;
                    self.close_section(ReadSection { found, decoded })?;
                    return Ok(found.rank);
                }
                other => {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "RECORDS or RANK_END",
                        found: other.name(),
                    })
                }
            }
        }
    }
}

/// Materializes a full [`AppTrace`] from an app-trace container: the
/// collect of a [`ChunkReader`].
pub fn read_app_container<R: Read>(reader: R) -> Result<AppTrace, ContainerError> {
    let mut chunks = ChunkReader::new(reader)?;
    let Some(mut app) = chunks.preamble().map(TraceTables::app_trace) else {
        return Err(ContainerError::UnexpectedChunk {
            expected: "a decoded PREAMBLE (whole-file mode)",
            found: "a section-mode reader",
        });
    };
    while let Some(item) = chunks.next_item()? {
        app.push_item(item, chunks.take_records());
    }
    Ok(app)
}

/// Pull reader for reduced-trace containers over any [`std::io::Read`]
/// source: [`ReducedChunkReader::new`] reads the header and preamble, and
/// each [`ReducedChunkReader::next_rank`] call decodes one whole rank
/// section, chunk by chunk, straight into the rank it belongs to.
///
/// The reader owns the format's rules for a reduced section: all `STORED`
/// chunks precede all `EXECS` chunks, the `RANK_END` names the open rank
/// and its counts, the `INDEX` trailer closes the file after as many
/// sections as the preamble declares, and a section's ids keep
/// [`trace_model::ReducedRankTrace::check_ids`]: stored ids are dense and
/// every execution names a stored segment.  So every execution of a rank
/// it returns replays a stored segment.
pub struct ReducedChunkReader<R> {
    stream: ChunkStream<R>,
    preamble: TraceTables,
    /// The sections read so far, for the `INDEX` chunk to be checked
    /// against.
    read: Vec<ReadSection>,
    done: bool,
}

impl<R: Read> ReducedChunkReader<R> {
    /// Opens a whole container: validates the header, requires a reduced
    /// payload, and decodes the preamble chunk.
    pub fn new(reader: R) -> Result<Self, ContainerError> {
        let (stream, preamble) = open(reader, PayloadKind::Reduced)?;
        Ok(ReducedChunkReader {
            stream,
            preamble,
            read: Vec::new(),
            done: false,
        })
    }

    /// The preamble tables.
    pub fn preamble(&self) -> &TraceTables {
        &self.preamble
    }

    /// Reads the next rank section, or returns `Ok(None)` once the index
    /// footer and trailer have been consumed.
    pub fn next_rank(&mut self) -> Result<Option<ReducedRankTrace>, ContainerError> {
        if self.done {
            return Ok(None);
        }
        let chunk = self.stream.next_chunk()?;
        match chunk.kind {
            ChunkKind::RankBegin => {}
            ChunkKind::Index => {
                let declared = self.preamble.declared_ranks;
                finish_index(&mut self.stream, chunk.offset, declared, &self.read)?;
                self.done = true;
                return Ok(None);
            }
            other => {
                return Err(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN or INDEX",
                    found: other.name(),
                })
            }
        }
        let mut rank = ReducedRankTrace::new(parse_rank_begin(self.stream.payload()?)?);
        let mut found = section_begun(rank.rank, chunk.offset);
        // Latches at the section's first EXECS chunk.
        let mut exec_phase = false;
        loop {
            let kind = self.stream.next_chunk()?.kind;
            found.chunks += u64::from(matches!(kind, ChunkKind::Stored | ChunkKind::Execs));
            match kind {
                ChunkKind::Stored if !exec_phase => self.stream.decode(&mut rank.stored)?,
                // Stored segments precede executions (spec invariant 3),
                // the only order the writer produces.
                ChunkKind::Stored => {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "EXECS or RANK_END (stored segments precede executions)",
                        found: "STORED",
                    })
                }
                ChunkKind::Execs => {
                    exec_phase = true;
                    self.stream.decode(&mut rank.execs)?;
                }
                ChunkKind::RankEnd => break,
                other => {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "STORED, EXECS or RANK_END",
                        found: other.name(),
                    })
                }
            }
        }
        let (stored, execs) = (rank.stored.len() as u64, rank.execs.len() as u64);
        found.records = stored + execs;
        found.segments = stored;
        found.events = execs;
        end_section(&mut self.stream, &found, REDUCED_COUNTS)?;
        rank.check_ids().map_err(ContainerError::StoredIds)?;
        self.read.push(ReadSection {
            found,
            decoded: true,
        });
        Ok(Some(rank))
    }
}

/// Materializes a [`ReducedAppTrace`] from a reduced-trace container: the
/// collect of a [`ReducedChunkReader`].
pub fn read_reduced_container<R: Read>(reader: R) -> Result<ReducedAppTrace, ContainerError> {
    let mut sections = ReducedChunkReader::new(reader)?;
    let mut reduced = sections.preamble().reduced_trace();
    while let Some(rank) = sections.next_rank()? {
        reduced.ranks.push(rank);
    }
    Ok(reduced)
}

/// Decodes a full app trace from a whole container buffer: the name the
/// harness links, kept next to [`read_app_container`].  A retired v1 file is
/// a [`ContainerError::RetiredV1`].
pub fn decode_app_any(bytes: &[u8]) -> Result<AppTrace, ContainerError> {
    read_app_container(bytes)
}

/// Decodes a reduced trace from a whole container buffer, like
/// [`decode_app_any`].
pub fn decode_reduced_any(bytes: &[u8]) -> Result<ReducedAppTrace, ContainerError> {
    read_reduced_container(bytes)
}
