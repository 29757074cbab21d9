//! Streaming container readers.
//!
//! [`ChunkReader`] pulls one record at a time out of an app-trace container
//! over any [`std::io::Read`] source, holding at most one decoded chunk
//! payload in memory — the binary analogue of the text
//! `trace_stream::StreamParser`.  [`read_reduced_container`] materializes a
//! reduced trace chunk by chunk, and [`decode_app_any`] /
//! [`decode_reduced_any`] fall back to the monolithic v1 codec when the
//! magic bytes say so.

use std::io::Read;

use trace_model::codec::varint::read_u64 as varint_read_u64;
use trace_model::codec::{
    decode_app_trace, decode_reduced_trace, read_exec, read_record, read_stored_segment,
    read_string, read_string_table, Reader, APP_TRACE_MAGIC, REDUCED_TRACE_MAGIC,
};
use trace_model::{
    AppTrace, ContextTable, Rank, RankTrace, ReducedAppTrace, ReducedRankTrace, RegionTable, Time,
    TraceRecord,
};

use crate::error::ContainerError;
use crate::layout::{read_header, ChunkKind, ChunkStream, PayloadKind, CONTAINER_MAGIC};

/// The preamble's rank count is a bare varint: readers reserve no more than
/// this many rank slots on its word alone (a 28-byte file can declare 2^60).
const MAX_RESERVED_RANKS: usize = 4096;

/// The decoded preamble chunk: program name, declared rank count and the
/// interned string tables shared by every section.
#[derive(Clone, Debug, PartialEq)]
pub struct Preamble {
    /// The traced program's name.
    pub name: String,
    /// Number of rank sections the file declares.
    pub declared_ranks: usize,
    /// Region (code location) names.
    pub regions: RegionTable,
    /// Segment context names.
    pub contexts: ContextTable,
}

fn parse_preamble(payload: &[u8]) -> Result<Preamble, ContainerError> {
    let mut reader = Reader::new(payload);
    let name = read_string(&mut reader)?;
    let regions = RegionTable::from_names(read_string_table(&mut reader)?);
    let contexts = ContextTable::from_names(read_string_table(&mut reader)?);
    let declared_ranks = varint_read_u64(&mut reader)? as usize;
    Ok(Preamble {
        name,
        declared_ranks,
        regions,
        contexts,
    })
}

/// One item pulled from an app-trace container, mirroring the text
/// streaming parser's item stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ContainerItem {
    /// A rank section opened.
    RankStart(Rank),
    /// A record inside the open section.
    Record(TraceRecord),
    /// The open rank section closed.
    RankEnd(Rank),
}

/// Decode cursor over the payload of the current `RECORDS` chunk.
#[derive(Default)]
struct ChunkCursor {
    payload: Vec<u8>,
    pos: usize,
    remaining: u64,
    prev_time: Time,
}

impl ChunkCursor {
    fn load(&mut self, payload: Vec<u8>) -> Result<(), ContainerError> {
        let mut reader = Reader::new(&payload);
        let remaining = varint_read_u64(&mut reader)?;
        let pos = payload.len() - reader.remaining();
        if remaining == 0 && pos != payload.len() {
            return Err(ContainerError::TrailingBytes {
                what: "the declared records of a RECORDS chunk",
                bytes: payload.len() - pos,
            });
        }
        self.payload = payload;
        self.pos = pos;
        self.remaining = remaining;
        self.prev_time = Time::ZERO;
        Ok(())
    }

    fn next_record(&mut self) -> Result<TraceRecord, ContainerError> {
        // A broken position invariant degrades to an empty slice, which the
        // record decoder reports as a typed truncation error.
        let slice = self.payload.get(self.pos..).unwrap_or(&[]);
        let mut reader = Reader::new(slice);
        let (record, new_prev) = read_record(&mut reader, self.prev_time)?;
        self.pos += slice.len() - reader.remaining();
        self.prev_time = new_prev;
        self.remaining -= 1;
        if self.remaining == 0 && reader.remaining() != 0 {
            return Err(ContainerError::TrailingBytes {
                what: "the declared records of a RECORDS chunk",
                bytes: reader.remaining(),
            });
        }
        Ok(record)
    }
}

struct SectionProgress {
    rank: Rank,
    records: u64,
    segments: u64,
    events: u64,
}

enum ReaderState {
    /// Between rank sections.
    Idle,
    /// Inside a rank section, decoding `RECORDS` chunks.
    InSection(SectionProgress),
    /// The index (or the single section) has been consumed.
    Done,
}

/// Pull reader for app-trace containers over any [`std::io::Read`] source.
///
/// [`ChunkReader::new`] reads the header and preamble and then iterates the
/// whole file; [`ChunkReader::section`] starts directly at a `RANK_BEGIN`
/// chunk (located via the index footer) and yields exactly that section —
/// the entry point the index-sharded parallel ingestion uses.
pub struct ChunkReader<R> {
    stream: ChunkStream<R>,
    preamble: Option<Preamble>,
    state: ReaderState,
    cursor: ChunkCursor,
    ranks_seen: usize,
    single_section: bool,
}

impl<R: Read> ChunkReader<R> {
    /// Opens a whole container: validates the header, requires an app
    /// payload, and decodes the preamble chunk.
    pub fn new(reader: R) -> Result<Self, ContainerError> {
        let mut stream = ChunkStream::new(reader, 0);
        let kind = read_header(&mut stream)?;
        if kind != PayloadKind::App {
            return Err(ContainerError::UnexpectedChunk {
                expected: "an app payload (kind byte 0)",
                found: "a reduced payload",
            });
        }
        let chunk = stream.next_chunk()?;
        if chunk.kind != ChunkKind::Preamble {
            return Err(ContainerError::UnexpectedChunk {
                expected: "PREAMBLE",
                found: chunk.kind.name(),
            });
        }
        Ok(ChunkReader {
            stream,
            preamble: Some(parse_preamble(&chunk.payload)?),
            state: ReaderState::Idle,
            cursor: ChunkCursor::default(),
            ranks_seen: 0,
            single_section: false,
        })
    }

    /// Resumes reading at one rank section.  `reader` must be positioned at
    /// the section's `RANK_BEGIN` chunk (byte `offset` of the file, from
    /// the index footer).  The iteration ends after that section's
    /// `RANK_END`; no preamble is available in this mode.
    pub fn section(reader: R, offset: u64) -> Self {
        ChunkReader {
            stream: ChunkStream::new(reader, offset),
            preamble: None,
            state: ReaderState::Idle,
            cursor: ChunkCursor::default(),
            ranks_seen: 0,
            single_section: true,
        }
    }

    /// The preamble tables ([`ChunkReader::new`] mode only).
    pub fn preamble(&self) -> Option<&Preamble> {
        self.preamble.as_ref()
    }

    /// Number of complete rank sections consumed so far.
    pub fn ranks_seen(&self) -> usize {
        self.ranks_seen
    }

    /// Largest chunk payload buffered so far, in bytes — the reader's
    /// resident-memory high-water mark (excluding constant-size state).
    pub fn peak_chunk_bytes(&self) -> usize {
        self.stream.peak_payload_bytes()
    }

    /// Attaches an observability shard to the underlying chunk stream (see
    /// [`ChunkStream::set_obs`]).
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.stream.set_obs(obs);
    }

    fn end_section(&mut self, payload: &[u8]) -> Result<ContainerItem, ContainerError> {
        let ReaderState::InSection(progress) =
            std::mem::replace(&mut self.state, ReaderState::Idle)
        else {
            // Only reachable through a caller bug; still a typed error so the
            // decode surface stays panic-free.
            return Err(ContainerError::UnexpectedChunk {
                expected: "an open rank section at RANK_END",
                found: "no open section",
            });
        };
        let mut reader = Reader::new(payload);
        let rank = Rank(varint_read_u64(&mut reader)? as u32);
        let _chunks = varint_read_u64(&mut reader)?;
        let records = varint_read_u64(&mut reader)?;
        let segments = varint_read_u64(&mut reader)?;
        let events = varint_read_u64(&mut reader)?;
        if rank != progress.rank {
            return Err(ContainerError::UnexpectedChunk {
                expected: "RANK_END for the open rank",
                found: "RANK_END for another rank",
            });
        }
        for (what, declared, found) in [
            ("section records", records, progress.records),
            ("section segments", segments, progress.segments),
            ("section events", events, progress.events),
        ] {
            if declared != found {
                return Err(ContainerError::CountMismatch {
                    what,
                    declared,
                    found,
                });
            }
        }
        self.ranks_seen += 1;
        if self.single_section {
            self.state = ReaderState::Done;
        }
        Ok(ContainerItem::RankEnd(rank))
    }

    /// Pulls the next item, or `Ok(None)` once the index footer (or, in
    /// section mode, the section's `RANK_END`) has been consumed.
    pub fn next_item(&mut self) -> Result<Option<ContainerItem>, ContainerError> {
        loop {
            match &mut self.state {
                ReaderState::Done => return Ok(None),
                ReaderState::InSection(progress) => {
                    if self.cursor.remaining > 0 {
                        let record = self.cursor.next_record()?;
                        progress.records += 1;
                        match &record {
                            TraceRecord::Event(_) => progress.events += 1,
                            TraceRecord::SegmentEnd { .. } => progress.segments += 1,
                            TraceRecord::SegmentBegin { .. } => {}
                        }
                        return Ok(Some(ContainerItem::Record(record)));
                    }
                    let chunk = self.stream.next_chunk()?;
                    match chunk.kind {
                        ChunkKind::Records => self.cursor.load(chunk.payload)?,
                        ChunkKind::RankEnd => return Ok(Some(self.end_section(&chunk.payload)?)),
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
                            let mut reader = Reader::new(&chunk.payload);
                            let rank = Rank(varint_read_u64(&mut reader)? as u32);
                            self.state = ReaderState::InSection(SectionProgress {
                                rank,
                                records: 0,
                                segments: 0,
                                events: 0,
                            });
                            return Ok(Some(ContainerItem::RankStart(rank)));
                        }
                        ChunkKind::Index => {
                            let sections = crate::index::parse_index_payload(&chunk.payload)?;
                            let declared = self
                                .preamble
                                .as_ref()
                                .map_or(sections.len(), |p| p.declared_ranks);
                            if self.ranks_seen != declared || sections.len() != declared {
                                return Err(ContainerError::CountMismatch {
                                    what: "rank sections",
                                    declared: declared as u64,
                                    found: self.ranks_seen as u64,
                                });
                            }
                            self.stream.finish_trailer(chunk.offset)?;
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

    /// Skips the remainder of the open rank section without decoding (or
    /// CRC-checking) its chunk payloads.  Returns the skipped rank.
    pub fn skip_current_rank(&mut self) -> Result<Rank, ContainerError> {
        let ReaderState::InSection(progress) =
            std::mem::replace(&mut self.state, ReaderState::Idle)
        else {
            self.state = ReaderState::Done;
            return Err(ContainerError::UnexpectedChunk {
                expected: "an open rank section to skip",
                found: "no section",
            });
        };
        let rank = progress.rank;
        self.cursor = ChunkCursor::default();
        loop {
            match self.stream.skip_chunk()? {
                ChunkKind::Records => {}
                ChunkKind::RankEnd => {
                    self.ranks_seen += 1;
                    if self.single_section {
                        self.state = ReaderState::Done;
                    }
                    return Ok(rank);
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

/// Materializes a full [`AppTrace`] from an app-trace container.
pub fn read_app_container<R: Read>(reader: R) -> Result<AppTrace, ContainerError> {
    let mut chunks = ChunkReader::new(reader)?;
    let Some(preamble) = chunks.preamble().cloned() else {
        return Err(ContainerError::UnexpectedChunk {
            expected: "a decoded PREAMBLE (whole-file mode)",
            found: "a section-mode reader",
        });
    };
    let mut app = AppTrace {
        name: preamble.name,
        regions: preamble.regions,
        contexts: preamble.contexts,
        ranks: Vec::with_capacity(preamble.declared_ranks.min(MAX_RESERVED_RANKS)),
    };
    let mut open: Option<RankTrace> = None;
    while let Some(item) = chunks.next_item()? {
        match item {
            ContainerItem::RankStart(rank) => open = Some(RankTrace::new(rank)),
            ContainerItem::Record(record) => open
                .as_mut()
                .ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "RECORDS",
                })?
                .push(record),
            ContainerItem::RankEnd(_) => {
                let section = open.take().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "RANK_END",
                })?;
                app.ranks.push(section);
            }
        }
    }
    Ok(app)
}

/// Materializes a [`ReducedAppTrace`] from a reduced-trace container,
/// decoding one chunk at a time.
pub fn read_reduced_container<R: Read>(reader: R) -> Result<ReducedAppTrace, ContainerError> {
    let mut stream = ChunkStream::new(reader, 0);
    let kind = read_header(&mut stream)?;
    if kind != PayloadKind::Reduced {
        return Err(ContainerError::UnexpectedChunk {
            expected: "a reduced payload (kind byte 1)",
            found: "an app payload",
        });
    }
    let chunk = stream.next_chunk()?;
    if chunk.kind != ChunkKind::Preamble {
        return Err(ContainerError::UnexpectedChunk {
            expected: "PREAMBLE",
            found: chunk.kind.name(),
        });
    }
    let preamble = parse_preamble(&chunk.payload)?;
    let mut reduced = ReducedAppTrace {
        name: preamble.name,
        regions: preamble.regions,
        contexts: preamble.contexts,
        ranks: Vec::with_capacity(preamble.declared_ranks.min(MAX_RESERVED_RANKS)),
    };

    let mut open: Option<ReducedRankTrace> = None;
    // Latches once the section's first EXECS chunk arrives: the format
    // requires all STORED chunks to precede all EXECS chunks (spec
    // invariant 3), matching the only order the writer produces.
    let mut exec_phase = false;
    loop {
        let chunk = stream.next_chunk()?;
        match chunk.kind {
            ChunkKind::RankBegin => {
                if open.is_some() {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "STORED, EXECS or RANK_END",
                        found: "RANK_BEGIN",
                    });
                }
                let mut reader = Reader::new(&chunk.payload);
                open = Some(ReducedRankTrace::new(Rank(
                    varint_read_u64(&mut reader)? as u32
                )));
                exec_phase = false;
            }
            ChunkKind::Stored => {
                let rank = open.as_mut().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "STORED",
                })?;
                if exec_phase {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "EXECS or RANK_END (stored segments precede executions)",
                        found: "STORED",
                    });
                }
                let mut reader = Reader::new(&chunk.payload);
                let count = varint_read_u64(&mut reader)?;
                for _ in 0..count {
                    rank.stored.push(read_stored_segment(&mut reader)?);
                }
                if !reader.is_at_end() {
                    return Err(ContainerError::TrailingBytes {
                        what: "the declared segments of a STORED chunk",
                        bytes: reader.remaining(),
                    });
                }
            }
            ChunkKind::Execs => {
                let rank = open.as_mut().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "EXECS",
                })?;
                exec_phase = true;
                let mut reader = Reader::new(&chunk.payload);
                let count = varint_read_u64(&mut reader)?;
                let mut prev_start = Time::ZERO;
                for _ in 0..count {
                    let (exec, new_prev) = read_exec(&mut reader, prev_start)?;
                    prev_start = new_prev;
                    rank.execs.push(exec);
                }
                if !reader.is_at_end() {
                    return Err(ContainerError::TrailingBytes {
                        what: "the declared executions of an EXECS chunk",
                        bytes: reader.remaining(),
                    });
                }
            }
            ChunkKind::RankEnd => {
                let rank = open.take().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "RANK_END",
                })?;
                let mut reader = Reader::new(&chunk.payload);
                let end_rank = Rank(varint_read_u64(&mut reader)? as u32);
                let _chunks = varint_read_u64(&mut reader)?;
                let records = varint_read_u64(&mut reader)?;
                let segments = varint_read_u64(&mut reader)?;
                let events = varint_read_u64(&mut reader)?;
                if end_rank != rank.rank {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "RANK_END for the open rank",
                        found: "RANK_END for another rank",
                    });
                }
                let found = (rank.stored.len() + rank.execs.len()) as u64;
                if records != found {
                    return Err(ContainerError::CountMismatch {
                        what: "reduced section items",
                        declared: records,
                        found,
                    });
                }
                if segments != rank.stored.len() as u64 || events != rank.execs.len() as u64 {
                    return Err(ContainerError::CountMismatch {
                        what: "reduced section stored/exec split",
                        declared: segments,
                        found: rank.stored.len() as u64,
                    });
                }
                reduced.ranks.push(rank);
            }
            ChunkKind::Index => {
                if open.is_some() {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "RANK_END",
                        found: "INDEX",
                    });
                }
                if reduced.ranks.len() != preamble.declared_ranks {
                    return Err(ContainerError::CountMismatch {
                        what: "rank sections",
                        declared: preamble.declared_ranks as u64,
                        found: reduced.ranks.len() as u64,
                    });
                }
                stream.finish_trailer(chunk.offset)?;
                return Ok(reduced);
            }
            other => {
                return Err(ContainerError::UnexpectedChunk {
                    expected: "a section or INDEX chunk",
                    found: other.name(),
                })
            }
        }
    }
}

/// Decodes a full app trace from either format: chunked v2 containers
/// (magic `TRC2`) or monolithic v1 files (magic `TRCF`) via the fallback
/// decoder.
pub fn decode_app_any(bytes: &[u8]) -> Result<AppTrace, ContainerError> {
    match bytes.first_chunk::<4>() {
        Some(&magic) if magic == CONTAINER_MAGIC => read_app_container(bytes),
        Some(&magic) if magic == APP_TRACE_MAGIC => Ok(decode_app_trace(bytes)?),
        Some(&magic) => Err(ContainerError::BadMagic { found: magic }),
        None => Err(ContainerError::Truncated {
            what: "file header",
        }),
    }
}

/// Decodes a reduced trace from either format: chunked v2 containers or
/// monolithic v1 files via the fallback decoder.
pub fn decode_reduced_any(bytes: &[u8]) -> Result<ReducedAppTrace, ContainerError> {
    match bytes.first_chunk::<4>() {
        Some(&magic) if magic == CONTAINER_MAGIC => read_reduced_container(bytes),
        Some(&magic) if magic == REDUCED_TRACE_MAGIC => Ok(decode_reduced_trace(bytes)?),
        Some(&magic) => Err(ContainerError::BadMagic { found: magic }),
        None => Err(ContainerError::Truncated {
            what: "file header",
        }),
    }
}
