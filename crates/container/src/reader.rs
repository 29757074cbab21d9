//! Streaming container readers.
//!
//! [`ChunkReader`] pulls the items of an app-trace container over any
//! [`std::io::Read`] source, holding at most one decoded chunk in memory —
//! the binary analogue of the text `trace_stream::StreamParser`.  A
//! `RECORDS` chunk is decoded in one call, straight from its stored bytes
//! into a batch of records the reader reuses, and handed on either record
//! by record ([`ChunkReader::next_item`]) or as a slice
//! ([`ChunkReader::take_records`]).  [`read_reduced_container`] materializes
//! a reduced trace chunk by chunk.  Every reader opens with the file header,
//! so a retired monolithic v1 file is refused by all of them alike.

use std::io::Read;

use trace_model::codec::varint::{read_u32, read_u64 as varint_read_u64};
use trace_model::codec::{read_string, read_string_table, Reader};
use trace_model::{
    AppTrace, ContextTable, Rank, RankTrace, ReducedAppTrace, ReducedRankTrace, RegionTable,
    TraceRecord, MAX_RESERVED_RANKS,
};

use crate::error::ContainerError;
use crate::layout::{read_header, ChunkKind, ChunkStream, PayloadKind};

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

/// Reads the preamble chunk that follows the file header.
fn read_preamble<R: Read>(stream: &mut ChunkStream<R>) -> Result<Preamble, ContainerError> {
    let chunk = stream.next_chunk()?;
    if chunk.kind != ChunkKind::Preamble {
        return Err(ContainerError::UnexpectedChunk {
            expected: "PREAMBLE",
            found: chunk.kind.name(),
        });
    }
    parse_preamble(stream.payload()?)
}

/// The rank a `RANK_BEGIN` payload names.
fn parse_rank_begin(payload: &[u8]) -> Result<Rank, ContainerError> {
    Ok(Rank(read_u32(&mut Reader::new(payload), "rank")?))
}

/// The item counts of one rank section: what its `RANK_END` chunk declares,
/// or what a reader has seen of it so far.
#[derive(Clone, Copy)]
struct SectionCounts {
    rank: Rank,
    records: u64,
    segments: u64,
    events: u64,
}

fn parse_rank_end(payload: &[u8]) -> Result<SectionCounts, ContainerError> {
    let mut reader = Reader::new(payload);
    let rank = Rank(read_u32(&mut reader, "rank")?);
    let _chunks = varint_read_u64(&mut reader)?;
    Ok(SectionCounts {
        rank,
        records: varint_read_u64(&mut reader)?,
        segments: varint_read_u64(&mut reader)?,
        events: varint_read_u64(&mut reader)?,
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

enum ReaderState {
    /// Between rank sections.
    Idle,
    /// Inside a rank section, decoding `RECORDS` chunks; the counts are
    /// those of the chunks decoded so far.
    InSection(SectionCounts),
    /// The index (or the single section) has been consumed.
    Done,
}

/// Pull reader for app-trace containers over any [`std::io::Read`] source.
///
/// [`ChunkReader::new`] reads the header and preamble and then iterates the
/// whole file; [`ChunkReader::section`] starts directly at a `RANK_BEGIN`
/// chunk (located via the index footer) and yields exactly that section —
/// the entry point the index-sharded parallel ingestion uses.
///
/// A chunk is decoded whole, so what is wrong with any of its records — and
/// a count that disagrees with its bytes — surfaces when the chunk is
/// reached, before its first record is handed out.
pub struct ChunkReader<R> {
    stream: ChunkStream<R>,
    preamble: Option<Preamble>,
    state: ReaderState,
    /// The records of the current `RECORDS` chunk; `batch[next..]` have not
    /// been handed out yet.  One buffer, reused from chunk to chunk.
    batch: Vec<TraceRecord>,
    next: usize,
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
        let preamble = read_preamble(&mut stream)?;
        Ok(ChunkReader {
            preamble: Some(preamble),
            ..ChunkReader::section_of(stream, false)
        })
    }

    /// Resumes reading at one rank section.  `reader` must be positioned at
    /// the section's `RANK_BEGIN` chunk (byte `offset` of the file, from
    /// the index footer).  The iteration ends after that section's
    /// `RANK_END`; no preamble is available in this mode.
    pub fn section(reader: R, offset: u64) -> Self {
        ChunkReader::section_of(ChunkStream::new(reader, offset), true)
    }

    fn section_of(stream: ChunkStream<R>, single_section: bool) -> Self {
        ChunkReader {
            stream,
            preamble: None,
            state: ReaderState::Idle,
            batch: Vec::new(),
            next: 0,
            ranks_seen: 0,
            single_section,
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

    /// The most memory one chunk has taken so far, in bytes — the reader's
    /// resident-memory high-water mark (excluding constant-size state): the
    /// larger of the chunk's stored payload, its LZ output and its decoded
    /// batch, `records * size_of::<TraceRecord>()`.
    pub fn peak_chunk_bytes(&self) -> usize {
        self.stream.peak_payload_bytes()
    }

    /// Attaches an observability shard to the underlying chunk stream (see
    /// [`ChunkStream::set_obs`]).
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.stream.set_obs(obs);
    }

    /// Closes the open section against the counts its `RANK_END` declares.
    fn end_section(&mut self, declared: SectionCounts) -> Result<ContainerItem, ContainerError> {
        let ReaderState::InSection(found) = std::mem::replace(&mut self.state, ReaderState::Idle)
        else {
            // Only reachable through a caller bug; still a typed error so the
            // decode surface stays panic-free.
            return Err(ContainerError::UnexpectedChunk {
                expected: "an open rank section at RANK_END",
                found: "no open section",
            });
        };
        if declared.rank != found.rank {
            return Err(ContainerError::UnexpectedChunk {
                expected: "RANK_END for the open rank",
                found: "RANK_END for another rank",
            });
        }
        for (what, declared, found) in [
            ("section records", declared.records, found.records),
            ("section segments", declared.segments, found.segments),
            ("section events", declared.events, found.events),
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
        Ok(ContainerItem::RankEnd(declared.rank))
    }

    /// Pulls the next item, or `Ok(None)` once the index footer (or, in
    /// section mode, the section's `RANK_END`) has been consumed.
    pub fn next_item(&mut self) -> Result<Option<ContainerItem>, ContainerError> {
        loop {
            match &mut self.state {
                ReaderState::Done => return Ok(None),
                ReaderState::InSection(seen) => {
                    if let Some(record) = self.batch.get(self.next) {
                        self.next += 1;
                        return Ok(Some(ContainerItem::Record(*record)));
                    }
                    let chunk = self.stream.next_chunk()?;
                    match chunk.kind {
                        ChunkKind::Records => {
                            self.batch.clear();
                            self.next = 0;
                            self.stream.decode(&mut self.batch)?;
                            seen.records += self.batch.len() as u64;
                            for record in &self.batch {
                                match record {
                                    TraceRecord::Event(_) => seen.events += 1,
                                    TraceRecord::SegmentEnd { .. } => seen.segments += 1,
                                    TraceRecord::SegmentBegin { .. } => {}
                                }
                            }
                        }
                        ChunkKind::RankEnd => {
                            let declared = parse_rank_end(self.stream.payload()?)?;
                            return Ok(Some(self.end_section(declared)?));
                        }
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
                            self.state = ReaderState::InSection(SectionCounts {
                                rank,
                                records: 0,
                                segments: 0,
                                events: 0,
                            });
                            return Ok(Some(ContainerItem::RankStart(rank)));
                        }
                        ChunkKind::Index => {
                            let sections =
                                crate::index::parse_index_payload(self.stream.payload()?)?;
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
        let ReaderState::InSection(section) = std::mem::replace(&mut self.state, ReaderState::Idle)
        else {
            self.state = ReaderState::Done;
            return Err(ContainerError::UnexpectedChunk {
                expected: "an open rank section to skip",
                found: "no section",
            });
        };
        self.batch.clear();
        self.next = 0;
        loop {
            match self.stream.skip_chunk()? {
                ChunkKind::Records => {}
                ChunkKind::RankEnd => {
                    self.ranks_seen += 1;
                    if self.single_section {
                        self.state = ReaderState::Done;
                    }
                    return Ok(section.rank);
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
            ContainerItem::Record(record) => {
                let section = open.as_mut().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "RECORDS",
                })?;
                // The chunk's first record, then the rest of its batch.
                section.push(record);
                section.records.extend_from_slice(chunks.take_records());
            }
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
/// decoding one chunk at a time straight into the rank it belongs to.
pub fn read_reduced_container<R: Read>(reader: R) -> Result<ReducedAppTrace, ContainerError> {
    let mut stream = ChunkStream::new(reader, 0);
    let kind = read_header(&mut stream)?;
    if kind != PayloadKind::Reduced {
        return Err(ContainerError::UnexpectedChunk {
            expected: "a reduced payload (kind byte 1)",
            found: "an app payload",
        });
    }
    let preamble = read_preamble(&mut stream)?;
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
                open = Some(ReducedRankTrace::new(parse_rank_begin(stream.payload()?)?));
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
                stream.decode(&mut rank.stored)?;
            }
            ChunkKind::Execs => {
                let rank = open.as_mut().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "EXECS",
                })?;
                exec_phase = true;
                stream.decode(&mut rank.execs)?;
            }
            ChunkKind::RankEnd => {
                let rank = open.take().ok_or(ContainerError::UnexpectedChunk {
                    expected: "RANK_BEGIN",
                    found: "RANK_END",
                })?;
                let declared = parse_rank_end(stream.payload()?)?;
                if declared.rank != rank.rank {
                    return Err(ContainerError::UnexpectedChunk {
                        expected: "RANK_END for the open rank",
                        found: "RANK_END for another rank",
                    });
                }
                let found = (rank.stored.len() + rank.execs.len()) as u64;
                if declared.records != found {
                    return Err(ContainerError::CountMismatch {
                        what: "reduced section items",
                        declared: declared.records,
                        found,
                    });
                }
                if declared.segments != rank.stored.len() as u64
                    || declared.events != rank.execs.len() as u64
                {
                    return Err(ContainerError::CountMismatch {
                        what: "reduced section stored/exec split",
                        declared: declared.segments,
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

/// Decodes a full app trace from a whole container buffer: the name the
/// harness links, kept beside [`read_app_container`].  A retired v1 file is
/// a [`ContainerError::RetiredV1`].
pub fn decode_app_any(bytes: &[u8]) -> Result<AppTrace, ContainerError> {
    read_app_container(bytes)
}

/// Decodes a reduced trace from a whole container buffer, like
/// [`decode_app_any`].
pub fn decode_reduced_any(bytes: &[u8]) -> Result<ReducedAppTrace, ContainerError> {
    read_reduced_container(bytes)
}
