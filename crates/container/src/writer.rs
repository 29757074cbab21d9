//! Streaming container writer.
//!
//! [`ChunkWriter`] emits a `.trc` v2 container incrementally over any
//! [`std::io::Write`] sink: records (or stored segments / executions) are
//! encoded into an in-memory chunk buffer and flushed as a framed,
//! CRC-checked chunk whenever the configured chunk size is reached, so the
//! writer's resident state is O(one chunk) regardless of trace length.
//! Chunk offsets are tracked as bytes go out, which is what lets the
//! seekable index footer be written at the end without ever seeking.

use std::io::{self, Write};

use trace_compress::{ChunkEncoder, Codec};
use trace_model::codec::varint::write_u64 as varint_write_u64;
use trace_model::codec::{
    write_exec, write_record, write_stored_segment, write_string, write_string_table,
};
use trace_model::{AppTrace, Rank, ReducedAppTrace, SegmentExec, StoredSegment, Time, TraceRecord};

use crate::index::RankSectionEntry;
use crate::layout::{write_chunk, write_header, ChunkKind, PayloadKind, INDEX_MAGIC};

/// How records are grouped into chunks, and which codec their payloads are
/// stored under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Completed segments per `RECORDS` chunk (app payloads), and stored
    /// representatives per `STORED` chunk (reduced payloads).  A chunk is
    /// cut at the first segment boundary at or past this count, so chunks
    /// always hold whole segments; `1` gives one segment per chunk.
    pub segments_per_chunk: usize,
    /// Executions per `EXECS` chunk (reduced payloads only).  Executions
    /// are a few bytes each, so they pack much denser than segments.
    pub execs_per_chunk: usize,
    /// Codec payload chunks are compressed under before CRC framing
    /// (control chunks are always stored raw).  Each chunk keeps its own
    /// codec byte: when the compressed form is not smaller, that chunk is
    /// stored raw under [`Codec::None`] instead.
    pub codec: Codec,
}

impl Default for ChunkSpec {
    fn default() -> Self {
        ChunkSpec {
            segments_per_chunk: 128,
            execs_per_chunk: 4096,
            codec: Codec::None,
        }
    }
}

impl ChunkSpec {
    /// A spec with `segments_per_chunk` segments per chunk (0 is treated
    /// as 1) and the default execution packing.
    pub fn with_segments(segments_per_chunk: usize) -> Self {
        ChunkSpec {
            segments_per_chunk: segments_per_chunk.max(1),
            ..ChunkSpec::default()
        }
    }

    /// The default chunk grouping with payload chunks compressed under
    /// `codec`.
    pub fn with_codec(codec: Codec) -> Self {
        ChunkSpec {
            codec,
            ..ChunkSpec::default()
        }
    }

    /// Returns the spec with its codec replaced.
    pub fn codec(self, codec: Codec) -> Self {
        ChunkSpec { codec, ..self }
    }
}

/// Counting adapter so chunk offsets are known without seeking.
struct CountingWriter<W> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct SectionState {
    rank: Rank,
    offset: u64,
    chunks: u64,
    records: u64,
    segments: u64,
    events: u64,
    /// Reduced sections write all STORED chunks before any EXECS chunk;
    /// this latches once the first execution arrives.
    exec_phase: bool,
}

/// Streaming writer for chunked container files.
///
/// App payloads: [`ChunkWriter::app`], then per rank
/// [`ChunkWriter::begin_rank`] → [`ChunkWriter::record`]… →
/// [`ChunkWriter::end_rank`], then [`ChunkWriter::finish`].
/// Reduced payloads use [`ChunkWriter::reduced`] with
/// [`ChunkWriter::stored`] / [`ChunkWriter::exec`] inside the section.
pub struct ChunkWriter<W: Write> {
    out: CountingWriter<W>,
    kind: PayloadKind,
    spec: ChunkSpec,
    declared_ranks: usize,
    /// Encoded items of the chunk being assembled (without the leading
    /// count varint, which is prepended at flush time).
    body: Vec<u8>,
    /// The row payload of the chunk being flushed: count varint plus `body`.
    payload: Vec<u8>,
    /// The codec stages' scratch; sees every item `body` receives.
    encoder: ChunkEncoder,
    items_in_chunk: u64,
    segments_in_chunk: usize,
    prev_time: Time,
    section: Option<SectionState>,
    sections: Vec<RankSectionEntry>,
    obs: trace_obs::ObsShard,
}

impl<W: Write> ChunkWriter<W> {
    fn new(
        out: W,
        kind: PayloadKind,
        name: &str,
        rank_count: usize,
        regions: &[String],
        contexts: &[String],
        spec: ChunkSpec,
    ) -> io::Result<Self> {
        let mut out = CountingWriter {
            inner: out,
            written: 0,
        };
        write_header(&mut out, kind)?;
        let mut preamble = Vec::new();
        write_string(&mut preamble, name);
        write_string_table(&mut preamble, regions);
        write_string_table(&mut preamble, contexts);
        varint_write_u64(&mut preamble, rank_count as u64);
        write_chunk(&mut out, ChunkKind::Preamble, Codec::None, &preamble)?;
        Ok(ChunkWriter {
            out,
            kind,
            spec: ChunkSpec {
                segments_per_chunk: spec.segments_per_chunk.max(1),
                execs_per_chunk: spec.execs_per_chunk.max(1),
                codec: spec.codec,
            },
            declared_ranks: rank_count,
            body: Vec::new(),
            payload: Vec::new(),
            encoder: ChunkEncoder::new(spec.codec),
            items_in_chunk: 0,
            segments_in_chunk: 0,
            prev_time: Time::ZERO,
            section: None,
            sections: Vec::new(),
            obs: trace_obs::ObsShard::disabled(),
        })
    }

    /// Attaches an observability shard: subsequent chunk flushes record
    /// [`trace_obs::Stage::Compress`] spans, `chunk.writes` and per-codec
    /// stored/raw byte counters.  The shard flushes to its recorder when
    /// the writer is finished or dropped.
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.obs = obs;
    }

    /// Starts an application-trace container (header + preamble chunk).
    pub fn app(
        out: W,
        name: &str,
        rank_count: usize,
        regions: &[String],
        contexts: &[String],
        spec: ChunkSpec,
    ) -> io::Result<Self> {
        Self::new(
            out,
            PayloadKind::App,
            name,
            rank_count,
            regions,
            contexts,
            spec,
        )
    }

    /// Starts a reduced-trace container (header + preamble chunk).
    pub fn reduced(
        out: W,
        name: &str,
        rank_count: usize,
        regions: &[String],
        contexts: &[String],
        spec: ChunkSpec,
    ) -> io::Result<Self> {
        Self::new(
            out,
            PayloadKind::Reduced,
            name,
            rank_count,
            regions,
            contexts,
            spec,
        )
    }

    fn state_error(what: &str) -> io::Error {
        io::Error::other(format!("container writer misuse: {what}"))
    }

    /// Writes the buffered items as one framed chunk of `kind`,
    /// compressing the payload under the spec's codec when that makes it
    /// smaller (the chunk's codec byte records what actually happened).
    fn flush_chunk(&mut self, kind: ChunkKind) -> io::Result<()> {
        if self.items_in_chunk == 0 {
            return Ok(());
        }
        self.payload.clear();
        varint_write_u64(&mut self.payload, self.items_in_chunk);
        self.payload.extend_from_slice(&self.body);
        let payload = &self.payload;
        // The codec byte actually written (after the raw fallback decided)
        // and the stored payload length, for the per-codec counters.
        let (stored_codec, stored_len) = if self.spec.codec == Codec::None {
            write_chunk(&mut self.out, kind, Codec::None, payload)?;
            (Codec::None, payload.len())
        } else {
            // The encoder saw the very items the payload holds, so this
            // cannot fail short of a time stamp no reader would accept;
            // surface it as io::Error rather than panicking.
            let packed = self
                .encoder
                .finish(kind.payload_class(), payload, &mut self.obs)
                .map_err(|e| io::Error::other(format!("chunk compression failed: {e}")))?;
            if packed.len() < payload.len() {
                write_chunk(&mut self.out, kind, self.spec.codec, packed)?;
                (self.spec.codec, packed.len())
            } else {
                self.obs.add(trace_obs::names::CHUNK_COMPRESS_FALLBACKS, 1);
                write_chunk(&mut self.out, kind, Codec::None, payload)?;
                (Codec::None, payload.len())
            }
        };
        if self.obs.is_enabled() {
            let name = stored_codec.name();
            self.obs.add(trace_obs::names::CHUNK_WRITES, 1);
            self.obs.add(trace_obs::names::codec_chunks(name), 1);
            self.obs.add(
                trace_obs::names::codec_raw_bytes(name),
                payload.len() as u64,
            );
            self.obs.add(
                trace_obs::names::codec_stored_bytes(name),
                stored_len as u64,
            );
        }
        let Some(section) = self.section.as_mut() else {
            return Err(Self::state_error("chunk flushed outside a rank section"));
        };
        section.chunks += 1;
        self.body.clear();
        self.items_in_chunk = 0;
        self.segments_in_chunk = 0;
        self.prev_time = Time::ZERO;
        Ok(())
    }

    fn pending_chunk_kind(&self) -> ChunkKind {
        match self.kind {
            PayloadKind::App => ChunkKind::Records,
            PayloadKind::Reduced => {
                if self.section.as_ref().is_some_and(|s| s.exec_phase) {
                    ChunkKind::Execs
                } else {
                    ChunkKind::Stored
                }
            }
        }
    }

    /// Opens a rank section.
    pub fn begin_rank(&mut self, rank: Rank) -> io::Result<()> {
        if self.section.is_some() {
            return Err(Self::state_error("begin_rank inside an open section"));
        }
        let offset = self.out.written;
        let mut payload = Vec::new();
        varint_write_u64(&mut payload, u64::from(rank.as_u32()));
        write_chunk(&mut self.out, ChunkKind::RankBegin, Codec::None, &payload)?;
        self.section = Some(SectionState {
            rank,
            offset,
            chunks: 0,
            records: 0,
            segments: 0,
            events: 0,
            exec_phase: false,
        });
        Ok(())
    }

    /// Appends one raw trace record to the open rank section (app payloads
    /// only).  Chunks are cut at segment boundaries.
    pub fn record(&mut self, record: &TraceRecord) -> io::Result<()> {
        if self.kind != PayloadKind::App {
            return Err(Self::state_error("record on a reduced container"));
        }
        let Some(section) = self.section.as_mut() else {
            return Err(Self::state_error("record outside a rank section"));
        };
        self.prev_time = write_record(&mut self.body, record, self.prev_time);
        self.encoder.record(record);
        self.items_in_chunk += 1;
        section.records += 1;
        match record {
            TraceRecord::Event(_) => section.events += 1,
            TraceRecord::SegmentEnd { .. } => {
                section.segments += 1;
                self.segments_in_chunk += 1;
            }
            TraceRecord::SegmentBegin { .. } => {}
        }
        if self.segments_in_chunk >= self.spec.segments_per_chunk {
            self.flush_chunk(ChunkKind::Records)?;
        }
        Ok(())
    }

    /// Appends one stored representative segment to the open rank section
    /// (reduced payloads only; all stored segments precede all executions).
    pub fn stored(&mut self, stored: &StoredSegment) -> io::Result<()> {
        if self.kind != PayloadKind::Reduced {
            return Err(Self::state_error("stored on an app container"));
        }
        let Some(section) = self.section.as_mut() else {
            return Err(Self::state_error("stored outside a rank section"));
        };
        if section.exec_phase {
            return Err(Self::state_error("stored segment after executions"));
        }
        section.records += 1;
        section.segments += 1;
        write_stored_segment(&mut self.body, stored);
        self.encoder.stored(stored);
        self.items_in_chunk += 1;
        self.segments_in_chunk += 1;
        if self.segments_in_chunk >= self.spec.segments_per_chunk {
            self.flush_chunk(ChunkKind::Stored)?;
        }
        Ok(())
    }

    /// Appends one segment execution to the open rank section (reduced
    /// payloads only).
    pub fn exec(&mut self, exec: &SegmentExec) -> io::Result<()> {
        if self.kind != PayloadKind::Reduced {
            return Err(Self::state_error("exec on an app container"));
        }
        let Some(section) = self.section.as_ref() else {
            return Err(Self::state_error("exec outside a rank section"));
        };
        if !section.exec_phase {
            self.flush_chunk(ChunkKind::Stored)?;
            if let Some(section) = self.section.as_mut() {
                section.exec_phase = true;
            }
        }
        self.prev_time = write_exec(&mut self.body, exec, self.prev_time);
        self.encoder.exec(exec);
        self.items_in_chunk += 1;
        let Some(section) = self.section.as_mut() else {
            return Err(Self::state_error("exec outside a rank section"));
        };
        section.records += 1;
        section.events += 1;
        if self.items_in_chunk >= self.spec.execs_per_chunk as u64 {
            self.flush_chunk(ChunkKind::Execs)?;
        }
        Ok(())
    }

    /// Closes the open rank section, flushing the partial chunk and writing
    /// the `RANK_END` summary.
    pub fn end_rank(&mut self) -> io::Result<()> {
        let kind = self.pending_chunk_kind();
        // An empty pending chunk makes this a no-op, so a missing section
        // falls through to the state error below.
        self.flush_chunk(kind)?;
        let Some(section) = self.section.take() else {
            return Err(Self::state_error("end_rank outside a rank section"));
        };
        let mut payload = Vec::new();
        varint_write_u64(&mut payload, u64::from(section.rank.as_u32()));
        varint_write_u64(&mut payload, section.chunks);
        varint_write_u64(&mut payload, section.records);
        varint_write_u64(&mut payload, section.segments);
        varint_write_u64(&mut payload, section.events);
        write_chunk(&mut self.out, ChunkKind::RankEnd, Codec::None, &payload)?;
        self.sections.push(RankSectionEntry {
            rank: section.rank,
            offset: section.offset,
            chunks: section.chunks,
            records: section.records,
            segments: section.segments,
            events: section.events,
        });
        Ok(())
    }

    /// Writes the index chunk and trailer, flushes, and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        if self.section.is_some() {
            return Err(Self::state_error("finish inside an open rank section"));
        }
        if self.sections.len() != self.declared_ranks {
            return Err(Self::state_error(&format!(
                "{} rank sections written, preamble declares {}",
                self.sections.len(),
                self.declared_ranks
            )));
        }
        let index_offset = self.out.written;
        let mut payload = Vec::new();
        varint_write_u64(&mut payload, self.sections.len() as u64);
        for entry in &self.sections {
            varint_write_u64(&mut payload, u64::from(entry.rank.as_u32()));
            varint_write_u64(&mut payload, entry.offset);
            varint_write_u64(&mut payload, entry.chunks);
            varint_write_u64(&mut payload, entry.records);
            varint_write_u64(&mut payload, entry.segments);
            varint_write_u64(&mut payload, entry.events);
        }
        write_chunk(&mut self.out, ChunkKind::Index, Codec::None, &payload)?;
        self.out.write_all(&index_offset.to_le_bytes())?;
        self.out.write_all(&INDEX_MAGIC)?;
        self.out.flush()?;
        Ok(self.out.inner)
    }
}

/// Writes `app` as a chunked container to `out` and returns the sink.  The
/// writer records per-chunk compression spans and chunk/codec byte counters
/// into `obs` (see [`ChunkWriter::set_obs`]; pass
/// [`trace_obs::ObsShard::disabled`] for none) — the bytes do not depend on
/// it.
pub fn write_app_container<W: Write>(
    out: W,
    app: &AppTrace,
    spec: ChunkSpec,
    obs: trace_obs::ObsShard,
) -> io::Result<W> {
    let mut writer = ChunkWriter::app(
        out,
        &app.name,
        app.rank_count(),
        app.regions.names(),
        app.contexts.names(),
        spec,
    )?;
    writer.set_obs(obs);
    for rank in &app.ranks {
        writer.begin_rank(rank.rank)?;
        for record in &rank.records {
            writer.record(record)?;
        }
        writer.end_rank()?;
    }
    writer.finish()
}

/// Writes `reduced` as a chunked container to `out` and returns the sink,
/// recording into `obs` like [`write_app_container`].
pub fn write_reduced_container<W: Write>(
    out: W,
    reduced: &ReducedAppTrace,
    spec: ChunkSpec,
    obs: trace_obs::ObsShard,
) -> io::Result<W> {
    let mut writer = ChunkWriter::reduced(
        out,
        &reduced.name,
        reduced.rank_count(),
        reduced.regions.names(),
        reduced.contexts.names(),
        spec,
    )?;
    writer.set_obs(obs);
    for rank in &reduced.ranks {
        writer.begin_rank(rank.rank)?;
        for stored in &rank.stored {
            writer.stored(stored)?;
        }
        for exec in &rank.execs {
            writer.exec(exec)?;
        }
        writer.end_rank()?;
    }
    writer.finish()
}

/// Encodes `app` as a chunked container into a byte buffer.
#[allow(clippy::expect_used)]
pub fn encode_app_container(app: &AppTrace, spec: ChunkSpec) -> Vec<u8> {
    write_app_container(Vec::new(), app, spec, trace_obs::ObsShard::disabled())
        // lint:allow(expect) -- Vec<u8> as a Write sink is infallible and the writer is driven in order
        .expect("writing to a Vec cannot fail")
}

/// Encodes `reduced` as a chunked container into a byte buffer.
#[allow(clippy::expect_used)]
pub fn encode_reduced_container(reduced: &ReducedAppTrace, spec: ChunkSpec) -> Vec<u8> {
    write_reduced_container(Vec::new(), reduced, spec, trace_obs::ObsShard::disabled())
        // lint:allow(expect) -- Vec<u8> as a Write sink is infallible and the writer is driven in order
        .expect("writing to a Vec cannot fail")
}
