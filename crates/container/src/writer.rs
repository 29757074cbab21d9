//! Streaming container writer.
//!
//! [`ChunkWriter`] emits a `.trc` v2 container incrementally over any
//! [`std::io::Write`] sink: records (or stored segments / executions) are
//! encoded into an in-memory chunk buffer and flushed as a framed,
//! CRC-checked chunk whenever the configured chunk size is reached, so the
//! writer's resident state is O(one chunk) regardless of trace length.
//! Chunk offsets are tracked as bytes go out, which is what lets the
//! seekable index footer be written at the end without ever seeking.
//!
//! The section writer has two halves.  Rank sections are
//! position-independent (only `INDEX` holds absolute offsets), so a worker
//! encodes each section it claims into a buffer of its own
//! ([`SectionEncoder`]), and the calling thread stitches finished sections
//! into the sink in rank order ([`ChunkWriter::stitch`]).
//! [`write_app_container`] / `write_reduced_container` run the two on
//! the workspace's one ordered fan-out, [`trace_obs::ordered()`], over a
//! whole trace's ranks.  `trace_stream`'s pipeline uses the halves
//! directly: each worker encodes the section it just read (`convert`) or
//! reduced (`reduce`).

use std::io::{self, Write};

use trace_compress::{ChunkEncoder, Codec};
use trace_model::codec::varint::write_u64 as varint_write_u64;
use trace_model::codec::{
    write_exec, write_record, write_stored_segment, write_string, write_string_table,
};
use trace_model::{AppTrace, Rank, ReducedAppTrace, SegmentExec, StoredSegment, Time, TraceRecord};
use trace_model::{RankTrace, ReducedRankTrace};

use crate::index::{write_index, RankSectionEntry};
use crate::layout::{write_chunk, write_header, ChunkKind, PayloadKind};

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
    /// Where chunk flushes record: live only on section encoders.
    obs: trace_obs::ObsShard,
}

impl<W: Write> ChunkWriter<W> {
    /// A writer over `out` that has written nothing yet, not even a header.
    fn bare(out: W, kind: PayloadKind, declared_ranks: usize, spec: ChunkSpec) -> Self {
        ChunkWriter {
            out: CountingWriter {
                inner: out,
                written: 0,
            },
            kind,
            spec: ChunkSpec {
                segments_per_chunk: spec.segments_per_chunk.max(1),
                execs_per_chunk: spec.execs_per_chunk.max(1),
                codec: spec.codec,
            },
            declared_ranks,
            body: Vec::new(),
            payload: Vec::new(),
            encoder: ChunkEncoder::new(spec.codec),
            items_in_chunk: 0,
            segments_in_chunk: 0,
            prev_time: Time::ZERO,
            section: None,
            sections: Vec::new(),
            obs: trace_obs::ObsShard::disabled(),
        }
    }

    fn new(
        out: W,
        kind: PayloadKind,
        name: &str,
        rank_count: usize,
        regions: &[String],
        contexts: &[String],
        spec: ChunkSpec,
    ) -> io::Result<Self> {
        let mut writer = Self::bare(out, kind, rank_count, spec);
        write_header(&mut writer.out, kind)?;
        let mut preamble = Vec::new();
        write_string(&mut preamble, name);
        write_string_table(&mut preamble, regions);
        write_string_table(&mut preamble, contexts);
        varint_write_u64(&mut preamble, rank_count as u64);
        write_chunk(&mut writer.out, ChunkKind::Preamble, Codec::None, &preamble)?;
        Ok(writer)
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
        write_index(&mut self.out, index_offset, &self.sections)?;
        self.out.flush()?;
        Ok(self.out.inner)
    }
}

impl<W: Write> ChunkWriter<W> {
    /// An encoder of whole rank sections for this writer's container,
    /// recording its chunk flushes into `obs`: a worker's half of the
    /// section writer, [`ChunkWriter::stitch`] is the calling thread's.
    pub fn section_encoder(&self, obs: trace_obs::ObsShard) -> SectionEncoder {
        SectionEncoder(ChunkWriter {
            obs,
            ..ChunkWriter::bare(Vec::new(), self.kind, 0, self.spec)
        })
    }

    /// Writes `section` as the container's next rank section: the calling
    /// thread's half of the section writer, called in rank order.
    pub fn stitch(&mut self, section: EncodedSection) -> io::Result<()> {
        let EncodedSection { bytes, mut entry } = section;
        entry.offset += self.out.written;
        self.out.write_all(&bytes)?;
        self.sections.push(entry);
        Ok(())
    }

    /// Writes `rank` as one `begin_rank` … `end_rank` section of an app
    /// container.
    fn app_rank(&mut self, rank: &RankTrace) -> io::Result<()> {
        self.begin_rank(rank.rank)?;
        for record in &rank.records {
            self.record(record)?;
        }
        self.end_rank()
    }

    /// Writes `rank` as one `begin_rank` … `end_rank` section of a reduced
    /// container.
    pub fn reduced_rank(&mut self, rank: &ReducedRankTrace) -> io::Result<()> {
        self.begin_rank(rank.rank)?;
        for stored in &rank.stored {
            self.stored(stored)?;
        }
        for exec in &rank.execs {
            self.exec(exec)?;
        }
        self.end_rank()
    }
}

/// A worker's encoder of rank sections, each into a buffer of its own.
/// Rank sections are position-independent (only `INDEX` holds absolute
/// offsets), so sections encoded on any thread in any order stitch into
/// one container ([`ChunkWriter::stitch`]).
pub struct SectionEncoder(ChunkWriter<Vec<u8>>);

/// One encoded rank section, for [`ChunkWriter::stitch`]: its bytes and
/// its index entry, whose offset is from the section's start.
pub struct EncodedSection {
    bytes: Vec<u8>,
    entry: RankSectionEntry,
}

impl SectionEncoder {
    /// Encodes one rank section: `write` makes the section's
    /// `begin_rank` … `end_rank` calls on the encoder's writer, and its
    /// error is the encode's.
    pub fn encode<E: From<io::Error>>(
        &mut self,
        write: impl FnOnce(&mut ChunkWriter<Vec<u8>>) -> Result<(), E>,
    ) -> Result<EncodedSection, E> {
        let writer = &mut self.0;
        write(writer)?;
        // Hand back the section just closed, leaving the writer empty.
        let misuse = ChunkWriter::<Vec<u8>>::state_error;
        let entry = writer.sections.pop().ok_or_else(|| misuse("no section"))?;
        if !writer.sections.is_empty() {
            return Err(misuse("more than one section encoded at once").into());
        }
        writer.out.written = 0;
        let bytes = std::mem::take(&mut writer.out.inner);
        Ok(EncodedSection { bytes, entry })
    }
}

/// One section encoder per core: the worker count of every container
/// write.
pub fn section_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Writes `ranks` as the rank sections of `writer`'s container on up to
/// `workers` threads (never more than there are ranks), then finishes it.
/// Each worker encodes the sections it claims with `encode` into a
/// [`SectionEncoder`] of its own, recording into a shard of `recorder`,
/// and the calling thread stitches each into the sink as soon as it is
/// next in rank order.
fn write_slice<W: Write, R: Sync>(
    mut writer: ChunkWriter<W>,
    ranks: &[R],
    recorder: &trace_obs::Recorder,
    workers: usize,
    encode: impl Fn(&mut ChunkWriter<Vec<u8>>, &R) -> io::Result<()> + Sync,
) -> io::Result<W> {
    let encoders = (0..workers.clamp(1, ranks.len().max(1)))
        .map(|_| writer.section_encoder(recorder.shard()))
        .collect();
    let misuse = ChunkWriter::<Vec<u8>>::state_error;
    trace_obs::ordered(
        encoders,
        ranks.len(),
        |encoder: &mut SectionEncoder, index| {
            let rank = ranks.get(index).ok_or_else(|| misuse("no such rank"))?;
            encoder.encode(|section| encode(section, rank))
        },
        |_| io::Result::Ok(()),
        |_, section| writer.stitch(section),
    )?;
    writer.finish()
}

/// Writes `app` as a chunked container to `out` and returns the sink, its
/// rank sections encoded on up to one thread per core.  Each worker records
/// its per-chunk compression spans and chunk/codec byte counters into a
/// shard of `recorder` (pass [`trace_obs::Recorder::disabled`] for none);
/// neither the bytes nor the counters depend on it or on the thread count.
pub fn write_app_container<W: Write>(
    out: W,
    app: &AppTrace,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> io::Result<W> {
    let (regions, contexts) = (app.regions.names(), app.contexts.names());
    let writer = ChunkWriter::app(out, &app.name, app.rank_count(), regions, contexts, spec)?;
    write_slice(
        writer,
        &app.ranks,
        recorder,
        section_workers(),
        ChunkWriter::app_rank,
    )
}

/// Writes `reduced` as a chunked container to `out` and returns the sink,
/// like [`write_app_container`].
pub(crate) fn write_reduced_container<W: Write>(
    out: W,
    reduced: &ReducedAppTrace,
    spec: ChunkSpec,
    recorder: &trace_obs::Recorder,
) -> io::Result<W> {
    let (regions, contexts) = (reduced.regions.names(), reduced.contexts.names());
    let (name, ranks) = (&reduced.name, reduced.rank_count());
    let writer = ChunkWriter::reduced(out, name, ranks, regions, contexts, spec)?;
    let workers = section_workers();
    write_slice(
        writer,
        &reduced.ranks,
        recorder,
        workers,
        ChunkWriter::reduced_rank,
    )
}

/// Encodes `app` as a chunked container into a byte buffer.
#[allow(clippy::expect_used)]
pub fn encode_app_container(app: &AppTrace, spec: ChunkSpec) -> Vec<u8> {
    write_app_container(Vec::new(), app, spec, &trace_obs::Recorder::disabled())
        // lint:allow(expect) -- Vec<u8> as a Write sink is infallible and the writer is driven in order
        .expect("writing to a Vec cannot fail")
}

/// Encodes `reduced` as a chunked container into a byte buffer.
#[allow(clippy::expect_used)]
pub fn encode_reduced_container(reduced: &ReducedAppTrace, spec: ChunkSpec) -> Vec<u8> {
    write_reduced_container(Vec::new(), reduced, spec, &trace_obs::Recorder::disabled())
        // lint:allow(expect) -- Vec<u8> as a Write sink is infallible and the writer is driven in order
        .expect("writing to a Vec cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_obs::{ManualClock, Recorder, Stage};
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    /// The reference: the public streaming writer, one section after
    /// another on the calling thread.
    fn app_section_at_a_time(app: &AppTrace, spec: ChunkSpec) -> Vec<u8> {
        let (regions, contexts) = (app.regions.names(), app.contexts.names());
        let mut writer = ChunkWriter::app(
            Vec::new(),
            &app.name,
            app.rank_count(),
            regions,
            contexts,
            spec,
        )
        .unwrap();
        for rank in &app.ranks {
            writer.begin_rank(rank.rank).unwrap();
            for record in &rank.records {
                writer.record(record).unwrap();
            }
            writer.end_rank().unwrap();
        }
        writer.finish().unwrap()
    }

    fn reduced_section_at_a_time(reduced: &ReducedAppTrace, spec: ChunkSpec) -> Vec<u8> {
        let (regions, contexts) = (reduced.regions.names(), reduced.contexts.names());
        let (name, ranks) = (&reduced.name, reduced.rank_count());
        let mut writer =
            ChunkWriter::reduced(Vec::new(), name, ranks, regions, contexts, spec).unwrap();
        for rank in &reduced.ranks {
            writer.begin_rank(rank.rank).unwrap();
            for stored in &rank.stored {
                writer.stored(stored).unwrap();
            }
            for exec in &rank.execs {
                writer.exec(exec).unwrap();
            }
            writer.end_rank().unwrap();
        }
        writer.finish().unwrap()
    }

    /// [`write_app_container`] on `workers` threads.
    fn write_app<W: Write>(
        out: W,
        app: &AppTrace,
        spec: ChunkSpec,
        recorder: &Recorder,
        workers: usize,
    ) -> io::Result<W> {
        let (regions, contexts) = (app.regions.names(), app.contexts.names());
        let writer = ChunkWriter::app(out, &app.name, app.rank_count(), regions, contexts, spec)?;
        write_slice(writer, &app.ranks, recorder, workers, ChunkWriter::app_rank)
    }

    /// `write_reduced_container` on `workers` threads.
    fn write_reduced<W: Write>(
        out: W,
        reduced: &ReducedAppTrace,
        spec: ChunkSpec,
        recorder: &Recorder,
        workers: usize,
    ) -> io::Result<W> {
        let (regions, contexts) = (reduced.regions.names(), reduced.contexts.names());
        let (name, ranks) = (&reduced.name, reduced.rank_count());
        let writer = ChunkWriter::reduced(out, name, ranks, regions, contexts, spec)?;
        write_slice(
            writer,
            &reduced.ranks,
            recorder,
            workers,
            ChunkWriter::reduced_rank,
        )
    }

    /// Both codecs the CLI writes, at one segment per chunk and at the
    /// default 128.
    fn specs() -> impl Iterator<Item = ChunkSpec> {
        [Codec::None, Codec::DeltaLz]
            .into_iter()
            .flat_map(|codec| [1, 128].map(|n| ChunkSpec::with_segments(n).codec(codec)))
    }

    /// One worker, two, three, and more workers than ranks.
    fn worker_counts(ranks: usize) -> [usize; 4] {
        [1, 2, 3, ranks + 3]
    }

    fn assert_app_bytes_independent_of_workers(app: &AppTrace) {
        let off = Recorder::disabled();
        for spec in specs() {
            let expected = app_section_at_a_time(app, spec);
            for workers in worker_counts(app.ranks.len()) {
                let bytes = write_app(Vec::new(), app, spec, &off, workers).unwrap();
                assert!(bytes == expected, "{} {spec:?} {workers} workers", app.name);
            }
        }
    }

    fn assert_reduced_bytes_independent_of_workers(reduced: &ReducedAppTrace) {
        let off = Recorder::disabled();
        for spec in specs() {
            let expected = reduced_section_at_a_time(reduced, spec);
            for workers in worker_counts(reduced.ranks.len()) {
                let bytes = write_reduced(Vec::new(), reduced, spec, &off, workers).unwrap();
                assert!(
                    bytes == expected,
                    "{} {spec:?} {workers} workers",
                    reduced.name
                );
            }
        }
    }

    #[test]
    fn parallel_sections_equal_a_section_at_a_time_writer_on_every_tiny_workload() {
        for workload in Workload::all(SizePreset::Tiny) {
            let app = workload.generate();
            assert_app_bytes_independent_of_workers(&app);
            let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
            assert_reduced_bytes_independent_of_workers(&reduced);
        }
    }

    #[test]
    fn sections_finished_out_of_rank_order_are_stitched_in_rank_order() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
        // Whichever of the two workers claims rank 0 waits until the other
        // has encoded rank 1, so rank 1's section is finished first.
        let (rank1_done, wait_for_rank1) = std::sync::mpsc::sync_channel(1);
        let wait_for_rank1 = std::sync::Mutex::new(wait_for_rank1);
        let held_back = |writer: &mut ChunkWriter<Vec<u8>>, rank: &RankTrace| {
            if rank.rank == app.ranks[0].rank {
                wait_for_rank1.lock().unwrap().recv().unwrap();
            }
            writer.app_rank(rank)?;
            if rank.rank == app.ranks[1].rank {
                rank1_done.send(()).unwrap();
            }
            Ok(())
        };
        let (regions, contexts) = (app.regions.names(), app.contexts.names());
        let writer = ChunkWriter::app(
            Vec::new(),
            &app.name,
            app.rank_count(),
            regions,
            contexts,
            spec,
        );
        let off = Recorder::disabled();
        let bytes = write_slice(writer.unwrap(), &app.ranks, &off, 2, held_back).unwrap();
        assert!(bytes == app_section_at_a_time(&app, spec));
    }

    #[test]
    fn no_rank_one_rank_and_an_empty_rank_encode_the_same_on_any_worker_count() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        let mut empty_rank = app.clone();
        empty_rank.ranks[1].records.clear();
        let mut empty_reduced_rank = reduced.clone();
        empty_reduced_rank.ranks[1].stored.clear();
        empty_reduced_rank.ranks[1].execs.clear();
        for ranks in [0, 1] {
            assert_app_bytes_independent_of_workers(&AppTrace {
                ranks: app.ranks[..ranks].to_vec(),
                ..app.clone()
            });
            assert_reduced_bytes_independent_of_workers(&ReducedAppTrace {
                ranks: reduced.ranks[..ranks].to_vec(),
                ..reduced.clone()
            });
        }
        assert_app_bytes_independent_of_workers(&empty_rank);
        assert_reduced_bytes_independent_of_workers(&empty_reduced_rank);
        let bytes = encode_app_container(&empty_rank, ChunkSpec::with_codec(Codec::DeltaLz));
        assert_eq!(crate::read_app_container(&bytes[..]).unwrap(), empty_rank);
    }

    #[test]
    fn recording_counters_and_spans_do_not_depend_on_the_worker_count() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let spec = ChunkSpec::with_segments(4).codec(Codec::DeltaLz);
        let expected = app_section_at_a_time(&app, spec);
        let mut one_worker = None;
        for workers in worker_counts(app.ranks.len()) {
            let recorder = Recorder::with_clock(ManualClock::new(0));
            let bytes = write_app(Vec::new(), &app, spec, &recorder, workers).unwrap();
            assert!(bytes == expected, "{workers} workers");
            let report = recorder.report();
            let writes = report.counters[trace_obs::names::CHUNK_WRITES];
            let compress_spans = report.spans.iter().filter(|s| s.stage == Stage::Compress);
            assert_eq!(compress_spans.count() as u64, writes, "{workers} workers");
            let counters = one_worker.get_or_insert_with(|| report.counters.clone());
            assert_eq!(&report.counters, counters, "{workers} workers");
        }
    }

    /// A sink that takes `budget` bytes and then fails every write.
    #[derive(Debug)]
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_sink_failing_mid_stream_ends_every_worker_with_its_error() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
        let off = Recorder::disabled();
        let app_len = encode_app_container(&app, spec).len();
        let reduced_len = encode_reduced_container(&reduced, spec).len();
        for workers in [2, 3, app.ranks.len() + 3] {
            for budget in [0, 7, app_len / 3, app_len / 2, app_len - 13, app_len - 1] {
                let err = write_app(FailAfter { budget }, &app, spec, &off, workers).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    "sink full",
                    "{workers} workers, {budget} bytes"
                );
            }
            for budget in [0, reduced_len / 2, reduced_len - 1] {
                let sink = FailAfter { budget };
                let err = write_reduced(sink, &reduced, spec, &off, workers).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    "sink full",
                    "{workers} workers, {budget} bytes"
                );
            }
            let sink = FailAfter { budget: app_len };
            assert!(write_app(sink, &app, spec, &off, workers).is_ok());
        }
    }
}
