//! Streaming and index-sharded reduction of chunked binary containers.
//!
//! [`ContainerSource`] adapts `trace_container::ChunkReader` to the
//! [`AppItemSource`] trait, so the same online reduction loop that drives
//! the text parser consumes `.trc` v2 files with O(one chunk) resident
//! payload.  In [`reduce_container_file`] the container's index footer
//! maps every rank section to a byte offset, so workers *seek* straight to
//! their sections, where text workers seek to byte ranges and pass the
//! bytes up to their first section: file-level parallelism with no
//! redundant reads.  [`crate::convert_container`]
//! copies a container's sections the same way, and [`load_container_file`]
//! collects them into a whole trace.  All three open the file's sections
//! one way, which holds the index footer to the file: the sections must
//! tile it, and each is read against its entry, so every worker count
//! accepts exactly the files the sequential scan accepts.
//! [`reduce_any_file`] autodetects text and chunked v2 inputs by their
//! magic bytes, and refuses a retired monolithic v1 file with the
//! container's typed error.  Every driver here supplies only its source
//! and its stage; [`crate::shard`]'s fan-out runs them.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use trace_container::layout::is_container_magic;
use trace_container::PayloadKind;
use trace_container::{
    read_app_container, read_index, ChunkReader, ContainerError, ContainerIndex, SectionSpan,
};
use trace_model::{AppItem, AppTrace, Rank, RankTrace, TraceRecord, TraceTables};
use trace_obs::Recorder;
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::reduce::{copy_records, open_section, Reduce, StreamReduction};
use crate::shard::{fan_out, one_worker, text_ranges, Ran, Stage};
use crate::sink::{Collect, OutputFormat, Sink, TraceWriter, WrittenReduction};
use crate::source::AppItemSource;

/// [`AppItemSource`] over a chunked binary container.
pub struct ContainerSource<R> {
    inner: ChunkReader<R>,
}

impl<R: Read> ContainerSource<R> {
    /// Opens a whole app-trace container (header + preamble).
    pub fn new(reader: R) -> Result<Self, StreamError> {
        Ok(ContainerSource {
            inner: ChunkReader::new(reader)?,
        })
    }

    /// Resumes at the one rank section `span` places (see
    /// [`ChunkReader::section`]).
    pub fn section(reader: R, span: SectionSpan) -> Self {
        ContainerSource {
            inner: ChunkReader::section(reader, span),
        }
    }

    /// The preamble tables of a whole-file source; a container that
    /// reaches its first rank section without a preamble is malformed.
    pub fn tables(&self) -> Result<TraceTables, StreamError> {
        let missing = ContainerError::UnexpectedChunk {
            expected: "a PREAMBLE chunk",
            found: "no preamble before the first rank section",
        };
        self.inner.preamble().cloned().ok_or(missing.into())
    }

    /// Attaches an observability shard to the underlying chunk reader, so
    /// chunk reads record `chunk_io`/`compress`/`parse` spans and counters.
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.inner.set_obs(obs);
    }
}

impl<R: Read> AppItemSource for ContainerSource<R> {
    fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        Ok(self.inner.next_item()?)
    }

    fn skip_current_rank(&mut self) -> Result<Rank, StreamError> {
        Ok(self.inner.skip_current_rank()?)
    }

    fn take_records(&mut self) -> &[TraceRecord] {
        self.inner.take_records()
    }

    /// See [`ChunkReader::peak_chunk_bytes`].
    fn peak_chunk_bytes(&self) -> usize {
        self.inner.peak_chunk_bytes()
    }
}

/// Reduces an app-trace container stream in one pass with bounded memory:
/// the resident state is the stored representatives, at most one in-flight
/// segment, and one decoded chunk.
pub fn reduce_container_stream<R: Read + Send>(
    reducer: &Reducer,
    reader: R,
) -> Result<StreamReduction, StreamError> {
    let stage = Reduce::opening(reducer, Collect::open);
    container_stream(reducer.recorder(), reader, stage).map(StreamReduction::collected)
}

/// Runs the stage `stage` opens on the header of the container `reader`
/// holds over its rank sections, in order, on one worker, with the
/// source's chunk reads recorded in `recorder`.
fn container_stream<G: Stage, R: Read + Send>(
    recorder: &Recorder,
    reader: R,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<Ran<G>, StreamError> {
    let mut source = ContainerSource::new(reader)?;
    let tables = source.tables()?;
    source.set_obs(recorder.shard());
    let mut stage = stage(&tables)?;
    let n = tables.declared_ranks;
    let workers = one_worker(recorder, &mut stage, source, (0, n))?;
    Ok((stage, workers))
}

/// The rank sections of an app-trace container file, placed by its index
/// footer for workers to seek to: the one way the index-sharded reduction,
/// the conversion and the parallel load open a file.
struct Sections {
    index: ContainerIndex,
    tables: TraceTables,
}

impl Sections {
    /// Opens the sections of the container at `path` for `workers`
    /// workers, or `None` where the sequential scan reads the file: on one
    /// worker, and where the index cannot be read.  The index must list the
    /// declared number of sections, tiling the file in order from where the
    /// preamble ends, before any section is read or reserved.
    fn open(path: &Path, workers: usize) -> Result<Option<Sections>, StreamError> {
        if workers <= 1 {
            return Ok(None);
        }
        let mut file = File::open(path)?;
        let Ok(index) = read_index(&mut file) else {
            return Ok(None);
        };
        // A reduced container is refused here, as the sequential scan
        // refuses it.
        file.seek(SeekFrom::Start(0))?;
        let source = ContainerSource::new(BufReader::new(file))?;
        let tables = source.tables()?;
        // The sequential reader checks these when it reaches the INDEX
        // chunk; seeking workers never scan that far, so a short index or
        // one that skips bytes must be refused here, or ranks would
        // silently drop from the output.
        if index.sections.len() != tables.declared_ranks {
            return Err(StreamError::Container(ContainerError::CountMismatch {
                what: "rank sections",
                declared: tables.declared_ranks as u64,
                found: index.sections.len() as u64,
            }));
        }
        index.check_tiling(source.inner.offset())?;
        Ok(Some(Sections { index, tables }))
    }

    /// Runs `stage` over every section of the file at `path` on up to
    /// `workers` workers (never more than there are sections), each
    /// seeking to the sections it claims through a handle of its own, with
    /// their chunk reads recorded in `recorder`.  Each section is read
    /// against its entry; a failure is a [`StreamError::Section`], which
    /// says where the section is.
    fn run<G: Stage>(
        &self,
        path: &Path,
        workers: usize,
        recorder: &Recorder,
        stage: &mut G,
    ) -> Result<Vec<G::Worker>, StreamError> {
        let n = self.index.sections.len();
        let handles = (0..workers.min(n).max(1)).map(|_| File::open(path));
        let handles = handles.collect::<io::Result<_>>()?;
        let section = |worker: &mut G::Worker, file: &mut File, index| {
            let Some(span) = self.index.span(index) else {
                return Err(StreamError::Protocol("a section the index does not list"));
            };
            let mut read = || {
                // `&File` implements `Read + Seek`, so every section gets a
                // fresh buffered cursor over the worker's single handle.
                let mut handle = &*file;
                handle.seek(SeekFrom::Start(span.entry.offset))?;
                let mut source = ContainerSource::section(BufReader::new(handle), span);
                source.set_obs(recorder.shard());
                let section = G::section(worker, &mut source, index)?;
                G::read_out(worker, &source);
                Ok(section)
            };
            read().map_err(|error| StreamError::Section {
                index,
                rank: span.entry.rank,
                offset: span.entry.offset,
                error: Box::new(error),
            })
        };
        fan_out(recorder, stage, handles, (0, n), section, |_, _| Ok(()))
    }
}

/// Runs the stage `stage` opens on the header of the container file at
/// `path` over its rank sections on up to `workers` workers, which seek to
/// the sections they claim by the index footer.  One worker, or a file
/// whose index trailer cannot be read, is the sequential scan.
pub(crate) fn container_file<G: Stage>(
    recorder: &Recorder,
    path: &Path,
    workers: usize,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<Ran<G>, StreamError> {
    let Some(sections) = Sections::open(path, workers)? else {
        return container_stream(recorder, BufReader::new(File::open(path)?), stage);
    };
    let mut stage = stage(&sections.tables)?;
    let workers = sections.run(path, workers, recorder, &mut stage)?;
    Ok((stage, workers))
}

/// Reduces a container file with `shards` workers, each claiming rank
/// sections as it falls free and seeking straight to them via the index
/// footer.  Output is bit-identical to the sequential
/// [`reduce_container_stream`]; only wall-clock time changes.  One shard
/// *is* that sequential scan: it needs no index footer and validates every
/// chunk up to the trailer.  So is a file whose index trailer cannot be
/// read, a cut one say: the scan says what is wrong with it.  A failing
/// section is a [`StreamError::Section`], which says where it is.
pub fn reduce_container_file(
    reducer: &Reducer,
    path: impl AsRef<Path>,
    shards: usize,
) -> Result<StreamReduction, StreamError> {
    let stage = Reduce::opening(reducer, Collect::open);
    let run = container_file(reducer.recorder(), path.as_ref(), shards, stage);
    run.map(StreamReduction::collected)
}

/// Loads the whole app trace of a container file on `workers` workers:
/// each claims rank sections as it falls free, seeks to them via the index
/// footer and copies their records, and the calling thread collects the
/// ranks in order.  The trace is the one [`read_app_container`] reads; one
/// worker *is* that sequential collect, and so is a file whose index
/// trailer cannot be read, as in [`reduce_container_file`].  A failing
/// section is a [`StreamError::Section`].
pub fn load_container_file(
    path: impl AsRef<Path>,
    workers: usize,
) -> Result<AppTrace, StreamError> {
    let path = path.as_ref();
    let Some(sections) = Sections::open(path, workers)? else {
        return Ok(read_app_container(BufReader::new(File::open(path)?))?);
    };
    // Every section's records are allocated here and filled by whichever
    // worker claims it, so the trace lives in the calling thread's
    // allocator arena, as it does when loaded in order: ranks a worker
    // allocated would stay in its arena, which the next load on another
    // thread does not reuse.
    let buffers: Vec<_> = (0..sections.index.sections.len())
        .filter_map(|index| sections.index.span(index))
        .map(|span| Mutex::new(Vec::with_capacity(reservation(span))))
        .collect();
    let mut load = Load {
        buffers: &buffers,
        app: sections.tables.app_trace(),
    };
    sections.run(path, workers, &Recorder::disabled(), &mut load)?;
    Ok(load.app)
}

/// The records to reserve for the section `span` places: as many as its
/// entry counts, up to one per byte of the section, since the counts are
/// only checked once the section is read.  The spans tile the file, so
/// the reservations of a load come to at most one record per file byte.
fn reservation(span: SectionSpan) -> usize {
    let bytes = span.end.saturating_sub(span.entry.offset);
    span.entry.records.min(bytes) as usize
}

/// The load's stage: each section's records copied into the buffer
/// reserved for it, and the ranks collected in order.
struct Load<'a> {
    buffers: &'a [Mutex<Vec<TraceRecord>>],
    app: AppTrace,
}

impl<'a> Sink for Load<'a> {
    type Worker = &'a [Mutex<Vec<TraceRecord>>];
    type Section = RankTrace;

    fn worker(&self, _: &Recorder) -> Self::Worker {
        self.buffers
    }

    fn stitch(&mut self, rank: RankTrace) -> Result<(), StreamError> {
        self.app.ranks.push(rank);
        Ok(())
    }
}

impl Stage for Load<'_> {
    fn section<S: AppItemSource>(
        buffers: &mut Self::Worker,
        source: &mut S,
        index: usize,
    ) -> Result<RankTrace, StreamError> {
        let records = buffers.get(index).map(|buffer| {
            std::mem::take(&mut *buffer.lock().unwrap_or_else(PoisonError::into_inner))
        });
        let mut rank = RankTrace {
            rank: open_section(source)?,
            records: records.unwrap_or_default(),
        };
        copy_records(source, |records| {
            rank.records.extend_from_slice(records);
            Ok(())
        })?;
        Ok(rank)
    }
}

/// What kind of trace input a file holds, detected from its magic bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceInputKind {
    /// The line-oriented text format (`TRACEFORMAT 1` header).
    Text,
    /// A chunked v2 container (`TRC2` magic) — streamable and seekable.
    ContainerV2,
}

impl TraceInputKind {
    /// Short human-readable label for CLI output.
    pub fn label(self) -> &'static str {
        match self {
            TraceInputKind::Text => "text",
            TraceInputKind::ContainerV2 => "container v2 (chunked)",
        }
    }
}

/// Detects the input kind from the first four bytes of `path`.  The
/// container decides what its magic bytes are: a retired monolithic v1 file
/// is its typed refusal, and anything that is not a container is treated
/// as text, so text parse errors keep their precise line-level diagnostics.
pub(crate) fn detect_input(path: impl AsRef<Path>) -> Result<TraceInputKind, StreamError> {
    let file = File::open(path.as_ref())?;
    let mut magic = Vec::with_capacity(4);
    file.take(4).read_to_end(&mut magic)?;
    let container = match <[u8; 4]>::try_from(magic.as_slice()) {
        Ok(magic) => is_container_magic(magic)?,
        Err(_) => false,
    };
    Ok(if container {
        TraceInputKind::ContainerV2
    } else {
        TraceInputKind::Text
    })
}

/// Reduces a trace file of either format, autodetected by magic: text and
/// v2 containers both stream with bounded memory (`shards` workers).
pub fn reduce_any_file(
    reducer: &Reducer,
    path: impl AsRef<Path>,
    shards: usize,
) -> Result<(StreamReduction, TraceInputKind), StreamError> {
    let stage = Reduce::opening(reducer, Collect::open);
    let (run, kind) = any_file(reducer.recorder(), path.as_ref(), shards, stage)?;
    Ok((StreamReduction::collected(run), kind))
}

/// Reduces a trace file of either format like [`reduce_any_file`], and
/// writes the reduced trace into `out` in `format` as it goes: each rank is
/// encoded on the worker that reduced it, and the calling thread writes
/// the sections in rank order.  The bytes are those of storing
/// [`reduce_any_file`]'s trace; the trace itself is never assembled.  What
/// is wrong with the input is the error [`reduce_any_file`] gives; a
/// failing `out` is a [`StreamError::Sink`].
pub fn reduce_any_file_into<W: Write>(
    reducer: &Reducer,
    path: impl AsRef<Path>,
    shards: usize,
    out: W,
    format: OutputFormat,
) -> Result<(WrittenReduction<W>, TraceInputKind), StreamError> {
    let writer = |tables: &TraceTables| {
        TraceWriter::open(
            out,
            format,
            PayloadKind::Reduced,
            tables,
            reducer.recorder(),
        )
    };
    let stage = Reduce::opening(reducer, writer);
    let (run, kind) = any_file(reducer.recorder(), path.as_ref(), shards, stage)?;
    Ok((WrittenReduction::finished(run)?, kind))
}

/// Runs the stage `stage` opens on the header of the trace file at `path`,
/// of either format, on up to `workers` workers.
fn any_file<G: Stage>(
    recorder: &Recorder,
    path: &Path,
    workers: usize,
    stage: impl FnOnce(&TraceTables) -> Result<G, StreamError>,
) -> Result<(Ran<G>, TraceInputKind), StreamError> {
    let kind = detect_input(path)?;
    let run = match kind {
        TraceInputKind::Text => {
            let open = |_| File::open(path).map(BufReader::new);
            text_ranges(recorder, workers, open, stage)?
        }
        TraceInputKind::ContainerV2 => container_file(recorder, path, workers, stage)?,
    };
    Ok((run, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::StreamStats;
    use std::io::Cursor;
    use trace_container::{encode_app_container, encode_reduced_container, ChunkSpec, Codec};
    use trace_reduce::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn a_file_reduction_writes_the_bytes_of_storing_the_collected_trace() {
        // Every tiny workload, the methods in turn, both input and output
        // formats, one worker, two, three and more workers than ranks: the
        // bytes are those of storing the trace the in-memory driver,
        // `reduce_app_parallel`, assembles, and the counters are those of
        // collecting the reduction.
        let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
        let workloads = Workload::all(SizePreset::Tiny).into_iter();
        for (workload, method) in workloads.zip(Method::ALL.into_iter().cycle()) {
            let app = workload.generate();
            let reducer = Reducer::with_default_threshold(method);
            let reduced = trace_reduce::reduce_app_parallel(&reducer, &app, 2);
            let formats = [
                (
                    OutputFormat::Container(spec),
                    encode_reduced_container(&reduced, spec),
                ),
                (
                    OutputFormat::Text,
                    trace_format::write_reduced_trace(&reduced).into_bytes(),
                ),
            ];
            let text = temp_file("into.txt", trace_format::write_app_trace(&app).as_bytes());
            let container = temp_file("into.trc", &encode_app_container(&app, spec));
            for path in [&text, &container] {
                for shards in [1, 2, 3, app.rank_count() + 3] {
                    let (collected, kind) = reduce_any_file(&reducer, path, shards).unwrap();
                    let case = format!("{} {method} {} on {shards}", workload.name(), kind.label());
                    assert_eq!(collected.reduced, reduced, "{case}");
                    for (format, expected) in &formats {
                        let case = format!("{case} into {format:?}");
                        let (written, written_kind) =
                            reduce_any_file_into(&reducer, path, shards, Vec::new(), *format)
                                .unwrap();
                        assert_eq!(written_kind, kind, "{case}");
                        assert!(written.out == *expected, "{case}");
                        // The sum of per-worker peaks depends on which
                        // worker took which section.
                        let stats = |stats| StreamStats {
                            peak_resident_segments: 0,
                            ..stats
                        };
                        assert_eq!(stats(written.stats), stats(collected.stats), "{case}");
                        let degree = reduced.degree_of_matching();
                        assert_eq!(written.stats.degree_of_matching(), degree, "{case}");
                    }
                }
            }
            for path in [&text, &container] {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("trace_stream_bin_{}_{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn container_stream_equals_in_memory_for_every_chunk_size() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let in_memory = reducer.reduce_app(&app);
        for segments_per_chunk in [1, 3, 64, usize::MAX] {
            let bytes = encode_app_container(&app, ChunkSpec::with_segments(segments_per_chunk));
            let streamed = reduce_container_stream(&reducer, Cursor::new(&bytes)).unwrap();
            assert_eq!(
                streamed.reduced, in_memory,
                "{segments_per_chunk} seg/chunk"
            );
            assert_eq!(streamed.stats.ranks, app.rank_count());
            assert_eq!(streamed.stats.events, app.total_events());
            assert!(streamed.stats.peak_chunk_bytes > 0);
        }
    }

    #[test]
    fn index_sharded_ingestion_matches_single_shard() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(8));
        let path = temp_file("sharded.trc", &bytes);
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let sequential = reduce_container_file(&reducer, &path, 1).unwrap();
        for shards in [2, 3, 8, 64] {
            let sharded = reduce_container_file(&reducer, &path, shards).unwrap();
            assert_eq!(sharded.reduced, sequential.reduced, "{shards} shards");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_section_names_its_index_rank_and_byte_offset() {
        let mut app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        app.ranks.truncate(4);
        let mut bytes = encode_app_container(&app, ChunkSpec::with_segments(8));
        let entry = read_index(&mut Cursor::new(&bytes)).unwrap().sections[2];
        // Frames are kind, codec, payload length, CRC, payload: flip the
        // first payload byte of the RECORDS chunk after section 2's
        // RANK_BEGIN.
        let start = entry.offset as usize;
        let rank_begin = u32::from_le_bytes(bytes[start + 2..start + 6].try_into().unwrap());
        let records = start + 10 + rank_begin as usize;
        bytes[records + 10] ^= 0x40;
        let path = temp_file("crc_flip.trc", &bytes);
        let reducer = Reducer::with_default_threshold(Method::AvgWave);
        let err = reduce_container_file(&reducer, &path, 2).unwrap_err();
        let _ = std::fs::remove_file(&path);

        let StreamError::Section {
            index: 2,
            rank,
            offset,
            ..
        } = &err
        else {
            panic!("not section 2: {err}");
        };
        assert_eq!((*rank, *offset), (entry.rank, entry.offset));
        let cause = err.as_container();
        assert!(
            matches!(cause, Some(ContainerError::BadCrc { offset, .. }) if *offset == records as u64),
            "{err}"
        );
        let place = format!(
            "rank section 2 ({}, byte offset {})",
            entry.rank, entry.offset
        );
        assert!(err.to_string().starts_with(&place), "{err}");
    }

    #[test]
    fn autodetect_dispatches_all_three_input_kinds() {
        // Text and v2 containers reduce; the retired v1 format is refused.
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::Euclidean);
        let expected = reducer.reduce_app(&app);

        let text = temp_file("auto.txt", trace_format::write_app_trace(&app).as_bytes());
        let v2 = temp_file(
            "auto_v2.trc",
            &encode_app_container(&app, ChunkSpec::default()),
        );
        for (path, want_kind) in [
            (&text, TraceInputKind::Text),
            (&v2, TraceInputKind::ContainerV2),
        ] {
            let (reduction, kind) = reduce_any_file(&reducer, path, 2).unwrap();
            assert_eq!(kind, want_kind);
            assert_eq!(reduction.reduced, expected, "{}", kind.label());
        }

        let v1 = temp_file("auto_v1.trc", b"TRCF\x01\x00");
        for shards in [1, 2] {
            let err = reduce_any_file(&reducer, &v1, shards).unwrap_err();
            assert!(
                matches!(err.as_container(), Some(ContainerError::RetiredV1 { .. })),
                "{err}"
            );
        }

        for p in [&text, &v1, &v2] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn reduced_containers_are_rejected_as_streaming_input() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::RelDiff);
        let reduced = reducer.reduce_app(&app);
        let bytes = encode_reduced_container(&reduced, ChunkSpec::default());

        let err = reduce_container_stream(&reducer, Cursor::new(&bytes)).unwrap_err();
        assert!(err.as_container().is_some(), "{err}");

        let path = temp_file("reduced.trc", &bytes);
        let err = reduce_container_file(&reducer, &path, 4).unwrap_err();
        assert!(err.as_container().is_some(), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
