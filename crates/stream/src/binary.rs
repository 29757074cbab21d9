//! Streaming and index-sharded reduction of chunked binary containers.
//!
//! [`ContainerSource`] adapts `trace_container::ChunkReader` to the
//! [`AppItemSource`] trait, so the same online reduction loop that drives
//! the text parser consumes `.trc` v2 files with O(one chunk) resident
//! payload.  [`reduce_container_file`] goes one step further than the text
//! sharding can: the container's index footer maps every rank section to a
//! byte offset, so workers *seek* straight to their sections instead of
//! scanning and skipping the whole file — cross-shard file-level
//! parallelism with no redundant reads.  [`reduce_any_file`] autodetects
//! text, monolithic v1 and chunked v2 inputs by their magic bytes.  Every
//! driver here supplies only what one worker does; [`crate::shard`]'s
//! fan-out merges the ranks and drains the counters.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use parking_lot::Mutex;
use trace_container::{
    read_index, ChunkReader, ContainerError, ContainerItem, PayloadKind, Preamble, CONTAINER_MAGIC,
};
use trace_model::codec::APP_TRACE_MAGIC;
use trace_model::{Rank, ReducedAppTrace, ReducedRankTrace, TraceRecord};
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::parser::AppItem;
use crate::reduce::{reduce_selected_ranks, StreamReduction, StreamStats};
use crate::shard::{fan_out, reduce_stream_sharded, take_reader};
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

    /// Resumes at one rank section located via the index footer.
    pub fn section(reader: R, offset: u64) -> Self {
        ContainerSource {
            inner: ChunkReader::section(reader, offset),
        }
    }

    /// The preamble tables (whole-file mode only).
    pub fn preamble(&self) -> Option<&Preamble> {
        self.inner.preamble()
    }

    /// The most memory one chunk has taken so far, in bytes (see
    /// [`ChunkReader::peak_chunk_bytes`]).
    pub fn peak_chunk_bytes(&self) -> usize {
        self.inner.peak_chunk_bytes()
    }

    /// Attaches an observability shard to the underlying chunk reader, so
    /// chunk reads record `chunk_io`/`compress`/`parse` spans and counters.
    pub fn set_obs(&mut self, obs: trace_obs::ObsShard) {
        self.inner.set_obs(obs);
    }
}

impl<R: Read> AppItemSource for ContainerSource<R> {
    fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        Ok(self.inner.next_item()?.map(|item| match item {
            ContainerItem::RankStart(rank) => AppItem::RankStart(rank),
            ContainerItem::Record(record) => AppItem::Record(record),
            ContainerItem::RankEnd(rank) => AppItem::RankEnd(rank),
        }))
    }

    fn skip_current_rank(&mut self) -> Result<Rank, StreamError> {
        Ok(self.inner.skip_current_rank()?)
    }

    fn take_records(&mut self) -> &[TraceRecord] {
        self.inner.take_records()
    }
}

/// The output trace's name tables (no ranks yet) and the declared rank
/// count, from the preamble of a whole-file source; a container that
/// reaches its first rank section without one is malformed.
fn header_of<R: Read>(
    source: &ContainerSource<R>,
) -> Result<(ReducedAppTrace, usize), StreamError> {
    let Some(preamble) = source.preamble() else {
        return Err(StreamError::Container(ContainerError::UnexpectedChunk {
            expected: "a PREAMBLE chunk",
            found: "no preamble before the first rank section",
        }));
    };
    let header = ReducedAppTrace {
        name: preamble.name.clone(),
        regions: preamble.regions.clone(),
        contexts: preamble.contexts.clone(),
        ranks: Vec::new(),
    };
    Ok((header, preamble.declared_ranks))
}

/// Reduces every rank section `source` yields; the chunk reader records its
/// `chunk_io`/`compress`/`parse` spans into a recorder shard of its own.
fn reduce_sections<R: Read>(
    reducer: &Reducer,
    mut source: ContainerSource<R>,
    obs: &mut trace_obs::ObsShard,
) -> Result<(Vec<(usize, ReducedRankTrace)>, StreamStats), StreamError> {
    source.set_obs(reducer.recorder().shard());
    let (ranks, mut stats) = reduce_selected_ranks(reducer, &mut source, |_| true, obs)?;
    stats.peak_chunk_bytes = source.peak_chunk_bytes();
    Ok((ranks, stats))
}

/// Reduces an app-trace container stream in one pass with bounded memory:
/// the resident state is the stored representatives, at most one in-flight
/// segment, and one decoded chunk.
pub fn reduce_container_stream<R: Read + Send>(
    reducer: &Reducer,
    reader: R,
) -> Result<StreamReduction, StreamError> {
    let reader = Mutex::new(Some(reader));
    fan_out(reducer, 1, |_, obs| {
        let source = ContainerSource::new(take_reader(&reader)?)?;
        let (header, _) = header_of(&source)?;
        let (ranks, stats) = reduce_sections(reducer, source, obs)?;
        Ok((header, ranks, stats))
    })
}

/// Reduces a container file with `shards` workers, each seeking directly
/// to the rank sections assigned to it (`section index % shards`) via the
/// index footer.  Output is bit-identical to the sequential
/// [`reduce_container_stream`]; only wall-clock time changes.  One shard
/// *is* that sequential scan: it needs no index footer and validates every
/// chunk up to the trailer, which seeking workers never reach.
pub fn reduce_container_file(
    reducer: &Reducer,
    path: impl AsRef<Path>,
    shards: usize,
) -> Result<StreamReduction, StreamError> {
    let path = path.as_ref();
    if shards <= 1 {
        return reduce_container_stream(reducer, BufReader::new(File::open(path)?));
    }

    let mut file = File::open(path)?;
    let index = read_index(&mut file)?;
    if index.kind == PayloadKind::Reduced {
        return Err(StreamError::Container(ContainerError::UnexpectedChunk {
            expected: "an app-trace container",
            found: "a reduced-trace container",
        }));
    }
    file.seek(SeekFrom::Start(0))?;
    let (header, declared_ranks) = header_of(&ContainerSource::new(BufReader::new(file))?)?;
    // The sequential reader validates this when it reaches the INDEX
    // chunk; the sharded path never scans that far, so a short index must
    // be rejected here or ranks would silently drop from the output.
    if index.sections.len() != declared_ranks {
        return Err(StreamError::Container(ContainerError::CountMismatch {
            what: "rank sections",
            declared: declared_ranks as u64,
            found: index.sections.len() as u64,
        }));
    }

    let workers = shards.min(index.sections.len()).max(1);
    fan_out(reducer, workers, |worker, obs| {
        let file = File::open(path)?;
        let mut out: Vec<(usize, ReducedRankTrace)> = Vec::new();
        let mut stats = StreamStats::default();
        for (section_index, entry) in index
            .sections
            .iter()
            .enumerate()
            .filter(|(i, _)| i % workers == worker)
        {
            // `&File` implements `Read + Seek`, so every section gets a
            // fresh buffered cursor over the worker's single handle.
            let mut handle = &file;
            handle.seek(SeekFrom::Start(entry.offset))?;
            let source = ContainerSource::section(BufReader::new(handle), entry.offset);
            let (ranks, section_stats) = reduce_sections(reducer, source, obs)?;
            stats.absorb(&section_stats);
            out.extend(ranks.into_iter().map(|(_, rank)| (section_index, rank)));
        }
        Ok((header.clone(), out, stats))
    })
}

/// What kind of trace input a file holds, detected from its magic bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceInputKind {
    /// The line-oriented text format (`TRACEFORMAT 1` header).
    Text,
    /// A monolithic v1 binary file (`TRCF` magic) — decodable only as a
    /// whole buffer.
    BinaryV1,
    /// A chunked v2 container (`TRC2` magic) — streamable and seekable.
    ContainerV2,
}

impl TraceInputKind {
    /// Short human-readable label for CLI output.
    pub fn label(self) -> &'static str {
        match self {
            TraceInputKind::Text => "text",
            TraceInputKind::BinaryV1 => "binary v1 (monolithic)",
            TraceInputKind::ContainerV2 => "container v2 (chunked)",
        }
    }
}

/// Detects the input kind from the first four bytes of `path`.  Anything
/// that is not a known binary magic is treated as text, so text parse
/// errors keep their precise line-level diagnostics.
pub fn detect_input(path: impl AsRef<Path>) -> Result<TraceInputKind, StreamError> {
    let file = File::open(path.as_ref())?;
    let mut magic = Vec::with_capacity(4);
    file.take(4).read_to_end(&mut magic)?;
    Ok(match magic.as_slice() {
        m if m == CONTAINER_MAGIC => TraceInputKind::ContainerV2,
        m if m == APP_TRACE_MAGIC => TraceInputKind::BinaryV1,
        _ => TraceInputKind::Text,
    })
}

/// Reduces a trace file of any supported format, autodetected by magic:
/// text and v2 containers stream with bounded memory (`shards` workers);
/// monolithic v1 files fall back to decoding the whole buffer and reducing
/// it rank by rank in one worker, with stats reflecting that everything
/// was resident.
pub fn reduce_any_file(
    reducer: &Reducer,
    path: impl AsRef<Path>,
    shards: usize,
) -> Result<(StreamReduction, TraceInputKind), StreamError> {
    let path = path.as_ref();
    let kind = detect_input(path)?;
    let reduction = match kind {
        TraceInputKind::Text => {
            reduce_stream_sharded(reducer, shards, |_| File::open(path).map(BufReader::new))?
        }
        TraceInputKind::ContainerV2 => reduce_container_file(reducer, path, shards)?,
        TraceInputKind::BinaryV1 => fan_out(reducer, 1, |_, obs| {
            let span = obs.start();
            let bytes = std::fs::read(path)?;
            let app =
                trace_model::codec::decode_app_trace(&bytes).map_err(ContainerError::Codec)?;
            obs.end(trace_obs::Stage::Parse, span);
            let mut stats = StreamStats {
                ranks: app.rank_count(),
                events: app.total_events(),
                peak_chunk_bytes: bytes.len(),
                ..StreamStats::default()
            };
            let mut ranks = Vec::with_capacity(app.rank_count());
            for (index, rank) in app.ranks.iter().enumerate() {
                let reduction = reducer.reduce_rank(rank);
                stats.segments += reduction.segmentation.segments;
                stats.orphan_events += reduction.segmentation.orphan_events;
                stats.unterminated_segments += reduction.segmentation.unterminated_segments;
                stats.matching.absorb(&reduction.matching);
                ranks.push((index, reduction.reduced));
            }
            // Monolithic: every segment (and the whole file) resident.
            stats.peak_resident_segments = stats.segments;
            Ok((ReducedAppTrace::for_app(&app), ranks, stats))
        })?,
    };
    Ok((reduction, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use trace_container::{encode_app_container, encode_reduced_container, ChunkSpec};
    use trace_model::codec::encode_app_trace;
    use trace_reduce::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

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
    fn autodetect_dispatches_all_three_input_kinds() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let reducer = Reducer::with_default_threshold(Method::Euclidean);
        let expected = reducer.reduce_app(&app);

        let text = temp_file("auto.txt", trace_format::write_app_trace(&app).as_bytes());
        let v1 = temp_file("auto_v1.trc", &encode_app_trace(&app));
        let v2 = temp_file(
            "auto_v2.trc",
            &encode_app_container(&app, ChunkSpec::default()),
        );

        for (path, want_kind) in [
            (&text, TraceInputKind::Text),
            (&v1, TraceInputKind::BinaryV1),
            (&v2, TraceInputKind::ContainerV2),
        ] {
            let (reduction, kind) = reduce_any_file(&reducer, path, 2).unwrap();
            assert_eq!(kind, want_kind);
            assert_eq!(reduction.reduced, expected, "{}", kind.label());
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
