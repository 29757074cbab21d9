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
//! text and chunked v2 inputs by their magic bytes, and refuses a retired
//! monolithic v1 file with the container's typed error.  Every
//! driver here supplies only what one worker does; [`crate::shard`]'s
//! fan-out merges the ranks and drains the counters.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use trace_container::layout::is_container_magic;
use trace_container::{
    read_index, ChunkReader, ContainerError, ContainerIndex, ContainerItem, PayloadKind, Preamble,
};
use trace_model::{Rank, ReducedAppTrace, TraceRecord};
use trace_reduce::Reducer;

use crate::error::StreamError;
use crate::parser::AppItem;
use crate::reduce::StreamReduction;
use crate::shard::{fan_out, no_second_source, reduce_sources, reduce_stream_sharded};
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

    /// See [`ChunkReader::peak_chunk_bytes`].
    fn peak_chunk_bytes(&self) -> usize {
        self.inner.peak_chunk_bytes()
    }
}

/// The output trace's name tables (no ranks yet) and the declared rank
/// count, from the preamble of a whole-file source; a container that
/// reaches its first rank section without one is malformed.
pub(crate) fn header_of<R: Read>(
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

/// Reduces an app-trace container stream in one pass with bounded memory:
/// the resident state is the stored representatives, at most one in-flight
/// segment, and one decoded chunk.
pub fn reduce_container_stream<R: Read + Send>(
    reducer: &Reducer,
    reader: R,
) -> Result<StreamReduction, StreamError> {
    let mut source = ContainerSource::new(reader)?;
    let (header, declared_ranks) = header_of(&source)?;
    source.set_obs(reducer.recorder().shard());
    reduce_sources(reducer, header, source, declared_ranks, 1, no_second_source)
}

/// Reduces a container file with `shards` workers, each claiming rank
/// sections as it falls free and seeking straight to them via the index
/// footer.  Output is bit-identical to the sequential
/// [`reduce_container_stream`]; only wall-clock time changes.  One shard
/// *is* that sequential scan: it needs no index footer and validates every
/// chunk up to the trailer, which seeking workers never reach.  A failing
/// section is a [`StreamError::Section`], which says where it is.
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
    let ContainerIndex { kind, sections } = read_index(&mut file)?;
    if kind == PayloadKind::Reduced {
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
    if sections.len() != declared_ranks {
        return Err(StreamError::Container(ContainerError::CountMismatch {
            what: "rank sections",
            declared: declared_ranks as u64,
            found: sections.len() as u64,
        }));
    }

    let files = (0..shards.min(declared_ranks).max(1)).map(|_| File::open(path));
    let files = files.collect::<io::Result<Vec<_>>>()?;
    fan_out(
        reducer,
        header,
        files,
        declared_ranks,
        |worker, file, index| {
            let Some(entry) = sections.get(index) else {
                return Err(StreamError::Protocol("a section the index does not list"));
            };
            let mut reduce_section = || -> Result<_, StreamError> {
                // `&File` implements `Read + Seek`, so every section gets a
                // fresh buffered cursor over the worker's single handle.
                let mut handle = &*file;
                handle.seek(SeekFrom::Start(entry.offset))?;
                let mut source = ContainerSource::section(BufReader::new(handle), entry.offset);
                source.set_obs(reducer.recorder().shard());
                let reduced = worker.reduce_rank(reducer, &mut source)?;
                let peak = &mut worker.stats.peak_chunk_bytes;
                *peak = source.peak_chunk_bytes().max(*peak);
                Ok(reduced)
            };
            reduce_section().map_err(|error| StreamError::Section {
                index,
                rank: entry.rank,
                offset: entry.offset,
                error: Box::new(error),
            })
        },
        |_, _| Ok(()),
    )
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
pub fn detect_input(path: impl AsRef<Path>) -> Result<TraceInputKind, StreamError> {
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
    let path = path.as_ref();
    let kind = detect_input(path)?;
    let reduction = match kind {
        TraceInputKind::Text => {
            reduce_stream_sharded(reducer, shards, |_| File::open(path).map(BufReader::new))?
        }
        TraceInputKind::ContainerV2 => reduce_container_file(reducer, path, shards)?,
    };
    Ok((reduction, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use trace_container::{encode_app_container, encode_reduced_container, ChunkSpec};
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
