#![forbid(unsafe_code)]
//! Chunked, indexed binary trace container (`.trc` v2).
//!
//! A monolithic file can only be decoded as a fully materialized byte
//! buffer, which reintroduces the memory wall the stored-segments technique
//! exists to avoid.  This crate frames the varint record encoding of
//! `trace_model::codec` in a *chunked* container so binary traces are
//! streamable and seekable:
//!
//! * records are framed into length-prefixed, CRC-32-checked chunks, cut at
//!   segment boundaries and grouped by rank section
//!   ([`writer::ChunkWriter`] — `io::Write`-based, O(one chunk) resident);
//! * a chunk-index footer maps every rank section to its byte offset and
//!   summary counts ([`index::read_index`]), so a seekable consumer can
//!   hand whole rank sections to parallel workers without scanning;
//! * [`reader::ChunkReader`] pulls records over any `io::Read` source (the
//!   binary analogue of the text stream parser) — one chunk decoded at a
//!   time into a reused batch, handed on record by record or as a slice —
//!   and [`reader::ChunkReader::section`] resumes at an indexed offset;
//! * the retired monolithic v1 format (the encoding criterion 1 still
//!   counts, `trace_model::codec::app_trace_len`) is refused by every
//!   reader with one typed [`ContainerError::RetiredV1`], which
//!   [`layout::is_container_magic`] raises;
//! * every chunk carries a codec byte: payload chunks can be stored under
//!   any `trace_compress` [`Codec`] (`none`, `lz`, or `delta-lz`'s column
//!   transform then LZ; the CLI writes `none` and `delta-lz`), with the
//!   writer falling back to [`Codec::None`] per chunk when compression
//!   does not pay, and the reader decoding each chunk from its stored bytes
//!   straight into items on the same one-chunk-resident streaming path.
//!
//! The byte-level layout is specified in `docs/container-format.md` at the
//! repository root and mirrored by [`layout`].
//!
//! # Quick start
//!
//! ```
//! use trace_container::{encode_app_container, read_app_container, ChunkSpec};
//! use trace_sim::{SizePreset, Workload, WorkloadKind};
//!
//! let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
//! let bytes = encode_app_container(&app, ChunkSpec::with_segments(16));
//! assert_eq!(read_app_container(&bytes[..]).unwrap(), app);
//! ```

#![warn(missing_docs)]

pub mod crc;
pub mod error;
pub mod index;
pub mod layout;
pub mod reader;
pub mod writer;

pub use crc::crc32;
pub use error::ContainerError;
pub use index::{read_index, ContainerIndex, RankSectionEntry};
pub use layout::{ChunkKind, PayloadKind, CONTAINER_MAGIC, CONTAINER_VERSION, INDEX_MAGIC};
pub use reader::{
    decode_app_any, decode_reduced_any, read_app_container, read_reduced_container, ChunkReader,
    ContainerItem, Preamble,
};
pub use trace_compress::{Codec, CompressError};
pub use writer::{
    encode_app_container, encode_reduced_container, section_workers, write_app_container,
    write_reduced_container, write_sections, ChunkSpec, ChunkWriter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use trace_reduce::{Method, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn app_container_round_trips_across_chunk_sizes() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        for segments_per_chunk in [1, 2, 7, usize::MAX] {
            let bytes = encode_app_container(&app, ChunkSpec::with_segments(segments_per_chunk));
            let decoded = read_app_container(&bytes[..]).unwrap();
            assert_eq!(decoded, app, "{segments_per_chunk} segments/chunk");
        }
    }

    #[test]
    fn reduced_container_round_trips() {
        let app = Workload::new(WorkloadKind::EarlyGather, SizePreset::Tiny).generate();
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        for segments_per_chunk in [1, 5, usize::MAX] {
            let bytes =
                encode_reduced_container(&reduced, ChunkSpec::with_segments(segments_per_chunk));
            let decoded = read_reduced_container(&bytes[..]).unwrap();
            assert_eq!(decoded, reduced, "{segments_per_chunk} segments/chunk");
        }
    }

    #[test]
    fn index_lists_every_rank_section_with_valid_offsets() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(4));
        let mut cursor = std::io::Cursor::new(&bytes);
        let index = read_index(&mut cursor).unwrap();
        assert_eq!(index.kind, PayloadKind::App);
        assert_eq!(index.sections.len(), app.rank_count());
        for (entry, rank) in index.sections.iter().zip(&app.ranks) {
            assert_eq!(entry.rank, rank.rank);
            assert_eq!(entry.records, rank.records.len() as u64);
            assert_eq!(entry.events, rank.events().count() as u64);
            // A section reader resumed at the indexed offset yields exactly
            // that rank's records.
            let mut section = ChunkReader::section(&bytes[entry.offset as usize..], entry.offset);
            let Some(ContainerItem::RankStart(r)) = section.next_item().unwrap() else {
                panic!("section must open with RankStart");
            };
            assert_eq!(r, rank.rank);
            let mut records = Vec::new();
            while let Some(item) = section.next_item().unwrap() {
                if let ContainerItem::Record(record) = item {
                    records.push(record);
                }
            }
            assert_eq!(records, rank.records);
            assert_eq!(section.ranks_seen(), 1);
        }
    }

    #[test]
    fn v1_files_are_refused_by_every_whole_file_reader() {
        // A v1 header and a body no reader gets to: the magic alone refuses.
        for magic in [*b"TRCF", *b"TRCR"] {
            let mut v1 = magic.to_vec();
            v1.extend_from_slice(&[1, 0, 0, 0, 0]);
            let refused = |e: ContainerError| matches!(e, ContainerError::RetiredV1 { found } if found == magic);
            assert!(refused(decode_app_any(&v1).unwrap_err()));
            assert!(refused(decode_reduced_any(&v1).unwrap_err()));
            assert!(refused(read_app_container(&v1[..]).unwrap_err()));
            assert!(refused(read_reduced_container(&v1[..]).unwrap_err()));
            assert!(refused(ChunkReader::new(&v1[..]).err().unwrap()));
            let mut cursor = std::io::Cursor::new(&v1);
            assert!(refused(read_index(&mut cursor).unwrap_err()));
            let err = decode_app_any(&v1).unwrap_err().to_string();
            assert!(err.contains("retired v1 format"), "{err}");
        }

        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let v2 = encode_app_container(&app, ChunkSpec::default());
        assert_eq!(decode_app_any(&v2).unwrap(), app);
        let reduced = Reducer::with_default_threshold(Method::RelDiff).reduce_app(&app);
        let v2 = encode_reduced_container(&reduced, ChunkSpec::default());
        assert_eq!(decode_reduced_any(&v2).unwrap(), reduced);

        assert!(matches!(
            decode_app_any(b"BOGUSBYTES"),
            Err(ContainerError::BadMagic { .. })
        ));
        assert!(matches!(
            decode_app_any(b"TR"),
            Err(ContainerError::Truncated { .. })
        ));
    }

    #[test]
    fn compressed_containers_round_trip_and_shrink() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let baseline = encode_app_container(&app, ChunkSpec::default());
        let bytes = encode_app_container(&app, ChunkSpec::with_codec(Codec::DeltaLz));
        assert_eq!(read_app_container(&bytes[..]).unwrap(), app);
        // The per-chunk raw fallback guarantees compression never expands a
        // container, and `delta-lz` strictly shrinks even this tiny trace.
        assert!(
            bytes.len() < baseline.len(),
            "{} vs uncompressed {}",
            bytes.len(),
            baseline.len()
        );

        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&app);
        for codec in [Codec::None, Codec::DeltaLz] {
            let bytes = encode_reduced_container(&reduced, ChunkSpec::with_codec(codec));
            assert_eq!(
                read_reduced_container(&bytes[..]).unwrap(),
                reduced,
                "{}",
                codec.name()
            );
        }
    }

    #[test]
    fn compressed_sections_resume_via_the_index() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(2).codec(Codec::DeltaLz));
        let mut cursor = std::io::Cursor::new(&bytes);
        let index = read_index(&mut cursor).unwrap();
        for (entry, rank) in index.sections.iter().zip(&app.ranks) {
            let mut section = ChunkReader::section(&bytes[entry.offset as usize..], entry.offset);
            let mut records = Vec::new();
            while let Some(item) = section.next_item().unwrap() {
                if let ContainerItem::Record(record) = item {
                    records.push(record);
                }
            }
            assert_eq!(records, rank.records, "rank {:?}", entry.rank);
        }
    }

    #[test]
    fn skip_current_rank_passes_over_sections() {
        let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(2));
        let mut reader = ChunkReader::new(&bytes[..]).unwrap();
        let mut skipped = 0;
        while let Some(item) = reader.next_item().unwrap() {
            if let ContainerItem::RankStart(rank) = item {
                assert_eq!(reader.skip_current_rank().unwrap(), rank);
                skipped += 1;
            }
        }
        assert_eq!(skipped, app.rank_count());
        assert_eq!(reader.ranks_seen(), app.rank_count());
    }

    #[test]
    fn small_chunks_bound_the_readers_resident_payload() {
        let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let bytes = encode_app_container(&app, ChunkSpec::with_segments(1));
        let mut reader = ChunkReader::new(&bytes[..]).unwrap();
        while reader.next_item().unwrap().is_some() {}
        // One segment per chunk: the most one chunk takes, decoded, is far
        // below the decoded trace.
        let records: usize = app.ranks.iter().map(|rank| rank.records.len()).sum();
        let decoded = records * std::mem::size_of::<trace_model::TraceRecord>();
        assert!(
            reader.peak_chunk_bytes() * 10 <= decoded,
            "peak chunk {} vs decoded trace {decoded}",
            reader.peak_chunk_bytes()
        );
    }
}
