//! The payload chunks of the eighteen tiny workloads, cut where the
//! container writer cuts them — the corpus of the two differential suites
//! (`encoder_equivalence.rs`, `decoder_equivalence.rs`).

// Each suite uses its half.
#![allow(dead_code)]

use trace_compress::{ChunkEncoder, PayloadClass};
use trace_model::codec::varint::write_u64;
use trace_model::codec::{write_exec, write_record, write_stored_segment};
use trace_model::{AppTrace, SegmentExec, StoredSegment, Time, TraceRecord};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};

/// The container writer's default chunk grouping.
const SEGMENTS_PER_CHUNK: usize = 128;
const EXECS_PER_CHUNK: usize = 4096;

pub fn tiny_apps() -> Vec<AppTrace> {
    let kinds = WorkloadKind::all_paper();
    assert_eq!(kinds.len(), 18);
    kinds
        .into_iter()
        .map(|kind| Workload::new(kind, SizePreset::Tiny).generate())
        .collect()
}

/// The items of one chunk, as the writer would hold them when it cuts it.
pub enum Chunk<'a> {
    Records(&'a [TraceRecord]),
    Stored(&'a [StoredSegment]),
    Execs(&'a [SegmentExec]),
}

impl Chunk<'_> {
    pub fn class(&self) -> PayloadClass {
        match self {
            Chunk::Records(_) => PayloadClass::Records,
            Chunk::Stored(_) => PayloadClass::Stored,
            Chunk::Execs(_) => PayloadClass::Execs,
        }
    }

    /// The row payload the writer builds: count varint, then the items with
    /// the chunk's delta clock starting at zero.
    pub fn rows(&self) -> Vec<u8> {
        let mut rows = Vec::new();
        match self {
            Chunk::Records(records) => {
                write_u64(&mut rows, records.len() as u64);
                let mut prev = Time::ZERO;
                for record in *records {
                    prev = write_record(&mut rows, record, prev);
                }
            }
            Chunk::Stored(stored) => {
                write_u64(&mut rows, stored.len() as u64);
                for segment in *stored {
                    write_stored_segment(&mut rows, segment);
                }
            }
            Chunk::Execs(execs) => {
                write_u64(&mut rows, execs.len() as u64);
                let mut prev = Time::ZERO;
                for exec in *execs {
                    prev = write_exec(&mut rows, exec, prev);
                }
            }
        }
        rows
    }

    pub fn push_into(&self, encoder: &mut ChunkEncoder) {
        match self {
            Chunk::Records(records) => records.iter().for_each(|r| encoder.record(r)),
            Chunk::Stored(stored) => stored.iter().for_each(|s| encoder.stored(s)),
            Chunk::Execs(execs) => execs.iter().for_each(|e| encoder.exec(e)),
        }
    }
}

/// A rank's records cut where the writer cuts them: at the first segment
/// end at or past `SEGMENTS_PER_CHUNK` completed segments.
fn record_chunks(records: &[TraceRecord]) -> Vec<Chunk<'_>> {
    let mut chunks = Vec::new();
    let mut start = 0;
    let mut segments = 0;
    for (i, record) in records.iter().enumerate() {
        if matches!(record, TraceRecord::SegmentEnd { .. }) {
            segments += 1;
            if segments == SEGMENTS_PER_CHUNK {
                chunks.push(Chunk::Records(&records[start..=i]));
                start = i + 1;
                segments = 0;
            }
        }
    }
    if start < records.len() {
        chunks.push(Chunk::Records(&records[start..]));
    }
    chunks
}

/// Every payload chunk of the app container and of one reduced container of
/// `app`, in file order.
pub fn with_chunks_in_file_order(app: &AppTrace, mut visit: impl FnMut(&Chunk<'_>)) {
    for rank in &app.ranks {
        record_chunks(&rank.records).iter().for_each(&mut visit);
    }
    let reduced =
        Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff)).reduce_app(app);
    for rank in &reduced.ranks {
        for stored in rank.stored.chunks(SEGMENTS_PER_CHUNK) {
            visit(&Chunk::Stored(stored));
        }
        for execs in rank.execs.chunks(EXECS_PER_CHUNK) {
            visit(&Chunk::Execs(execs));
        }
    }
}
