//! Writers for the record encoding, and the byte count of the retired
//! monolithic v1 files that criterion 1 measures.

use super::varint::{write_i64, write_u64};
use crate::event::{CollectiveOp, CommInfo, Event};
use crate::record::TraceRecord;
use crate::reduced::{ReducedAppTrace, ReducedRankTrace, SegmentExec, StoredSegment};
use crate::segment::Segment;
use crate::time::Time;
use crate::trace::{AppTrace, RankTrace};

/// Comm-info tag bytes shared by the encoder and decoder.
pub(super) mod tags {
    pub const RECORD_SEGMENT_BEGIN: u8 = 0;
    pub const RECORD_SEGMENT_END: u8 = 1;
    pub const RECORD_EVENT: u8 = 2;

    pub const COMM_COMPUTE: u8 = 0;
    pub const COMM_SEND: u8 = 1;
    pub const COMM_RECV: u8 = 2;
    pub const COMM_SENDRECV: u8 = 3;
    pub const COMM_COLLECTIVE: u8 = 4;
}

pub(super) fn collective_op_tag(op: CollectiveOp) -> u8 {
    match op {
        CollectiveOp::Barrier => 0,
        CollectiveOp::Bcast => 1,
        CollectiveOp::Scatter => 2,
        CollectiveOp::Gather => 3,
        CollectiveOp::Reduce => 4,
        CollectiveOp::Allgather => 5,
        CollectiveOp::Allreduce => 6,
        CollectiveOp::Alltoall => 7,
    }
}

/// Writes a length-prefixed UTF-8 string.
pub fn write_string(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Writes a count-prefixed table of length-prefixed strings.
pub fn write_string_table(out: &mut Vec<u8>, names: &[String]) {
    write_u64(out, names.len() as u64);
    for name in names {
        write_string(out, name);
    }
}

fn write_comm(out: &mut Vec<u8>, comm: &CommInfo) {
    match comm {
        CommInfo::Compute => out.push(tags::COMM_COMPUTE),
        CommInfo::Send { peer, tag, bytes } => {
            out.push(tags::COMM_SEND);
            write_u64(out, u64::from(peer.as_u32()));
            write_u64(out, u64::from(*tag));
            write_u64(out, *bytes);
        }
        CommInfo::Recv { peer, tag, bytes } => {
            out.push(tags::COMM_RECV);
            write_u64(out, u64::from(peer.as_u32()));
            write_u64(out, u64::from(*tag));
            write_u64(out, *bytes);
        }
        CommInfo::SendRecv {
            to,
            from,
            tag,
            bytes,
        } => {
            out.push(tags::COMM_SENDRECV);
            write_u64(out, u64::from(to.as_u32()));
            write_u64(out, u64::from(from.as_u32()));
            write_u64(out, u64::from(*tag));
            write_u64(out, *bytes);
        }
        CommInfo::Collective {
            op,
            root,
            comm_size,
            bytes,
        } => {
            out.push(tags::COMM_COLLECTIVE);
            out.push(collective_op_tag(*op));
            write_u64(out, u64::from(root.as_u32()));
            write_u64(out, u64::from(*comm_size));
            write_u64(out, *bytes);
        }
    }
}

/// Writes one trace record with its time stamp delta-encoded against
/// `prev_time`, returning the new `prev_time` (the record's time stamp).
///
/// This is the unit the chunked container format (`trace_container`)
/// reuses: a run of records encoded with `prev_time` starting at
/// [`Time::ZERO`] is self-contained and can be decoded without any bytes
/// outside the run.
pub fn write_record(out: &mut Vec<u8>, record: &TraceRecord, prev_time: Time) -> Time {
    match record {
        TraceRecord::SegmentBegin { context, time } => {
            out.push(tags::RECORD_SEGMENT_BEGIN);
            write_u64(out, u64::from(context.as_u32()));
            write_i64(out, time.as_nanos() as i64 - prev_time.as_nanos() as i64);
            *time
        }
        TraceRecord::SegmentEnd { context, time } => {
            out.push(tags::RECORD_SEGMENT_END);
            write_u64(out, u64::from(context.as_u32()));
            write_i64(out, time.as_nanos() as i64 - prev_time.as_nanos() as i64);
            *time
        }
        TraceRecord::Event(event) => {
            out.push(tags::RECORD_EVENT);
            write_event(out, event, prev_time)
        }
    }
}

/// Writes an event whose `start` is delta-encoded against `prev_time`, and
/// returns the new `prev_time` (the event start).
fn write_event(out: &mut Vec<u8>, event: &Event, prev_time: Time) -> Time {
    write_u64(out, u64::from(event.region.as_u32()));
    write_i64(
        out,
        event.start.as_nanos() as i64 - prev_time.as_nanos() as i64,
    );
    write_u64(out, event.duration().as_nanos());
    write_u64(out, event.wait.as_nanos());
    write_comm(out, &event.comm);
    event.start
}

/// The bytes the fixed part of a monolithic v1 file takes: 4 magic bytes
/// and 1 version byte.
const V1_MAGIC_AND_VERSION: u64 = 5;

/// The length of a v1 file holding `ranks`: magic and version, the program
/// name, the region and context tables and the rank count, then every rank
/// section as `write_rank` writes it.  Each section goes into one scratch
/// buffer, cleared per rank, so no more than a rank is ever encoded.
fn v1_len<R>(
    name: &str,
    regions: &[String],
    contexts: &[String],
    ranks: &[R],
    write_rank: fn(&mut Vec<u8>, &R),
) -> u64 {
    let mut scratch = Vec::new();
    write_string(&mut scratch, name);
    write_string_table(&mut scratch, regions);
    write_string_table(&mut scratch, contexts);
    write_u64(&mut scratch, ranks.len() as u64);
    let mut len = V1_MAGIC_AND_VERSION + scratch.len() as u64;
    for rank in ranks {
        scratch.clear();
        write_rank(&mut scratch, rank);
        len += scratch.len() as u64;
    }
    len
}

/// Writes one rank section of a full trace: the rank, the record count and
/// the records, delta-timed from zero.
fn write_app_rank(out: &mut Vec<u8>, rank: &RankTrace) {
    write_u64(out, u64::from(rank.rank.as_u32()));
    write_u64(out, rank.records.len() as u64);
    let mut prev_time = Time::ZERO;
    for record in &rank.records {
        prev_time = write_record(out, record, prev_time);
    }
}

/// The length in bytes of `app` in the retired monolithic v1 encoding:
/// criterion 1's full-trace size.
pub fn app_trace_len(app: &AppTrace) -> u64 {
    let (regions, contexts) = (app.regions.names(), app.contexts.names());
    v1_len(&app.name, regions, contexts, &app.ranks, write_app_rank)
}

/// Writes one rebased segment (used for stored representatives).
pub fn write_segment(out: &mut Vec<u8>, segment: &Segment) {
    write_u64(out, u64::from(segment.context.as_u32()));
    write_u64(out, segment.start.as_nanos());
    write_u64(out, segment.end.as_nanos());
    write_u64(out, segment.events.len() as u64);
    let mut prev_time = Time::ZERO;
    for event in &segment.events {
        prev_time = write_event(out, event, prev_time);
    }
}

/// Writes one stored representative segment (`id`, represented count and
/// the rebased segment body).
pub fn write_stored_segment(out: &mut Vec<u8>, stored: &StoredSegment) {
    write_u64(out, u64::from(stored.id));
    write_u64(out, u64::from(stored.represented));
    write_segment(out, &stored.segment);
}

/// Writes one segment execution with its start delta-encoded against
/// `prev_start`, returning the new `prev_start`.
pub fn write_exec(out: &mut Vec<u8>, exec: &SegmentExec, prev_start: Time) -> Time {
    write_u64(out, u64::from(exec.segment));
    write_i64(
        out,
        exec.start.as_nanos() as i64 - prev_start.as_nanos() as i64,
    );
    exec.start
}

/// Writes one rank section of a reduced trace: the rank, the stored
/// representatives and the execution log, delta-timed from zero.
fn write_reduced_rank(out: &mut Vec<u8>, rank: &ReducedRankTrace) {
    write_u64(out, u64::from(rank.rank.as_u32()));
    write_u64(out, rank.stored.len() as u64);
    for stored in &rank.stored {
        write_stored_segment(out, stored);
    }
    write_u64(out, rank.execs.len() as u64);
    let mut prev_start = Time::ZERO;
    for exec in &rank.execs {
        prev_start = write_exec(out, exec, prev_start);
    }
}

/// The length in bytes of `reduced` in the retired monolithic v1 encoding:
/// criterion 1's reduced-trace size.
pub fn reduced_trace_len(reduced: &ReducedAppTrace) -> u64 {
    let (regions, contexts) = (reduced.regions.names(), reduced.contexts.names());
    v1_len(
        &reduced.name,
        regions,
        contexts,
        &reduced.ranks,
        write_reduced_rank,
    )
}
