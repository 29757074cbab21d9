//! Readers for the record encoding the container's payload chunks store.

use super::encode::tags;
use super::varint::{read_i64, read_u32, read_u64};
use super::{clamp_count, CodecError, Reader};
use crate::event::{CollectiveOp, CommInfo, Event};
use crate::ids::{ContextId, Rank, RegionId};
use crate::record::TraceRecord;
use crate::reduced::{SegmentExec, StoredSegment};
use crate::segment::Segment;
use crate::time::Time;

fn collective_op_from_tag(tag: u8) -> Result<CollectiveOp, CodecError> {
    Ok(match tag {
        0 => CollectiveOp::Barrier,
        1 => CollectiveOp::Bcast,
        2 => CollectiveOp::Scatter,
        3 => CollectiveOp::Gather,
        4 => CollectiveOp::Reduce,
        5 => CollectiveOp::Allgather,
        6 => CollectiveOp::Allreduce,
        7 => CollectiveOp::Alltoall,
        tag => {
            return Err(CodecError::BadTag {
                what: "collective op",
                tag,
            })
        }
    })
}

/// Reads a length-prefixed UTF-8 string.
pub fn read_string(reader: &mut Reader<'_>) -> Result<String, CodecError> {
    let len = read_u64(reader)?;
    if len > reader.remaining() as u64 {
        return Err(CodecError::LengthTooLarge(len));
    }
    let bytes = reader.read_bytes(len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
}

/// Reads a count-prefixed table of length-prefixed strings.
pub fn read_string_table(reader: &mut Reader<'_>) -> Result<Vec<String>, CodecError> {
    let count = read_u64(reader)?;
    if count > reader.remaining() as u64 {
        return Err(CodecError::LengthTooLarge(count));
    }
    let mut names = Vec::with_capacity(count as usize);
    for _ in 0..count {
        names.push(read_string(reader)?);
    }
    Ok(names)
}

// The record-level readers are `#[inline]` for the chunk decoders of
// `trace_compress`, which call them once per record from another crate: as
// plain calls they hand a 64-byte `Result` back through memory each time.
#[inline]
fn read_comm(reader: &mut Reader<'_>) -> Result<CommInfo, CodecError> {
    let tag = reader.read_byte()?;
    Ok(match tag {
        tags::COMM_COMPUTE => CommInfo::Compute,
        tags::COMM_SEND => CommInfo::Send {
            peer: Rank(read_u32(reader, "peer rank")?),
            tag: read_u32(reader, "message tag")?,
            bytes: read_u64(reader)?,
        },
        tags::COMM_RECV => CommInfo::Recv {
            peer: Rank(read_u32(reader, "peer rank")?),
            tag: read_u32(reader, "message tag")?,
            bytes: read_u64(reader)?,
        },
        tags::COMM_SENDRECV => CommInfo::SendRecv {
            to: Rank(read_u32(reader, "peer rank")?),
            from: Rank(read_u32(reader, "peer rank")?),
            tag: read_u32(reader, "message tag")?,
            bytes: read_u64(reader)?,
        },
        tags::COMM_COLLECTIVE => {
            let op = collective_op_from_tag(reader.read_byte()?)?;
            CommInfo::Collective {
                op,
                root: Rank(read_u32(reader, "root rank")?),
                comm_size: read_u32(reader, "communicator size")?,
                bytes: read_u64(reader)?,
            }
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "comm info",
                tag,
            })
        }
    })
}

/// Reads one event with its start delta-encoded against `prev_time`; returns
/// the event and the new `prev_time`.
#[inline]
fn read_event(reader: &mut Reader<'_>, prev_time: Time) -> Result<(Event, Time), CodecError> {
    let region = RegionId(read_u32(reader, "region id")?);
    let delta = read_i64(reader)?;
    let start = apply_time_delta(prev_time, delta)?;
    let duration = Time::from_nanos(read_u64(reader)?);
    let wait = Time::from_nanos(read_u64(reader)?);
    let comm = read_comm(reader)?;
    let event = Event {
        region,
        start,
        end: start + duration,
        comm,
        wait,
    };
    Ok((event, start))
}

/// Applies a delta to a reconstructed clock.  checked_add, not `+`: a
/// crafted file can pair a huge clock with a huge delta, and decoding
/// untrusted bytes must yield typed errors, never a debug-build overflow
/// panic.
#[inline]
fn apply_time_delta(prev: Time, delta: i64) -> Result<Time, CodecError> {
    match (prev.as_nanos() as i64).checked_add(delta) {
        Some(ns) if ns >= 0 => Ok(Time::from_nanos(ns as u64)),
        _ => Err(CodecError::NegativeTime),
    }
}

#[inline]
fn read_marker_time(reader: &mut Reader<'_>, prev_time: Time) -> Result<Time, CodecError> {
    let delta = read_i64(reader)?;
    apply_time_delta(prev_time, delta)
}

/// Reads one trace record with its time stamp delta-encoded against
/// `prev_time`; returns the record and the new `prev_time`.
///
/// Inverse of [`super::write_record`]; the chunked container format
/// (`trace_container`) decodes chunk payloads with this, restarting
/// `prev_time` at [`Time::ZERO`] for every chunk.
#[inline]
pub fn read_record(
    reader: &mut Reader<'_>,
    prev_time: Time,
) -> Result<(TraceRecord, Time), CodecError> {
    let tag = reader.read_byte()?;
    match tag {
        tags::RECORD_SEGMENT_BEGIN => {
            let context = ContextId(read_u32(reader, "context id")?);
            let time = read_marker_time(reader, prev_time)?;
            Ok((TraceRecord::SegmentBegin { context, time }, time))
        }
        tags::RECORD_SEGMENT_END => {
            let context = ContextId(read_u32(reader, "context id")?);
            let time = read_marker_time(reader, prev_time)?;
            Ok((TraceRecord::SegmentEnd { context, time }, time))
        }
        tags::RECORD_EVENT => {
            let (event, new_prev) = read_event(reader, prev_time)?;
            Ok((TraceRecord::Event(event), new_prev))
        }
        tag => Err(CodecError::BadTag {
            what: "trace record",
            tag,
        }),
    }
}

/// Reads one rebased segment (inverse of [`super::write_segment`]).
pub(crate) fn read_segment(reader: &mut Reader<'_>) -> Result<Segment, CodecError> {
    let context = ContextId(read_u32(reader, "context id")?);
    let start = Time::from_nanos(read_u64(reader)?);
    let end = Time::from_nanos(read_u64(reader)?);
    let event_count = read_u64(reader)?;
    if event_count > (reader.remaining() as u64 + 1) * 8 {
        return Err(CodecError::LengthTooLarge(event_count));
    }
    // Every event takes at least five bytes (region, start delta, duration,
    // wait, comm tag), so that is all the reservation the input can back.
    let mut events = Vec::with_capacity(clamp_count(event_count, reader.remaining() / 5));
    let mut prev_time = Time::ZERO;
    for _ in 0..event_count {
        let (event, new_prev) = read_event(reader, prev_time)?;
        prev_time = new_prev;
        events.push(event);
    }
    Ok(Segment {
        context,
        start,
        end,
        events,
    })
}

/// Reads one stored representative segment (inverse of
/// [`super::write_stored_segment`]).
pub fn read_stored_segment(reader: &mut Reader<'_>) -> Result<StoredSegment, CodecError> {
    let id = read_u32(reader, "stored segment id")?;
    let represented = read_u32(reader, "represented count")?;
    let segment = read_segment(reader)?;
    Ok(StoredSegment {
        id,
        segment,
        represented,
    })
}

/// Reads one segment execution with its start delta-encoded against
/// `prev_start`; returns the execution and the new `prev_start`.
#[inline]
pub fn read_exec(
    reader: &mut Reader<'_>,
    prev_start: Time,
) -> Result<(SegmentExec, Time), CodecError> {
    let segment = read_u32(reader, "executed segment id")?;
    let delta = read_i64(reader)?;
    let start = apply_time_delta(prev_start, delta)?;
    Ok((SegmentExec { segment, start }, start))
}
