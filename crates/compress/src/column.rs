//! Trace-aware columnar transform for chunk payloads.
//!
//! A container chunk payload is row-oriented: records (or stored segments,
//! or executions) one after another, each interleaving a tag byte, ids,
//! time stamps and communication parameters.  That interleaving is what
//! keeps a generic byte compressor from seeing the structure — consecutive
//! *records* are near-identical in iterative traces, but consecutive
//! *bytes* are not.
//!
//! The transform splits the payload into per-field streams and delta-codes
//! the ones that are monotone or slowly varying (time stamps, region and
//! context ids, segment ids, message sizes), zig-zag + varint encoded so
//! small deltas stay at one byte:
//!
//! ```text
//! columnar := item_count varint | stream*          (fixed set per payload class)
//! stream   := byte_len varint | bytes
//! ```
//!
//! Columns alone are roughly size-neutral (a transposition plus per-stream
//! headers; repetitive fields collapse to runs of one-byte zero deltas,
//! noisy ones — durations and waits — are deliberately left as raw
//! varints).  Their value is what the LZ backend sees afterwards: in
//! `delta-lz`, the homogeneous streams turn repeating trace structure into
//! byte runs the match finder can fold away, measurably beating LZ over
//! raw rows (EXPERIMENTS.md Table 5).  The inverse transform reconstructs
//! the row payload byte-for-byte: the row codec's varints are canonical,
//! so decode → re-encode is the identity on every payload the container
//! writer produces.
//!
//! Numeric streams use *wrapping* deltas (`value - last` in two's
//! complement), which is bijective on `u64` and therefore total: no input
//! value can overflow the transform.  Time streams reuse the row codec's
//! exact svarint delta rule (including the per-chunk and per-segment clock
//! restarts) so the reconstructed deltas match the originals bit for bit.
//!
//! Neither direction goes through row bytes on a container's path.  The
//! writer hands each record, stored segment or execution to a
//! `ColumnWriter` as it appends it to the row body, and by the time a chunk
//! is cut its streams are complete; the reader's
//! [`ChunkDecoder`](crate::ChunkDecoder) reads the streams straight into
//! typed items ([`ChunkItem::decode_columns`](crate::ChunkItem)) appended to
//! a buffer the caller reuses.  The row-level entry points are the same code
//! driven from the other side: [`column_encode`] parses the rows into items
//! and makes the writer's pushes, [`column_decode`] decodes the items and
//! writes them back as rows — so each direction has exactly one place where
//! a field is assigned to a stream.  The stream buffers belong to the
//! writer's [`ChunkEncoder`](crate::ChunkEncoder) and are cleared, not
//! reallocated, between chunks.

use trace_model::codec::varint::{narrow_u32, read_i64, read_u64, write_i64, write_u64};
use trace_model::codec::{
    clamp_count, write_exec, write_record, write_stored_segment, CodecError, Reader,
};
use trace_model::{
    CollectiveOp, CommInfo, ContextId, Event, Rank, RegionId, Segment, SegmentExec, StoredSegment,
    Time, TraceRecord,
};

use crate::decode::ChunkItem;
use crate::error::CompressError;

/// Which column schema a chunk payload uses.
///
/// The class follows the chunk kind: `RECORDS` chunks hold trace records,
/// `STORED` chunks hold representative segments, `EXECS` chunks hold
/// segment executions.  Control chunks (preamble, section markers, index)
/// are [`PayloadClass::Opaque`]: the columnar transform passes them through
/// unchanged (the LZ backend still applies to them when asked).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadClass {
    /// Raw trace records (app containers).
    Records,
    /// Stored representative segments (reduced containers).
    Stored,
    /// Segment executions (reduced containers).
    Execs,
    /// No trace structure; the columnar transform is the identity.
    Opaque,
}

/// Column tag bytes.  These are internal to the columnar format (the row
/// codec's tags are reconstructed by re-encoding, not copied), though they
/// use the same values as the row codec for easy cross-reading of dumps.
mod tag {
    pub const SEGMENT_BEGIN: u8 = 0;
    pub const SEGMENT_END: u8 = 1;
    pub const EVENT: u8 = 2;

    pub const COMM_COMPUTE: u8 = 0;
    pub const COMM_SEND: u8 = 1;
    pub const COMM_RECV: u8 = 2;
    pub const COMM_SENDRECV: u8 = 3;
    pub const COMM_COLLECTIVE: u8 = 4;
}

fn collective_op_tag(op: CollectiveOp) -> u8 {
    // Exhaustive match instead of a position() lookup so adding a variant is
    // a compile error here rather than a panic path.
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

fn collective_op_from_tag(byte: u8) -> Result<CollectiveOp, CompressError> {
    CollectiveOp::ALL
        .get(byte as usize)
        .copied()
        .ok_or(CompressError::Codec(CodecError::BadTag {
            what: "columnar collective op",
            tag: byte,
        }))
}

/// Write half of a wrapping-delta + zig-zag varint stream.
#[derive(Default)]
struct DeltaWriter {
    buf: Vec<u8>,
    last: u64,
}

impl DeltaWriter {
    fn push(&mut self, value: u64) {
        write_i64(&mut self.buf, value.wrapping_sub(self.last) as i64);
        self.last = value;
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.last = 0;
    }
}

/// Read half of a wrapping-delta stream.
struct DeltaReader<'a> {
    reader: Reader<'a>,
    last: u64,
}

impl<'a> DeltaReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        DeltaReader {
            reader: Reader::new(bytes),
            last: 0,
        }
    }

    // The stream readers are forced into the decode loops: as calls each
    // returned a 40-byte `Result` through memory, once per field, and the
    // columns → records loop ran at half the speed (EXPERIMENTS.md,
    // "Container decode").
    #[inline(always)]
    fn next(&mut self) -> Result<u64, CompressError> {
        let delta = read_i64(&mut self.reader)?;
        self.last = self.last.wrapping_add(delta as u64);
        Ok(self.last)
    }

    /// The next value of a stream whose field is a `u32` (`what` names it).
    #[inline(always)]
    fn next_u32(&mut self, what: &'static str) -> Result<u32, CompressError> {
        Ok(narrow_u32(self.next()?, what)?)
    }
}

/// Write half of a time stream: the row codec's exact svarint delta rule.
/// (A second-order difference was tried here and measured *worse*: the
/// workloads' inter-record gaps carry simulated timing noise, and
/// differencing noise doubles its variance instead of cancelling it.)
#[derive(Default)]
struct TimeWriter {
    buf: Vec<u8>,
    prev: Time,
    /// A time stamp past `i64::MAX` ns went in: [`TimeReader`] (and the row
    /// codec) would refuse the stream, so [`ColumnWriter::finish`] does.
    out_of_range: bool,
}

impl TimeWriter {
    fn push(&mut self, time: Time) {
        self.out_of_range |= time.as_nanos() > i64::MAX as u64;
        write_i64(
            &mut self.buf,
            (time.as_nanos() as i64).wrapping_sub(self.prev.as_nanos() as i64),
        );
        self.prev = time;
    }

    /// Restarts the delta clock (the events of a stored segment restart it
    /// per segment, exactly as in the row codec).
    fn restart(&mut self) {
        self.prev = Time::ZERO;
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.prev = Time::ZERO;
        self.out_of_range = false;
    }
}

/// Read half of a time stream, with the row codec's negative-time check.
struct TimeReader<'a> {
    reader: Reader<'a>,
    prev: Time,
}

impl<'a> TimeReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        TimeReader {
            reader: Reader::new(bytes),
            prev: Time::ZERO,
        }
    }

    #[inline(always)]
    fn next(&mut self) -> Result<Time, CompressError> {
        let delta = read_i64(&mut self.reader)?;
        // checked_add, not +: a crafted stream can pair deltas that
        // overflow i64, and totality on untrusted input is part of this
        // crate's contract (debug builds would otherwise panic).
        let nanos = (self.prev.as_nanos() as i64).checked_add(delta);
        match nanos {
            Some(nanos) if nanos >= 0 => {
                self.prev = Time::from_nanos(nanos as u64);
                Ok(self.prev)
            }
            _ => Err(CompressError::Codec(CodecError::NegativeTime)),
        }
    }

    fn restart(&mut self) {
        self.prev = Time::ZERO;
    }
}

/// Reads one byte off a raw byte stream (a tags column).
#[inline]
fn next_tag(reader: &mut Reader<'_>, what: &'static str) -> Result<u8, CompressError> {
    reader
        .read_byte()
        .map_err(|_| CompressError::Truncated { what })
}

/// Serializes `count` plus the given streams in order, replacing the
/// contents of `out`.
fn write_streams(out: &mut Vec<u8>, count: u64, streams: &[&[u8]]) {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    out.clear();
    out.reserve(total + streams.len() * 3 + 4);
    write_u64(out, count);
    for stream in streams {
        write_u64(out, stream.len() as u64);
        out.extend_from_slice(stream);
    }
}

/// Reads `N` length-prefixed streams, requiring them to exhaust the input.
fn read_streams<const N: usize>(payload: &[u8]) -> Result<(u64, [&[u8]; N]), CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut streams: [&[u8]; N] = [&[]; N];
    for stream in streams.iter_mut() {
        let len = read_u64(&mut reader)?;
        if len > reader.remaining() as u64 {
            return Err(CompressError::LengthOverflow {
                what: "columnar stream",
                declared: len,
                limit: reader.remaining() as u64,
            });
        }
        *stream = reader
            .read_bytes(len as usize)
            .map_err(|_| CompressError::Truncated {
                what: "columnar stream",
            })?;
    }
    if !reader.is_at_end() {
        return Err(CompressError::TrailingBytes {
            what: "the declared columnar streams",
            bytes: reader.remaining(),
        });
    }
    Ok((count, streams))
}

/// Requires a stream reader to be fully consumed once all items are read.
fn require_at_end(reader: &Reader<'_>, what: &'static str) -> Result<(), CompressError> {
    if !reader.is_at_end() {
        return Err(CompressError::TrailingBytes {
            what,
            bytes: reader.remaining(),
        });
    }
    Ok(())
}

/// The event-field columns shared by the `Records` and `Stored` schemas.
///
/// Durations and waits are stored as raw varints, not deltas: they carry
/// the workloads' timing noise, and delta+zigzag on noise doubles its
/// magnitude (measured: it *expanded* those streams).  Grouping them into
/// their own streams is what helps — identical events produce identical
/// varints back to back, which the LZ layer folds into matches.
#[derive(Default)]
struct EventColumnsW {
    tags: Vec<u8>,
    regions: DeltaWriter,
    durations: Vec<u8>,
    waits: Vec<u8>,
    peers: DeltaWriter,
    meta: DeltaWriter,
    sizes: DeltaWriter,
}

impl EventColumnsW {
    /// Pushes every field of `event` except its start time (the time stream
    /// is owned by the caller, whose delta clock also covers non-event
    /// records).
    fn push(&mut self, event: &Event) {
        self.regions.push(u64::from(event.region.as_u32()));
        write_u64(&mut self.durations, event.duration().as_nanos());
        write_u64(&mut self.waits, event.wait.as_nanos());
        match event.comm {
            CommInfo::Compute => self.tags.push(tag::COMM_COMPUTE),
            CommInfo::Send {
                peer,
                tag: t,
                bytes,
            } => {
                self.tags.push(tag::COMM_SEND);
                self.peers.push(u64::from(peer.as_u32()));
                self.meta.push(u64::from(t));
                self.sizes.push(bytes);
            }
            CommInfo::Recv {
                peer,
                tag: t,
                bytes,
            } => {
                self.tags.push(tag::COMM_RECV);
                self.peers.push(u64::from(peer.as_u32()));
                self.meta.push(u64::from(t));
                self.sizes.push(bytes);
            }
            CommInfo::SendRecv {
                to,
                from,
                tag: t,
                bytes,
            } => {
                self.tags.push(tag::COMM_SENDRECV);
                self.peers.push(u64::from(to.as_u32()));
                self.peers.push(u64::from(from.as_u32()));
                self.meta.push(u64::from(t));
                self.sizes.push(bytes);
            }
            CommInfo::Collective {
                op,
                root,
                comm_size,
                bytes,
            } => {
                self.tags.push(tag::COMM_COLLECTIVE);
                self.tags.push(collective_op_tag(op));
                self.peers.push(u64::from(root.as_u32()));
                self.meta.push(u64::from(comm_size));
                self.sizes.push(bytes);
            }
        }
    }

    fn streams(&self) -> [&[u8]; 7] {
        [
            &self.tags,
            &self.regions.buf,
            &self.durations,
            &self.waits,
            &self.peers.buf,
            &self.meta.buf,
            &self.sizes.buf,
        ]
    }

    fn clear(&mut self) {
        self.tags.clear();
        self.regions.clear();
        self.durations.clear();
        self.waits.clear();
        self.peers.clear();
        self.meta.clear();
        self.sizes.clear();
    }
}

struct EventColumnsR<'a> {
    tags: Reader<'a>,
    regions: DeltaReader<'a>,
    durations: Reader<'a>,
    waits: Reader<'a>,
    peers: DeltaReader<'a>,
    meta: DeltaReader<'a>,
    sizes: DeltaReader<'a>,
}

impl<'a> EventColumnsR<'a> {
    fn new(streams: [&'a [u8]; 7]) -> Self {
        let [tags, regions, durations, waits, peers, meta, sizes] = streams;
        EventColumnsR {
            tags: Reader::new(tags),
            regions: DeltaReader::new(regions),
            durations: Reader::new(durations),
            waits: Reader::new(waits),
            peers: DeltaReader::new(peers),
            meta: DeltaReader::new(meta),
            sizes: DeltaReader::new(sizes),
        }
    }

    /// Reads back every field [`EventColumnsW::push`] wrote; `start` comes
    /// from the caller's time stream.
    #[inline(always)]
    fn next(&mut self, start: Time) -> Result<Event, CompressError> {
        let region = RegionId(self.regions.next_u32("region id")?);
        let duration = Time::from_nanos(read_u64(&mut self.durations)?);
        let wait = Time::from_nanos(read_u64(&mut self.waits)?);
        let comm = match next_tag(&mut self.tags, "a columnar comm-tags stream")? {
            tag::COMM_COMPUTE => CommInfo::Compute,
            tag::COMM_SEND => CommInfo::Send {
                peer: Rank(self.peers.next_u32("peer rank")?),
                tag: self.meta.next_u32("message tag")?,
                bytes: self.sizes.next()?,
            },
            tag::COMM_RECV => CommInfo::Recv {
                peer: Rank(self.peers.next_u32("peer rank")?),
                tag: self.meta.next_u32("message tag")?,
                bytes: self.sizes.next()?,
            },
            tag::COMM_SENDRECV => CommInfo::SendRecv {
                to: Rank(self.peers.next_u32("peer rank")?),
                from: Rank(self.peers.next_u32("peer rank")?),
                tag: self.meta.next_u32("message tag")?,
                bytes: self.sizes.next()?,
            },
            tag::COMM_COLLECTIVE => {
                let op = collective_op_from_tag(next_tag(
                    &mut self.tags,
                    "a columnar comm-tags stream",
                )?)?;
                CommInfo::Collective {
                    op,
                    root: Rank(self.peers.next_u32("root rank")?),
                    comm_size: self.meta.next_u32("communicator size")?,
                    bytes: self.sizes.next()?,
                }
            }
            other => {
                return Err(CompressError::Codec(CodecError::BadTag {
                    what: "columnar comm info",
                    tag: other,
                }))
            }
        };
        Ok(Event {
            region,
            start,
            end: start + duration,
            comm,
            wait,
        })
    }

    /// Requires every event stream to be fully consumed.
    fn finish(&self) -> Result<(), CompressError> {
        require_at_end(&self.tags, "the items of a comm-tags column")?;
        require_at_end(&self.regions.reader, "the items of a regions column")?;
        require_at_end(&self.durations, "the items of a durations column")?;
        require_at_end(&self.waits, "the items of a waits column")?;
        require_at_end(&self.peers.reader, "the items of a peers column")?;
        require_at_end(&self.meta.reader, "the items of a meta column")?;
        require_at_end(&self.sizes.reader, "the items of a sizes column")
    }
}

// ---------------------------------------------------------------------------
// Write side: columns filled from records
// ---------------------------------------------------------------------------

/// The column streams of one chunk, filled item by item.
///
/// The container writer pushes every record (stored segment, execution) it
/// appends to a chunk's row body, so that by the time the chunk is cut its
/// columns are already there and nothing has to parse the row bytes back;
/// [`column_encode`] is the same pushes driven from a parsed row payload.
/// A chunk holds items of one [`PayloadClass`] only — the classes share
/// stream storage — and [`ColumnWriter::finish`] empties the writer for the
/// next chunk, keeping the buffers.
#[derive(Default)]
pub(crate) struct ColumnWriter {
    /// Items pushed (records, stored segments or executions).
    count: u64,
    /// `RECORDS`: one record tag per item.
    tags: Vec<u8>,
    /// `STORED`, `EXECS`.
    seg_ids: DeltaWriter,
    /// `STORED`: represented counts, segment bounds, events per segment.
    reps: DeltaWriter,
    starts: DeltaWriter,
    ends: DeltaWriter,
    counts: DeltaWriter,
    /// `RECORDS`, `STORED`.
    contexts: DeltaWriter,
    /// Every class.
    times: TimeWriter,
    /// `RECORDS`, `STORED`.
    events: EventColumnsW,
}

impl ColumnWriter {
    /// Adds one trace record to the columns of a `RECORDS` chunk.
    pub(crate) fn push_record(&mut self, record: &TraceRecord) {
        self.count += 1;
        match record {
            TraceRecord::SegmentBegin { context, time } => {
                self.tags.push(tag::SEGMENT_BEGIN);
                self.contexts.push(u64::from(context.as_u32()));
                self.times.push(*time);
            }
            TraceRecord::SegmentEnd { context, time } => {
                self.tags.push(tag::SEGMENT_END);
                self.contexts.push(u64::from(context.as_u32()));
                self.times.push(*time);
            }
            TraceRecord::Event(event) => {
                self.tags.push(tag::EVENT);
                self.times.push(event.start);
                self.events.push(event);
            }
        }
    }

    /// Adds one stored representative to the columns of a `STORED` chunk.
    pub(crate) fn push_stored(&mut self, stored: &StoredSegment) {
        self.count += 1;
        self.seg_ids.push(u64::from(stored.id));
        self.reps.push(u64::from(stored.represented));
        self.contexts
            .push(u64::from(stored.segment.context.as_u32()));
        self.starts.push(stored.segment.start.as_nanos());
        self.ends.push(stored.segment.end.as_nanos());
        self.counts.push(stored.segment.events.len() as u64);
        self.times.restart();
        for event in &stored.segment.events {
            self.times.push(event.start);
            self.events.push(event);
        }
    }

    /// Adds one segment execution to the columns of an `EXECS` chunk.
    pub(crate) fn push_exec(&mut self, exec: &SegmentExec) {
        self.count += 1;
        self.seg_ids.push(u64::from(exec.segment));
        self.times.push(exec.start);
    }

    /// Parses a row payload of `class` and pushes its items.
    fn push_rows(&mut self, class: PayloadClass, rows: &[u8]) -> Result<(), CompressError> {
        fn items<T: ChunkItem>(rows: &[u8]) -> Result<Vec<T>, CompressError> {
            let mut items = Vec::new();
            T::decode_rows(rows, &mut items)?;
            Ok(items)
        }
        match class {
            PayloadClass::Records => items(rows)?.iter().for_each(|r| self.push_record(r)),
            PayloadClass::Stored => items(rows)?.iter().for_each(|s| self.push_stored(s)),
            PayloadClass::Execs => items(rows)?.iter().for_each(|e| self.push_exec(e)),
            PayloadClass::Opaque => {}
        }
        Ok(())
    }

    /// Writes the columnar form of the chunk into `out` (replacing its
    /// contents) and empties the writer.  `rows` is the chunk's row payload,
    /// which *is* the columnar form of a [`PayloadClass::Opaque`] chunk; the
    /// other classes are serialized from the pushed items alone.
    ///
    /// Fails, like the row codec reading `rows` back would, when a pushed
    /// time stamp lies past `i64::MAX` ns.
    pub(crate) fn finish(
        &mut self,
        class: PayloadClass,
        rows: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CompressError> {
        let [ev_tags, regions, durations, waits, peers, meta, sizes] = self.events.streams();
        let times = &self.times.buf;
        match class {
            PayloadClass::Records => write_streams(
                out,
                self.count,
                &[
                    &self.tags,
                    &self.contexts.buf,
                    times,
                    ev_tags,
                    regions,
                    durations,
                    waits,
                    peers,
                    meta,
                    sizes,
                ],
            ),
            PayloadClass::Stored => write_streams(
                out,
                self.count,
                &[
                    &self.seg_ids.buf,
                    &self.reps.buf,
                    &self.contexts.buf,
                    &self.starts.buf,
                    &self.ends.buf,
                    &self.counts.buf,
                    times,
                    ev_tags,
                    regions,
                    durations,
                    waits,
                    peers,
                    meta,
                    sizes,
                ],
            ),
            PayloadClass::Execs => write_streams(out, self.count, &[&self.seg_ids.buf, times]),
            PayloadClass::Opaque => {
                out.clear();
                out.extend_from_slice(rows);
            }
        }
        let out_of_range = self.times.out_of_range;
        self.clear();
        if out_of_range {
            return Err(CompressError::Codec(CodecError::NegativeTime));
        }
        Ok(())
    }

    fn clear(&mut self) {
        self.count = 0;
        self.tags.clear();
        self.seg_ids.clear();
        self.reps.clear();
        self.starts.clear();
        self.ends.clear();
        self.counts.clear();
        self.contexts.clear();
        self.times.clear();
        self.events.clear();
    }
}

// ---------------------------------------------------------------------------
// Read side: column streams read into items
// ---------------------------------------------------------------------------

/// Appends the records of a columnar `RECORDS` payload to `out`.
pub(crate) fn records_from_columns(
    payload: &[u8],
    out: &mut Vec<TraceRecord>,
) -> Result<(), CompressError> {
    let (count, streams) = read_streams::<10>(payload)?;
    let [tags, contexts, times, ev_tags, regions, durations, waits, peers, meta, sizes] = streams;
    // One tag byte per record backs the declared count.
    out.reserve(clamp_count(count, tags.len()));
    let mut tags = Reader::new(tags);
    let mut contexts = DeltaReader::new(contexts);
    let mut times = TimeReader::new(times);
    let mut events = EventColumnsR::new([ev_tags, regions, durations, waits, peers, meta, sizes]);

    for _ in 0..count {
        out.push(
            match next_tag(&mut tags, "a columnar record-tags stream")? {
                tag::SEGMENT_BEGIN => TraceRecord::SegmentBegin {
                    context: ContextId(contexts.next_u32("context id")?),
                    time: times.next()?,
                },
                tag::SEGMENT_END => TraceRecord::SegmentEnd {
                    context: ContextId(contexts.next_u32("context id")?),
                    time: times.next()?,
                },
                tag::EVENT => {
                    let start = times.next()?;
                    TraceRecord::Event(events.next(start)?)
                }
                other => {
                    return Err(CompressError::Codec(CodecError::BadTag {
                        what: "columnar trace record",
                        tag: other,
                    }))
                }
            },
        );
    }
    require_at_end(&tags, "the items of a record-tags column")?;
    require_at_end(&contexts.reader, "the items of a contexts column")?;
    require_at_end(&times.reader, "the items of a times column")?;
    events.finish()
}

/// Appends the representatives of a columnar `STORED` payload to `out`.
pub(crate) fn stored_from_columns(
    payload: &[u8],
    out: &mut Vec<StoredSegment>,
) -> Result<(), CompressError> {
    let (count, streams) = read_streams::<14>(payload)?;
    let [seg_ids, reps, contexts, starts, ends, counts, times, ev_tags, regions, durations, waits, peers, meta, sizes] =
        streams;
    // At least one id byte per segment and one comm tag per event back the
    // declared counts.
    out.reserve(clamp_count(count, seg_ids.len()));
    let mut seg_ids = DeltaReader::new(seg_ids);
    let mut reps = DeltaReader::new(reps);
    let mut contexts = DeltaReader::new(contexts);
    let mut starts = DeltaReader::new(starts);
    let mut ends = DeltaReader::new(ends);
    let mut counts = DeltaReader::new(counts);
    let mut times = TimeReader::new(times);
    let mut events = EventColumnsR::new([ev_tags, regions, durations, waits, peers, meta, sizes]);

    for _ in 0..count {
        let id = seg_ids.next_u32("stored segment id")?;
        let represented = reps.next_u32("represented count")?;
        let context = ContextId(contexts.next_u32("context id")?);
        let start = Time::from_nanos(starts.next()?);
        let end = Time::from_nanos(ends.next()?);
        let event_count = counts.next()?;
        times.restart();
        let mut segment_events =
            Vec::with_capacity(clamp_count(event_count, events.tags.remaining()));
        for _ in 0..event_count {
            let event_start = times.next()?;
            segment_events.push(events.next(event_start)?);
        }
        out.push(StoredSegment {
            id,
            represented,
            segment: Segment {
                context,
                start,
                end,
                events: segment_events,
            },
        });
    }
    require_at_end(&seg_ids.reader, "the items of a segment-ids column")?;
    require_at_end(&reps.reader, "the items of a represented column")?;
    require_at_end(&contexts.reader, "the items of a contexts column")?;
    require_at_end(&starts.reader, "the items of a starts column")?;
    require_at_end(&ends.reader, "the items of an ends column")?;
    require_at_end(&counts.reader, "the items of a counts column")?;
    require_at_end(&times.reader, "the items of a times column")?;
    events.finish()
}

/// Appends the executions of a columnar `EXECS` payload to `out`.
pub(crate) fn execs_from_columns(
    payload: &[u8],
    out: &mut Vec<SegmentExec>,
) -> Result<(), CompressError> {
    let (count, streams) = read_streams::<2>(payload)?;
    let [seg_ids, times] = streams;
    // At least one id byte per execution backs the declared count.
    out.reserve(clamp_count(count, seg_ids.len()));
    let mut seg_ids = DeltaReader::new(seg_ids);
    let mut times = TimeReader::new(times);

    for _ in 0..count {
        out.push(SegmentExec {
            segment: seg_ids.next_u32("executed segment id")?,
            start: times.next()?,
        });
    }
    require_at_end(&seg_ids.reader, "the items of a segment-ids column")?;
    require_at_end(&times.reader, "the items of a times column")
}

/// The items of a columnar payload, through `write` back into the row
/// payload they were encoded from: the declared count, then every item.
fn rows_from_columns<T: ChunkItem>(
    payload: &[u8],
    write: impl FnOnce(&mut Vec<u8>, &[T]),
) -> Result<Vec<u8>, CompressError> {
    let mut items = Vec::new();
    T::decode_columns(payload, &mut items)?;
    let mut rows = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut rows, items.len() as u64);
    write(&mut rows, &items);
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Applies the columnar transform to a row payload of the given class.
///
/// The payload must be canonical row bytes as produced by the container
/// writer (it is parsed with the row codec and its items pushed into the
/// column streams, as [`crate::ChunkEncoder`] pushes them unparsed);
/// malformed input is a typed error.
pub fn column_encode(class: PayloadClass, payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut columns = ColumnWriter::default();
    columns.push_rows(class, payload)?;
    let mut out = Vec::new();
    columns.finish(class, payload, &mut out)?;
    Ok(out)
}

/// Inverts [`column_encode`], reconstructing the row payload byte-for-byte:
/// the items are decoded as a reader decodes them and written back with the
/// row codec, whose varints are canonical.
pub fn column_decode(class: PayloadClass, payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    match class {
        PayloadClass::Records => rows_from_columns(payload, |rows, records: &[TraceRecord]| {
            let mut prev = Time::ZERO;
            for record in records {
                prev = write_record(rows, record, prev);
            }
        }),
        PayloadClass::Stored => rows_from_columns(payload, |rows, stored: &[StoredSegment]| {
            for segment in stored {
                write_stored_segment(rows, segment);
            }
        }),
        PayloadClass::Execs => rows_from_columns(payload, |rows, execs: &[SegmentExec]| {
            let mut prev = Time::ZERO;
            for exec in execs {
                prev = write_exec(rows, exec, prev);
            }
        }),
        PayloadClass::Opaque => Ok(payload.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        let mut records = Vec::new();
        for i in 0..40u64 {
            let base = 1_000 * i;
            records.push(TraceRecord::SegmentBegin {
                context: ContextId(1),
                time: Time::from_nanos(base),
            });
            records.push(TraceRecord::Event(Event::compute(
                RegionId(0),
                Time::from_nanos(base + 10),
                Time::from_nanos(base + 200),
            )));
            records.push(TraceRecord::Event(
                Event::with_comm(
                    RegionId(2),
                    Time::from_nanos(base + 210),
                    Time::from_nanos(base + 400),
                    if i % 2 == 0 {
                        CommInfo::Send {
                            peer: Rank(1),
                            tag: 7,
                            bytes: 4096,
                        }
                    } else {
                        CommInfo::Collective {
                            op: CollectiveOp::Allreduce,
                            root: Rank(0),
                            comm_size: 8,
                            bytes: 256,
                        }
                    },
                )
                .with_wait(Time::from_nanos(13)),
            ));
            records.push(TraceRecord::SegmentEnd {
                context: ContextId(1),
                time: Time::from_nanos(base + 410),
            });
        }
        records
    }

    fn records_payload(records: &[TraceRecord]) -> Vec<u8> {
        let mut payload = Vec::new();
        write_u64(&mut payload, records.len() as u64);
        let mut prev = Time::ZERO;
        for record in records {
            prev = write_record(&mut payload, record, prev);
        }
        payload
    }

    #[test]
    fn records_round_trip_and_stay_near_row_size() {
        let payload = records_payload(&sample_records());
        let columnar = column_encode(PayloadClass::Records, &payload).unwrap();
        assert_eq!(
            column_decode(PayloadClass::Records, &columnar).unwrap(),
            payload
        );
        // The transform is roughly size-neutral on its own (a transposition
        // plus per-stream length headers); its value is what the LZ layer
        // can do with the homogeneous streams, asserted in lib.rs.
        assert!(
            columnar.len() <= payload.len() + 64,
            "columnar {} vs row {}",
            columnar.len(),
            payload.len()
        );
    }

    #[test]
    fn stored_and_execs_round_trip() {
        let events: Vec<Event> = (0..10)
            .map(|i| {
                Event::with_comm(
                    RegionId(i % 3),
                    Time::from_nanos(u64::from(i) * 100),
                    Time::from_nanos(u64::from(i) * 100 + 80),
                    CommInfo::SendRecv {
                        to: Rank(i),
                        from: Rank(i + 1),
                        tag: 3,
                        bytes: 512,
                    },
                )
            })
            .collect();
        let mut payload = Vec::new();
        write_u64(&mut payload, 3);
        for id in 0..3u32 {
            write_stored_segment(
                &mut payload,
                &StoredSegment {
                    id,
                    represented: 5 + id,
                    segment: Segment {
                        context: ContextId(2),
                        start: Time::ZERO,
                        end: Time::from_nanos(1_000),
                        events: events.clone(),
                    },
                },
            );
        }
        let columnar = column_encode(PayloadClass::Stored, &payload).unwrap();
        assert_eq!(
            column_decode(PayloadClass::Stored, &columnar).unwrap(),
            payload
        );

        let mut payload = Vec::new();
        write_u64(&mut payload, 64);
        let mut prev = Time::ZERO;
        for i in 0..64u64 {
            prev = write_exec(
                &mut payload,
                &SegmentExec {
                    segment: (i % 4) as u32,
                    start: Time::from_nanos(i * 777),
                },
                prev,
            );
        }
        let columnar = column_encode(PayloadClass::Execs, &payload).unwrap();
        assert_eq!(
            column_decode(PayloadClass::Execs, &columnar).unwrap(),
            payload
        );
    }

    #[test]
    fn opaque_is_the_identity() {
        let payload = b"arbitrary control bytes".to_vec();
        let encoded = column_encode(PayloadClass::Opaque, &payload).unwrap();
        assert_eq!(encoded, payload);
        assert_eq!(
            column_decode(PayloadClass::Opaque, &encoded).unwrap(),
            payload
        );
    }

    #[test]
    fn malformed_columnar_payloads_are_typed_errors() {
        // Truncation anywhere in a valid columnar payload.
        let payload = records_payload(&sample_records());
        let columnar = column_encode(PayloadClass::Records, &payload).unwrap();
        for cut in 0..columnar.len() {
            assert!(
                column_decode(PayloadClass::Records, &columnar[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // A stream length pointing past the input.
        let mut oversized = Vec::new();
        write_u64(&mut oversized, 1);
        write_u64(&mut oversized, 1_000_000);
        assert!(matches!(
            column_decode(PayloadClass::Execs, &oversized),
            Err(CompressError::LengthOverflow { .. })
        ));
        // An unknown record tag inside the tags column.
        let mut bad = Vec::new();
        write_streams(
            &mut bad,
            1,
            &[&[9u8], &[], &[], &[], &[], &[], &[], &[], &[], &[]],
        );
        assert!(matches!(
            column_decode(PayloadClass::Records, &bad),
            Err(CompressError::Codec(CodecError::BadTag { .. }))
        ));
        // Trailing bytes after the declared streams.
        let mut trailing = column_encode(PayloadClass::Records, &payload).unwrap();
        trailing.push(0);
        assert!(matches!(
            column_decode(PayloadClass::Records, &trailing),
            Err(CompressError::TrailingBytes { .. })
        ));
        // A count larger than the columns actually hold.
        let mut empty_streams = Vec::new();
        write_streams(&mut empty_streams, 5, &[&[][..]; 10]);
        assert!(matches!(
            column_decode(PayloadClass::Records, &empty_streams),
            Err(CompressError::Truncated { .. })
        ));
        // Row-side: a malformed row payload is rejected by the encoder.
        assert!(column_encode(PayloadClass::Records, &[0x07]).is_err());
    }

    #[test]
    fn overflowing_time_deltas_are_typed_errors_not_panics() {
        // A crafted times stream pairing deltas that sum past i64::MAX:
        // reconstruction must fail with NegativeTime, not overflow.
        let mut times = Vec::new();
        write_i64(&mut times, i64::MAX);
        write_i64(&mut times, 1);
        let mut seg_ids = Vec::new();
        write_i64(&mut seg_ids, 0);
        write_i64(&mut seg_ids, 0);
        let mut crafted = Vec::new();
        write_streams(&mut crafted, 2, &[&seg_ids, &times]);
        assert!(matches!(
            column_decode(PayloadClass::Execs, &crafted),
            Err(CompressError::Codec(CodecError::NegativeTime))
        ));
    }
}
