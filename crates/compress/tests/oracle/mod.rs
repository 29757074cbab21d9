//! The encoder as it stood before the reusable `LzEncoder` and the
//! record-fed column writers: `lz_compress` and `column_encode` verbatim
//! (only visibility and the `use` lines differ), kept as the reference the
//! differential suite in `encoder_equivalence.rs` compares the production
//! encoder against, byte for byte.  Below them, the decoder as it stood
//! before chunks decoded straight into items — `column_decode`, which
//! rebuilt the row payload, and the row loops of the container readers that
//! parsed it again — the reference of `decoder_equivalence.rs`.  Nothing
//! outside `tests/` links this.

// Each suite uses its half.
#![allow(dead_code)]

use trace_compress::{lz_decompress, Codec, CompressError, PayloadClass};
use trace_model::codec::varint::{read_i64, read_u64, write_i64, write_u64};
use trace_model::codec::{
    read_exec, read_record, read_stored_segment, write_exec, write_record, write_stored_segment,
    CodecError, Reader,
};
use trace_model::{
    CollectiveOp, CommInfo, ContextId, Event, Rank, RegionId, Segment, SegmentExec, StoredSegment,
    Time, TraceRecord,
};

// ---------------------------------------------------------------------------
// lz.rs
// ---------------------------------------------------------------------------

const MIN_MATCH: usize = 4;
const MAX_CHAIN: usize = 128;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(window: &[u8]) -> usize {
    // Callers pass windows of at least MIN_MATCH bytes; a shorter window
    // hashes to a fixed bucket instead of panicking.
    let v = match window.first_chunk::<4>() {
        Some(&bytes) => u32::from_le_bytes(bytes),
        None => 0,
    };
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]` (`a < b`).
#[inline]
fn match_length(input: &[u8], a: usize, b: usize) -> usize {
    let tail_a = input.get(a..).unwrap_or(&[]);
    let tail_b = input.get(b..).unwrap_or(&[]);
    tail_a
        .iter()
        .zip(tail_b)
        .take_while(|(x, y)| x == y)
        .count()
}

fn write_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = matched
        .map(|(_, len)| (len - MIN_MATCH).min(15) as u8)
        .unwrap_or(0);
    out.push((lit_nibble << 4) | match_nibble);
    if lit_nibble == 15 {
        write_u64(out, (literals.len() - 15) as u64);
    }
    out.extend_from_slice(literals);
    if let Some((distance, len)) = matched {
        write_u64(out, distance as u64);
        if match_nibble == 15 {
            write_u64(out, (len - MIN_MATCH - 15) as u64);
        }
    }
}

/// Compresses `input` into a self-contained LZ block.
///
/// The output is never larger than `input.len() + varint(len) + a few
/// bytes` of sequence overhead; callers that care (the container writer)
/// compare lengths and keep the raw payload when compression does not pay.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    write_u64(&mut out, input.len() as u64);
    if input.is_empty() {
        return out;
    }

    // The hash-chain internals index with loop invariants (hash4 yields
    // values below the table size by construction, positions stay below
    // input.len()); this is the trusted in-process encoder hot loop, not
    // untrusted input, so the invariants are allowed rather than re-checked
    // per byte.
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len()];
    let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, pos: usize| {
        let h = hash4(input.get(pos..).unwrap_or(&[]));
        // lint:allow(indexing) -- pos < input.len() == prev.len(); h < head.len() by the hash shift
        prev[pos] = head[h];
        // lint:allow(indexing) -- h < head.len() by the hash shift
        head[h] = pos;
    };
    let find = |head: &Vec<usize>, prev: &Vec<usize>, pos: usize| -> (usize, usize) {
        let mut best_len = 0usize;
        let mut best_pos = 0usize;
        // lint:allow(indexing) -- h < head.len() by the hash shift
        let mut candidate = head[hash4(input.get(pos..).unwrap_or(&[]))];
        let mut depth = 0usize;
        while candidate != usize::MAX && depth < MAX_CHAIN {
            let len = match_length(input, candidate, pos);
            if len > best_len {
                best_len = len;
                best_pos = candidate;
                if pos + len == input.len() {
                    break; // cannot do better than reaching the end
                }
            }
            // lint:allow(indexing) -- chain entries are positions already inserted, all < prev.len()
            candidate = prev[candidate];
            depth += 1;
        }
        (best_len, best_pos)
    };

    let mut lit_start = 0usize;
    let mut pos = 0usize;
    while pos + MIN_MATCH <= input.len() {
        let (best_len, best_pos) = find(&head, &prev, pos);
        if best_len < MIN_MATCH {
            insert(&mut head, &mut prev, pos);
            pos += 1;
            continue;
        }
        // Lazy matching: if starting one byte later yields a strictly
        // longer match, emit this byte as a literal and take the later
        // match instead (the classic gzip deferral, one step deep).
        if pos + 1 + MIN_MATCH <= input.len() {
            let (next_len, _) = find(&head, &prev, pos + 1);
            if next_len > best_len + 1 {
                insert(&mut head, &mut prev, pos);
                pos += 1;
                continue;
            }
        }
        write_sequence(
            &mut out,
            // lint:allow(indexing) -- lit_start <= pos <= input.len() by the scan loop
            &input[lit_start..pos],
            Some((pos - best_pos, best_len)),
        );
        let insert_end = (pos + best_len).min(input.len() - MIN_MATCH + 1);
        for p in pos..insert_end {
            insert(&mut head, &mut prev, p);
        }
        pos += best_len;
        lit_start = pos;
    }
    if lit_start < input.len() {
        // lint:allow(indexing) -- guarded by the bounds check on the previous line
        write_sequence(&mut out, &input[lit_start..], None);
    }
    out
}

// ---------------------------------------------------------------------------
// column.rs
// ---------------------------------------------------------------------------

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
}

/// Write half of a time stream: the row codec's exact svarint delta rule.
/// (A second-order difference was tried here and measured *worse*: the
/// workloads' inter-record gaps carry simulated timing noise, and
/// differencing noise doubles its variance instead of cancelling it.)
#[derive(Default)]
struct TimeWriter {
    buf: Vec<u8>,
    prev: Time,
}

impl TimeWriter {
    fn push(&mut self, time: Time) {
        write_i64(
            &mut self.buf,
            time.as_nanos() as i64 - self.prev.as_nanos() as i64,
        );
        self.prev = time;
    }

    /// Restarts the delta clock (the events of a stored segment restart it
    /// per segment, exactly as in the row codec).
    fn restart(&mut self) {
        self.prev = Time::ZERO;
    }
}

/// Serializes `count` plus the given streams in order.
fn write_streams(count: u64, streams: &[&[u8]]) -> Vec<u8> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut out = Vec::with_capacity(total + streams.len() * 3 + 4);
    write_u64(&mut out, count);
    for stream in streams {
        write_u64(&mut out, stream.len() as u64);
        out.extend_from_slice(stream);
    }
    out
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
}

fn encode_records(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut tags = Vec::new();
    let mut contexts = DeltaWriter::default();
    let mut times = TimeWriter::default();
    let mut events = EventColumnsW::default();
    let mut prev_time = Time::ZERO;
    for _ in 0..count {
        let (record, new_prev) = read_record(&mut reader, prev_time)?;
        prev_time = new_prev;
        match record {
            TraceRecord::SegmentBegin { context, time } => {
                tags.push(tag::SEGMENT_BEGIN);
                contexts.push(u64::from(context.as_u32()));
                times.push(time);
            }
            TraceRecord::SegmentEnd { context, time } => {
                tags.push(tag::SEGMENT_END);
                contexts.push(u64::from(context.as_u32()));
                times.push(time);
            }
            TraceRecord::Event(event) => {
                tags.push(tag::EVENT);
                times.push(event.start);
                events.push(&event);
            }
        }
    }
    require_at_end(&reader, "the declared records of a RECORDS payload")?;
    let event_streams = events.streams();
    let mut streams: Vec<&[u8]> = vec![&tags, &contexts.buf, &times.buf];
    streams.extend_from_slice(&event_streams);
    Ok(write_streams(count, &streams))
}

fn encode_stored(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut seg_ids = DeltaWriter::default();
    let mut reps = DeltaWriter::default();
    let mut contexts = DeltaWriter::default();
    let mut starts = DeltaWriter::default();
    let mut ends = DeltaWriter::default();
    let mut counts = DeltaWriter::default();
    let mut times = TimeWriter::default();
    let mut events = EventColumnsW::default();
    for _ in 0..count {
        let stored = read_stored_segment(&mut reader)?;
        seg_ids.push(u64::from(stored.id));
        reps.push(u64::from(stored.represented));
        contexts.push(u64::from(stored.segment.context.as_u32()));
        starts.push(stored.segment.start.as_nanos());
        ends.push(stored.segment.end.as_nanos());
        counts.push(stored.segment.events.len() as u64);
        times.restart();
        for event in &stored.segment.events {
            times.push(event.start);
            events.push(event);
        }
    }
    require_at_end(&reader, "the declared segments of a STORED payload")?;
    let event_streams = events.streams();
    let mut streams: Vec<&[u8]> = vec![
        &seg_ids.buf,
        &reps.buf,
        &contexts.buf,
        &starts.buf,
        &ends.buf,
        &counts.buf,
        &times.buf,
    ];
    streams.extend_from_slice(&event_streams);
    Ok(write_streams(count, &streams))
}

fn encode_execs(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = Reader::new(payload);
    let count = read_u64(&mut reader)?;
    let mut seg_ids = DeltaWriter::default();
    let mut times = TimeWriter::default();
    let mut prev = Time::ZERO;
    for _ in 0..count {
        let (exec, new_prev) = read_exec(&mut reader, prev)?;
        prev = new_prev;
        seg_ids.push(u64::from(exec.segment));
        times.push(exec.start);
    }
    require_at_end(&reader, "the declared executions of an EXECS payload")?;
    Ok(write_streams(count, &[&seg_ids.buf, &times.buf]))
}

/// Applies the columnar transform to a row payload of the given class.
///
/// The payload must be canonical row bytes as produced by the container
/// writer (the transform parses it with the row codec); malformed input is
/// a typed error.
pub fn column_encode(class: PayloadClass, payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    match class {
        PayloadClass::Records => encode_records(payload),
        PayloadClass::Stored => encode_stored(payload),
        PayloadClass::Execs => encode_execs(payload),
        PayloadClass::Opaque => Ok(payload.to_vec()),
    }
}

// ---------------------------------------------------------------------------
// column.rs, read side: columns back into row bytes
// ---------------------------------------------------------------------------

fn collective_op_from_tag(byte: u8) -> Result<CollectiveOp, CompressError> {
    CollectiveOp::ALL
        .get(byte as usize)
        .copied()
        .ok_or(CompressError::Codec(CodecError::BadTag {
            what: "columnar collective op",
            tag: byte,
        }))
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

    fn next(&mut self) -> Result<u64, CompressError> {
        let delta = read_i64(&mut self.reader)?;
        self.last = self.last.wrapping_add(delta as u64);
        Ok(self.last)
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
fn next_tag(reader: &mut Reader<'_>, what: &'static str) -> Result<u8, CompressError> {
    reader
        .read_byte()
        .map_err(|_| CompressError::Truncated { what })
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
    fn next(&mut self, start: Time) -> Result<Event, CompressError> {
        let region = RegionId(self.regions.next()? as u32);
        let duration = Time::from_nanos(read_u64(&mut self.durations)?);
        let wait = Time::from_nanos(read_u64(&mut self.waits)?);
        let comm = match next_tag(&mut self.tags, "a columnar comm-tags stream")? {
            tag::COMM_COMPUTE => CommInfo::Compute,
            tag::COMM_SEND => CommInfo::Send {
                peer: Rank(self.peers.next()? as u32),
                tag: self.meta.next()? as u32,
                bytes: self.sizes.next()?,
            },
            tag::COMM_RECV => CommInfo::Recv {
                peer: Rank(self.peers.next()? as u32),
                tag: self.meta.next()? as u32,
                bytes: self.sizes.next()?,
            },
            tag::COMM_SENDRECV => CommInfo::SendRecv {
                to: Rank(self.peers.next()? as u32),
                from: Rank(self.peers.next()? as u32),
                tag: self.meta.next()? as u32,
                bytes: self.sizes.next()?,
            },
            tag::COMM_COLLECTIVE => {
                let op = collective_op_from_tag(next_tag(
                    &mut self.tags,
                    "a columnar comm-tags stream",
                )?)?;
                CommInfo::Collective {
                    op,
                    root: Rank(self.peers.next()? as u32),
                    comm_size: self.meta.next()? as u32,
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

fn decode_records(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (count, streams) = read_streams::<10>(payload)?;
    let [tags, contexts, times, ev_tags, regions, durations, waits, peers, meta, sizes] = streams;
    let mut tags = Reader::new(tags);
    let mut contexts = DeltaReader::new(contexts);
    let mut times = TimeReader::new(times);
    let mut events = EventColumnsR::new([ev_tags, regions, durations, waits, peers, meta, sizes]);

    let mut out = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut out, count);
    let mut prev_time = Time::ZERO;
    for _ in 0..count {
        let record = match next_tag(&mut tags, "a columnar record-tags stream")? {
            tag::SEGMENT_BEGIN => TraceRecord::SegmentBegin {
                context: ContextId(contexts.next()? as u32),
                time: times.next()?,
            },
            tag::SEGMENT_END => TraceRecord::SegmentEnd {
                context: ContextId(contexts.next()? as u32),
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
        };
        prev_time = write_record(&mut out, &record, prev_time);
    }
    require_at_end(&tags, "the items of a record-tags column")?;
    require_at_end(&contexts.reader, "the items of a contexts column")?;
    require_at_end(&times.reader, "the items of a times column")?;
    events.finish()?;
    Ok(out)
}

fn decode_stored(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (count, streams) = read_streams::<14>(payload)?;
    let [seg_ids, reps, contexts, starts, ends, counts, times, ev_tags, regions, durations, waits, peers, meta, sizes] =
        streams;
    let mut seg_ids = DeltaReader::new(seg_ids);
    let mut reps = DeltaReader::new(reps);
    let mut contexts = DeltaReader::new(contexts);
    let mut starts = DeltaReader::new(starts);
    let mut ends = DeltaReader::new(ends);
    let mut counts = DeltaReader::new(counts);
    let mut times = TimeReader::new(times);
    let mut events = EventColumnsR::new([ev_tags, regions, durations, waits, peers, meta, sizes]);

    let mut out = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut out, count);
    for _ in 0..count {
        let id = seg_ids.next()? as u32;
        let represented = reps.next()? as u32;
        let context = ContextId(contexts.next()? as u32);
        let start = Time::from_nanos(starts.next()?);
        let end = Time::from_nanos(ends.next()?);
        let event_count = counts.next()?;
        times.restart();
        let mut segment_events = Vec::new();
        for _ in 0..event_count {
            let event_start = times.next()?;
            segment_events.push(events.next(event_start)?);
        }
        write_stored_segment(
            &mut out,
            &StoredSegment {
                id,
                represented,
                segment: Segment {
                    context,
                    start,
                    end,
                    events: segment_events,
                },
            },
        );
    }
    require_at_end(&seg_ids.reader, "the items of a segment-ids column")?;
    require_at_end(&reps.reader, "the items of a represented column")?;
    require_at_end(&contexts.reader, "the items of a contexts column")?;
    require_at_end(&starts.reader, "the items of a starts column")?;
    require_at_end(&ends.reader, "the items of an ends column")?;
    require_at_end(&counts.reader, "the items of a counts column")?;
    require_at_end(&times.reader, "the items of a times column")?;
    events.finish()?;
    Ok(out)
}

fn decode_execs(payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (count, streams) = read_streams::<2>(payload)?;
    let [seg_ids, times] = streams;
    let mut seg_ids = DeltaReader::new(seg_ids);
    let mut times = TimeReader::new(times);

    let mut out = Vec::with_capacity(payload.len() + payload.len() / 2 + 8);
    write_u64(&mut out, count);
    let mut prev = Time::ZERO;
    for _ in 0..count {
        let exec = SegmentExec {
            segment: seg_ids.next()? as u32,
            start: times.next()?,
        };
        prev = write_exec(&mut out, &exec, prev);
    }
    require_at_end(&seg_ids.reader, "the items of a segment-ids column")?;
    require_at_end(&times.reader, "the items of a times column")?;
    Ok(out)
}

/// Inverts [`column_encode`], reconstructing the row payload byte-for-byte.
pub fn column_decode(class: PayloadClass, payload: &[u8]) -> Result<Vec<u8>, CompressError> {
    match class {
        PayloadClass::Records => decode_records(payload),
        PayloadClass::Stored => decode_stored(payload),
        PayloadClass::Execs => decode_execs(payload),
        PayloadClass::Opaque => Ok(payload.to_vec()),
    }
}

// ---------------------------------------------------------------------------
// lib.rs and the container readers: stored payload to rows, rows to items
// ---------------------------------------------------------------------------

/// Decompresses a chunk payload stored under `codec` back to row bytes.
pub fn decompress(
    codec: Codec,
    class: PayloadClass,
    payload: &[u8],
) -> Result<Vec<u8>, CompressError> {
    Ok(match codec {
        Codec::None => payload.to_vec(),
        Codec::Lz => lz_decompress(payload)?,
        Codec::DeltaLz => column_decode(class, &lz_decompress(payload)?)?,
    })
}

/// What the container readers made of a chunk that did not decode: the
/// variants of `ContainerError` a payload could end in.
#[derive(Debug)]
pub enum ChunkError {
    Compress(CompressError),
    Codec(CodecError),
    TrailingBytes { what: &'static str, bytes: usize },
}

impl From<CompressError> for ChunkError {
    fn from(e: CompressError) -> Self {
        ChunkError::Compress(e)
    }
}

impl From<CodecError> for ChunkError {
    fn from(e: CodecError) -> Self {
        ChunkError::Codec(e)
    }
}

/// `ChunkCursor::load` and then `ChunkCursor::next_record` until the chunk
/// is used up, as `ChunkReader::next_item` drove them.
pub fn records(codec: Codec, stored: &[u8]) -> Result<Vec<TraceRecord>, ChunkError> {
    let payload = decompress(codec, PayloadClass::Records, stored)?;
    let mut reader = Reader::new(&payload);
    let mut remaining = read_u64(&mut reader)?;
    if remaining == 0 && !reader.is_at_end() {
        return Err(ChunkError::TrailingBytes {
            what: "the declared records of a RECORDS chunk",
            bytes: reader.remaining(),
        });
    }
    let mut records = Vec::new();
    let mut prev_time = Time::ZERO;
    while remaining > 0 {
        let (record, new_prev) = read_record(&mut reader, prev_time)?;
        prev_time = new_prev;
        remaining -= 1;
        if remaining == 0 && reader.remaining() != 0 {
            return Err(ChunkError::TrailingBytes {
                what: "the declared records of a RECORDS chunk",
                bytes: reader.remaining(),
            });
        }
        records.push(record);
    }
    Ok(records)
}

/// The `STORED` arm of `read_reduced_container`.
pub fn stored(codec: Codec, stored: &[u8]) -> Result<Vec<StoredSegment>, ChunkError> {
    let payload = decompress(codec, PayloadClass::Stored, stored)?;
    let mut segments = Vec::new();
    let mut reader = Reader::new(&payload);
    let count = read_u64(&mut reader)?;
    for _ in 0..count {
        segments.push(read_stored_segment(&mut reader)?);
    }
    if !reader.is_at_end() {
        return Err(ChunkError::TrailingBytes {
            what: "the declared segments of a STORED chunk",
            bytes: reader.remaining(),
        });
    }
    Ok(segments)
}

/// The `EXECS` arm of `read_reduced_container`.
pub fn execs(codec: Codec, stored: &[u8]) -> Result<Vec<SegmentExec>, ChunkError> {
    let payload = decompress(codec, PayloadClass::Execs, stored)?;
    let mut execs = Vec::new();
    let mut reader = Reader::new(&payload);
    let count = read_u64(&mut reader)?;
    let mut prev_start = Time::ZERO;
    for _ in 0..count {
        let (exec, new_prev) = read_exec(&mut reader, prev_start)?;
        prev_start = new_prev;
        execs.push(exec);
    }
    if !reader.is_at_end() {
        return Err(ChunkError::TrailingBytes {
            what: "the declared executions of an EXECS chunk",
            bytes: reader.remaining(),
        });
    }
    Ok(execs)
}
