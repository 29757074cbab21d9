//! Compact binary record encoding.
//!
//! The building blocks here — LEB128 varints, string tables, delta-encoded
//! time stamps, and the record, stored-segment and execution writers and
//! readers — are what a chunked container (`trace_container`) stores in its
//! row payloads.  The same blocks laid out as one monolithic file made the
//! retired v1 format, which `trace_container` refuses with a typed error.
//! No v1 file is read or written any more, but its length stays the
//! yardstick of the paper's first criterion, file size: [`app_trace_len`]
//! and [`reduced_trace_len`] count it without building the file.  Full and
//! reduced traces share every building block, so their size ratio measures
//! the reduction technique, not a difference in serialization overhead.

mod decode;
mod encode;
pub mod varint;

use std::fmt;

pub use decode::{read_exec, read_record, read_stored_segment, read_string, read_string_table};
pub use encode::{
    app_trace_len, reduced_trace_len, write_exec, write_record, write_stored_segment, write_string,
    write_string_table,
};

/// The slots to reserve for `count` declared items when the input can back
/// at most `limit` of them: a count is a bare varint, so a reservation made
/// on its word alone would let a few bytes demand any allocation.
pub fn clamp_count(count: u64, limit: usize) -> usize {
    usize::try_from(count).map_or(limit, |count| count.min(limit))
}

/// Errors produced while decoding encoded records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value could be read.
    UnexpectedEof,
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A string table entry was not valid UTF-8.
    BadUtf8,
    /// A varint did not fit in 64 bits.
    VarintOverflow,
    /// A delta-encoded time stamp went below zero.
    NegativeTime,
    /// A length prefix was implausibly large for the remaining input.
    LengthTooLarge(u64),
    /// An id, rank, tag or count the model holds as `u32` was encoded with a
    /// value that does not fit one.
    IdOutOfRange {
        /// Which field carried the value.
        what: &'static str,
        /// The value found.
        value: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of trace file"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string table entry is not valid UTF-8"),
            CodecError::VarintOverflow => write!(f, "varint does not fit in 64 bits"),
            CodecError::NegativeTime => write!(f, "delta-encoded time stamp went negative"),
            CodecError::LengthTooLarge(n) => write!(f, "length prefix {n} exceeds remaining input"),
            CodecError::IdOutOfRange { what, value } => {
                write!(f, "{what} {value} does not fit 32 bits")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over an encoded byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads exactly `n` bytes.
    #[inline]
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::UnexpectedEof)?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or(CodecError::UnexpectedEof)?;
        self.pos = end;
        Ok(slice)
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollectiveOp, CommInfo, Event};
    use crate::ids::Rank;
    use crate::reduced::{ReducedAppTrace, ReducedRankTrace, SegmentExec, StoredSegment};
    use crate::segment::Segment;
    use crate::time::Time;
    use crate::trace::AppTrace;
    use crate::TraceRecord;

    fn sample_app_trace() -> AppTrace {
        let mut app = AppTrace::new("codec_sample", 2);
        let work = app.regions.intern("do_work");
        let send = app.regions.intern("MPI_Ssend");
        let recv = app.regions.intern("MPI_Recv");
        let all = app.regions.intern("MPI_Alltoall");
        let ctx_init = app.contexts.intern("init");
        let ctx_loop = app.contexts.intern("main.1");
        for r in 0..2u32 {
            let peer = Rank(1 - r);
            let base = 100 * u64::from(r);
            let rank = &mut app.ranks[r as usize];
            rank.begin_segment(ctx_init, Time::from_nanos(base));
            rank.push_event(Event::compute(
                work,
                Time::from_nanos(base + 1),
                Time::from_nanos(base + 20),
            ));
            rank.end_segment(ctx_init, Time::from_nanos(base + 21));
            for i in 0..3u64 {
                let t0 = base + 30 + i * 50;
                rank.begin_segment(ctx_loop, Time::from_nanos(t0));
                rank.push_event(
                    Event::with_comm(
                        if r == 0 { send } else { recv },
                        Time::from_nanos(t0 + 2),
                        Time::from_nanos(t0 + 12),
                        if r == 0 {
                            CommInfo::Send {
                                peer,
                                tag: 9,
                                bytes: 4096,
                            }
                        } else {
                            CommInfo::Recv {
                                peer,
                                tag: 9,
                                bytes: 4096,
                            }
                        },
                    )
                    .with_wait(Time::from_nanos(3)),
                );
                rank.push_event(Event::with_comm(
                    all,
                    Time::from_nanos(t0 + 13),
                    Time::from_nanos(t0 + 40),
                    CommInfo::Collective {
                        op: CollectiveOp::Alltoall,
                        root: Rank(0),
                        comm_size: 2,
                        bytes: 256,
                    },
                ));
                rank.end_segment(ctx_loop, Time::from_nanos(t0 + 41));
            }
        }
        app
    }

    fn sample_reduced_trace() -> ReducedAppTrace {
        let full = sample_app_trace();
        let mut reduced = ReducedAppTrace::for_app(&full);
        for r in 0..2u32 {
            let mut rt = ReducedRankTrace::new(Rank(r));
            rt.stored.push(StoredSegment {
                id: 0,
                segment: Segment {
                    context: full.contexts.lookup("main.1").unwrap(),
                    start: Time::ZERO,
                    end: Time::from_nanos(41),
                    events: vec![
                        Event::with_comm(
                            full.regions.lookup("MPI_Ssend").unwrap(),
                            Time::from_nanos(2),
                            Time::from_nanos(12),
                            CommInfo::Send {
                                peer: Rank(1 - r),
                                tag: 9,
                                bytes: 4096,
                            },
                        ),
                        Event::compute(
                            full.regions.lookup("do_work").unwrap(),
                            Time::from_nanos(13),
                            Time::from_nanos(40),
                        ),
                    ],
                },
                represented: 3,
            });
            rt.execs = vec![
                SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(30),
                },
                SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(80),
                },
                SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(130),
                },
            ];
            reduced.ranks.push(rt);
        }
        reduced
    }

    /// Every rank's records, written from a zero clock and read back.
    fn records_round_trip(app: &AppTrace) -> Result<Vec<Vec<TraceRecord>>, CodecError> {
        let mut ranks = Vec::new();
        for rank in &app.ranks {
            let mut bytes = Vec::new();
            let mut prev = Time::ZERO;
            for record in &rank.records {
                prev = write_record(&mut bytes, record, prev);
            }
            let mut reader = Reader::new(&bytes);
            let (mut records, mut prev) = (Vec::new(), Time::ZERO);
            while !reader.is_at_end() {
                let (record, time) = read_record(&mut reader, prev)?;
                records.push(record);
                prev = time;
            }
            ranks.push(records);
        }
        Ok(ranks)
    }

    #[test]
    fn app_trace_round_trip() {
        let app = sample_app_trace();
        let decoded = records_round_trip(&app).expect("decode");
        for (rank, records) in app.ranks.iter().zip(decoded) {
            assert_eq!(rank.records, records);
        }
    }

    #[test]
    fn reduced_trace_round_trip() {
        let reduced = sample_reduced_trace();
        for rank in &reduced.ranks {
            let mut bytes = Vec::new();
            for stored in &rank.stored {
                write_stored_segment(&mut bytes, stored);
            }
            let mut prev = Time::ZERO;
            for exec in &rank.execs {
                prev = write_exec(&mut bytes, exec, prev);
            }
            let mut reader = Reader::new(&bytes);
            for stored in &rank.stored {
                assert_eq!(&read_stored_segment(&mut reader).expect("decode"), stored);
            }
            let mut prev = Time::ZERO;
            for exec in &rank.execs {
                let (decoded, time) = read_exec(&mut reader, prev).expect("decode");
                assert_eq!(&decoded, exec);
                prev = time;
            }
            assert!(reader.is_at_end());
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let app = sample_app_trace();
        let mut bytes = Vec::new();
        let mut prev = Time::ZERO;
        for record in &app.ranks[0].records {
            prev = write_record(&mut bytes, record, prev);
        }
        let records = app.ranks[0].records.len();
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut reader = Reader::new(&bytes[..cut]);
            let mut prev = Time::ZERO;
            let read = (0..records).try_for_each(|_| {
                prev = read_record(&mut reader, prev)?.1;
                Ok(())
            });
            assert_eq!(read, Err(CodecError::UnexpectedEof), "truncation at {cut}");
        }
    }

    #[test]
    fn v1_lengths_match_hand_counted_bytes() {
        // Name "ab", regions "w" and "MPI_Send", context "main", two ranks.
        let mut app = AppTrace::new("ab", 2);
        let work = app.regions.intern("w");
        let send = app.regions.intern("MPI_Send");
        let main = app.contexts.intern("main");
        let rank = &mut app.ranks[0];
        rank.begin_segment(main, Time::from_nanos(10));
        // Duration 127: the largest one-byte varint.
        rank.push_event(Event::compute(
            work,
            Time::from_nanos(20),
            Time::from_nanos(147),
        ));
        // Recorded on exit, so it starts 5 ns before the previous record:
        // a negative delta.  Duration 128: the smallest two-byte varint.
        rank.push_event(Event::compute(
            work,
            Time::from_nanos(15),
            Time::from_nanos(143),
        ));
        rank.end_segment(main, Time::from_nanos(150));
        let send_event = Event::with_comm(
            send,
            Time::ZERO,
            Time::from_nanos(5),
            CommInfo::Send {
                peer: Rank(0),
                tag: 9,
                bytes: 300,
            },
        );
        app.ranks[1].push_event(send_event.with_wait(Time::from_nanos(2)));

        // Header: magic and version 5; name 1 + 2; regions 1 + (1 + 1) +
        // (1 + 8); contexts 1 + (1 + 4); rank count 1.  27 bytes.
        // Rank 0: rank 1, count 1, then
        // - SEG_BEGIN: tag, context, delta 10 (zig-zag 20): 3;
        // - event: tag, region, delta 10, duration 127, wait, comm tag: 6;
        // - event: tag, region, delta -5 (zig-zag 9), duration 128 (2),
        //   wait, comm tag: 7;
        // - SEG_END: tag, context, delta 135 (zig-zag 270, 2): 4.
        // 22 bytes.
        // Rank 1: rank 1, count 1, one event: tag, region, delta 0,
        // duration 5, wait 2, then send tag, peer, tag 9, bytes 300 (2):
        // 12 bytes.
        assert_eq!(app_trace_len(&app), 27 + 22 + 12);

        let mut reduced = ReducedAppTrace::for_app(&app);
        let mut rank = ReducedRankTrace::new(Rank(0));
        rank.stored.push(StoredSegment {
            id: 0,
            segment: Segment {
                context: main,
                start: Time::ZERO,
                end: Time::from_nanos(140),
                events: vec![Event::compute(
                    work,
                    Time::from_nanos(10),
                    Time::from_nanos(137),
                )],
            },
            represented: 2,
        });
        for start in [10, 160] {
            rank.execs.push(SegmentExec {
                segment: 0,
                start: Time::from_nanos(start),
            });
        }
        reduced.ranks.push(rank);
        reduced.ranks.push(ReducedRankTrace::new(Rank(1)));
        // Header: 27 bytes, as above.
        // Rank 0: rank 1, stored count 1, then the representative: id,
        // represented, context, start 0, end 140 (2), event count 1, and
        // the event (region, delta 10, duration 127, wait, comm tag) 5:
        // 12; exec count 1, then (segment, delta 10) 2 and (segment,
        // delta 150 (zig-zag 300, 2)) 3.  20 bytes.
        // Rank 1: rank, stored count 0, exec count 0.  3 bytes.
        assert_eq!(reduced_trace_len(&reduced), 27 + 20 + 3);
    }

    #[test]
    fn reduced_encoding_is_smaller_for_repetitive_trace() {
        // A trace whose loop body repeats identically should shrink a lot:
        // representatives are stored once, executions cost a few bytes each.
        let mut app = AppTrace::new("repetitive", 1);
        let work = app.regions.intern("do_work");
        let ctx = app.contexts.intern("main.1");
        let mut reduced = ReducedAppTrace::for_app(&app);
        let mut rrt = ReducedRankTrace::new(Rank(0));
        let representative = Segment {
            context: ctx,
            start: Time::ZERO,
            end: Time::from_nanos(1000),
            events: (0..10)
                .map(|i| {
                    Event::compute(
                        work,
                        Time::from_nanos(i * 100),
                        Time::from_nanos(i * 100 + 90),
                    )
                })
                .collect(),
        };
        {
            let rank = &mut app.ranks[0];
            for iter in 0..200u64 {
                let base = iter * 1000;
                rank.begin_segment(ctx, Time::from_nanos(base));
                for e in &representative.events {
                    rank.push_event(e.offset(Time::from_nanos(base)));
                }
                rank.end_segment(ctx, Time::from_nanos(base + 1000));
                rrt.execs.push(SegmentExec {
                    segment: 0,
                    start: Time::from_nanos(base),
                });
            }
        }
        rrt.stored.push(StoredSegment {
            id: 0,
            segment: representative,
            represented: 200,
        });
        reduced.ranks.push(rrt);

        let full_bytes = app_trace_len(&app);
        let reduced_bytes = reduced_trace_len(&reduced);
        assert!(
            (reduced_bytes as f64) < 0.1 * full_bytes as f64,
            "reduced {reduced_bytes} bytes should be well under 10% of full {full_bytes} bytes"
        );
    }
}
