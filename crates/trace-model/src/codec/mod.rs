//! Compact binary trace encoding.
//!
//! Every file-size number in the evaluation is the length in bytes of the
//! encoding produced here, for both full traces ([`encode_app_trace`]) and
//! reduced traces ([`encode_reduced_trace`]).  Both formats share the same
//! building blocks — string tables, LEB128 varints and delta-encoded time
//! stamps — so the full/reduced size ratio measures the reduction technique,
//! not a difference in serialization overhead.
//!
//! The formats are self-describing enough to round-trip exactly, which the
//! property tests in `tests/codec_roundtrip.rs` of this crate verify.

mod decode;
mod encode;
pub mod varint;

use std::fmt;

pub use decode::{
    decode_app_trace, decode_reduced_trace, read_exec, read_record, read_segment,
    read_stored_segment, read_string, read_string_table,
};
pub use encode::{
    encode_app_trace, encode_reduced_trace, write_exec, write_record, write_segment,
    write_stored_segment, write_string, write_string_table,
};

/// Magic bytes identifying a full application trace file.
pub const APP_TRACE_MAGIC: [u8; 4] = *b"TRCF";
/// Magic bytes identifying a reduced application trace file.
pub const REDUCED_TRACE_MAGIC: [u8; 4] = *b"TRCR";
/// Current format version written by the encoder.
pub const FORMAT_VERSION: u8 = 1;

/// Errors produced while decoding a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value could be read.
    UnexpectedEof,
    /// The magic bytes did not identify the expected file kind.
    BadMagic {
        /// The magic bytes found in the input.
        found: [u8; 4],
    },
    /// The format version is not supported by this decoder.
    UnsupportedVersion(u8),
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
            CodecError::BadMagic { found } => write!(f, "bad magic bytes {found:?}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
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

    #[test]
    fn app_trace_round_trip() {
        let app = sample_app_trace();
        let bytes = encode_app_trace(&app);
        let decoded = decode_app_trace(&bytes).expect("decode");
        assert_eq!(app, decoded);
    }

    #[test]
    fn reduced_trace_round_trip() {
        let reduced = sample_reduced_trace();
        let bytes = encode_reduced_trace(&reduced);
        let decoded = decode_reduced_trace(&bytes).expect("decode");
        assert_eq!(reduced, decoded);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let app = sample_app_trace();
        let bytes = encode_app_trace(&app);
        assert!(matches!(
            decode_reduced_trace(&bytes),
            Err(CodecError::BadMagic { .. })
        ));
        let reduced = sample_reduced_trace();
        let bytes = encode_reduced_trace(&reduced);
        assert!(matches!(
            decode_app_trace(&bytes),
            Err(CodecError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let app = sample_app_trace();
        let bytes = encode_app_trace(&app);
        for cut in [3usize, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_app_trace(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let app = sample_app_trace();
        let mut bytes = encode_app_trace(&app);
        bytes[4] = 99;
        assert!(matches!(
            decode_app_trace(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn v1_ids_one_past_u32_max_are_rejected_and_u32_max_round_trips() {
        // `u32::MAX` and `u32::MAX + 1` are five varint bytes each, so the
        // value is raised in place: the first in the file is a region id,
        // the stored-segment id or the executed segment id.
        let (max, past_max) = (
            [0xff, 0xff, 0xff, 0xff, 0x0f],
            [0x80, 0x80, 0x80, 0x80, 0x10],
        );
        let raise = |bytes: &mut Vec<u8>| {
            let at = bytes.windows(5).position(|w| w == max).unwrap();
            bytes[at..at + 5].copy_from_slice(&past_max);
        };
        let out_of_range =
            |e: CodecError| matches!(e, CodecError::IdOutOfRange { value, .. } if value == 1 << 32);

        let mut app = sample_app_trace();
        for record in &mut app.ranks[0].records {
            if let crate::TraceRecord::Event(event) = record {
                event.region = crate::RegionId(u32::MAX);
            }
        }
        let mut bytes = encode_app_trace(&app);
        assert_eq!(decode_app_trace(&bytes).unwrap(), app);
        raise(&mut bytes);
        assert!(out_of_range(decode_app_trace(&bytes).unwrap_err()));

        for stored_id in [true, false] {
            let mut reduced = sample_reduced_trace();
            if stored_id {
                reduced.ranks[0].stored[0].id = u32::MAX;
            } else {
                reduced.ranks[0].execs[0].segment = u32::MAX;
            }
            let mut bytes = encode_reduced_trace(&reduced);
            assert_eq!(decode_reduced_trace(&bytes).unwrap(), reduced);
            raise(&mut bytes);
            assert!(out_of_range(decode_reduced_trace(&bytes).unwrap_err()));
        }
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

        let full_bytes = encode_app_trace(&app).len();
        let reduced_bytes = encode_reduced_trace(&reduced).len();
        assert!(
            (reduced_bytes as f64) < 0.1 * full_bytes as f64,
            "reduced {reduced_bytes} bytes should be well under 10% of full {full_bytes} bytes"
        );
    }
}
