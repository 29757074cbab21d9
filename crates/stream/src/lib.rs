#![forbid(unsafe_code)]
//! Streaming, bounded-memory trace reduction.
//!
//! The paper's stored-segments reducer exists because full event traces are
//! too large to keep around — yet reducing a trace by first materializing a
//! full [`trace_model::AppTrace`] reintroduces exactly that memory wall.
//! This crate removes it for both trace formats:
//!
//! * [`parser::StreamParser`] — `trace_format`'s one full-trace text
//!   reader, the pull reader its whole-trace parser collects, over any
//!   [`std::io::BufRead`] source with [`StreamError`] as its error (one
//!   128 KiB block of the text resident at a time, lines parsed in place; a
//!   line may not exceed 1 MiB).  Records are parsed in batches of up to
//!   [`parser::BATCH_RECORDS`] and handed over as a slice, as the container
//!   reader hands over a chunk.
//! * [`binary::ContainerSource`] — the same item stream pulled from a
//!   chunked binary container (`.trc` v2, the `trace_container` crate),
//!   one CRC-checked chunk resident at a time.  Both sources sit behind
//!   the [`source::AppItemSource`] trait, so one reduction loop serves
//!   both formats.
//! * [`reduce::reduce_stream`] — feeds each record straight into the
//!   library's one record loop ([`trace_reduce::RankRecordReducer`]) as it
//!   arrives.  A worker holds the stored representatives of the rank it
//!   is reducing plus one in-flight segment, never O(total events), and
//!   the output is identical to the in-memory [`trace_reduce::Reducer`] —
//!   both paths run that loop.
//! * [`shard::reduce_stream_sharded`] — spreads a text body over worker
//!   threads by byte range, each reading its own reader: a worker claims
//!   the next range, seeks to it, passes the bytes up to its first `RANK`
//!   line and reduces the sections that start in the range, and the
//!   calling thread checks that the ranges piece together.
//! * [`binary::reduce_container_stream`] / [`binary::reduce_container_file`]
//!   — the binary counterparts; the file driver's workers *seek* straight
//!   to the rank sections they claim via the container's index footer.
//!   [`binary::load_container_file`] loads a whole trace the same way, for
//!   the callers that need it all.  [`binary::reduce_any_file`]
//!   autodetects text and container v2 inputs by magic bytes, and refuses
//!   a retired monolithic v1 file.
//! * [`binary::reduce_any_file_into`] — the same reduction of a file,
//!   written as it goes: each worker encodes the rank it just reduced as a
//!   section of the output, text or container, and the calling thread
//!   writes the sections in rank order, then the index and trailer.  The
//!   reduced trace is never assembled: each worker holds one rank's
//!   reduced state, and the execution log is written as it goes.  This is
//!   the CLI's `reduce`.  A trace already in memory is reduced by
//!   [`trace_reduce::reduce_app_parallel`], the library's one in-memory
//!   driver, on the same record loop.  Sections finished ahead of the next
//!   one the file takes wait encoded — past a slower worker's rank, or
//!   while the calling thread reduces a rank of its own — so a rank that
//!   dwarfs the rest can hold most of the encoded output back until it is
//!   done.
//! * [`convert::convert_text`] / [`convert::convert_container`] — a trace
//!   re-written in either format, text or container, a rank at a time:
//!   the same sources, with each section's records copied straight into
//!   its encoder where a reduction reduces them; never the whole trace
//!   resident.
//!
//! Every driver, the whole-trace container load included, is one pipeline
//! ([`shard`]): a source of rank sections — a text whose byte ranges
//! workers claim, or a container file whose sections workers seek to — a
//! stage each worker runs on the sections it reads (reduce and encode, copy and encode, or
//! copy and collect), and a sink the calling thread stitches the results
//! into in rank order.  The workers claim ranges or sections on the
//! workspace's one ordered fan-out, in `trace_obs`, and the calling thread is a worker
//! too.  A reduction drains the merged [`StreamStats`] into the reducer's
//! recorder exactly once; a conversion records no `stream.*` counters.
//! Every worker reads its source on its own thread, so a run on one worker
//! reads on the calling thread.  A panicking worker is a [`StreamError`],
//! not a panic.
//!
//! # Quick start
//!
//! ```
//! use std::io::Cursor;
//! use trace_format::write_app_trace;
//! use trace_reduce::{Method, Reducer};
//! use trace_sim::{SizePreset, Workload, WorkloadKind};
//! use trace_stream::reduce_stream;
//!
//! let app = Workload::new(WorkloadKind::LateSender, SizePreset::Tiny).generate();
//! let text = write_app_trace(&app);
//!
//! let reducer = Reducer::with_default_threshold(Method::AvgWave);
//! let streamed = reduce_stream(&reducer, Cursor::new(text.as_bytes())).unwrap();
//!
//! // Identical to the in-memory path, with bounded resident state.
//! assert_eq!(streamed.reduced, reducer.reduce_app(&app));
//! assert!(streamed.stats.peak_resident_segments <= streamed.stats.stored + 1);
//!
//! // Observed: same bytes, and the run report carries the driver's counters.
//! let recorder = trace_obs::Recorder::enabled();
//! let observed = reducer.with_recorder(&recorder);
//! let again = reduce_stream(&observed, Cursor::new(text.as_bytes())).unwrap();
//! assert_eq!(again.reduced, streamed.reduced);
//! assert_eq!(recorder.report().counters["stream.events"], again.stats.events as u64);
//! ```

#![warn(missing_docs)]

pub mod binary;
pub mod convert;
pub mod error;
pub mod parser;
pub mod reduce;
pub mod shard;
mod sink;
pub mod source;

pub use binary::{
    load_container_file, reduce_any_file, reduce_any_file_into, reduce_container_file,
    reduce_container_stream, ContainerSource, TraceInputKind,
};
pub use convert::{convert_container, convert_text};
pub use error::StreamError;
pub use parser::{AppItem, StreamParser};
pub use reduce::{reduce_stream, StreamReduction, StreamStats};
pub use shard::reduce_stream_sharded;
pub use sink::{OutputFormat, WrittenReduction};
pub use source::AppItemSource;
