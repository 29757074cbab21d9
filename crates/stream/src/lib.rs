#![forbid(unsafe_code)]
//! Streaming, bounded-memory trace reduction.
//!
//! The paper's stored-segments reducer exists because full event traces are
//! too large to keep around — yet reducing a trace by first materializing a
//! full [`trace_model::AppTrace`] reintroduces exactly that memory wall.
//! This crate removes it for both trace formats:
//!
//! * [`parser::StreamParser`] — an incremental, line-oriented pull parser
//!   over any [`std::io::BufRead`] source, built on the same record grammar
//!   as `trace_format` (one 128 KiB block of the text resident at a time,
//!   lines parsed in place; a line may not exceed 1 MiB).  Records are
//!   parsed in batches of up to [`parser::BATCH_RECORDS`] and handed over
//!   as a slice, as the container reader hands over a chunk.
//! * [`binary::ContainerSource`] — the same item stream pulled from a
//!   chunked binary container (`.trc` v2, the `trace_container` crate),
//!   one CRC-checked chunk resident at a time.  Both sources sit behind
//!   the [`source::AppItemSource`] trait, so one reduction loop serves
//!   both formats.
//! * [`reduce::reduce_stream`] — feeds each completed segment straight into
//!   the stored-segments loop ([`trace_reduce::OnlineRankReducer`]) as it
//!   arrives.  Resident segment state is O(stored representatives + one
//!   in-flight segment per active rank), never O(total events), and the
//!   output is identical to the in-memory [`trace_reduce::Reducer`] —
//!   both paths drive the same state machines.
//! * [`shard::reduce_stream_sharded`] — spreads rank sections over worker
//!   threads, each streaming its own reader: a worker claims the next
//!   unreduced section, skips forward to it without parsing the sections
//!   in between, and after its last claim reads on to the trailer.
//! * [`binary::reduce_container_stream`] / [`binary::reduce_container_file`]
//!   — the binary counterparts; the file driver goes further than text
//!   sharding can: workers *seek* straight to the rank sections they claim
//!   via the container's index footer instead of scanning the file.
//!   [`binary::reduce_any_file`] autodetects text and container v2 inputs
//!   by magic bytes, and refuses a retired monolithic v1 file.
//! * [`convert::convert_text`] / [`convert::convert_container`] — the
//!   write direction: a trace re-encoded as a container a rank at a time,
//!   through the container's one section writer, reading rank k + 1 while
//!   rank k encodes; never the whole trace resident.
//!
//! One rule covers all five drivers: each is a function of a
//! [`trace_reduce::Reducer`] — method, candidate search and recorder
//! together — a source, and (where it shards) a worker count.  They share
//! the workspace's one ordered fan-out, [`trace_obs::ordered()`]: the calling
//! thread is a worker too, appends each reduced rank as soon as it is next
//! in stream order, and drains the merged [`StreamStats`] into the
//! reducer's recorder exactly once.  The sequential entry points are its
//! one-worker case, which decodes ahead on one more thread
//! ([`trace_obs::beside()`]): the source parses the next batch of records
//! while the calling thread segments and matches the last.  A panicking
//! worker or decode stage is a [`StreamError`], not a panic.
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
pub mod source;

pub use binary::{
    detect_input, reduce_any_file, reduce_container_file, reduce_container_stream, ContainerSource,
    TraceInputKind,
};
pub use convert::{convert_container, convert_text};
pub use error::StreamError;
pub use parser::{AppItem, StreamParser};
pub use reduce::{reduce_stream, StreamReduction, StreamStats};
pub use shard::reduce_stream_sharded;
pub use source::AppItemSource;
