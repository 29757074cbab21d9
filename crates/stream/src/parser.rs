//! The text source of the streaming drivers.
//!
//! [`StreamParser`] is `trace_format`'s full-trace pull reader,
//! [`trace_format::AppReader`], with [`StreamError`] as its error: the one
//! text reader, which the in-memory [`trace_format::parse_app_trace`]
//! collects too, so streaming and whole-trace parsing accept the same
//! language by construction.  It holds one block of the file in memory,
//! parses records in batches of up to [`BATCH_RECORDS`] and hands the rest
//! of a batch over as a slice, as the container reader hands over a chunk.

pub use trace_format::BATCH_RECORDS;
pub use trace_model::AppItem;

use crate::error::StreamError;

/// Pull parser for the full-trace text format over any
/// [`std::io::BufRead`] source, failing with a [`StreamError`].
pub type StreamParser<R> = trace_format::AppReader<R, StreamError>;
