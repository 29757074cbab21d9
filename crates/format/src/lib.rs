#![forbid(unsafe_code)]
//! Text trace format: an OTF-style, line-oriented ASCII encoding.
//!
//! The reproduction-difficulty note for this paper calls trace-format
//! parsers "thin" in the Rust ecosystem, and the paper's own workflow moves
//! traces between a tracer, a reduction step and the KOJAK analyzer as
//! files.  This crate provides the interchange piece: a human-readable,
//! line-oriented text format (in the spirit of the ASCII variants of OTF and
//! EPILOG) for both full application traces and reduced traces, with a
//! strict parser that reports the line number and cause of every error.
//!
//! * [`mod@write`] — serialize [`trace_model::AppTrace`] /
//!   [`trace_model::ReducedAppTrace`] to the text format, either whole or
//!   a header, a rank section and a trailer at a time.
//! * [`parser`] — the one pull reader per kind of trace, over any
//!   [`std::io::BufRead`] source: [`parser::AppReader`] yields a full
//!   trace's rank boundaries and records, [`parser::ReducedReader`] a
//!   reduced trace's rank sections, one block of the file resident at a
//!   time.  Both validate record structure, identifier references and
//!   time-stamp ordering.
//! * [`parse`] — the whole-trace parsers, each a collect over its reader,
//!   from a `&str` or from any source.
//! * [`record`] — the byte-level record grammar the readers share.
//! * [`error::FormatError`] — the error type carrying the offending line.
//!
//! The binary codec in `trace-model` remains the format used for file-size
//! measurements (it is what the paper's percentages are computed against);
//! the text format exists for interoperability, debugging and the
//! import/export paths of the `trace-tools` CLI.

#![warn(missing_docs)]

pub mod error;
pub mod parse;
pub mod parser;
pub mod record;
pub mod write;

pub use error::FormatError;
pub use parse::{parse_app_trace, parse_reduced_trace, read_app_trace, read_reduced_trace};
pub use parser::{AppReader, ReadError, ReducedReader, BATCH_RECORDS};
pub use record::{parse_app_body_line, AppBodyLine, HeaderBuilder, TraceTables};
pub use write::{
    write_app_header, write_app_records, write_app_trace, write_app_trace_to, write_rank_end,
    write_rank_start, write_reduced_header, write_reduced_rank, write_reduced_trace, write_trailer,
};
