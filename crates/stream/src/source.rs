//! Abstraction over where streamed trace items come from.
//!
//! The online reduction loop in [`crate::reduce`] only needs three things
//! from its input: the next rank-boundary-or-record item, the ability to
//! skip the rest of a rank section cheaply (for the sections a one-worker
//! run passes after the declared ones), and an error channel.
//! [`AppItemSource`] captures exactly that, so the same loop drives the
//! line-oriented text parser ([`crate::parser::StreamParser`])
//! and the chunked binary container reader
//! ([`crate::binary::ContainerSource`]) without caring which format the
//! bytes were in.  Both decode records in batches — a container a chunk at
//! a time, text up to [`crate::parser::BATCH_RECORDS`] record lines at a
//! time — and hand the rest of a batch over as a slice
//! ([`AppItemSource::take_records`]), which spares the loop one item
//! hand-off per record.

use std::io::BufRead;

use trace_model::{Rank, TraceRecord};

use crate::error::StreamError;
use crate::parser::{AppItem, StreamParser};

/// A pull source of [`AppItem`]s: rank boundaries and records, in stream
/// order, with cheap skipping of unwanted rank sections.  Records and rank
/// ends belong between a `RankStart` and its `RankEnd`; the reduction loop
/// answers an item outside that bracket with [`StreamError::Protocol`].
pub trait AppItemSource {
    /// Pulls the next item, or `Ok(None)` once the trace trailer has been
    /// consumed.
    fn next_item(&mut self) -> Result<Option<AppItem>, StreamError>;

    /// Skips the remainder of the open rank section without decoding its
    /// payloads; returns the skipped rank.
    fn skip_current_rank(&mut self) -> Result<Rank, StreamError>;

    /// The records that follow the one [`AppItemSource::next_item`] returned
    /// last and are already decoded, handed over all at once (the source
    /// will not yield them again).  Both formats' sources decode in batches
    /// and override this; the default, none, serves a source that yields
    /// record by record.
    fn take_records(&mut self) -> &[TraceRecord] {
        &[]
    }

    /// The most memory one chunk of this source has taken so far, in bytes
    /// (see [`crate::StreamStats::peak_chunk_bytes`]); a source that reads
    /// no chunks has none, which is the default.
    fn peak_chunk_bytes(&self) -> usize {
        0
    }

    /// The bytes this source has read without parsing them (see
    /// [`crate::StreamStats::passed_bytes`]); a source that reads every
    /// byte it is given has none, which is the default.
    fn passed_bytes(&self) -> u64 {
        0
    }
}

impl<R: BufRead> AppItemSource for StreamParser<R> {
    fn next_item(&mut self) -> Result<Option<AppItem>, StreamError> {
        StreamParser::next_item(self)
    }

    fn skip_current_rank(&mut self) -> Result<Rank, StreamError> {
        StreamParser::skip_current_rank(self)
    }

    fn take_records(&mut self) -> &[TraceRecord] {
        StreamParser::take_records(self)
    }

    fn passed_bytes(&self) -> u64 {
        StreamParser::passed_bytes(self)
    }
}
