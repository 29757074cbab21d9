//! Error type for streaming reduction.

use std::fmt;
use std::io;

use trace_container::ContainerError;
use trace_format::FormatError;
use trace_model::Rank;
use trace_obs::WorkerPanic;

/// An error encountered while streaming a trace: the underlying reader
/// failed, a text line did not parse, a binary container chunk was
/// malformed, the reduction loop was handed items out of order, a worker
/// panicked, or the output a conversion streams into failed.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A line failed to parse or the trace structure is invalid.
    Format(FormatError),
    /// A chunked binary container was malformed (bad magic, CRC, …).
    Container(ContainerError),
    /// The reduction loop's contract was broken: an
    /// [`crate::AppItemSource`] yielded a record or a rank end outside a
    /// rank section, a rank start inside one, or ended inside one (the
    /// bundled sources never do), or a worker panicked.
    Protocol(&'static str),
    /// A container file's rank section, read via its index entry, failed.
    Section {
        /// The section's position in the file, from 0.
        index: usize,
        /// The rank its index entry names.
        rank: Rank,
        /// Byte offset of its `RANK_BEGIN` chunk, from its index entry.
        offset: u64,
        /// What went wrong inside it.
        error: Box<StreamError>,
    },
    /// The sink a streamed conversion was writing to failed.
    Sink(io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "trace stream i/o error: {e}"),
            StreamError::Format(e) => e.fmt(f),
            StreamError::Container(e) => e.fmt(f),
            StreamError::Protocol(what) => write!(f, "trace stream out of order: {what}"),
            StreamError::Section {
                index,
                rank,
                offset,
                error,
            } => write!(
                f,
                "rank section {index} ({rank}, byte offset {offset}): {error}"
            ),
            StreamError::Sink(e) => write!(f, "trace output i/o error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) | StreamError::Sink(e) => Some(e),
            StreamError::Format(e) => Some(e),
            StreamError::Container(e) => Some(e),
            StreamError::Protocol(_) => None,
            StreamError::Section { error, .. } => Some(error.as_ref()),
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<FormatError> for StreamError {
    fn from(e: FormatError) -> Self {
        StreamError::Format(e)
    }
}

impl From<ContainerError> for StreamError {
    fn from(e: ContainerError) -> Self {
        StreamError::Container(e)
    }
}

impl From<WorkerPanic> for StreamError {
    fn from(_: WorkerPanic) -> Self {
        StreamError::Protocol("a worker panicked")
    }
}

impl StreamError {
    /// The format error, if this is a text parse failure.
    pub fn as_format(&self) -> Option<&FormatError> {
        match self {
            StreamError::Format(e) => Some(e),
            StreamError::Section { error, .. } => error.as_format(),
            _ => None,
        }
    }

    /// The container error, if this is a binary container failure.
    pub fn as_container(&self) -> Option<&ContainerError> {
        match self {
            StreamError::Container(e) => Some(e),
            StreamError::Section { error, .. } => error.as_container(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_distinguishes_the_two_causes() {
        let io_err = StreamError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("i/o error"));
        assert!(io_err.as_format().is_none());
        let fmt_err = StreamError::from(FormatError::at(3, "bad"));
        assert!(fmt_err.to_string().contains("line 3"));
        assert_eq!(fmt_err.as_format().unwrap().line, 3);
        let container_err = StreamError::from(ContainerError::BadTrailer);
        assert!(container_err.as_container().is_some());
        assert!(container_err.as_format().is_none());
    }
}
