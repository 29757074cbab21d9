//! Error type for the compression subsystem.

use std::fmt;

use trace_model::codec::CodecError;

/// Errors produced while compressing or decompressing a chunk payload.
///
/// Decompression runs on untrusted bytes (a chunk payload whose CRC matched
/// but whose content may still be crafted), so every malformed input maps to
/// a typed variant here — never a panic, never an unbounded allocation.
#[derive(Debug)]
pub enum CompressError {
    /// A codec id byte names no known codec.
    UnknownCodec(u8),
    /// A field inside a columnar stream failed to decode with the record
    /// codec (bad varint, bad tag, negative time, …).
    Codec(CodecError),
    /// The compressed input ended before a complete value could be read.
    Truncated {
        /// What was being read when the input ended.
        what: &'static str,
    },
    /// Bytes were left over after the declared content of a stream.
    TrailingBytes {
        /// Which stream carried the extra bytes.
        what: &'static str,
        /// How many undeclared bytes were found.
        bytes: usize,
    },
    /// A declared length exceeds what the input (or a hard cap) allows.
    LengthOverflow {
        /// What was being sized.
        what: &'static str,
        /// The length declared in the input.
        declared: u64,
        /// The largest length acceptable at that point.
        limit: u64,
    },
    /// An LZ match referenced bytes before the start of the output.
    BadMatch {
        /// Output length when the match was decoded.
        position: usize,
        /// The declared backwards distance.
        distance: u64,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::UnknownCodec(id) => write!(f, "unknown chunk codec id {id}"),
            CompressError::Codec(e) => write!(f, "columnar payload error: {e}"),
            CompressError::Truncated { what } => {
                write!(f, "compressed payload truncated while reading {what}")
            }
            CompressError::TrailingBytes { what, bytes } => {
                write!(f, "{bytes} trailing bytes after {what}")
            }
            CompressError::LengthOverflow {
                what,
                declared,
                limit,
            } => write!(f, "{what} declares length {declared}, limit is {limit}"),
            CompressError::BadMatch { position, distance } => write!(
                f,
                "lz match at output byte {position} reaches back {distance} bytes, before the start"
            ),
        }
    }
}

impl std::error::Error for CompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompressError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a stored chunk payload did not decode into items
/// ([`ChunkDecoder::decode`](crate::ChunkDecoder::decode)).  A chunk stored
/// under `none` or `lz` is rows parsed by the record codec, one stored under
/// `delta-lz` is column streams; the two fail differently, and a
/// container reader reports them differently.
#[derive(Debug)]
pub enum DecodeError {
    /// The LZ block or the column streams were malformed.
    Compress(CompressError),
    /// A row payload failed to decode with the record codec.
    Rows(CodecError),
    /// Bytes were left over after the declared items of a row payload.
    TrailingRows {
        /// Which payload carried the extra bytes.
        what: &'static str,
        /// How many undeclared bytes were found.
        bytes: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Compress(e) => e.fmt(f),
            DecodeError::Rows(e) => write!(f, "row payload error: {e}"),
            DecodeError::TrailingRows { what, bytes } => {
                write!(f, "{bytes} trailing bytes after {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Compress(e) => Some(e),
            DecodeError::Rows(e) => Some(e),
            DecodeError::TrailingRows { .. } => None,
        }
    }
}

impl From<CompressError> for DecodeError {
    fn from(e: CompressError) -> Self {
        DecodeError::Compress(e)
    }
}

/// For the block-level [`column_encode`](crate::column_encode), whose one
/// error type covers its row input too.
impl From<DecodeError> for CompressError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Compress(e) => e,
            DecodeError::Rows(e) => e.into(),
            DecodeError::TrailingRows { what, bytes } => {
                CompressError::TrailingBytes { what, bytes }
            }
        }
    }
}

impl From<CodecError> for CompressError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::UnexpectedEof => CompressError::Truncated {
                what: "a columnar stream value",
            },
            other => CompressError::Codec(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CompressError::UnknownCodec(9).to_string().contains('9'));
        let e = CompressError::from(CodecError::UnexpectedEof);
        assert!(matches!(e, CompressError::Truncated { .. }), "{e}");
        let e = CompressError::from(CodecError::VarintOverflow);
        assert!(e.to_string().contains("columnar"), "{e}");
        let e = CompressError::BadMatch {
            position: 3,
            distance: 7,
        };
        assert!(e.to_string().contains("reaches back 7"), "{e}");
        let e = CompressError::LengthOverflow {
            what: "lz output",
            declared: 10,
            limit: 5,
        };
        assert!(e.to_string().contains("limit is 5"), "{e}");
        let e = DecodeError::TrailingRows {
            what: "the declared records of a RECORDS payload",
            bytes: 2,
        };
        assert!(e.to_string().contains("2 trailing bytes"), "{e}");
        assert!(matches!(
            CompressError::from(e),
            CompressError::TrailingBytes { bytes: 2, .. }
        ));
        let e = DecodeError::Rows(CodecError::NegativeTime);
        assert!(e.to_string().contains("row payload"), "{e}");
    }
}
