//! Error type for the chunked container format.

use std::fmt;
use std::io;

use trace_compress::{CompressError, DecodeError};
use trace_model::codec::CodecError;
use trace_model::StoredIdError;

/// Errors produced while reading or writing a chunked trace container.
#[derive(Debug)]
pub enum ContainerError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// A chunk payload failed to decode with the record codec.
    Codec(CodecError),
    /// A chunk's codec byte named an unknown codec, or its stored payload
    /// was not a valid stream of that codec (despite a matching CRC).
    Compress(CompressError),
    /// The file does not start with a recognized container magic.
    BadMagic {
        /// The magic bytes found at the start of the input.
        found: [u8; 4],
    },
    /// The file is in the retired monolithic v1 format, which no reader
    /// accepts any more.
    RetiredV1 {
        /// The v1 magic bytes found at the start of the input.
        found: [u8; 4],
    },
    /// The container version is not supported by this reader.
    UnsupportedVersion(u8),
    /// The payload-kind byte names neither an app nor a reduced trace.
    BadPayloadKind(u8),
    /// A chunk-kind byte has no defined meaning.
    BadChunkKind(u8),
    /// The input ended in the middle of a header, chunk or trailer.
    Truncated {
        /// What was being read when the input ended.
        what: &'static str,
    },
    /// A chunk payload's CRC-32 did not match the framing header.
    BadCrc {
        /// Byte offset of the chunk whose payload is corrupt.
        offset: u64,
        /// The checksum declared in the chunk header.
        expected: u32,
        /// The checksum computed over the payload bytes read.
        found: u32,
    },
    /// The 12-byte trailer is missing or does not end in the index magic.
    BadTrailer,
    /// A chunk arrived where the format forbids it.
    UnexpectedChunk {
        /// What the reader was prepared to accept.
        expected: &'static str,
        /// The chunk kind that actually arrived.
        found: &'static str,
    },
    /// Bytes were left over after the declared items of a payload.
    TrailingBytes {
        /// Which payload carried the extra bytes.
        what: &'static str,
        /// How many undeclared bytes were found.
        bytes: usize,
    },
    /// A reduced rank section's stored ids are not dense, or one of its
    /// executions names a segment the section does not store.
    StoredIds(StoredIdError),
    /// The index footer does not describe the rank sections the file
    /// holds: an entry names another rank, starts elsewhere, or counts
    /// other items than its section, or the sections do not tile the file.
    IndexMismatch {
        /// The index entry at fault, from 0.
        entry: usize,
        /// The field that disagrees.
        what: &'static str,
        /// The value the index lists.
        listed: u64,
        /// The value the file holds.
        found: u64,
    },
    /// An index entry places its section where none can be: at or before
    /// the previous entry's, or at or past the `INDEX` chunk, so the
    /// entries do not tile the file in order.
    IndexOrder {
        /// The index entry at fault, from 0.
        entry: usize,
        /// The byte offset the entry lists.
        offset: u64,
        /// The previous entry's byte offset, which it must lie after.
        after: u64,
        /// The `INDEX` chunk's byte offset, which it must lie before.
        before: u64,
    },
    /// A declared count disagreed with the items actually present.
    CountMismatch {
        /// What was being counted.
        what: &'static str,
        /// The count declared in the file.
        declared: u64,
        /// The count observed while reading.
        found: u64,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "container i/o error: {e}"),
            ContainerError::Codec(e) => write!(f, "container payload error: {e}"),
            ContainerError::Compress(e) => write!(f, "container compression error: {e}"),
            ContainerError::BadMagic { found } => {
                write!(f, "not a trace container: bad magic bytes {found:?}")
            }
            ContainerError::RetiredV1 { found } => write!(
                f,
                "a monolithic v1 trace file (magic {:?}): the retired v1 format is no \
                 longer read; only chunked v2 containers and text traces are",
                String::from_utf8_lossy(found)
            ),
            ContainerError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v}")
            }
            ContainerError::BadPayloadKind(k) => write!(f, "invalid payload kind byte {k}"),
            ContainerError::BadChunkKind(k) => write!(f, "invalid chunk kind byte {k}"),
            ContainerError::Truncated { what } => {
                write!(f, "container truncated while reading {what}")
            }
            ContainerError::BadCrc {
                offset,
                expected,
                found,
            } => write!(
                f,
                "chunk at byte {offset} is corrupt: crc32 {found:#010x}, header says {expected:#010x}"
            ),
            ContainerError::BadTrailer => {
                write!(f, "missing or corrupt index trailer (last 12 bytes)")
            }
            ContainerError::UnexpectedChunk { expected, found } => {
                write!(f, "unexpected {found} chunk, expected {expected}")
            }
            ContainerError::TrailingBytes { what, bytes } => {
                write!(f, "{bytes} trailing bytes after {what}")
            }
            ContainerError::StoredIds(e) => e.fmt(f),
            ContainerError::IndexMismatch {
                entry,
                what,
                listed,
                found,
            } => write!(
                f,
                "index entry {entry} does not describe the file: {what} {listed} in the \
                 index, {found} in the file"
            ),
            ContainerError::IndexOrder {
                entry,
                offset,
                after,
                before,
            } => write!(
                f,
                "index entry {entry} does not describe the file: it places its section at \
                 byte {offset}, not after byte {after} and before the index at byte {before}"
            ),
            ContainerError::CountMismatch {
                what,
                declared,
                found,
            } => write!(f, "{what}: file declares {declared}, found {found}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            ContainerError::Codec(e) => Some(e),
            ContainerError::Compress(e) => Some(e),
            ContainerError::StoredIds(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ContainerError::Truncated { what: "chunk data" }
        } else {
            ContainerError::Io(e)
        }
    }
}

impl From<CodecError> for ContainerError {
    fn from(e: CodecError) -> Self {
        ContainerError::Codec(e)
    }
}

impl From<CompressError> for ContainerError {
    fn from(e: CompressError) -> Self {
        ContainerError::Compress(e)
    }
}

/// A payload chunk that did not decode keeps the variant it always had:
/// rows that fail the record codec are [`ContainerError::Codec`], bytes
/// after them [`ContainerError::TrailingBytes`], a bad LZ block or column
/// stream [`ContainerError::Compress`].
impl From<DecodeError> for ContainerError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Compress(e) => ContainerError::Compress(e),
            DecodeError::Rows(e) => ContainerError::Codec(e),
            DecodeError::TrailingRows { what, bytes } => {
                ContainerError::TrailingBytes { what, bytes }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ContainerError::BadCrc {
            offset: 42,
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("byte 42"), "{e}");
        let e = ContainerError::from(io::Error::from(io::ErrorKind::UnexpectedEof));
        assert!(matches!(e, ContainerError::Truncated { .. }), "{e}");
        let e = ContainerError::from(CodecError::UnexpectedEof);
        assert!(e.to_string().contains("payload"), "{e}");
        let e = ContainerError::from(CompressError::UnknownCodec(7));
        assert!(e.to_string().contains("compression"), "{e}");
    }
}
