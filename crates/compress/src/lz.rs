//! Self-contained LZ byte compressor (greedy hash-chain match finder).
//!
//! The token stream is LZ4-shaped but registry-free and varint-based:
//!
//! ```text
//! block    := raw_len varint | sequence*
//! sequence := ctrl u8 (lit_len:4 | match_len:4)
//!           | lit_ext varint        (only if lit_len nibble == 15)
//!           | literal bytes         (lit_len of them)
//!           | distance varint       (absent when the literals complete the block)
//!           | match_ext varint      (only if match_len nibble == 15)
//! ```
//!
//! A sequence's literal length is the nibble, plus the extension varint when
//! the nibble saturates at 15.  The match length is the nibble plus
//! [`MIN_MATCH`] (matches shorter than that are never emitted), again with a
//! varint extension at 15.  `distance` counts back from the current output
//! position and may reach anywhere into the already-produced output — the
//! window is the whole block, which is fine because blocks are container
//! chunks, not gigabyte files.  Overlapping matches (distance < length) are
//! legal — the copy reads bytes it has just written — which is how runs
//! compress.
//!
//! The match finder is a classic greedy hash chain: 4-byte hashes index the
//! most recent occurrence, a `prev` chain links earlier ones, and the search
//! walks at most `MAX_CHAIN` candidates, deferring a match by one byte when
//! the next position holds a strictly longer one.  Compression is
//! deterministic and its bytes are pinned: which candidates a walk visits, in
//! which order, and which of them wins are held fixed by
//! `tests/encoder_equivalence.rs` (against the previous implementation, kept
//! as a test-only oracle) and by `trace_container`'s
//! `encoded_bytes_pinned.rs`.  [`LzEncoder`] is about what a visit costs:
//!
//! * **Tables are owned and reused.**  `head` and `prev` hold `u32`s.  A
//!   `head` entry is `base + pos`, so any entry below `base` is empty: a new
//!   encoder starts at `base == 1` over zeroed tables, and advancing `base`
//!   by the block length after a block empties the table without touching
//!   it.  Only when `base + len` would pass `u32::MAX` is `head` zeroed and
//!   `base` reset.  `prev` is indexed by position in the current block, grows
//!   to the largest block seen and is never cleared: a chain only reaches
//!   positions whose entry is `>= base`, and those were written in this block.
//! * **Probe first.**  A candidate can only beat the best length so far if it
//!   agrees with the current position at offset `best_len` (and the bytes
//!   before it); one word ending there is compared before the full
//!   extension, which runs eight bytes at a time (XOR of two little-endian
//!   words, `trailing_zeros / 8`).  The search starts from `MIN_MATCH - 1`,
//!   so a candidate too short to be emitted is never extended.
//! * **The lazy look-ahead asks a yes/no question** — is there a match longer
//!   than `best_len + 1` one byte later? — so it probes at that length, only
//!   extends candidates that could flip the answer, and stops at the first
//!   that does.

use trace_model::codec::varint::write_u64;
use trace_model::codec::Reader;

use crate::error::CompressError;

/// Shortest match worth encoding (a sequence costs about 3 bytes).
pub const MIN_MATCH: usize = 4;
/// Longest hash-chain walk per position; bounds worst-case encode time.
const MAX_CHAIN: usize = 128;
/// Hash table size (log2).
const HASH_BITS: u32 = 15;
/// Hard cap on a block's decompressed size.  Chunk payloads are cut far
/// smaller by the container writer; the encoder refuses anything larger (its
/// positions are `u32`s), and the decoder rejects a crafted block declaring
/// more before it allocates.
pub(crate) const MAX_RAW_LEN: u64 = 1 << 30;

/// The four bytes at `at` as a little-endian word; 0 when fewer remain.
#[inline]
fn word_at(input: &[u8], at: usize) -> u32 {
    match input.get(at..).and_then(|tail| tail.first_chunk::<4>()) {
        Some(&bytes) => u32::from_le_bytes(bytes),
        None => 0,
    }
}

/// Hash of the four bytes at `at`, below `1 << HASH_BITS`.
#[inline]
fn hash_at(input: &[u8], at: usize) -> usize {
    (word_at(input, at).wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `input[a..]` and `input[b..]` (`a < b`).
#[inline]
fn match_length(input: &[u8], a: usize, b: usize) -> usize {
    let mut tail_a = input.get(a..).unwrap_or(&[]);
    let mut tail_b = input.get(b..).unwrap_or(&[]);
    let mut len = 0usize;
    while let (Some((word_a, rest_a)), Some((word_b, rest_b))) = (
        tail_a.split_first_chunk::<8>(),
        tail_b.split_first_chunk::<8>(),
    ) {
        let diff = u64::from_le_bytes(*word_a) ^ u64::from_le_bytes(*word_b);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
        tail_a = rest_a;
        tail_b = rest_b;
    }
    len + tail_a
        .iter()
        .zip(tail_b)
        .take_while(|(x, y)| x == y)
        .count()
}

fn write_sequence(out: &mut Vec<u8>, literals: &[u8], matched: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = matched
        .map(|(_, len)| (len - MIN_MATCH).min(15) as u8)
        .unwrap_or(0);
    out.push((lit_nibble << 4) | match_nibble);
    if lit_nibble == 15 {
        write_u64(out, (literals.len() - 15) as u64);
    }
    out.extend_from_slice(literals);
    if let Some((distance, len)) = matched {
        write_u64(out, distance as u64);
        if match_nibble == 15 {
            write_u64(out, (len - MIN_MATCH - 15) as u64);
        }
    }
}

/// The LZ match finder and its tables, reusable across blocks.
///
/// Every block is self-contained (no match reaches into an earlier block)
/// and its bytes do not depend on what the encoder compressed before.  The
/// container writer keeps one encoder for its lifetime, so a chunk costs no
/// table allocation or initialisation (module docs: the `base` scheme).
#[derive(Debug)]
pub struct LzEncoder {
    /// `1 << HASH_BITS` entries: `base + pos` of the most recent position
    /// of the current block with that hash; anything below `base` is empty.
    head: Vec<u32>,
    /// Per position of the current block: the `head` entry it displaced.
    prev: Vec<u32>,
    /// Where the current block's position 0 sits in `head`'s entry space.
    base: u32,
    /// Largest block accepted: `MAX_RAW_LEN`, lowered only by tests.
    max_raw_len: u64,
}

impl Default for LzEncoder {
    fn default() -> Self {
        LzEncoder::new()
    }
}

/// The tables of an [`LzEncoder`] pointed at one block.
struct Block<'a> {
    input: &'a [u8],
    head: &'a mut [u32],
    prev: &'a mut [u32],
    base: u32,
}

impl Block<'_> {
    /// Enters `pos` at the front of its hash chain.
    #[inline]
    fn insert(&mut self, pos: usize) {
        let h = hash_at(self.input, pos);
        // lint:allow(indexing) -- h < 1 << HASH_BITS == head.len() by the hash shift; pos < input.len() <= prev.len()
        self.prev[pos] = self.head[h];
        // lint:allow(indexing) -- h < head.len() by the hash shift
        self.head[h] = self.base + pos as u32;
    }

    /// The candidates for a match at `pos`: the positions entered under its
    /// hash, most recent first, at most `MAX_CHAIN` of them.
    #[inline]
    fn candidates(&self, pos: usize) -> impl Iterator<Item = usize> + '_ {
        // lint:allow(indexing) -- the hash is below head.len() by its shift
        let mut entry = self.head[hash_at(self.input, pos)];
        std::iter::from_fn(move || {
            let candidate = entry.checked_sub(self.base)? as usize;
            // lint:allow(indexing) -- entries >= base were made by insert() in this block, which wrote prev[candidate]
            entry = self.prev[candidate];
            Some(candidate)
        })
        .take(MAX_CHAIN)
    }

    /// Whether the match of `candidate` at `pos` can be longer than `len`:
    /// it then covers offset `len`, and the three bytes before it.  Needs
    /// `3 <= len` and `pos + len` inside the input.
    #[inline]
    fn may_exceed(&self, candidate: usize, pos: usize, len: usize) -> bool {
        word_at(self.input, candidate + len - 3) == word_at(self.input, pos + len - 3)
    }

    /// The longest match at `pos` among its candidates, as `(length,
    /// candidate)` — of several that long, the most recent — or
    /// `(MIN_MATCH - 1, 0)` when none reaches `MIN_MATCH`.
    #[inline]
    fn longest_match(&self, pos: usize) -> (usize, usize) {
        let mut best_len = MIN_MATCH - 1;
        let mut best_pos = 0usize;
        for candidate in self.candidates(pos) {
            if self.may_exceed(candidate, pos, best_len) {
                let len = match_length(self.input, candidate, pos);
                if len > best_len {
                    best_len = len;
                    best_pos = candidate;
                    if pos + len == self.input.len() {
                        break; // cannot do better than reaching the end
                    }
                }
            }
        }
        (best_len, best_pos)
    }

    /// Whether some candidate of `pos` matches more than `len` bytes.
    #[inline]
    fn has_match_longer_than(&self, pos: usize, len: usize) -> bool {
        self.candidates(pos).any(|candidate| {
            self.may_exceed(candidate, pos, len) && match_length(self.input, candidate, pos) > len
        })
    }
}

impl LzEncoder {
    /// An encoder with empty tables.
    pub fn new() -> Self {
        LzEncoder {
            head: vec![0; 1 << HASH_BITS],
            prev: Vec::new(),
            base: 1,
            max_raw_len: MAX_RAW_LEN,
        }
    }

    /// An encoder whose `base` and block limit tests choose: the first to
    /// reach the table reset without 4 GiB of input, the second to reach the
    /// limit without 1 GiB of it.
    #[cfg(test)]
    fn with_state(base: u32, max_raw_len: u64) -> Self {
        LzEncoder {
            base,
            max_raw_len,
            ..LzEncoder::new()
        }
    }

    /// Compresses `input` into a self-contained LZ block, replacing the
    /// contents of `out`.
    ///
    /// The block is never larger than `input.len() + varint(len) + a few
    /// bytes` of sequence overhead; callers that care (the container writer)
    /// compare lengths and keep the raw payload when compression does not
    /// pay.  An input above `MAX_RAW_LEN` — a block [`lz_decompress`]
    /// would refuse — is a [`CompressError::LengthOverflow`].
    pub fn compress(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        if input.len() as u64 > self.max_raw_len {
            return Err(CompressError::LengthOverflow {
                what: "lz block raw length",
                declared: input.len() as u64,
                limit: self.max_raw_len,
            });
        }
        out.clear();
        out.reserve(input.len() / 2 + 16);
        write_u64(out, input.len() as u64);

        // input.len() <= MAX_RAW_LEN = 2^30, so it is a u32 and `1 + len`
        // fits after a reset.
        let len = input.len() as u32;
        if self.base.checked_add(len).is_none() {
            self.head.fill(0);
            self.base = 1;
        }
        if self.prev.len() < input.len() {
            self.prev.resize(input.len(), 0);
        }
        let mut block = Block {
            input,
            head: &mut self.head,
            prev: &mut self.prev,
            base: self.base,
        };

        let mut lit_start = 0usize;
        let mut pos = 0usize;
        while pos + MIN_MATCH <= input.len() {
            let (best_len, best_pos) = block.longest_match(pos);
            // Lazy matching: if starting one byte later yields a match more
            // than one byte longer, emit this byte as a literal and take the
            // later match instead (the classic gzip deferral, one step
            // deep).  A later match that long needs pos + best_len + 2
            // bytes of input.
            if best_len < MIN_MATCH
                || (pos + best_len + 2 < input.len()
                    && block.has_match_longer_than(pos + 1, best_len + 1))
            {
                block.insert(pos);
                pos += 1;
                continue;
            }
            write_sequence(
                out,
                // lint:allow(indexing) -- lit_start <= pos <= input.len() by the scan loop
                &input[lit_start..pos],
                Some((pos - best_pos, best_len)),
            );
            let insert_end = (pos + best_len).min(input.len() - MIN_MATCH + 1);
            for p in pos..insert_end {
                block.insert(p);
            }
            pos += best_len;
            lit_start = pos;
        }
        if lit_start < input.len() {
            // lint:allow(indexing) -- guarded by the bounds check on the previous line
            write_sequence(out, &input[lit_start..], None);
        }
        // Checked above: base + len fits.
        self.base += len;
        Ok(())
    }
}

/// Compresses `input` into a self-contained LZ block with a fresh
/// [`LzEncoder`]; see [`LzEncoder::compress`].
pub fn lz_compress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    LzEncoder::new().compress(input, &mut out)?;
    Ok(out)
}

/// Decompresses a block produced by [`LzEncoder::compress`].
///
/// Every way the input can be malformed — truncation, a distance reaching
/// before the output start, lengths disagreeing with the declared raw
/// length, trailing bytes — is a typed [`CompressError`]; the output buffer
/// grows only as bytes are actually produced.
pub fn lz_decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut out = Vec::new();
    lz_decompress_into(input, &mut out)?;
    Ok(out)
}

/// [`lz_decompress`] into a buffer the caller reuses from block to block:
/// `out` is emptied first and holds the block afterwards (a prefix of it
/// when the input is malformed).
pub(crate) fn lz_decompress_into(input: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
    out.clear();
    let mut reader = Reader::new(input);
    let raw_len = trace_model::codec::varint::read_u64(&mut reader)?;
    if raw_len > MAX_RAW_LEN {
        return Err(CompressError::LengthOverflow {
            what: "lz block raw length",
            declared: raw_len,
            limit: MAX_RAW_LEN,
        });
    }
    let raw_len = raw_len as usize;
    out.reserve(raw_len.min(1 << 20));
    while out.len() < raw_len {
        let ctrl = reader.read_byte().map_err(|_| CompressError::Truncated {
            what: "lz sequence control byte",
        })?;
        let mut lit_len = u64::from(ctrl >> 4);
        if lit_len == 15 {
            lit_len = lit_len
                .checked_add(trace_model::codec::varint::read_u64(&mut reader)?)
                .ok_or(CompressError::LengthOverflow {
                    what: "lz literal run",
                    declared: u64::MAX,
                    limit: raw_len as u64,
                })?;
        }
        if lit_len > (raw_len - out.len()) as u64 {
            return Err(CompressError::LengthOverflow {
                what: "lz literal run",
                declared: lit_len,
                limit: (raw_len - out.len()) as u64,
            });
        }
        let literals =
            reader
                .read_bytes(lit_len as usize)
                .map_err(|_| CompressError::Truncated {
                    what: "lz literal bytes",
                })?;
        out.extend_from_slice(literals);
        if out.len() == raw_len {
            break;
        }
        let distance = trace_model::codec::varint::read_u64(&mut reader)?;
        if distance == 0 || distance > out.len() as u64 {
            return Err(CompressError::BadMatch {
                position: out.len(),
                distance,
            });
        }
        let mut match_len = u64::from(ctrl & 0x0f) + MIN_MATCH as u64;
        if ctrl & 0x0f == 15 {
            match_len = match_len
                .checked_add(trace_model::codec::varint::read_u64(&mut reader)?)
                .ok_or(CompressError::LengthOverflow {
                    what: "lz match run",
                    declared: u64::MAX,
                    limit: raw_len as u64,
                })?;
        }
        if match_len > (raw_len - out.len()) as u64 {
            return Err(CompressError::LengthOverflow {
                what: "lz match run",
                declared: match_len,
                limit: (raw_len - out.len()) as u64,
            });
        }
        let start = out.len() - distance as usize;
        // Overlapping matches are legal (distance < length): the bytes from
        // `start` on then repeat with period `distance`, so each pass copies
        // everything produced so far and the run doubles until it is done.
        // A match that does not overlap is the first pass alone.
        let mut remaining = match_len as usize;
        while remaining > 0 {
            let step = remaining.min(out.len() - start);
            out.extend_from_within(start..start + step);
            remaining -= step;
        }
    }
    if !reader.is_at_end() {
        return Err(CompressError::TrailingBytes {
            what: "the declared lz block",
            bytes: reader.remaining(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let compressed = lz_compress(input).expect("compress");
        let decoded = lz_decompress(&compressed).expect("decompress");
        assert_eq!(decoded, input);
        compressed
    }

    /// A reproducible byte stream over `symbols` symbols: few symbols make
    /// long chains and overlapping runs, 256 make literals.
    fn noise(len: usize, symbols: u64, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 33) % symbols) as u8
            })
            .collect()
    }

    #[test]
    fn blocks_above_the_raw_length_cap_are_refused_like_the_decoder_refuses_them() {
        // At the real cap a test would need a gigabyte of input, so the
        // boundary runs against a lowered limit; the error is the decoder's.
        let mut encoder = LzEncoder::with_state(1, 100);
        let mut out = Vec::new();
        encoder.compress(&noise(100, 4, 1), &mut out).unwrap();
        assert_eq!(lz_decompress(&out).unwrap(), noise(100, 4, 1));
        match encoder.compress(&noise(101, 4, 1), &mut out) {
            Err(CompressError::LengthOverflow {
                what: "lz block raw length",
                declared: 101,
                limit: 100,
            }) => {}
            other => panic!("expected LengthOverflow, got {other:?}"),
        }
        // A refusal leaves the encoder usable.
        encoder.compress(&noise(99, 4, 2), &mut out).unwrap();
        assert_eq!(out, lz_compress(&noise(99, 4, 2)).unwrap());
        assert_eq!(LzEncoder::new().max_raw_len, MAX_RAW_LEN);
    }

    #[test]
    fn a_reused_encoder_emits_what_a_fresh_one_does_across_the_table_reset() {
        // Blocks of mixed sizes through one encoder whose base starts just
        // below u32::MAX: the second or third block forces the reset, the
        // ones before and after ride on stale `head` and `prev` entries.
        for start in [1, u32::MAX - 70_000, u32::MAX - 5_000, u32::MAX - 1] {
            let mut encoder = LzEncoder::with_state(start, MAX_RAW_LEN);
            let mut resets = 0;
            let mut out = Vec::new();
            for (i, (len, symbols)) in [
                (3_000, 2),
                (40_000, 4),
                (0, 1),
                (2, 1),
                (9_000, 1),
                (30_000, 256),
                (40_000, 2),
                (5, 2),
                (12_000, 4),
            ]
            .into_iter()
            .enumerate()
            {
                let input = noise(len, symbols, 0x9e37 + i as u64);
                let before = encoder.base;
                encoder.compress(&input, &mut out).unwrap();
                if encoder.base < before {
                    resets += 1;
                }
                assert_eq!(
                    out,
                    lz_compress(&input).unwrap(),
                    "start {start}, block {i}"
                );
                assert_eq!(lz_decompress(&out).unwrap(), input);
            }
            assert_eq!(resets, u32::from(start != 1), "start {start}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        assert_eq!(round_trip(b""), vec![0]);
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let input: Vec<u8> = b"late_sender late_sender late_sender "
            .iter()
            .cycle()
            .take(4096)
            .copied()
            .collect();
        let compressed = round_trip(&input);
        assert!(
            compressed.len() * 10 < input.len(),
            "{} vs {}",
            compressed.len(),
            input.len()
        );
    }

    #[test]
    fn runs_use_overlapping_matches() {
        let input = vec![7u8; 100_000];
        let compressed = round_trip(&input);
        assert!(compressed.len() < 64, "{}", compressed.len());
    }

    #[test]
    fn incompressible_input_round_trips_with_bounded_expansion() {
        // A xorshift byte stream: hardly a 4-byte match survives, so nearly
        // everything is literals.
        let input = noise(10_000, 256, 0x9e3779b97f4a7c15);
        let compressed = round_trip(&input);
        assert!(compressed.len() <= input.len() + input.len() / 100 + 16);
    }

    #[test]
    fn long_literal_and_match_extensions_round_trip() {
        // > 15 literals followed by a > 15+MIN_MATCH match of them.
        let mut input: Vec<u8> = (0u8..=99).collect();
        input.extend(0u8..=99);
        round_trip(&input);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let input: Vec<u8> = b"abcdabcdabcdabcd-tail".to_vec();
        let compressed = lz_compress(&input).unwrap();
        for cut in 0..compressed.len() {
            let err = lz_decompress(&compressed[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    CompressError::Truncated { .. }
                        | CompressError::LengthOverflow { .. }
                        | CompressError::BadMatch { .. }
                        | CompressError::TrailingBytes { .. }
                        | CompressError::Codec(_)
                ),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_distance_and_oversized_lengths_are_typed_errors() {
        // raw_len 8, one literal, then a match reaching back 5 bytes.
        let block = [8u8, 0x11, b'x', 5u8];
        assert!(matches!(
            lz_decompress(&block),
            Err(CompressError::BadMatch { distance: 5, .. })
        ));
        // Declared raw length above the cap is rejected before allocating.
        let mut huge = Vec::new();
        write_u64(&mut huge, MAX_RAW_LEN + 1);
        assert!(matches!(
            lz_decompress(&huge),
            Err(CompressError::LengthOverflow { .. })
        ));
        // A match that would overrun the declared raw length.
        let overrun = [6u8, 0x4f, b'a', b'b', b'c', b'd', 2u8, 100u8];
        assert!(matches!(
            lz_decompress(&overrun),
            Err(CompressError::LengthOverflow { .. })
        ));
        // Trailing bytes after the block completes.
        let mut trailing = lz_compress(b"abcdefgh").unwrap();
        trailing.push(0);
        assert!(matches!(
            lz_decompress(&trailing),
            Err(CompressError::TrailingBytes { .. })
        ));
    }
}
