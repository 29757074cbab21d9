//! Differential suite: the production encoder against the encoder it
//! replaced, byte for byte.
//!
//! `oracle` holds the previous `lz_compress` and `column_encode` verbatim.
//! The reusable [`LzEncoder`], the record-fed column streams and the
//! [`ChunkEncoder`] that owns both must emit exactly the oracle's bytes —
//! that is what keeps every container file, and every per-chunk raw
//! fallback decision, identical across the change.  The writer-level half
//! (whole containers, fallback chunks included) is
//! `crates/container/tests/encoder_equivalence.rs`.

mod chunks;
mod oracle;

use chunks::{tiny_apps, with_chunks_in_file_order, Chunk};
use proptest::prelude::*;
use trace_compress::{
    column_encode, compress, lz_compress, ChunkEncoder, Codec, LzEncoder, PayloadClass,
};
use trace_model::{Time, TraceRecord};

#[test]
fn every_chunk_of_the_eighteen_workloads_encodes_to_the_oracles_bytes() {
    // One encoder per codec for the whole test, as a writer holds one for a
    // whole file — and longer: stale tables and stream buffers from every
    // earlier chunk, class and workload are in play.
    let mut encoders = [Codec::Lz, Codec::DeltaLz].map(ChunkEncoder::new);
    let mut obs = trace_obs::ObsShard::disabled();
    let mut chunks = [0usize; 3];
    for app in tiny_apps() {
        with_chunks_in_file_order(&app, |chunk| {
            let class = chunk.class();
            let rows = chunk.rows();
            let columnar = oracle::column_encode(class, &rows).expect("oracle columns");
            let expected = [oracle::lz_compress(&rows), oracle::lz_compress(&columnar)];
            for (encoder, expected) in encoders.iter_mut().zip(&expected) {
                chunk.push_into(encoder);
                let packed = encoder.finish(class, &rows, &mut obs).expect("encode");
                assert_eq!(packed, &expected[..], "{} {class:?}", app.name);
            }
            // The parse-the-rows entry points ride the same writers.
            assert_eq!(column_encode(class, &rows).unwrap(), columnar);
            assert_eq!(compress(Codec::DeltaLz, class, &rows).unwrap(), expected[1]);
            chunks[class as usize] += 1;
        });
    }
    assert!(chunks.iter().all(|&n| n >= 18), "{chunks:?}");
}

/// Byte strings that stress the match finder: `symbols` distinct bytes,
/// optionally with a run spliced in and the head repeated at the tail (a
/// match that reaches the end of input).
fn lz_input() -> impl Strategy<Value = Vec<u8>> {
    let symbols = prop_oneof![Just(1u16), Just(2), Just(4), Just(256)];
    let length = prop_oneof![0usize..12, 0usize..600, 0usize..70_000];
    (symbols, length, any::<u64>(), any::<bool>()).prop_map(|(symbols, len, seed, echo)| {
        let mut state = seed | 1;
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 33) % u64::from(symbols)) as u8
            })
            .collect();
        if echo && len > 8 {
            let run_at = (state as usize) % len;
            let run_end = (run_at + 300).min(len);
            bytes[run_at..run_end].fill(7);
            let tail = len / 3;
            bytes.copy_within(..tail, len - tail);
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Alphabets of 1, 2, 4 and 256 symbols, lengths 0–70 000: chains far
    /// longer than `MAX_CHAIN`, overlapping runs, matches ending at the end
    /// of input; several blocks of mixed sizes through one encoder, so each
    /// block but the first meets tables another block left behind.
    #[test]
    fn byte_strings_compress_to_the_oracles_bytes(blocks in prop::collection::vec(lz_input(), 1..5)) {
        let mut encoder = LzEncoder::new();
        let mut out = Vec::new();
        for block in &blocks {
            let expected = oracle::lz_compress(block);
            encoder.compress(block, &mut out).expect("compress");
            prop_assert_eq!(&out, &expected, "reused encoder, {} bytes", block.len());
            prop_assert_eq!(&lz_compress(block).expect("compress"), &expected);
        }
    }
}

#[test]
fn every_short_string_compresses_to_the_oracles_bytes() {
    // All strings of up to 11 bytes over {a, b} and up to 7 over {a, b, c}:
    // inputs shorter than MIN_MATCH, a match found with exactly MIN_MATCH
    // bytes left after the next position (`pos + 1 + MIN_MATCH == len`, the
    // last position the lazy look-ahead may inspect), matches that end the
    // input.  One encoder throughout.
    let mut encoder = LzEncoder::new();
    let mut out = Vec::new();
    for (symbols, max_len) in [(2u32, 11u32), (3, 7)] {
        for len in 0..=max_len {
            for code in 0..symbols.pow(len) {
                let mut rest = code;
                let input: Vec<u8> = (0..len)
                    .map(|_| {
                        let symbol = b'a' + (rest % symbols) as u8;
                        rest /= symbols;
                        symbol
                    })
                    .collect();
                encoder.compress(&input, &mut out).unwrap();
                assert_eq!(out, oracle::lz_compress(&input), "{input:?}");
            }
        }
    }
}

#[test]
fn the_lazy_look_ahead_reaches_a_match_that_ends_the_input() {
    // `c S[..k]` occurs early, `S` (k + 3 bytes) after it, and the input
    // ends in `c S`: the match at the final `c` is k + 1 long, the one a
    // byte later k + 3 and flush with the end of input — the tightest case
    // the look-ahead's bound on the remaining input must still let through.
    let mut encoder = LzEncoder::new();
    let mut out = Vec::new();
    for k in 3..40usize {
        for filler in [0usize, 1, 5, 300] {
            let s: Vec<u8> = (0..k + 3).map(|i| b'A' + (i * 7 % 23) as u8).collect();
            let mut input = vec![b'c'];
            input.extend_from_slice(&s[..k]);
            input.extend_from_slice(b"-+");
            input.extend_from_slice(&s);
            input.extend((0..filler).map(|i| b'0' + (i % 10) as u8));
            input.push(b'c');
            input.extend_from_slice(&s);
            encoder.compress(&input, &mut out).unwrap();
            assert_eq!(out, oracle::lz_compress(&input), "k {k}, filler {filler}");
        }
    }
}

#[test]
fn a_time_stamp_no_reader_accepts_is_refused_by_the_record_fed_path_too() {
    // The oracle fails such a chunk when it parses the rows back; the
    // record-fed columns never parse, so they carry the check themselves.
    let records = [TraceRecord::SegmentBegin {
        context: trace_model::ContextId(0),
        time: Time::from_nanos(1 << 63),
    }];
    let chunk = Chunk::Records(&records);
    let rows = chunk.rows();
    assert!(oracle::column_encode(PayloadClass::Records, &rows).is_err());
    let mut encoder = ChunkEncoder::new(Codec::DeltaLz);
    let mut obs = trace_obs::ObsShard::disabled();
    chunk.push_into(&mut encoder);
    assert!(encoder
        .finish(PayloadClass::Records, &rows, &mut obs)
        .is_err());
    // The failed chunk leaves nothing behind for the next one.
    let good = [TraceRecord::SegmentBegin {
        context: trace_model::ContextId(0),
        time: Time::from_nanos(5),
    }];
    let chunk = Chunk::Records(&good);
    chunk.push_into(&mut encoder);
    assert_eq!(
        encoder
            .finish(PayloadClass::Records, &chunk.rows(), &mut obs)
            .unwrap(),
        oracle::lz_compress(&oracle::column_encode(PayloadClass::Records, &chunk.rows()).unwrap())
    );
}
