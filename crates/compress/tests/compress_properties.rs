//! Property tests for the compression subsystem: both chunk codecs the CLI
//! writes round-trip every payload class over randomized traces, the LZ
//! backend round-trips arbitrary bytes, and corrupted inputs under the two
//! compressing codecs (the `lz` block, `delta-lz`) yield typed errors —
//! never panics.

use proptest::prelude::*;
use trace_compress::{compress, decompress, lz_compress, lz_decompress, Codec, PayloadClass};
use trace_model::codec::varint::write_u64;
use trace_model::codec::{write_exec, write_record, write_stored_segment};
use trace_model::{Time, TraceRecord};
use trace_sim::specgen::{trace_from_specs, SegmentSpec};

fn build_trace(rank_specs: &[Vec<SegmentSpec>]) -> trace_model::AppTrace {
    trace_from_specs("compressprop", rank_specs)
}

/// A rank's records as a row payload (count varint + records), the exact
/// shape a `RECORDS` chunk stores — the whole rank in one chunk.
fn records_payload(records: &[TraceRecord]) -> Vec<u8> {
    let mut payload = Vec::new();
    write_u64(&mut payload, records.len() as u64);
    let mut prev = Time::ZERO;
    for record in records {
        prev = write_record(&mut payload, record, prev);
    }
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_codec_round_trips_records_payloads(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..4, 0u8..4, 0u16..2000), 0..12),
        1..4,
    )) {
        let app = build_trace(&rank_specs);
        for rank in &app.ranks {
            let payload = records_payload(&rank.records);
            for codec in [Codec::None, Codec::DeltaLz] {
                let packed = compress(codec, PayloadClass::Records, &payload)
                    .expect("writer payloads compress");
                let unpacked = decompress(codec, PayloadClass::Records, &packed)
                    .expect("round trip");
                prop_assert_eq!(&unpacked, &payload, "{}", codec.name());
            }
        }
    }

    #[test]
    fn every_codec_round_trips_stored_and_exec_payloads(rank_specs in prop::collection::vec(
        prop::collection::vec((0u8..3, 0u8..3, 0u16..1500), 1..10),
        1..3,
    )) {
        use trace_reduce::{Method, MethodConfig, Reducer};
        let app = build_trace(&rank_specs);
        let reduced = Reducer::new(MethodConfig::with_default_threshold(Method::RelDiff))
            .reduce_app(&app);
        for rank in &reduced.ranks {
            let mut stored = Vec::new();
            write_u64(&mut stored, rank.stored.len() as u64);
            for segment in &rank.stored {
                write_stored_segment(&mut stored, segment);
            }
            let mut execs = Vec::new();
            write_u64(&mut execs, rank.execs.len() as u64);
            let mut prev = Time::ZERO;
            for exec in &rank.execs {
                prev = write_exec(&mut execs, exec, prev);
            }
            for codec in [Codec::None, Codec::DeltaLz] {
                for (class, payload) in
                    [(PayloadClass::Stored, &stored), (PayloadClass::Execs, &execs)]
                {
                    let packed = compress(codec, class, payload).expect("compress");
                    prop_assert_eq!(
                        &decompress(codec, class, &packed).expect("round trip"),
                        payload,
                        "{} {:?}",
                        codec.name(),
                        class
                    );
                }
            }
        }
    }

    #[test]
    fn lz_round_trips_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let packed = lz_compress(&bytes).expect("compress");
        prop_assert_eq!(lz_decompress(&packed).expect("round trip"), bytes);
    }

    #[test]
    fn corrupted_compressed_payloads_never_panic(
        rank_specs in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3, 0u16..1000), 1..8),
            1..2,
        ),
        flip_fraction in 0.0f64..1.0,
        flip_mask in 1u8..255,
    ) {
        let app = build_trace(&rank_specs);
        let payload = records_payload(&app.ranks[0].records);
        for codec in [Codec::Lz, Codec::DeltaLz] {
            let mut packed = compress(codec, PayloadClass::Records, &payload).unwrap();
            let pos = ((packed.len() - 1) as f64 * flip_fraction) as usize;
            packed[pos] ^= flip_mask;
            // Either the corruption decodes to *something* (the container's
            // CRC is what guarantees detection; the codec only guarantees
            // totality) or it is a typed error — it must never panic.
            let _ = decompress(codec, PayloadClass::Records, &packed);
        }
    }

    #[test]
    fn truncated_compressed_payloads_are_errors(
        rank_specs in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3, 0u16..1000), 1..8),
            1..2,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let app = build_trace(&rank_specs);
        let payload = records_payload(&app.ranks[0].records);
        for codec in [Codec::Lz, Codec::DeltaLz] {
            let packed = compress(codec, PayloadClass::Records, &payload).unwrap();
            let cut = ((packed.len() - 1) as f64 * cut_fraction) as usize;
            prop_assert!(
                decompress(codec, PayloadClass::Records, &packed[..cut]).is_err(),
                "{} cut at {}",
                codec.name(),
                cut
            );
        }
    }
}
