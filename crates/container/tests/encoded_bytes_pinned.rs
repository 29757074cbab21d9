//! Byte-stability pin for the compressing codecs.
//!
//! Container bytes are a compatibility surface: reduced files are compared
//! by digest across drivers, and `benchmark/golden.json` pins four large
//! ones.  This test pins small ones inside tier-1, so that an encoder change
//! that alters any output byte — a different match choice, a different
//! fallback decision, a different stream order — fails `cargo test`, not
//! only `bench verify`.  The length and CRC-32 below were produced by the
//! encoder as it stood before `LzEncoder`; a change that means to alter the
//! bytes updates them (the failure message prints the new lines) and says so.

use trace_container::{crc32, encode_app_container, encode_reduced_container, ChunkSpec, Codec};
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::{SizePreset, Workload, WorkloadKind};

/// One line per workload and codec: length and CRC-32 of the app container,
/// then of the reduced container.
const PINNED: &str = "\
late_sender lz: app 2405 f65ba54a, reduced 1646 f07866bf
late_sender delta-lz: app 2429 4f95eb0f, reduced 1638 bf7c757f
sweep3d_32p lz: app 163016 c4326c31, reduced 57760 5aa92b74
sweep3d_32p delta-lz: app 153203 6323fc74, reduced 49093 7683d45c
dyn_load_balance lz: app 2906 2759be48, reduced 2678 db73857c
dyn_load_balance delta-lz: app 2783 ffde9859, reduced 2613 ea56a575
";

#[test]
fn lz_and_delta_lz_containers_keep_their_bytes() {
    let mut actual = String::new();
    for kind in [
        WorkloadKind::LateSender,
        WorkloadKind::Sweep3d32p,
        WorkloadKind::DynLoadBalance,
    ] {
        let app = Workload::new(kind, SizePreset::Tiny).generate();
        let reduced =
            Reducer::new(MethodConfig::with_default_threshold(Method::AvgWave)).reduce_app(&app);
        for codec in [Codec::Lz, Codec::DeltaLz] {
            let spec = ChunkSpec::with_codec(codec);
            let app_bytes = encode_app_container(&app, spec);
            let reduced_bytes = encode_reduced_container(&reduced, spec);
            actual.push_str(&format!(
                "{} {}: app {} {:08x}, reduced {} {:08x}\n",
                app.name,
                codec.name(),
                app_bytes.len(),
                crc32(&app_bytes),
                reduced_bytes.len(),
                crc32(&reduced_bytes),
            ));
        }
    }
    assert_eq!(actual, PINNED, "encoded bytes moved; now:\n{actual}");
}
