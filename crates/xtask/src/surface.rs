//! Which files get which rule families.
//!
//! The classification is path-based and file-granular so the rule engine
//! stays purely lexical: a file either is decode surface (untrusted-input
//! parsing) or it is not, and the list below is the single place that
//! decision lives.  `docs/static-analysis.md` documents the same lists for
//! humans; keep the two in sync.

use std::path::Path;

/// Rule families that apply to one scanned file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Panic-freedom rules apply: the file parses or decodes input that may
    /// be malformed (truncated files, corrupt chunks, hostile traces).
    pub decode_surface: bool,
    /// Determinism rules apply: the file belongs to a crate whose behaviour
    /// feeds reduction output, which must be bit-identical across runs,
    /// drivers and thread counts.
    pub determinism: bool,
    /// The file belongs to a binary-interface crate (`cli`, `xtask`) where
    /// stdout printing and process exit are the product, not a leak.
    pub bin_crate: bool,
    /// The file is a crate root (`lib.rs` / `main.rs`) and must carry
    /// `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
}

/// Crates whose outputs must be deterministic (directory names under
/// `crates/`).
///
/// `obs` is deliberately in this list even though it is the one crate that
/// reads the monotonic clock: its two audited `lint:allow(wall_clock)`
/// sites in `clock.rs` are the *only* places the whole workspace may touch
/// time, and keeping the crate under the determinism rules means any new
/// clock read elsewhere in it fails the lint instead of slipping in.
/// `eval` renders `PAPER_RESULTS.json`, which is compared byte for byte,
/// and `analysis` computes that table's `retained` / `trend_score_ppm`
/// and the report's severity charts.
pub const DETERMINISM_CRATES: &[&str] = &[
    "core",
    "trace-model",
    "stream",
    "obs",
    "report",
    "eval",
    "analysis",
];

/// Binary-interface crates exempt from the stdout/exit hygiene rules.
pub const BIN_CRATES: &[&str] = &["cli", "xtask"];

/// Decode-surface files, relative to the workspace root.  A `/` suffix
/// marks a whole directory.
pub const DECODE_SURFACE: &[&str] = &[
    "crates/container/src/",
    "crates/compress/src/",
    "crates/format/src/parse.rs",
    "crates/format/src/parser.rs",
    "crates/format/src/record.rs",
    "crates/stream/src/",
    "crates/trace-model/src/codec/",
    "crates/obs/src/json.rs",
    "crates/obs/src/chrome.rs",
    "crates/report/src/",
];

/// Classifies a workspace-relative `.rs` path, or returns `None` when the
/// file is out of scope (vendored shims, integration tests, benches,
/// examples, build output).
pub fn classify(rel: &Path) -> Option<FileClass> {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    if rel_str.ends_with(".rs") {
        // fall through
    } else {
        return None;
    }
    let mut parts = rel_str.split('/');
    let first = parts.next()?;
    let (crate_name, in_src) = match first {
        "vendor" | "target" | "docs" | ".github" => return None,
        "crates" => {
            let name = parts.next()?;
            (name, parts.next() == Some("src"))
        }
        // The workspace root is itself a package (the umbrella facade).
        "src" => ("trace_reduction", true),
        _ => return None,
    };
    if !in_src {
        // tests/, benches/, examples/, fixtures — out of scope.
        return None;
    }
    let crate_root = rel_str.ends_with("/src/lib.rs")
        || rel_str.ends_with("/src/main.rs")
        || rel_str == "src/lib.rs"
        || rel_str == "src/main.rs";
    Some(FileClass {
        decode_surface: DECODE_SURFACE.iter().any(|d| {
            if let Some(dir) = d.strip_suffix('/') {
                rel_str.starts_with(dir) && rel_str.len() > dir.len()
            } else {
                rel_str == *d
            }
        }),
        determinism: DETERMINISM_CRATES.contains(&crate_name),
        bin_crate: BIN_CRATES.contains(&crate_name),
        crate_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(p: &str) -> Option<FileClass> {
        classify(Path::new(p))
    }

    #[test]
    fn vendor_tests_and_benches_are_out_of_scope() {
        assert_eq!(class("vendor/rand/src/lib.rs"), None);
        assert_eq!(class("crates/container/tests/roundtrip.rs"), None);
        assert_eq!(class("crates/bench/benches/reduce.rs"), None);
        assert_eq!(class("crates/xtask/tests/fixtures/unwrap.rs"), None);
        assert_eq!(class("crates/container/src/reader.txt"), None);
    }

    #[test]
    fn decode_surface_is_file_granular() {
        assert!(
            class("crates/container/src/reader.rs")
                .unwrap()
                .decode_surface
        );
        assert!(class("crates/compress/src/lz.rs").unwrap().decode_surface);
        assert!(class("crates/format/src/parse.rs").unwrap().decode_surface);
        assert!(class("crates/format/src/parser.rs").unwrap().decode_surface);
        assert!(!class("crates/format/src/write.rs").unwrap().decode_surface);
        // The streaming crate's loops consume untrusted items, not only
        // its parsers: the whole src tree is decode surface.
        assert!(class("crates/stream/src/parser.rs").unwrap().decode_surface);
        assert!(class("crates/stream/src/reduce.rs").unwrap().decode_surface);
        assert!(class("crates/stream/src/shard.rs").unwrap().decode_surface);
        assert!(
            class("crates/trace-model/src/codec/varint.rs")
                .unwrap()
                .decode_surface
        );
        assert!(
            !class("crates/trace-model/src/event.rs")
                .unwrap()
                .decode_surface
        );
        // The one JSON reader reads files from disk — untrusted.
        assert!(class("crates/obs/src/json.rs").unwrap().decode_surface);
        assert!(!class("crates/obs/src/recorder.rs").unwrap().decode_surface);
        // The chrome-trace walk validates foreign JSON documents.
        assert!(class("crates/obs/src/chrome.rs").unwrap().decode_surface);
        // The report crate consumes reduced traces and run reports from
        // disk, so the whole src tree is decode surface.
        assert!(class("crates/report/src/html.rs").unwrap().decode_surface);
        assert!(class("crates/report/src/lib.rs").unwrap().decode_surface);
    }

    #[test]
    fn every_decode_surface_entry_names_a_path_that_exists() {
        // An entry left stale by a move would drop its file from the
        // panic-free rules without a word.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for entry in DECODE_SURFACE {
            let path = root.join(entry);
            let exists = match entry.strip_suffix('/') {
                Some(_) => path.is_dir(),
                None => path.is_file(),
            };
            assert!(exists, "DECODE_SURFACE entry {entry:?} names no such path");
        }
    }

    #[test]
    fn determinism_and_bin_crates() {
        assert!(class("crates/core/src/reducer.rs").unwrap().determinism);
        assert!(class("crates/stream/src/shard.rs").unwrap().determinism);
        assert!(!class("crates/sim/src/lib.rs").unwrap().determinism);
        // The observability crate holds the sole audited clock: keeping it
        // under the determinism rules makes every new time read a lint hit.
        assert!(class("crates/obs/src/clock.rs").unwrap().determinism);
        // Report sinks promise byte-identical output across runs/drivers.
        assert!(
            class("crates/report/src/divergence.rs")
                .unwrap()
                .determinism
        );
        assert!(class("crates/cli/src/main.rs").unwrap().bin_crate);
        assert!(class("crates/xtask/src/main.rs").unwrap().bin_crate);
        assert!(!class("crates/eval/src/lib.rs").unwrap().bin_crate);
        // The committed results table must regenerate byte for byte.
        assert!(class("crates/eval/src/results.rs").unwrap().determinism);
        // ... and so must the diagnosis that feeds its criterion 4.
        assert!(
            class("crates/analysis/src/diagnose.rs")
                .unwrap()
                .determinism
        );
    }

    #[test]
    fn crate_roots_including_the_facade() {
        assert!(class("src/lib.rs").unwrap().crate_root);
        assert!(class("crates/cli/src/main.rs").unwrap().crate_root);
        assert!(class("crates/container/src/lib.rs").unwrap().crate_root);
        assert!(!class("crates/container/src/reader.rs").unwrap().crate_root);
    }
}
