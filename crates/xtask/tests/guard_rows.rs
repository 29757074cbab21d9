//! The guard table's fixtures: every row flags a fixture that holds each
//! of its patterns, and every row but the path and count rows passes a
//! clean twin that holds the same names in comments and strings.
//!
//! The fixtures are inline strings, not files under `tests/fixtures/`: the
//! rows cover `crates`, so a fixture file would be flagged by its own row,
//! while a string literal is history to every row.

use std::collections::BTreeSet;

use xtask::guards::{check, covers, stale, Form, Guard, Hit, GUARDS};
use xtask::SourceFile;

/// Workspace files, as (workspace-relative path, source).
type Files = &'static [(&'static str, &'static str)];

/// One row's fixtures: files it must flag, every pattern at least once,
/// and files it must pass.
struct Fixture {
    row: &'static str,
    flags: Files,
    passes: Files,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        row: "twin-entry-points",
        flags: &[(
            "crates/core/src/lib.rs",
            "pub fn reduce_obs() {}\n\
             pub fn reduce_observed() {}\n\
             pub fn match_with_scratch() {}\n\
             pub fn reduce_and_search() {}\n\
             pub(crate) fn load_obs() {}\n\
             pub(crate) fn load_observed() {}\n\
             pub(crate) fn segment_with_scratch() {}\n\
             pub(crate) fn index_and_search() {}\n",
        )],
        passes: &[(
            "crates/core/src/lib.rs",
            "// pub fn reduce_obs() was a twin of reduce\n\
             pub fn set_obs(&mut self, obs: ObsShard) {}\n\
             pub(crate) fn set_obs(&mut self) {}\n\
             const S: &str = \"pub fn reduce_observed()\";\n",
        )],
    },
    Fixture {
        row: "one-candidate-search",
        flags: &[(
            "crates/core/src/index.rs",
            "enum CandidateSearch { LinearScan }\n\
             fn reduce_with_search() {}\n\
             fn split_pivots() {}\n\
             const MAX_PIVOTS: usize = 4;\n",
        )],
        passes: &[
            (
                "crates/core/src/index.rs",
                "// CandidateSearch, LinearScan, with_search and pivot pruning left\n\
                 const S: &str = \"PIVOT\";\n",
            ),
            ("crates/stream/src/shard.rs", "fn pivot() {}\n"),
        ],
    },
    Fixture {
        row: "no-shape-keys-in-the-reducer",
        flags: &[(
            "crates/stream/src/reduce.rs",
            "fn f(s: &Segment) { let k: SegmentKey = s.key(); }\n",
        )],
        passes: &[
            (
                "crates/core/src/reducer.rs",
                "// no SegmentKey and no s.key() per segment\n\
                 const S: &str = \"s.key()\";\n",
            ),
            (
                "crates/trace-model/src/segment.rs",
                "pub struct SegmentKey;\n",
            ),
        ],
    },
    Fixture {
        row: "features-in-one-pass",
        flags: &[(
            "crates/core/src/features.rs",
            "fn f() { wavelet_vector_into(a); haar_transform_into(b); coeff_norm_l2(c); }\n",
        )],
        passes: &[(
            "crates/core/src/features.rs",
            "/// No wavelet_vector_into, transform_into or coeff_norm_l2 per segment.\n\
             fn f() {}\n",
        )],
    },
    Fixture {
        row: "no-extension-methods",
        flags: &[(
            "examples/methods.rs",
            "use trace_reduce::ExtendedMethod;\n\
             struct ExtendedReducer;\n\
             fn reduce_with_predicate() {}\n\
             struct Cdf97;\n",
        )],
        passes: &[(
            "src/lib.rs",
            "//! ExtendedMethod, ExtendedReducer, _with_predicate and Cdf97 left.\n\
             const S: &str = \"Cdf97\";\n",
        )],
    },
    Fixture {
        row: "no-trace-sampling",
        flags: &[
            (
                "Cargo.toml",
                "[dependencies]\ntrace_sampling = { path = \"crates/sampling\" }\n",
            ),
            (
                "crates/cli/src/main.rs",
                "fn f(p: SamplingPolicy) { sample_app(); reduce_by_periodicity(); }\n",
            ),
        ],
        passes: &[
            (
                "Cargo.toml",
                "[package]\ndescription = \"trace_sampling left the workspace\"\n",
            ),
            (
                "crates/cli/src/main.rs",
                "// SamplingPolicy, sample_app and reduce_by_periodicity left\n\
                 fn f() { resample_apply(); }\n",
            ),
        ],
    },
    Fixture {
        row: "no-sampling-crate",
        flags: &[("crates/sampling/src/lib.rs", "")],
        passes: &[],
    },
    Fixture {
        row: "no-trace-clustering",
        flags: &[(
            "tests/clusters.rs",
            "use trace_clustering::KMeansConfig;\n\
             fn f() { hierarchical_clustering(); cluster_reduce(); silhouette_score(); }\n",
        )],
        passes: &[(
            "tests/clusters.rs",
            "// trace_clustering, KMeansConfig, hierarchical_clustering,\n\
             // cluster_reduce and silhouette_score left the workspace\n\
             const S: &str = \"cluster_reduce\";\n",
        )],
    },
    Fixture {
        row: "no-clustering-crate",
        flags: &[("crates/clustering/Cargo.toml", "")],
        passes: &[],
    },
    Fixture {
        row: "one-performance-surface",
        flags: &[(
            "crates/eval/src/lib.rs",
            "const K: &str = TRACE_REPRO_PRESET;\n\
             fn f() { std::env::var(\"TRACE_REPRO_PRESET\"); }\n\
             use trace_bench::Preset;\n\
             use criterion::Criterion;\n",
        )],
        passes: &[(
            "crates/eval/src/lib.rs",
            "// TRACE_REPRO_PRESET, trace_bench and criterion:: are gone\n\
             const S: &str = \"the TRACE_REPRO_PRESET knob\";\n",
        )],
    },
    Fixture {
        row: "no-criterion-bench",
        flags: &[
            ("crates/bench/Cargo.toml", ""),
            ("vendor/criterion/src/lib.rs", ""),
            ("BENCH_matching.json", ""),
        ],
        passes: &[],
    },
    Fixture {
        row: "one-evaluator",
        flags: &[(
            "crates/eval/src/lib.rs",
            "fn evaluate_method() {}\n\
             struct MethodEvaluation;\n\
             fn encoded_sizes() {}\n\
             use crate::comparative::Chart;\n\
             fn trend_grids() {}\n\
             fn cmd_evaluate() {}\n",
        )],
        passes: &[(
            "crates/cli/src/main.rs",
            "// evaluate_method, MethodEvaluation, encoded_sizes, comparative::,\n\
             // trend_grids and cmd_evaluate are gone\n\
             const UNKNOWN: &str = \"cmd_evaluate\";\n",
        )],
    },
    Fixture {
        row: "one-binary-write-format",
        flags: &[(
            "crates/cli/src/main.rs",
            "enum BinaryFormat { MonolithicV1 }\n\
             const C: Codec = Codec::Delta;\n\
             const F: &str = \"chunk-segments\";\n\
             const P: (&str, u8) = (\"v1\", 1);\n",
        )],
        passes: &[(
            "crates/cli/src/main.rs",
            "// BinaryFormat::MonolithicV1, Codec::Delta and --chunk-segments are gone\n\
             const C: Codec = Codec::DeltaLz;\n\
             const F: &str = \"--chunk-segments\";\n",
        )],
    },
    Fixture {
        row: "no-v1-codec",
        flags: &[(
            "crates/container/src/lib.rs",
            "fn f() {\n\
             decode_app_trace(); decode_reduced_trace();\n\
             encode_app_trace(); encode_reduced_trace();\n\
             }\n\
             enum InputKind { BinaryV1 }\n\
             const FORMAT_VERSION: u8 = 1;\n",
        )],
        passes: &[(
            "crates/container/src/lib.rs",
            "// decode_app_trace, decode_reduced_trace, encode_app_trace,\n\
             // encode_reduced_trace, BinaryV1 and FORMAT_VERSION are gone\n\
             const S: &str = \"FORMAT_VERSION\";\n",
        )],
    },
    Fixture {
        row: "one-scoped-spawn",
        flags: &[
            (
                "crates/obs/src/ordered.rs",
                "fn f() { std::thread::scope(|s| {}); }\n",
            ),
            (
                "crates/stream/src/shard.rs",
                "fn g() { thread::scope(|s| {}); }\n",
            ),
        ],
        passes: &[],
    },
    Fixture {
        row: "no-vendored-sync-crates",
        flags: &[(
            "crates/stream/Cargo.toml",
            "[dependencies]\ncrossbeam = \"0.8\"\nparking_lot = \"0.12\"\n",
        )],
        passes: &[(
            "crates/stream/Cargo.toml",
            "[package]\ndescription = \"no crossbeam, no parking_lot\"\n",
        )],
    },
    Fixture {
        row: "no-vendored-sync-shims",
        flags: &[
            ("vendor/crossbeam/src/lib.rs", ""),
            ("vendor/parking_lot/src/lib.rs", ""),
        ],
        passes: &[],
    },
    Fixture {
        row: "no-condvar-turns",
        flags: &[("crates/stream/src/shard.rs", "use std::sync::Condvar;\n")],
        passes: &[
            (
                "crates/stream/src/shard.rs",
                "// no Condvar: no worker waits for another's turn\n",
            ),
            ("crates/obs/src/ordered.rs", "use std::sync::Condvar;\n"),
        ],
    },
    Fixture {
        row: "ordered-only-in-shard",
        flags: &[(
            "crates/stream/src/reduce.rs",
            "fn f() { trace_obs::ordered(items, work); }\n",
        )],
        passes: &[
            (
                "crates/stream/src/shard.rs",
                "fn f() { trace_obs::ordered(items, work); }\n",
            ),
            (
                "crates/stream/src/reduce.rs",
                "// shard.rs calls trace_obs::ordered(items, work)\n",
            ),
        ],
    },
    Fixture {
        row: "no-decode-ahead",
        flags: &[(
            "crates/stream/src/lib.rs",
            "use trace_obs::beside;\n\
             pub fn beside() {}\n\
             struct DecodedAhead;\n\
             fn observe_since() {}\n\
             fn f() { let decode_wait = 0; }\n\
             pub const STREAM_DECODE_WAIT_NS: &str = \"stream.decode_wait.ns\";\n",
        )],
        passes: &[(
            "crates/obs/src/report.rs",
            "// DecodedAhead, trace_obs::beside and observe_since are gone\n\
             const EARLIER_BUILD: &str = r#\"{\"histograms\":{\"stream.decode_wait.ns\":{}}}\"#;\n",
        )],
    },
    Fixture {
        row: "one-in-memory-driver",
        flags: &[(
            "crates/stream/src/lib.rs",
            "pub struct AppTraceSource;\npub fn reduce_app_into() {}\n",
        )],
        passes: &[(
            "crates/stream/src/lib.rs",
            "//! AppTraceSource and reduce_app_into stay deleted.\n",
        )],
    },
    Fixture {
        row: "no-wavelet-crate",
        flags: &[("crates/wavelet/src/lib.rs", "")],
        passes: &[],
    },
    Fixture {
        row: "container-writes-stream",
        flags: &[(
            "crates/cli/src/io.rs",
            "fn f() { let bytes = encode_app_container(Vec::new(), &app); }\n",
        )],
        passes: &[(
            "crates/cli/src/io.rs",
            "// not encode_app_container(Vec::new(), &app)\n\
             fn f(out: &mut W) { encode_app_container(out, &app); }\n",
        )],
    },
    Fixture {
        row: "one-item-type",
        flags: &[(
            "crates/container/src/reader.rs",
            "pub enum ContainerItem {}\n",
        )],
        passes: &[(
            "crates/container/src/reader.rs",
            "// ContainerItem folded into trace_model::AppItem\n",
        )],
    },
    Fixture {
        row: "cli-reads-the-open-file",
        flags: &[(
            "crates/cli/src/io.rs",
            "fn f(p: &Path) { let a = fs::read_to_string(p); let b = std::fs::read(p); }\n",
        )],
        passes: &[(
            "crates/cli/src/io.rs",
            "// fs::read_to_string would read the input whole\n\
             fn f() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
             fn g(p: &Path) { let a = fs::read_to_string(p); let b = fs::read(p); }\n\
             }\n",
        )],
    },
    Fixture {
        row: "one-text-reader",
        flags: &[(
            "crates/format/src/parser.rs",
            "struct Lines;\nfn expect_magic() {}\nfn parse_header() {}\n",
        )],
        passes: &[(
            "crates/format/src/parser.rs",
            "// struct Lines, fn expect_magic and fn parse_header are gone\n\
             fn f(lines: Lines) { lines.parse_header(); }\n",
        )],
    },
    Fixture {
        row: "one-json-reader",
        flags: &[(
            "crates/obs/src/chrome.rs",
            "struct Reader;\nfn skip_ws() {}\nfn peek() {}\n",
        )],
        passes: &[(
            "crates/obs/src/chrome.rs",
            "// no struct Reader, fn skip_ws or fn peek here\n\
             fn f(r: &mut Reader) { r.peek(); }\n",
        )],
    },
];

fn row(name: &str) -> &'static Guard {
    GUARDS
        .iter()
        .find(|guard| guard.name == name)
        .unwrap_or_else(|| panic!("no guard row {name:?}"))
}

/// Runs one row over `files`; a path exists when a file lies under it.
fn run(guard: &'static Guard, files: &[(&str, &str)]) -> Vec<Hit> {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(path, source)| SourceFile::new(path.to_string(), source.to_string()))
        .collect();
    let exists = |path: &str| files.iter().any(|file| covers(path, &file.path));
    check(std::slice::from_ref(guard), &files, &exists)
}

#[test]
fn every_row_has_one_fixture() {
    let rows: BTreeSet<&str> = GUARDS.iter().map(|guard| guard.name).collect();
    assert_eq!(rows.len(), GUARDS.len(), "row names repeat");
    let fixtures: BTreeSet<&str> = FIXTURES.iter().map(|fixture| fixture.row).collect();
    assert_eq!(fixtures.len(), FIXTURES.len(), "a row has two fixtures");
    assert_eq!(rows, fixtures);
}

#[test]
fn every_pattern_of_every_row_flags_its_fixture() {
    for fixture in FIXTURES {
        let guard = row(fixture.row);
        let hits = run(guard, fixture.flags);
        for pattern in guard.patterns {
            assert!(
                hits.iter().any(|hit| hit.pattern == *pattern),
                "{}: `{pattern}` flags nothing in its fixture; hits: {hits:?}",
                guard.name
            );
        }
    }
}

#[test]
fn every_row_but_the_path_and_count_rows_passes_its_clean_twin() {
    for fixture in FIXTURES {
        let guard = row(fixture.row);
        if matches!(guard.form, Form::Absent | Form::Once(_)) {
            continue;
        }
        assert!(!fixture.passes.is_empty(), "{}: no clean twin", guard.name);
        let hits = run(guard, fixture.passes);
        assert!(hits.is_empty(), "{}: {hits:?}", guard.name);
    }
}

#[test]
fn the_one_scoped_spawn_must_be_in_its_home_and_only_there() {
    let guard = row("one-scoped-spawn");
    let spawn = "fn f() { std::thread::scope(|s| {}); }\n";
    assert!(run(guard, &[("crates/obs/src/ordered.rs", spawn)]).is_empty());
    // Its one use moved out of `obs`, or gone: both fail.
    let moved = run(guard, &[("crates/stream/src/shard.rs", spawn)]);
    assert_eq!(moved.len(), 1, "{moved:?}");
    let none = run(
        guard,
        &[("crates/obs/src/ordered.rs", "// thread::scope\n")],
    );
    assert_eq!(none.len(), 1, "{none:?}");
    assert_eq!((none[0].file.as_str(), none[0].line), ("crates/obs/src", 0));
    // Test code outside `src` is not the row's business.
    let tests = [
        ("crates/obs/src/ordered.rs", spawn),
        ("crates/obs/tests/ordered.rs", spawn),
    ];
    assert!(run(guard, &tests).is_empty());
}

#[test]
fn a_row_whose_path_moved_covers_nothing_and_says_so() {
    let features = std::slice::from_ref(row("features-in-one-pass"));
    assert!(stale(features, &["crates/core/src/features.rs"]).is_empty());
    let moved = stale(features, &["crates/core/src/features/mod.rs"]);
    assert_eq!(moved.len(), 1);
    assert_eq!(moved[0].1, "crates/core/src/features.rs");
    // A home that moved is stale too, even when the row's paths still hold.
    let ordered = std::slice::from_ref(row("ordered-only-in-shard"));
    let moved = stale(ordered, &["crates/stream/src/reduce.rs"]);
    assert_eq!(moved.len(), 1);
    assert_eq!(moved[0].1, "crates/stream/src/shard.rs");
}

#[test]
fn a_row_path_covers_its_files_and_directories_only() {
    assert!(covers("crates", "crates/core/src/lib.rs"));
    assert!(covers("crates/*/src", "crates/core/src/lib.rs"));
    assert!(!covers("crates/*/src", "crates/core/tests/lib.rs"));
    assert!(covers("Cargo.toml", "Cargo.toml"));
    assert!(!covers("Cargo.toml", "crates/core/Cargo.toml"));
    assert!(!covers(
        "crates/core/src/features.rs",
        "crates/core/src/features"
    ));
    assert!(!covers("crates/core", "crates/core_extra/src/lib.rs"));
}

#[test]
fn the_docs_list_every_row() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/static-analysis.md");
    let docs = std::fs::read_to_string(&path).expect("docs/static-analysis.md");
    for guard in GUARDS {
        assert!(
            docs.contains(&format!("| `{}` |", guard.name)),
            "docs/static-analysis.md does not list the guard row {:?}",
            guard.name
        );
    }
}
