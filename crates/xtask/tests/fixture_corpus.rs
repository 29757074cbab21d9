//! Rule-fixture corpus: every rule the pass can emit must fire on its
//! fixture under `tests/fixtures/`, and the clean fixture must stay silent
//! on every surface.  The coverage test cross-checks the corpus against
//! [`xtask::rules::RULE_NAMES`] so a new rule cannot land without a fixture.

use std::path::Path;

use xtask::rules::{lint_source, RULE_NAMES};
use xtask::surface::FileClass;

const LIB: FileClass = FileClass {
    decode_surface: false,
    determinism: false,
    bin_crate: false,
    crate_root: false,
};
const DECODE: FileClass = FileClass {
    decode_surface: true,
    ..LIB
};
const DETERMINISM: FileClass = FileClass {
    determinism: true,
    ..LIB
};
const CRATE_ROOT: FileClass = FileClass {
    crate_root: true,
    ..LIB
};

/// `(fixture file, rule that must fire, classification to lint under)`.
const CASES: &[(&str, &str, FileClass)] = &[
    ("unwrap.rs", "unwrap", DECODE),
    ("expect.rs", "expect", DECODE),
    ("panic.rs", "panic", DECODE),
    ("indexing.rs", "indexing", DECODE),
    ("narrowing_cast.rs", "narrowing_cast", DECODE),
    ("hash_collection.rs", "hash_collection", DETERMINISM),
    ("wall_clock.rs", "wall_clock", DETERMINISM),
    ("float_eq.rs", "float_eq", DETERMINISM),
    ("partial_cmp.rs", "partial_cmp", DETERMINISM),
    ("thread_count.rs", "thread_count", DETERMINISM),
    ("forbid_unsafe.rs", "forbid_unsafe", CRATE_ROOT),
    ("process_exit.rs", "process_exit", LIB),
    ("print_stdout.rs", "print_stdout", LIB),
    ("dbg.rs", "dbg", LIB),
    ("bad_allow.rs", "bad_allow", DECODE),
    ("unused_allow.rs", "unused_allow", DECODE),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_rule_fires_on_its_fixture() {
    for &(file, rule, class) in CASES {
        let findings = lint_source(&fixture(file), class);
        assert!(
            findings.violations.iter().any(|v| v.rule == rule),
            "{file}: expected rule `{rule}` to fire, got {:?}",
            findings.violations
        );
    }
}

#[test]
fn the_corpus_covers_every_rule() {
    for &rule in RULE_NAMES {
        assert!(
            CASES.iter().any(|&(_, r, _)| r == rule),
            "rule `{rule}` has no fixture in tests/fixtures/"
        );
    }
}

#[test]
fn fixtures_only_trip_their_own_family() {
    // The decode-surface fixtures must stay silent when linted as plain
    // library code, and vice versa — proves classification gates the rules.
    for &(file, rule, class) in CASES {
        if class == DECODE && rule != "bad_allow" && rule != "unused_allow" {
            let findings = lint_source(&fixture(file), LIB);
            assert!(
                findings.violations.is_empty(),
                "{file}: decode rules must not fire off the decode surface, got {:?}",
                findings.violations
            );
        }
        if class == DETERMINISM {
            let findings = lint_source(&fixture(file), LIB);
            assert!(
                findings.violations.is_empty(),
                "{file}: determinism rules must not fire outside determinism crates, got {:?}",
                findings.violations
            );
        }
    }
}

#[test]
fn bad_allow_does_not_suppress() {
    let findings = lint_source(&fixture("bad_allow.rs"), DECODE);
    assert!(
        findings.violations.iter().any(|v| v.rule == "unwrap"),
        "an unjustified allow must not hide the unwrap: {:?}",
        findings.violations
    );
}

#[test]
fn justified_allow_suppresses_and_is_inventoried() {
    let findings = lint_source(&fixture("allowed.rs"), DECODE);
    assert!(
        findings.violations.is_empty(),
        "justified allow must suppress: {:?}",
        findings.violations
    );
    assert_eq!(findings.allows.len(), 1);
    assert_eq!(findings.allows[0].rule, "indexing");
    assert!(findings.allows[0].justification.contains("non-empty slice"));
}

#[test]
fn audited_wall_clock_allow_suppresses_but_unjustified_reads_still_fire() {
    // The `trace_obs::clock` pattern: justified allows keep the one audited
    // monotonic source lintable — silent, but inventoried for review.
    let findings = lint_source(&fixture("wall_clock_allowed.rs"), DETERMINISM);
    assert!(
        findings.violations.is_empty(),
        "audited clock must pass under determinism rules: {:?}",
        findings.violations
    );
    let clock_allows: Vec<_> = findings
        .allows
        .iter()
        .filter(|a| a.rule == "wall_clock")
        .collect();
    assert_eq!(clock_allows.len(), 2, "both audited sites are inventoried");
    assert!(clock_allows
        .iter()
        .all(|a| a.justification.contains("audited")));

    // The same crate classification still rejects a bare clock read — the
    // allow is per-site, not per-crate.
    let findings = lint_source(&fixture("wall_clock.rs"), DETERMINISM);
    assert!(
        findings.violations.iter().any(|v| v.rule == "wall_clock"),
        "unjustified wall-clock reads must keep failing: {:?}",
        findings.violations
    );
}

#[test]
fn clean_fixture_is_silent_on_every_surface() {
    for class in [LIB, DECODE, DETERMINISM] {
        let findings = lint_source(&fixture("clean.rs"), class);
        assert!(
            findings.violations.is_empty(),
            "clean.rs must not trip anything under {class:?}: {:?}",
            findings.violations
        );
    }
}
