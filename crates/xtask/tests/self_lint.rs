//! Self-lint smoke test: the workspace itself must stay clean, so the
//! tier-1 `cargo test` gate fails the moment a violation lands — even
//! before CI runs the dedicated lint job.

use xtask::surface::{BIN_CRATES, DECODE_SURFACE, DETERMINISM_CRATES};
use xtask::{lint_workspace, workspace_root};

#[test]
fn workspace_is_lint_clean() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace lint violations:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "suspiciously small scan");
}

/// `classify` matches the surface lists by `contains` / `starts_with`, so an
/// entry naming a path that no longer exists would be silently ignored — a
/// renamed decode file would drop off the panic-free surface unnoticed.
#[test]
fn every_surface_list_entry_names_an_existing_path() {
    let root = workspace_root();
    for name in DETERMINISM_CRATES.iter().chain(BIN_CRATES) {
        let dir = root.join("crates").join(name);
        assert!(dir.is_dir(), "stale crate entry {name:?}: no {dir:?}");
    }
    for path in DECODE_SURFACE {
        assert!(
            root.join(path).exists(),
            "stale DECODE_SURFACE entry {path:?}"
        );
    }
}
