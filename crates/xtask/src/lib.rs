#![forbid(unsafe_code)]
//! Workspace automation tasks, chiefly `xtask lint`: an in-house
//! static-analysis pass enforcing the workspace's three invariant families —
//! panic-freedom on decode surfaces, determinism in reduction-output crates,
//! and crate hygiene.  See `docs/static-analysis.md` for the rule catalogue
//! and the escape-hatch policy.
//!
//! The pass is deliberately self-contained (no `syn`, no registry
//! dependencies): `lexer` tokenizes Rust source, [`surface`] classifies
//! files, [`rules`] runs the token-level checks, and [`report`] renders the
//! outcome for humans and for the CI artifact.

pub(crate) mod lexer;
pub mod report;
pub mod rules;
pub mod surface;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use report::{FileAllow, FileViolation, Report};

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "node_modules"];

/// Lints every in-scope `.rs` file under `root` (a workspace checkout) and
/// returns the combined report.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in files {
        let Some(class) = surface::classify(&rel) else {
            continue;
        };
        let source = fs::read_to_string(root.join(&rel))?;
        report.files_scanned += 1;
        let findings = rules::lint_source(&source, class);
        let file = rel.to_string_lossy().replace('\\', "/");
        for violation in findings.violations {
            report.violations.push(FileViolation {
                file: file.clone(),
                violation,
            });
        }
        for allow in findings.allows {
            report.allows.push(FileAllow {
                file: file.clone(),
                allow,
            });
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.violation.line).cmp(&(&b.file, b.violation.line)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.allow.line).cmp(&(&b.file, b.allow.line)));
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Locates the workspace root from this crate's manifest directory
/// (`crates/xtask` → two levels up).  Used by the binary and the self-lint
/// test so both operate on the real tree regardless of invocation directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
