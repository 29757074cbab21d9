#![forbid(unsafe_code)]
//! Workspace automation tasks, chiefly `xtask lint`: an in-house
//! static-analysis pass enforcing the workspace's three invariant families —
//! panic-freedom on decode surfaces, determinism in reduction-output crates,
//! and crate hygiene — and the structural guards that keep retired designs
//! retired.  See `docs/static-analysis.md` for the rule catalogue, the guard
//! table and the escape-hatch policy.
//!
//! The pass is deliberately self-contained (no `syn`, no registry
//! dependencies): `lexer` tokenizes Rust source, [`surface`] classifies
//! files, [`rules`] runs the token-level checks, [`guards`] holds the table
//! of retired designs, and [`report`] renders the outcome for humans and
//! for the CI artifact.

pub mod guards;
pub(crate) mod lexer;
pub mod report;
pub mod rules;
pub mod surface;

use std::cell::OnceCell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Lexed};
use report::{FileAllow, FileViolation, Report};

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "node_modules"];

/// Lints every in-scope `.rs` file under `root` (a workspace checkout),
/// runs the guard table over every `.rs` file and manifest, and returns the
/// combined report.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    collect_source_files(root, root, &mut paths)?;
    paths.sort();
    let mut report = Report::default();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = fs::read_to_string(root.join(&rel))?;
        let file = SourceFile::new(rel.to_string_lossy().replace('\\', "/"), text);
        if let Some(class) = surface::classify(&rel) {
            report.files_scanned += 1;
            let findings = rules::lint_lexed(file.lexed(), class);
            for violation in findings.violations {
                report.violations.push(FileViolation {
                    file: file.path.clone(),
                    violation,
                });
            }
            for allow in findings.allows {
                report.allows.push(FileAllow {
                    file: file.path.clone(),
                    allow,
                });
            }
        }
        files.push(file);
    }
    let exists = |path: &str| root.join(path).exists();
    report.violations.extend(guards::lint(&files, &exists));
    report
        .violations
        .sort_by(|a, b| (&a.file, a.violation.line).cmp(&(&b.file, b.violation.line)));
    report
        .allows
        .sort_by(|a, b| (&a.file, a.allow.line).cmp(&(&b.file, b.allow.line)));
    Ok(report)
}

/// One workspace file and, once a pass asks for them, its tokens: the
/// rules and the guards share one lex of each file.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The file's text.
    pub text: String,
    lexed: OnceCell<Lexed>,
}

impl SourceFile {
    /// A file not lexed yet.
    pub fn new(path: String, text: String) -> SourceFile {
        SourceFile {
            path,
            text,
            lexed: OnceCell::new(),
        }
    }

    /// The file's tokens and comments, lexed on the first call.
    pub(crate) fn lexed(&self) -> &Lexed {
        self.lexed.get_or_init(|| lex(&self.text))
    }
}

/// Collects every `.rs` file and `Cargo.toml` under `dir`, relative to
/// `root`, skipping [`SKIP_DIRS`] and hidden directories.
fn collect_source_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_source_files(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
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
