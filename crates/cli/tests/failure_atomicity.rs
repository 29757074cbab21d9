//! Failure atomicity of everything the CLI writes (ROADMAP 5c): outputs go
//! through `write_file_atomic` — a sibling temp file renamed over the
//! target — so a failed write leaves neither a truncated file nor a
//! clobbered previous output, and no write leaves its temp file behind.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use trace_tools::io::write_file_atomic;
use trace_tools::{run, Invocation};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("trace_tools_atomic_{}_{name}", std::process::id()));
    path
}

/// The entries of `path`'s directory that start with its temp-file prefix.
fn temp_siblings(path: &Path) -> Vec<String> {
    let prefix = format!(".{}.", path.file_name().unwrap().to_str().unwrap());
    std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

#[test]
fn a_failed_write_leaves_no_target_no_temp_and_no_clobber() {
    let fail_half_way = |file: &mut File| {
        file.write_all(b"half of the out")?;
        Err(io::Error::other("disk full"))
    };

    // No previous output: the target stays absent.
    let path = temp_path("closure.trc");
    let err = write_file_atomic(&path, fail_half_way).unwrap_err();
    assert!(err.contains("cannot write"), "{err}");
    assert!(err.contains("disk full"), "{err}");
    assert!(!path.exists(), "a failed write must not create the target");
    assert_eq!(temp_siblings(&path), Vec::<String>::new());

    // A previous output: byte-identical afterwards.
    write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    assert_eq!(temp_siblings(&path), Vec::<String>::new(), "after success");
    write_file_atomic(&path, fail_half_way).unwrap_err();
    assert_eq!(std::fs::read(&path).unwrap(), b"previous output");
    assert_eq!(temp_siblings(&path), Vec::<String>::new());

    // And a later success replaces it whole.
    write_file_atomic(&path, |file| file.write_all(b"new")).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"new");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_cli_output_is_renamed_into_place() {
    let trace = temp_path("e2e.trc");
    let reduced = temp_path("e2e_reduced.trc");
    let obs = temp_path("e2e_obs.json");
    let report = temp_path("e2e_report.html");
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    run(&Invocation::new(
        "generate",
        &[
            ("workload", "late_sender"),
            ("preset", "tiny"),
            ("out", &path(&trace)),
        ],
    ))
    .unwrap();
    run(&Invocation::new(
        "reduce",
        &[
            ("in", &path(&trace)),
            ("out", &path(&reduced)),
            ("method", "avgWave"),
            ("obs-out", &path(&obs)),
            ("report", &path(&report)),
        ],
    ))
    .unwrap();
    for output in [&trace, &reduced, &obs, &report] {
        assert!(output.exists(), "{}", output.display());
        assert_eq!(temp_siblings(output), Vec::<String>::new());
        let _ = std::fs::remove_file(output);
    }

    // A target directory that does not exist fails cleanly.
    let nowhere = temp_path("no_such_dir").join("out.trc");
    let err = run(&Invocation::new(
        "generate",
        &[
            ("workload", "late_sender"),
            ("preset", "tiny"),
            ("out", &path(&nowhere)),
        ],
    ))
    .unwrap_err();
    assert!(err.contains("cannot write"), "{err}");
}
