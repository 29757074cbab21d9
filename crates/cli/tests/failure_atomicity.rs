//! Failure atomicity of everything the CLI writes (ROADMAP 5c): outputs go
//! through `write_file_atomic` — a sibling temp file renamed over the
//! target — so a failed write leaves neither a truncated file nor a
//! clobbered previous output, and no write leaves its temp file behind.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use trace_container::{encode_app_container, write_app_container, ChunkSpec, Codec};
use trace_sim::{SizePreset, Workload, WorkloadKind};
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

/// A file that fills up once `budget` more bytes have gone into it.
struct FillsUp<'a> {
    file: &'a mut File,
    budget: usize,
}

impl Write for FillsUp<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = self.file.write(&buf[..buf.len().min(self.budget)])?;
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

#[test]
fn a_container_store_failing_partway_keeps_the_previous_bytes() {
    // Several ranks, so the container's sections are encoded on as many
    // workers as the host has cores while the sink fails under them.
    let app = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
    let spec = ChunkSpec::with_segments(2).codec(Codec::DeltaLz);
    let full = encode_app_container(&app, spec);
    let off = trace_obs::Recorder::disabled();
    let path = temp_path("container_partway.trc");
    write_file_atomic(&path, |file| file.write_all(b"previous output")).unwrap();
    for budget in [0, 100, full.len() / 2, full.len() - 1] {
        let err = write_file_atomic(&path, |file| {
            let sink = BufWriter::with_capacity(256, FillsUp { file, budget });
            write_app_container(sink, &app, spec, &off).map(drop)
        })
        .unwrap_err();
        assert!(err.contains("disk full"), "{budget} bytes: {err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous output");
        assert_eq!(temp_siblings(&path), Vec::<String>::new(), "{budget} bytes");
    }
    // With room for all of it, the same store replaces the target whole.
    write_file_atomic(&path, |file| {
        let sink = BufWriter::new(FillsUp {
            file,
            budget: full.len(),
        });
        write_app_container(sink, &app, spec, &off).map(drop)
    })
    .unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), full);
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
