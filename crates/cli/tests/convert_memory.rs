//! Flat memory for `convert` and `reduce`: a streamed conversion holds a
//! few ranks' sections, not the trace, whatever the input and output
//! formats, and a reduction, with `--stream` or without it, holds one
//! rank's reduced state per worker and writes each rank's section as it
//! finishes, never the trace or the execution log of its reduction.  So
//! the peak resident set of either hardly grows with trace length.  Only
//! the command may count, so the test re-executes its own binary as a
//! child that runs it on one file and prints its `VmHWM`.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

use trace_container::{ChunkSpec, Codec};
use trace_format::{
    write_app_header, write_app_records, write_rank_end, write_rank_start, write_trailer,
};
use trace_model::{AppTrace, Rank};
use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_tools::{run, Invocation};

/// The file naming the input and output of the conversion the child of
/// the process `parent` runs.
fn convert_job(parent: u32) -> PathBuf {
    std::env::temp_dir().join(format!("trace_tools_flat_{parent}.job"))
}

/// `VmHWM` of this process, in KiB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .unwrap();
    line.trim().trim_end_matches("kB").trim().parse().unwrap()
}

#[test]
#[ignore = "the child of convert_peak_memory_is_flat_in_trace_length"]
fn convert_child() {
    let Ok(job) = std::fs::read_to_string(convert_job(std::os::unix::process::parent_id())) else {
        return;
    };
    let [input, output] = *job.lines().collect::<Vec<_>>() else {
        panic!("a job is an input and an output: {job:?}");
    };
    run(&Invocation::new(
        "convert",
        &[("in", input), ("out", output)],
    ))
    .unwrap();
    println!("VmHWM_KB {}", vm_hwm_kb());
}

/// Runs the ignored test `child` in a child process and returns the peak
/// resident set it prints, in KiB.
fn child_peak_kb(child: &str) -> u64 {
    let child = Command::new(std::env::current_exe().unwrap())
        .args([child, "--exact", "--ignored", "--nocapture"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "{stdout}");
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM_KB "));
    line.unwrap_or_else(|| panic!("no peak in {stdout:?}"))
        .parse()
        .unwrap()
}

/// Peak resident set of a child converting `input` to `output`, in KiB.
fn convert_peak_kb(input: &Path, output: &Path) -> u64 {
    let job = convert_job(std::process::id());
    let lines = [input, output].map(|path| path.to_str().unwrap().to_string());
    std::fs::write(&job, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
    let peak = child_peak_kb("convert_child");
    let _ = std::fs::remove_file(&job);
    let _ = std::fs::remove_file(output);
    peak
}

#[test]
fn convert_peak_memory_is_flat_in_trace_length() {
    // Text to a container, text to text and a container to a container,
    // each replayed once and eight times.  A conversion that loads the
    // trace holds every record, and a text output its whole text besides.
    let workload = Workload::new(
        WorkloadKind::by_name("1toN_1024").unwrap(),
        SizePreset::Small,
    );
    let file = |repeats: usize, extension: &str| {
        let name = format!(
            "trace_tools_flat_{}_x{repeats}.{extension}",
            std::process::id()
        );
        std::env::temp_dir().join(name)
    };
    let spec = ChunkSpec::with_codec(Codec::DeltaLz);
    for repeats in [1, 8] {
        let out = BufWriter::new(File::create(file(repeats, "txt")).unwrap());
        let written = workload.write_text_amplified_to(out, repeats);
        written.unwrap().flush().unwrap();
        let out = BufWriter::new(File::create(file(repeats, "trc")).unwrap());
        let written = workload.write_container_amplified_to(out, repeats, spec);
        written.unwrap().flush().unwrap();
    }
    let mut grew = Vec::new();
    for (from, to) in [("txt", "trc"), ("txt", "txt"), ("trc", "trc")] {
        let peak = |repeats| {
            let output = file(repeats, &format!("out.{to}"));
            convert_peak_kb(&file(repeats, from), &output)
        };
        let (once, eight) = (peak(1), peak(8));
        if eight * 4 >= once * 5 {
            grew.push(format!(
                "{from} -> {to}: peak {once} KiB at x1, {eight} KiB at x8"
            ));
        }
    }
    for repeats in [1, 8] {
        let _ = std::fs::remove_file(file(repeats, "txt"));
        let _ = std::fs::remove_file(file(repeats, "trc"));
    }
    assert!(grew.is_empty(), "{}", grew.join("\n"));
}

/// The file naming the input, output and further flags of the reduction
/// the child of the process `parent` runs.
fn reduce_job(parent: u32) -> PathBuf {
    std::env::temp_dir().join(format!("trace_tools_flat_reduce_{parent}.job"))
}

#[test]
#[ignore = "the child of reduce_stream_peak_memory_is_flat_in_trace_length"]
fn reduce_child() {
    let Ok(job) = std::fs::read_to_string(reduce_job(std::os::unix::process::parent_id())) else {
        return;
    };
    let [input, output, flags @ ..] = &*job.lines().collect::<Vec<_>>() else {
        panic!("a job is an input, an output and flags: {job:?}");
    };
    let mut args = vec![("in", *input), ("out", *output), ("method", "avgWave")];
    for flag in flags {
        args.push(flag.split_once(' ').unwrap_or((flag, "")));
    }
    run(&Invocation::new("reduce", &args)).unwrap();
    println!("VmHWM_KB {}", vm_hwm_kb());
}

/// Peak resident set of a child reducing `input` with `reduce` and
/// `flags` (each a name and its value, if it has one) into a `delta-lz`
/// container, in KiB.
fn reduce_peak_kb(input: &Path, flags: &[&str]) -> u64 {
    let job = reduce_job(std::process::id());
    let output = input.with_extension("reduced.trc");
    let mut lines = [input, &output].map(|path| path.to_str().unwrap()).to_vec();
    lines.extend_from_slice(flags);
    std::fs::write(&job, lines.join("\n")).unwrap();
    let peak = child_peak_kb("reduce_child");
    let _ = std::fs::remove_file(&job);
    let _ = std::fs::remove_file(&output);
    peak
}

#[test]
fn reduce_stream_peak_memory_is_flat_in_trace_length() {
    // Sweep3d's 32 ranks at the paper preset: 82 720 events and ≈ 28 000
    // executions replayed once, ≈ 220 000 executions replayed eight times.
    // A reduction that assembles its output holds every execution, ≈ 18
    // bytes each, until it stores the trace: ≈ 3 MiB more at x8 than at
    // x1, half again its peak at x1.  One that loads its input holds every
    // record besides.  Plain `reduce`, on one worker per core, is held to
    // the same bound as `--stream` on one and two.
    let workload = Workload::new(
        WorkloadKind::by_name("sweep3d_32p").unwrap(),
        SizePreset::Paper,
    );
    let dir = std::env::temp_dir();
    let file = |repeats: usize, extension: &str| {
        let name = format!(
            "trace_tools_flat_reduce_{}_x{repeats}.{extension}",
            std::process::id()
        );
        dir.join(name)
    };
    let spec = ChunkSpec::with_codec(Codec::DeltaLz);
    for repeats in [1, 8] {
        let out = BufWriter::new(File::create(file(repeats, "txt")).unwrap());
        let written = workload.write_text_amplified_to(out, repeats);
        written.unwrap().flush().unwrap();
        let out = BufWriter::new(File::create(file(repeats, "trc")).unwrap());
        let written = workload.write_container_amplified_to(out, repeats, spec);
        written.unwrap().flush().unwrap();
    }
    let mut grew = Vec::new();
    for extension in ["txt", "trc"] {
        for flags in [&["stream", "shards 1"][..], &["stream", "shards 2"], &[]] {
            let once = reduce_peak_kb(&file(1, extension), flags);
            let eight = reduce_peak_kb(&file(8, extension), flags);
            if eight * 4 >= once * 5 {
                grew.push(format!(
                    "{extension} {flags:?}: peak {once} KiB at x1, {eight} KiB at x8"
                ));
            }
        }
    }
    for repeats in [1, 8] {
        let _ = std::fs::remove_file(file(repeats, "txt"));
        let _ = std::fs::remove_file(file(repeats, "trc"));
    }
    assert!(grew.is_empty(), "{}", grew.join("\n"));
}

/// Writes `app` as a text trace of its rank sections `copies` times over:
/// `copies ×` its ranks, each the length of one of its own.
fn write_ranks_copied(path: &Path, app: &AppTrace, copies: usize) {
    let mut out = BufWriter::new(File::create(path).unwrap());
    let (regions, contexts) = (app.regions.names(), app.contexts.names());
    let ranks = app.rank_count();
    write_app_header(&mut out, &app.name, copies * ranks, regions, contexts).unwrap();
    for id in 0..copies * ranks {
        write_rank_start(&mut out, Rank(u32::try_from(id).unwrap())).unwrap();
        write_app_records(&mut out, &app.ranks[id % ranks].records).unwrap();
        write_rank_end(&mut out).unwrap();
    }
    write_trailer(&mut out).unwrap();
    out.flush().unwrap();
}

#[test]
fn convert_peak_memory_is_flat_in_rank_count() {
    // Sweep3d's 32 ranks at the paper preset, ≈ 150 KB of text each, and
    // the same sections eight times over: 256 ranks of the same length.
    // A text worker holds the sections of the byte range it reads until it
    // has read them all, so ranges cut by the worker count alone would each
    // hold eight times as many sections at 256 ranks as at 32.
    let app = Workload::new(
        WorkloadKind::by_name("sweep3d_32p").unwrap(),
        SizePreset::Paper,
    )
    .generate();
    let file = |copies: usize, extension: &str| {
        let name = format!(
            "trace_tools_flat_ranks_{}_x{copies}.{extension}",
            std::process::id()
        );
        std::env::temp_dir().join(name)
    };
    for copies in [1, 8] {
        write_ranks_copied(&file(copies, "txt"), &app, copies);
    }
    let mut grew = Vec::new();
    for to in ["trc", "txt"] {
        let peak = |copies| {
            let output = file(copies, &format!("out.{to}"));
            convert_peak_kb(&file(copies, "txt"), &output)
        };
        let (once, eight) = (peak(1), peak(8));
        if eight * 4 >= once * 5 {
            grew.push(format!(
                "txt -> {to}: peak {once} KiB at 32 ranks, {eight} KiB at 256"
            ));
        }
    }
    for copies in [1, 8] {
        let _ = std::fs::remove_file(file(copies, "txt"));
    }
    assert!(grew.is_empty(), "{}", grew.join("\n"));
}
