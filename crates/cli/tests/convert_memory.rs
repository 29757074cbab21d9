//! Flat memory for `convert`: a streamed conversion holds a few ranks'
//! records and sections, not the trace, so its peak resident set hardly
//! grows with trace length.  Only the conversion may count, so the test
//! re-executes its own binary as a child that converts one file and prints
//! its `VmHWM`.
#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::Command;

use trace_sim::{SizePreset, Workload, WorkloadKind};
use trace_tools::{run, Invocation};

/// The input and output of the child of the process `parent`.
fn child_files(parent: u32) -> (PathBuf, PathBuf) {
    let file =
        |suffix: &str| std::env::temp_dir().join(format!("trace_tools_flat_{parent}.{suffix}"));
    (file("txt"), file("trc"))
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
    let (input, output) = child_files(std::os::unix::process::parent_id());
    if !input.exists() {
        return;
    }
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let args = [("in", path(&input)), ("out", path(&output))];
    let args: Vec<_> = args.iter().map(|(k, v)| (*k, v.as_str())).collect();
    run(&Invocation::new("convert", &args)).unwrap();
    println!("VmHWM_KB {}", vm_hwm_kb());
}

/// Peak resident set of a child converting the trace replayed `repeats`
/// times to a `delta-lz` container, in KiB.
fn convert_peak_kb(workload: &Workload, repeats: usize) -> u64 {
    let (input, output) = child_files(std::process::id());
    let file = BufWriter::new(File::create(&input).unwrap());
    workload
        .write_text_amplified_to(file, repeats)
        .unwrap()
        .flush()
        .unwrap();
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["convert_child", "--exact", "--ignored", "--nocapture"])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(child.status.success(), "{stdout}");
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM_KB "));
    line.unwrap_or_else(|| panic!("no peak in {stdout:?}"))
        .parse()
        .unwrap()
}

#[test]
fn convert_peak_memory_is_flat_in_trace_length() {
    let workload = Workload::new(
        WorkloadKind::by_name("1toN_1024").unwrap(),
        SizePreset::Small,
    );
    let once = convert_peak_kb(&workload, 1);
    let eight = convert_peak_kb(&workload, 8);
    assert!(
        eight * 4 < once * 5,
        "peak {once} KiB at x1, {eight} KiB at x8"
    );
}
