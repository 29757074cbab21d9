//! End-to-end measurement: fresh child processes that each run the
//! workload's `trace-tools` command in-process, one warm-up and
//! [`OPS_PER_CHILD`] timed operations, bytes on disk → bytes on disk.
//!
//! A child per batch keeps each peak-memory reading (`VmHWM`) to one
//! workload and free of the parent's set-up allocations, and lets rounds
//! over several workloads interleave so each samples the whole run.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::calib::{self, normalise};
use crate::json::{self, Json};
use crate::spans::{spans_from_json, spans_to_json, Tracer};
use crate::stats::{median, own_cpu_ms, own_vm_hwm_kb, quantile};
use crate::workloads::{by_name, output_path, run_cli, Prepared, Reference};

pub const OPS_PER_CHILD: usize = 5;

/// What one child measured.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Operation times normalised to a quiet host ([`crate::calib`]), ms.
    pub op_ms: Vec<f64>,
    /// The same operations' raw wall times, ms.
    pub wall_ms: Vec<f64>,
    /// CPU time (user + system, all threads), normalised like `op_ms`.
    pub cpu_ms: Vec<f64>,
    /// Host slowdown the calibration kernel saw around each operation.
    pub slowdown: Vec<f64>,
    pub failed: usize,
    /// One `VmHWM` reading per child, KiB.
    pub vm_hwm_kb: Vec<u64>,
}

impl Samples {
    pub fn attempted(&self) -> usize {
        self.op_ms.len() + self.failed
    }

    fn absorb(&mut self, other: Samples) {
        self.op_ms.extend(other.op_ms);
        self.wall_ms.extend(other.wall_ms);
        self.cpu_ms.extend(other.cpu_ms);
        self.slowdown.extend(other.slowdown);
        self.failed += other.failed;
        self.vm_hwm_kb.extend(other.vm_hwm_kb);
    }

    pub fn op_ms_quantile(&self, q: f64) -> f64 {
        quantile(&self.op_ms, q)
    }

    /// Median over the children of each one's peak resident set, MiB.
    /// The median and not the maximum: a streaming child peaks at 9–11 MiB
    /// depending on how its two shard threads happened to interleave, and
    /// the largest of a handful of such readings moves by 10 % run to run.
    pub fn peak_rss_mb(&self) -> f64 {
        let mb: Vec<f64> = self
            .vm_hwm_kb
            .iter()
            .map(|kb| *kb as f64 / 1024.0)
            .collect();
        median(&mb)
    }
}

/// The body of the hidden `child` subcommand: runs the operations and
/// prints one JSON line for the parent.  A failed operation (an `Err`, or
/// output bytes that differ from the reference) is counted, not timed.
pub fn child_main(
    workload: &str,
    dir: &Path,
    reference: Reference,
    traced: bool,
) -> Result<(), String> {
    let workload = by_name(workload)?;
    let output = output_path(dir);
    let args = workload.cli_args(&workload.input_path(dir), &output);
    let mut tracer = Tracer::new(traced, workload.name);
    let mut samples = Samples::default();
    for op in 0..=OPS_PER_CHILD {
        let _ = std::fs::remove_file(&output);
        let name = if op == 0 { "cli.warmup" } else { "cli.op" };
        let timed = calib::measure(workload.host, || {
            tracer.time(name, |_| {
                let cpu_before = own_cpu_ms();
                (run_cli(&args), own_cpu_ms() - cpu_before)
            })
        });
        let (result, cpu_ms) = timed.value;
        let ok = result.is_ok() && reference.matches_file(&output);
        match (op, ok) {
            (0, _) => {}
            (_, true) => {
                samples.op_ms.push(timed.quiet_ms);
                samples.wall_ms.push(timed.raw_ms);
                samples
                    .cpu_ms
                    .push(normalise(cpu_ms, timed.slowdown, workload.host.sensitivity));
                samples.slowdown.push(timed.slowdown);
            }
            (_, false) => samples.failed += 1,
        }
    }
    let line = Json::obj([
        ("op_ms", Json::floats(&samples.op_ms)),
        ("wall_ms", Json::floats(&samples.wall_ms)),
        ("cpu_ms", Json::floats(&samples.cpu_ms)),
        ("slowdown", Json::floats(&samples.slowdown)),
        ("failed", Json::Num(samples.failed as f64)),
        ("vm_hwm_kb", Json::Num(own_vm_hwm_kb() as f64)),
        ("spans", spans_to_json(tracer.spans())),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// Spawns one child for `prepared`, waits for it and returns its samples.
pub fn run_child(prepared: &Prepared, tracer: &mut Tracer) -> Result<Samples, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let name = prepared.workload.name;
    tracer
        .time("child", |tracer| {
            let spawn_ns = tracer.now_ns();
            let output = Command::new(&exe)
                .arg("child")
                .args(["--workload", name])
                .arg("--dir")
                .arg(&prepared.dir)
                .args(["--digest", &format!("{:016x}", prepared.reference.digest)])
                .args(["--len", &prepared.reference.len.to_string()])
                .args(["--trace", if tracer.enabled() { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "child for {name} failed ({}): {}",
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let parsed = json::parse(line).map_err(|e| format!("child printed {line:?}: {e}"))?;
            let numbers = |key: &str| -> Option<Vec<f64>> {
                parsed
                    .get(key)?
                    .as_arr()?
                    .iter()
                    .map(Json::as_f64)
                    .collect()
            };
            let samples = (|| {
                Some(Samples {
                    op_ms: numbers("op_ms")?,
                    wall_ms: numbers("wall_ms")?,
                    cpu_ms: numbers("cpu_ms")?,
                    slowdown: numbers("slowdown")?,
                    failed: parsed.get("failed")?.as_f64()? as usize,
                    vm_hwm_kb: vec![parsed.get("vm_hwm_kb")?.as_f64()? as u64],
                })
            })()
            .ok_or_else(|| format!("child printed an incomplete result: {line}"))?;
            if let Some(spans) = parsed.get("spans").and_then(spans_from_json) {
                tracer.adopt(&spans, spawn_ns);
            }
            Ok(samples)
        })
        .0
}

/// Rounds of one child per workload until `seconds` have passed in all and
/// every workload has at least `min_children` batches.
pub fn measure(
    prepared: &[&Prepared],
    seconds: f64,
    min_children: usize,
    tracer: &mut Tracer,
) -> Result<Vec<Samples>, String> {
    let started = Instant::now();
    let mut samples = vec![Samples::default(); prepared.len()];
    let mut rounds = 0;
    while rounds < min_children || started.elapsed() < Duration::from_secs_f64(seconds) {
        for (workload, into) in prepared.iter().zip(&mut samples) {
            tracer.set_workload(workload.workload.name);
            into.absorb(run_child(workload, tracer)?);
        }
        rounds += 1;
    }
    Ok(samples)
}
