//! What one invocation measures: set-up, the end-to-end run, the traced
//! run, over a selection of workloads.

use std::path::PathBuf;

use crate::layers;
use crate::metrics::Measured;
use crate::run::{self, Samples};
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workloads::{check_output, output_path, prepare, Prepared, Reference, Workload};
use crate::{out_root, write_file};

/// The end-to-end run: tracing off, fresh children, interleaved rounds.
#[derive(Clone, Copy)]
pub struct EndToEnd {
    /// Measuring time per workload.
    pub seconds: f64,
    /// Least child batches per workload.
    pub min_children: usize,
}

/// The traced run: a traced child beside an untraced one, then the layers.
#[derive(Clone, Copy)]
pub struct Traced {
    /// Time per workload for the rounds over the layers.
    pub seconds: f64,
    /// Least rounds over the layers.
    pub min_rounds: usize,
}

pub struct Plan {
    pub seed: u64,
    /// Set-up passes per workload; `setup_s` is their median.
    pub setup_passes: usize,
    pub end_to_end: Option<EndToEnd>,
    pub traced: Option<Traced>,
}

impl Plan {
    /// One `BENCHMARK.json` run: either kind, for `seconds`.
    pub fn driver(seed: u64, seconds: f64, traced: bool) -> Plan {
        Plan {
            seed,
            setup_passes: if traced { 1 } else { 5 },
            end_to_end: (!traced).then_some(EndToEnd {
                seconds,
                min_children: 2,
            }),
            traced: traced.then_some(Traced {
                seconds,
                min_rounds: 2,
            }),
        }
    }

    /// `bench run`: at least 8 interleaved batches of 5 operations per
    /// workload, then 5 rounds over the layers.
    pub fn full(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            setup_passes: 5,
            end_to_end: Some(EndToEnd {
                seconds,
                min_children: 8,
            }),
            traced: Some(Traced {
                seconds: 0.0,
                min_rounds: 5,
            }),
        }
    }

    /// `bench trace`.
    pub fn trace(seed: u64, seconds: f64) -> Plan {
        Plan {
            seed,
            setup_passes: 1,
            end_to_end: None,
            traced: Some(Traced {
                seconds,
                min_rounds: 3,
            }),
        }
    }

    /// `bench verify`: one batch per workload and the output checks.
    pub fn verify(seed: u64) -> Plan {
        Plan {
            seed,
            setup_passes: 1,
            end_to_end: Some(EndToEnd {
                seconds: 0.0,
                min_children: 1,
            }),
            traced: None,
        }
    }
}

pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub measured: Measured,
    pub samples: Samples,
    /// Operations run, timed or traced, and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
    pub events: usize,
    pub segments: usize,
    pub reference: Reference,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// One workload while the plan runs: its trace and files, and the result
/// so far.
struct InFlight {
    prepared: Prepared,
    result: WorkloadResult,
}

impl InFlight {
    fn count(&mut self, samples: &Samples) {
        self.result.attempted += samples.attempted();
        self.result.failed += samples.failed;
    }
}

impl Plan {
    pub fn run(&self, selection: &[&'static Workload]) -> Result<Vec<WorkloadResult>, String> {
        let root = out_root();
        let dirs: Vec<PathBuf> = selection
            .iter()
            .map(|w| {
                root.join(format!(
                    "{}-seed{}-pid{}",
                    w.name,
                    self.seed,
                    std::process::id()
                ))
            })
            .collect();
        let outcome = self.run_in(selection, &dirs);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        outcome
    }

    fn run_in(
        &self,
        selection: &[&'static Workload],
        dirs: &[PathBuf],
    ) -> Result<Vec<WorkloadResult>, String> {
        let mut tracer = Tracer::new(self.traced.is_some(), "");
        let mut runs = Vec::new();
        for (workload, dir) in selection.iter().zip(dirs) {
            tracer.set_workload(workload.name);
            let mut setup_s = Vec::new();
            let mut last = None;
            for _ in 0..self.setup_passes.max(1) {
                // One trace in memory at a time.
                drop(last.take());
                let pass = prepare(workload, self.seed, dir, &mut tracer)?;
                setup_s.push(pass.setup_s);
                last = Some(pass);
            }
            let mut measured = Measured::default();
            if self.end_to_end.is_some() {
                measured.set("setup_s", median(&setup_s), setup_s.len());
            }
            let prepared = last.expect("at least one set-up pass");
            runs.push(InFlight {
                result: WorkloadResult {
                    workload,
                    measured,
                    samples: Samples::default(),
                    attempted: 0,
                    failed: 0,
                    events: prepared.events,
                    segments: prepared.segments,
                    reference: prepared.reference,
                    problems: Vec::new(),
                },
                prepared,
            });
        }
        if let Some(end_to_end) = self.end_to_end {
            measure_end_to_end(end_to_end, &mut runs)?;
        }
        if let Some(traced) = self.traced {
            for run in &mut runs {
                measure_traced(traced, run, &mut tracer)?;
            }
            let path = out_root().join("trace.json");
            write_file(&path, &spans::render_chrome(tracer.spans()))?;
            eprintln!("{} spans -> {}", tracer.spans().len(), path.display());
        }
        Ok(runs.into_iter().map(|run| run.result).collect())
    }
}

/// Tracing off: interleaved child batches, then the output checks.
fn measure_end_to_end(plan: EndToEnd, runs: &mut [InFlight]) -> Result<(), String> {
    let prepared: Vec<&Prepared> = runs.iter().map(|run| &run.prepared).collect();
    let samples = run::measure(
        &prepared,
        plan.seconds * runs.len() as f64,
        plan.min_children,
        &mut Tracer::new(false, ""),
    )?;
    for (run, samples) in runs.iter_mut().zip(samples) {
        let p = &run.prepared;
        if samples.op_ms.is_empty() {
            return Err(format!("{}: every operation failed", p.workload.name));
        }
        let out_bytes = std::fs::metadata(output_path(&p.dir)).map_or(0, |m| m.len());
        run.result.measured.set(
            "events_per_s",
            p.events as f64 / (samples.op_ms_quantile(0.5) / 1e3),
            samples.op_ms.len(),
        );
        run.result.measured.set(
            "peak_rss_mb",
            samples.peak_rss_mb(),
            samples.vm_hwm_kb.len(),
        );
        run.result.measured.set("out_bytes", out_bytes as f64, 1);
        run.result.problems.extend(check_output(p).err());
        run.count(&samples);
        run.result.samples = samples;
    }
    Ok(())
}

/// The per-layer numbers of one workload.  Operation times come from fresh
/// children, as in the end-to-end run; a traced batch beside an untraced
/// one gives the cost of the harness's own spans.
fn measure_traced(plan: Traced, run: &mut InFlight, tracer: &mut Tracer) -> Result<(), String> {
    tracer.set_workload(run.prepared.workload.name);
    if run.result.samples.op_ms.is_empty() {
        let untraced = run::run_child(&run.prepared, &mut Tracer::new(false, ""))?;
        run.count(&untraced);
        run.result.samples = untraced;
    }
    let traced = run::run_child(&run.prepared, tracer)?;
    run.count(&traced);
    let (p, s) = (&run.prepared, &run.result.samples);
    if s.op_ms.is_empty() || traced.op_ms.is_empty() {
        return Err(format!("{}: every operation failed", p.workload.name));
    }
    let values = &mut run.result.measured;
    let ops = s.op_ms.len();
    for (name, q) in [
        ("cli.op_ms_p10", 0.1),
        ("cli.op_ms_p50", 0.5),
        ("cli.op_ms_p75", 0.75),
    ] {
        values.set(name, s.op_ms_quantile(q), ops);
    }
    values.set("cli.wall_ms_p50", median(&s.wall_ms), ops);
    values.set("cli.cpu_ms_per_op", median(&s.cpu_ms), ops);
    values.set("host.slowdown_p50", median(&s.slowdown), ops);
    values.set(
        "cli.trace_overhead_ms",
        traced.op_ms_quantile(0.5) - s.op_ms_quantile(0.5),
        traced.op_ms.len(),
    );
    if let Err(problem) = layers::measure_layers(p, plan.seconds, plan.min_rounds, tracer, values) {
        run.result.problems.push(problem);
    }
    Ok(())
}
