//! The four workloads: what each generates, which `trace-tools` command it
//! times, and the reference its output is checked against.
//!
//! The program under test only ever sees files.  Inputs come from the
//! `trace_sim` generators with `--seed` XORed into the generator's own
//! seed, so the same seed gives the same bytes.

use std::path::{Path, PathBuf};

use trace_container::{ChunkSpec, Codec};
use trace_model::AppTrace;
use trace_reduce::{Method, MethodConfig, Reducer};
use trace_sim::dynload::{dyn_load_balance, DynLoadParams};
use trace_sim::sweep3d::{sweep3d, Sweep3dParams};

use crate::calib::{self, HostModel};
use crate::spans::Tracer;
use crate::stats::{bytes_digest, file_digest};

/// Which generator makes the workload's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Generator {
    /// `sweep3d_32p`: 32 ranks, ≈ 6 900 events per iteration, highly
    /// repetitive (a few hundred representatives under avgWave).
    Sweep3d { iterations: usize },
    /// `dyn_load_balance` at 32 000 iterations, rebalancing every 3 200:
    /// 8 ranks, ≈ 512 k events, slowly drifting segment durations so a
    /// strict threshold keeps thousands of representatives.
    DynLoad,
}

/// How the input file is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    Text,
    Container(Codec),
}

impl Encoding {
    pub fn file_name(self) -> &'static str {
        match self {
            Encoding::Text => "input.txt",
            Encoding::Container(Codec::None) => "input-none.trc",
            Encoding::Container(_) => "input-dlz.trc",
        }
    }
}

/// The timed `trace-tools` command.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operation {
    Reduce {
        method: Method,
        /// `None` leaves the method's default threshold.
        threshold: Option<f64>,
        /// `None` is the in-memory driver; `Some(n)` is `--stream`, with
        /// `--shards n` when n > 1.
        stream_shards: Option<usize>,
    },
    Convert,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers it stresses and why.
    pub why: &'static str,
    pub generator: Generator,
    pub input: Encoding,
    pub operation: Operation,
    /// How the command meets the host ([`crate::calib`]): the threads it
    /// keeps busy, and the share of the calibration kernel's slowdown it
    /// feels.  The share is fitted once per workload over 250–1000 paired
    /// samples as the value that makes windows of 20 operations taken
    /// minutes apart agree best (`FINDINGS.md`, "Host noise"): the
    /// byte-level text parser tracks the kernel almost fully,
    /// floating-point matching and the LZ encoder only in part.
    pub host: HostModel,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "text_stream",
        why: "reduce --stream avgWave on a 48 MB text sweep3d trace: the large-trace path; the streaming text parser dominates, matching is small, codecs are almost idle",
        generator: Generator::Sweep3d { iterations: 120 },
        input: Encoding::Text,
        operation: Operation::Reduce {
            method: Method::AvgWave,
            threshold: None,
            stream_shards: Some(1),
        },
        host: HostModel { threads: 1, sensitivity: 0.85 },
    },
    Workload {
        name: "dlz_sharded",
        why: "reduce --stream --shards 2 on the same sweep3d trace as a delta-lz container: codec decode, chunk reader and the index-sharded fan-out, with no text parsing at all",
        generator: Generator::Sweep3d { iterations: 120 },
        input: Encoding::Container(Codec::DeltaLz),
        operation: Operation::Reduce {
            method: Method::AvgWave,
            threshold: None,
            stream_shards: Some(2),
        },
        host: HostModel { threads: 2, sensitivity: 0.7 },
    },
    Workload {
        name: "match_strict",
        why: "in-memory reduce relDiff 0.1 on a drifting dyn_load_balance trace stored uncompressed: thousands of representatives, so the match loop is the largest share and peak memory is the whole trace",
        generator: Generator::DynLoad,
        input: Encoding::Container(Codec::None),
        operation: Operation::Reduce {
            method: Method::RelDiff,
            threshold: Some(0.1),
            stream_shards: None,
        },
        host: HostModel { threads: 1, sensitivity: 0.7 },
    },
    Workload {
        name: "convert_dlz",
        why: "convert a 24 MB text sweep3d trace to a delta-lz container: the in-memory text parser plus codec and chunk writer in the write direction, with no segmenting or matching",
        generator: Generator::Sweep3d { iterations: 60 },
        input: Encoding::Text,
        operation: Operation::Convert,
        host: HostModel { threads: 1, sensitivity: 0.55 },
    },
];

pub fn by_name(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// The container spec `trace-tools` writes by default.
pub fn default_spec() -> ChunkSpec {
    ChunkSpec::with_codec(Codec::DeltaLz)
}

impl Generator {
    pub fn generate(self, seed: u64) -> AppTrace {
        match self {
            Generator::Sweep3d { iterations } => {
                let paper = Sweep3dParams::paper_32p();
                sweep3d(
                    "sweep3d_32p",
                    &Sweep3dParams {
                        iterations,
                        seed: paper.seed ^ seed,
                        ..paper
                    },
                )
            }
            Generator::DynLoad => {
                let paper = DynLoadParams::paper();
                dyn_load_balance(&DynLoadParams {
                    iterations: 32_000,
                    rebalance_every: 3_200,
                    seed: paper.seed ^ seed,
                    ..paper
                })
            }
        }
    }
}

impl Encoding {
    pub fn encode(self, app: &AppTrace) -> Vec<u8> {
        match self {
            Encoding::Text => trace_format::write_app_trace(app).into_bytes(),
            Encoding::Container(codec) => {
                trace_container::encode_app_container(app, ChunkSpec::with_codec(codec))
            }
        }
    }
}

impl Workload {
    /// The similarity method of the workload's command.  `convert` has
    /// none; its traced run measures the reduce layers (which the command
    /// never reaches) with the method of `match_strict`, the workload it
    /// shares a trace with, so that every workload reports every metric.
    pub fn method_config(&self) -> MethodConfig {
        match self.operation {
            Operation::Reduce {
                method,
                threshold: Some(threshold),
                ..
            } => MethodConfig::new(method, threshold),
            Operation::Reduce { method, .. } => MethodConfig::with_default_threshold(method),
            Operation::Convert => MethodConfig::new(Method::RelDiff, 0.1),
        }
    }

    /// The `trace-tools` argument list for this workload's command.
    pub fn cli_args(&self, input: &Path, output: &Path) -> Vec<String> {
        match self.operation {
            Operation::Reduce {
                method,
                threshold,
                stream_shards,
            } => reduce_args(input, output, method, threshold, stream_shards),
            Operation::Convert => strings(&[
                "convert",
                "--in",
                &input.to_string_lossy(),
                "--out",
                &output.to_string_lossy(),
            ]),
        }
    }

    pub fn input_path(&self, dir: &Path) -> PathBuf {
        dir.join(self.input.file_name())
    }
}

pub fn output_path(dir: &Path) -> PathBuf {
    dir.join("output.trc")
}

pub fn reduce_args(
    input: &Path,
    output: &Path,
    method: Method,
    threshold: Option<f64>,
    stream_shards: Option<usize>,
) -> Vec<String> {
    let mut args = strings(&[
        "reduce",
        "--in",
        &input.to_string_lossy(),
        "--out",
        &output.to_string_lossy(),
        "--method",
        method.name(),
    ]);
    if let Some(threshold) = threshold {
        args.extend(strings(&["--threshold", &threshold.to_string()]));
    }
    if let Some(shards) = stream_shards {
        args.push("--stream".to_string());
        if shards > 1 {
            args.extend(strings(&["--shards", &shards.to_string()]));
        }
    }
    args
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// Runs one `trace-tools` command in-process, exactly as the binary's
/// `main` does.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    trace_tools::parse_args(args).and_then(|invocation| trace_tools::run(&invocation))
}

/// Digest and length of the bytes an output file must hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub len: u64,
}

impl Reference {
    pub fn matches_file(&self, path: &Path) -> bool {
        file_digest(path).is_ok_and(|(digest, len)| digest == self.digest && len == self.len)
    }
}

/// A workload ready to run: its trace, its input file and its reference.
pub struct Prepared {
    pub workload: &'static Workload,
    pub dir: PathBuf,
    pub app: AppTrace,
    pub events: usize,
    /// Segment instances in the input; every reduce output must hold
    /// exactly this many executions.
    pub segments: usize,
    pub in_bytes: u64,
    pub reference: Reference,
    pub generate_ms: f64,
    pub write_inputs_ms: f64,
    pub setup_s: f64,
}

/// Set-up: generate the trace, write the input file in the workload's
/// encoding, and compute the reference output through a *different* driver
/// than the one the workload times — the in-memory reducer for the
/// streaming workloads, the CLI's `--stream` for the in-memory one, and a
/// direct encode of the generator's trace for `convert`.
pub fn prepare(
    workload: &'static Workload,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let input = workload.input_path(dir);
    // `setup_s` is the sum of the three computing phases, each normalised
    // to a quiet host on its own.  Writing the input file is traced but not
    // counted: it goes to the page cache at 200 MB/s until the kernel
    // throttles writers to let write-back catch up, and then takes ten times
    // as long, whatever the program or the harness did.
    let (outcome, _) = tracer.time("setup", |tracer| {
        let host = HostModel::LIBRARY;
        let generated = calib::measure(host, || {
            tracer.time("sim.generate", |_| workload.generator.generate(seed))
        });
        let app = generated.value;
        let encoded = calib::measure(host, || {
            tracer.time("sim.encode_inputs", |_| workload.input.encode(&app))
        });
        let (written, write_ms) =
            tracer.time("sim.write_file", |_| std::fs::write(&input, &encoded.value));
        written.map_err(|e| format!("cannot write {}: {e}", input.display()))?;
        let reference = calib::measure(host, || {
            tracer.time("setup.reference", |_| reference_output(workload, &app, dir))
        });
        Ok::<_, String>(Prepared {
            workload,
            dir: dir.to_path_buf(),
            events: app.total_events(),
            segments: app.ranks.iter().map(|r| r.segment_instance_count()).sum(),
            app,
            in_bytes: encoded.value.len() as u64,
            reference: reference.value?,
            generate_ms: generated.quiet_ms,
            write_inputs_ms: encoded.quiet_ms + write_ms,
            setup_s: (generated.quiet_ms + encoded.quiet_ms + reference.quiet_ms) / 1e3,
        })
    });
    outcome
}

fn reference_output(workload: &Workload, app: &AppTrace, dir: &Path) -> Result<Reference, String> {
    let (digest, len) = match workload.operation {
        Operation::Convert => bytes_digest(&Encoding::Container(Codec::DeltaLz).encode(app)),
        Operation::Reduce {
            stream_shards: Some(_),
            ..
        } => {
            let reduced = Reducer::new(workload.method_config()).reduce_app(app);
            bytes_digest(&trace_container::encode_reduced_container(
                &reduced,
                default_spec(),
            ))
        }
        Operation::Reduce {
            method,
            threshold,
            stream_shards: None,
        } => {
            let path = dir.join("reference.trc");
            run_cli(&reduce_args(
                &workload.input_path(dir),
                &path,
                method,
                threshold,
                Some(1),
            ))?;
            file_digest(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?
        }
    };
    Ok(Reference { digest, len })
}

/// What the output file of a finished run must satisfy beyond matching the
/// reference bytes; returns the approximation distance (paper criterion 3,
/// µs; 0 for the lossless convert).
pub fn check_output(prepared: &Prepared) -> Result<f64, String> {
    let path = output_path(&prepared.dir);
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    match prepared.workload.operation {
        Operation::Convert => {
            let decoded = trace_container::decode_app_any(&bytes)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if decoded != prepared.app {
                return Err("converted container does not decode to the generated trace".into());
            }
            Ok(0.0)
        }
        Operation::Reduce { .. } => {
            let reduced = trace_container::decode_reduced_any(&bytes)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if reduced.total_execs() != prepared.segments {
                return Err(format!(
                    "{} executions in the output for {} input segments",
                    reduced.total_execs(),
                    prepared.segments
                ));
            }
            let approximated = reduced.reconstruct();
            if approximated.total_events() != prepared.events {
                return Err(format!(
                    "reconstruction has {} events, the input {}",
                    approximated.total_events(),
                    prepared.events
                ));
            }
            Ok(trace_eval::approximation_distance_us(
                &prepared.app,
                &approximated,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_args_spell_the_documented_commands() {
        let args = |name: &str| {
            by_name(name)
                .unwrap()
                .cli_args(Path::new("IN"), Path::new("OUT"))
                .join(" ")
        };
        assert_eq!(
            args("text_stream"),
            "reduce --in IN --out OUT --method avgWave --stream"
        );
        assert_eq!(
            args("dlz_sharded"),
            "reduce --in IN --out OUT --method avgWave --stream --shards 2"
        );
        assert_eq!(
            args("match_strict"),
            "reduce --in IN --out OUT --method relDiff --threshold 0.1"
        );
        assert_eq!(args("convert_dlz"), "convert --in IN --out OUT");
        assert!(by_name("nope").is_err());
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        // The tiny generators share the seeding path with the sized ones.
        let tiny = |seed: u64| {
            let base = Sweep3dParams::small();
            sweep3d(
                "t",
                &Sweep3dParams {
                    seed: base.seed ^ seed,
                    ..base
                },
            )
        };
        assert_eq!(tiny(1), tiny(1));
        assert_ne!(tiny(1), tiny(2));
    }
}
