#![forbid(unsafe_code)]
//! The repository benchmark: `trace-tools` from a trace file on disk to a
//! reduced (or converted) file on disk, over four workloads, with a
//! separate traced run that attributes the time to layers.  See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.

mod calib;
mod compare;
mod json;
mod layers;
mod metrics;
mod plan;
mod results;
mod run;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use plan::{Plan, WorkloadResult};
use results::{check_golden, golden_of, print_tables, result_set};
use workloads::{by_name, Reference, WORKLOADS};

const USAGE: &str = "\
bench --workload W --seed N --seconds S --trace 0|1
      one workload, one JSON result line (the BENCHMARK.json command)
bench run [--seed N] [--seconds S] [--out FILE]
      every workload, interleaved, end to end and traced: prints every
      metric with unit and sample count, verifies, writes a result set
bench trace [--workload W] [--seed N] [--seconds S]
      traced run only: per-layer table, out/trace.json, tracing overhead
bench verify [--seed N] [--write-golden]
      driver agreement and output invariants; seed 0 also against golden.json
bench compare BASE.json NEW.json
      applies the BENCHMARK.json bounds; exits 1 on a regression

workloads: text_stream, dlz_sharded, match_strict, convert_dlz";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return Ok(ExitCode::SUCCESS);
        }
        Some(first) if first.starts_with("--") => ("driver", args),
        Some(first) => (first, &args[1..]),
    };
    if command == "compare" {
        let [base, new] = rest else {
            return Err("compare takes two result-set files".to_string());
        };
        let (table, pass) = compare::compare_files(base, new)?;
        print!("{table}");
        return Ok(if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let flags = parse_flags(rest)?;
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        flags.get(flag).map_or(Ok(default), |raw| {
            raw.parse()
                .map_err(|_| format!("--{flag} expects a number, got {raw:?}"))
        })
    };
    let seed: u64 = flags.get("seed").map_or(Ok(0), |raw| {
        raw.parse()
            .map_err(|_| format!("--seed expects a whole number, got {raw:?}"))
    })?;
    let selection = match flags.get("workload") {
        Some(name) => vec![by_name(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let ok = match command {
        "child" => {
            let need = |flag: &str| {
                flags
                    .get(flag)
                    .ok_or_else(|| format!("child needs --{flag}"))
            };
            let reference = Reference {
                digest: u64::from_str_radix(need("digest")?, 16).map_err(|e| e.to_string())?,
                len: need("len")?.parse().map_err(|_| "bad --len".to_string())?,
            };
            let traced = need("trace")? == "1";
            run::child_main(
                need("workload")?,
                Path::new(need("dir")?),
                reference,
                traced,
            )?;
            true
        }
        "driver" => {
            let [workload] = selection[..] else {
                return Err("--workload is required".to_string());
            };
            let traced = match flags.get("trace").map(String::as_str) {
                Some("0") => false,
                Some("1") => true,
                _ => return Err("--trace 0|1 is required".to_string()),
            };
            let plan = Plan::driver(seed, number("seconds", 10.0)?, traced);
            let result = plan
                .run(&[workload])?
                .pop()
                .expect("one workload, one result");
            let defs = if traced { PER_LAYER } else { END_TO_END };
            let line = Json::obj([
                ("correct", Json::Bool(result.correct())),
                ("attempted", Json::Num(result.attempted as f64)),
                ("failed", Json::Num(result.failed as f64)),
                ("metrics", result.measured.to_json(defs, false)?),
            ]);
            println!("{}", line.render());
            // A wrong output is reported in the line, not by the exit code.
            true
        }
        "run" => {
            let seconds = number("seconds", 20.0)?;
            let plan = Plan::full(seed, seconds);
            let results = plan.run(&selection)?;
            let mut ok = print_tables(&results, true);
            if seed == 0 {
                ok &= check_golden(&read_golden()?, &results)?;
            }
            let out = flags
                .get("out")
                .map_or_else(|| out_root().join("results.json"), PathBuf::from);
            write_file(&out, &result_set(seed, seconds, &results)?.render_pretty())?;
            println!("result set -> {}", out.display());
            ok
        }
        "trace" => {
            let plan = Plan::trace(seed, number("seconds", 10.0)?);
            print_tables(&plan.run(&selection)?, false)
        }
        "verify" => {
            let plan = Plan::verify(seed);
            let results = plan.run(&selection)?;
            let mut ok = results.iter().all(WorkloadResult::correct);
            for result in &results {
                let status = if result.correct() { "ok" } else { "FAILED" };
                println!(
                    "{:<14} {status}: {} ops byte-equal to the other driver's output, {} events, {} segments = executions, out_bytes {}",
                    result.workload.name, result.attempted - result.failed, result.events, result.segments, result.reference.len
                );
                for problem in &result.problems {
                    println!("{:<14} {problem}", "");
                }
            }
            if flags.contains_key("write-golden") {
                write_file(&golden_path(), &golden_of(seed, &results).render_pretty())?;
                println!("golden -> {}", golden_path().display());
            } else if seed == 0 {
                ok &= check_golden(&read_golden()?, &results)?;
            } else {
                println!(
                    "seed {seed}: no goldens for this seed; driver agreement and invariants only"
                );
            }
            ok
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--flag value` pairs; a flag followed by another flag is a switch.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found {arg:?}"))?;
        let value = iter
            .next_if(|next| !next.starts_with("--"))
            .cloned()
            .unwrap_or_default();
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// Everything the benchmark writes goes under `benchmark/out/`.
fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

fn read_golden() -> Result<String, String> {
    let path = golden_path();
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
