//! What a finished plan prints and writes: the metric tables, the result
//! set `compare` reads, and the golden digests.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plan::WorkloadResult;

/// Prints every metric of every workload; true when all outputs were right.
pub fn print_tables(results: &[WorkloadResult], end_to_end: bool) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("closed loop, one client, one process; {nproc} hardware threads available");
    for result in results {
        println!(
            "\n== {} — {} ops attempted, {} failed, outputs {}",
            result.workload.name,
            result.attempted,
            result.failed,
            if result.correct() { "correct" } else { "WRONG" }
        );
        println!("   {}", result.workload.why);
        for problem in &result.problems {
            println!("  problem: {problem}");
        }
        if end_to_end {
            print!("{}", result.measured.render_table(END_TO_END));
        }
        print!("{}", result.measured.render_table(PER_LAYER));
    }
    results.iter().all(WorkloadResult::correct)
}

/// The file `bench run` writes and `bench compare` reads.
pub fn result_set(seed: u64, seconds: f64, results: &[WorkloadResult]) -> Result<Json, String> {
    let workloads = results
        .iter()
        .map(|r| {
            let op_ms = Json::obj(
                [("p10", 0.1), ("p50", 0.5), ("p75", 0.75)]
                    .map(|(name, q)| (name, Json::Num(r.samples.op_ms_quantile(q)))),
            );
            Ok((
                r.workload.name,
                Json::obj([
                    ("ops_attempted", Json::Num(r.attempted as f64)),
                    ("ops_failed", Json::Num(r.failed as f64)),
                    ("correct", Json::Bool(r.correct())),
                    ("op_ms", op_ms),
                    // Every timed operation, for anyone re-deriving the
                    // statistic: raw wall time and the host slowdown the
                    // calibration kernel saw around it.
                    ("wall_ms", Json::floats(&r.samples.wall_ms)),
                    ("slowdown", Json::floats(&r.samples.slowdown)),
                    ("end_to_end", r.measured.to_json(END_TO_END, true)?),
                    ("per_layer", r.measured.to_json(PER_LAYER, true)?),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::obj([
        ("schema", Json::Str("trace-bench-result-set-v1".to_string())),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(seconds)),
        (
            "hardware_threads",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]))
}

/// Events, segments, output size and output digest of each workload.
pub fn golden_of(seed: u64, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        (
            "workloads",
            Json::obj(results.iter().map(|r| {
                (
                    r.workload.name,
                    Json::obj([
                        ("events", Json::Num(r.events as f64)),
                        ("segments", Json::Num(r.segments as f64)),
                        ("out_bytes", Json::Num(r.reference.len as f64)),
                        (
                            "digest",
                            Json::Str(format!("fnv1a64:{:016x}", r.reference.digest)),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

/// Seed-0 outputs against the committed digests: a drift detector for
/// people, deliberately not part of the driver's `correct` — a change that
/// alters the output format on purpose moves `out_bytes`, which is gated.
pub fn check_golden(golden_text: &str, results: &[WorkloadResult]) -> Result<bool, String> {
    let golden = json::parse(golden_text)?;
    let ours = golden_of(0, results);
    let mut ok = true;
    for result in results {
        let name = result.workload.name;
        let pick = |doc: &Json| doc.get("workloads").and_then(|w| w.get(name)).cloned();
        let same = pick(&golden) == pick(&ours);
        println!("{name:<14} golden {}", if same { "ok" } else { "MISMATCH" });
        if !same {
            println!(
                "  committed: {}",
                pick(&golden).map_or("-".to_string(), |g| g.render())
            );
            println!(
                "  measured:  {}",
                pick(&ours).map_or("-".to_string(), |g| g.render())
            );
        }
        ok &= same;
    }
    Ok(ok)
}
