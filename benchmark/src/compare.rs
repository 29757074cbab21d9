//! `bench compare A.json B.json`: the regression gate over two result sets.

use crate::json::{self, Json};
use crate::metrics::{bounds, Better, END_TO_END};
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The sets' own run-to-run spread is wider than the bound, so neither
    /// "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share by which `new` is worse than `base` (negative when better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn verdict(better: Better, bound: f64, spread: f64, base: f64, new: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening(better, base, new) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The p10–p50 distance of a set's operation times as a share of their
/// median: how wide the set's own samples lie around the gated statistic.
fn timing_spread(workload: &Json) -> Option<f64> {
    let op_ms = workload.get("op_ms")?;
    let p50 = op_ms.get("p50")?.as_f64()?;
    Some((p50 - op_ms.get("p10")?.as_f64()?) / p50)
}

fn failure_ratio(workload: &Json) -> Option<f64> {
    Some(workload.get("ops_failed")?.as_f64()? / workload.get("ops_attempted")?.as_f64()?.max(1.0))
}

/// Renders the comparison table; `Ok(true)` means the gate passed.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let bounds = bounds();
    let mut table = format!(
        "{:<14} {:<14} {:>16} {:>16} {:>8}  {}\n",
        "workload", "metric", "base", "new", "ratio", "verdict"
    );
    let mut pass = true;
    for workload in &WORKLOADS {
        let side = |set: &Json| {
            set.get("workloads")
                .and_then(|w| w.get(workload.name))
                .cloned()
                .ok_or_else(|| format!("a result set has no workload {}", workload.name))
        };
        let (base, new) = (side(base)?, side(new)?);
        for def in END_TO_END {
            let value = |set: &Json| {
                set.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: no value for {}", workload.name, def.name))
            };
            let (b, n) = (value(&base)?, value(&new)?);
            let spread = if def.name == "events_per_s" {
                timing_spread(&base)
                    .zip(timing_spread(&new))
                    .map_or(0.0, |(x, y)| x.max(y))
            } else {
                0.0
            };
            let verdict = verdict(def.better, bounds[def.name], spread, b, n);
            pass &= verdict != Verdict::Regression;
            table.push_str(&format!(
                "{:<14} {:<14} {:>16.3} {:>16.3} {:>8.4}  {}\n",
                workload.name,
                def.name,
                b,
                n,
                n / b,
                verdict.name()
            ));
        }
        let (b, n) = (
            failure_ratio(&base).unwrap_or(0.0),
            failure_ratio(&new).unwrap_or(0.0),
        );
        let failed_more = n > b;
        pass &= !failed_more;
        table.push_str(&format!(
            "{:<14} {:<14} {:>16.4} {:>16.4} {:>8}  {}\n",
            workload.name,
            "ops_failed/att",
            b,
            n,
            "-",
            if failed_more { "regression" } else { "ok" }
        ));
    }
    Ok((table, pass))
}

pub fn compare_files(base: &str, new: &str) -> Result<(String, bool), String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    compare(&load(base)?, &load(new)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(Higher, 0.1, 0.0, 100.0, 91.0), Verdict::Ok);
        assert_eq!(verdict(Higher, 0.1, 0.0, 100.0, 89.0), Verdict::Regression);
        assert_eq!(verdict(Higher, 0.1, 0.0, 100.0, 150.0), Verdict::Ok);
        assert_eq!(
            verdict(Lower, 0.01, 0.0, 1000.0, 1011.0),
            Verdict::Regression
        );
        assert_eq!(verdict(Lower, 0.01, 0.0, 1000.0, 1009.0), Verdict::Ok);
        assert_eq!(verdict(Higher, 0.1, 0.12, 100.0, 50.0), Verdict::Unresolved);
    }

    fn set(events_per_s: f64, p50: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v))]);
        let workload = Json::obj([
            ("ops_attempted", Json::Num(40.0)),
            ("ops_failed", Json::Num(failed)),
            (
                "op_ms",
                Json::obj([("p10", Json::Num(100.0)), ("p50", Json::Num(p50))]),
            ),
            (
                "end_to_end",
                Json::obj([
                    ("events_per_s", metric(events_per_s)),
                    ("peak_rss_mb", metric(9.0)),
                    ("out_bytes", metric(1000.0)),
                    ("setup_s", metric(2.0)),
                ]),
            ),
        ]);
        Json::obj([(
            "workloads",
            Json::obj(WORKLOADS.iter().map(|w| (w.name, workload.clone()))),
        )])
    }

    #[test]
    fn the_gate_fails_on_a_regression_or_more_failures_and_not_on_noise() {
        let base = set(1e6, 104.0, 0.0);
        assert!(compare(&base, &set(0.995e6, 104.0, 0.0)).unwrap().1);
        let (table, pass) = compare(&base, &set(0.7e6, 104.0, 0.0)).unwrap();
        assert!(!pass && table.contains("regression"), "{table}");
        let (table, pass) = compare(&base, &set(0.7e6, 150.0, 0.0)).unwrap();
        assert!(pass && table.contains("unresolved"), "{table}");
        assert!(!compare(&base, &set(1e6, 104.0, 1.0)).unwrap().1);
        assert!(compare(&base, &Json::obj([("workloads", Json::Null)])).is_err());
    }
}
