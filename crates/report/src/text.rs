//! Text sink: the terminal rendering of a [`ReportModel`].
//!
//! Tables go through [`trace_eval::report::Table`] so the report lines up
//! with the evaluation harness output, and the severity section embeds
//! [`trace_analysis::Diagnosis::render_chart`]'s ASCII chart verbatim —
//! the same chart `trace-tools analyze` prints, now attached to every
//! report instead of living CLI-only.

use std::fmt::Write as _;

use trace_eval::report::{fmt_f64, Table};

use crate::model::ReportModel;

/// Renders the model as a deterministic plain-text report.
pub fn render_text(model: &ReportModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== trace report: {} ==", model.trace_name);
    let _ = writeln!(
        out,
        "ranks: {}  stored: {}  execs: {}  degree of matching: {}",
        model.rank_count,
        model.total_stored,
        model.total_execs,
        fmt_f64(model.degree_of_matching)
    );
    if let Some(full) = &model.full {
        let lines = full.criteria_lines().join("\n");
        let _ = writeln!(out, "\n-- the paper's four criteria --\n{lines}");
    }
    out.push('\n');

    let mut ranks = Table::new(
        "per-rank reduction",
        &["rank", "stored", "execs", "matches", "degree"],
    );
    for rank in &model.ranks {
        ranks.push_row(vec![
            rank.rank.to_string(),
            rank.stored.to_string(),
            rank.execs.to_string(),
            rank.matches.to_string(),
            fmt_f64(rank.degree_of_matching),
        ]);
    }
    out.push_str(&ranks.render());
    out.push('\n');

    let divergence = &model.divergence;
    let _ = writeln!(
        out,
        "divergence: method {}  threshold {}  shared keys {}",
        divergence.method_label,
        fmt_f64(divergence.threshold),
        divergence.shared_keys
    );
    let mut table = Table::new(
        "per-rank divergence",
        &[
            "rank",
            "keys",
            "max score",
            "worst context",
            "kernel misses",
            "flagged",
        ],
    );
    for row in &divergence.ranks {
        table.push_row(vec![
            row.rank.to_string(),
            row.keys_compared.to_string(),
            fmt_f64(row.max_score),
            row.worst_context.clone().unwrap_or_else(|| "-".to_string()),
            row.kernel_mismatches.to_string(),
            if row.flagged { "YES" } else { "no" }.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let flagged = divergence.divergent_ranks();
    if flagged.is_empty() {
        let _ = writeln!(out, "divergent ranks: none");
    } else {
        let list: Vec<String> = flagged.iter().map(u32::to_string).collect();
        let _ = writeln!(out, "divergent ranks: {}", list.join(", "));
    }
    out.push('\n');

    let _ = writeln!(out, "-- region trie (where time went) --");
    out.push_str(&model.trie.render_text());
    out.push('\n');

    if let Some(full) = &model.full {
        let _ = writeln!(out, "-- severity chart (full trace) --");
        out.push_str(&full.severity_chart);
    }
    let _ = writeln!(out, "-- severity chart (reconstructed trace) --");
    out.push_str(&model.severity_chart);
    if !model.severity_chart.ends_with('\n') {
        out.push('\n');
    }
    if model.significant_waits.is_empty() {
        let _ = writeln!(out, "significant wait states: none");
    } else {
        for wait in &model.significant_waits {
            let _ = writeln!(
                out,
                "significant wait: {} in {} ({} ms)",
                wait.metric,
                wait.region,
                fmt_f64(wait.total_ms)
            );
        }
    }

    if let Some(pipeline) = &model.pipeline {
        out.push('\n');
        let mut stages = Table::new("pipeline stages", &["stage", "spans", "total ms", "max ms"]);
        for stage in &pipeline.stages {
            stages.push_row(vec![
                stage.stage.to_string(),
                stage.spans.to_string(),
                fmt_f64(stage.total_ns as f64 / 1e6),
                fmt_f64(stage.max_ns as f64 / 1e6),
            ]);
        }
        out.push_str(&stages.render());
        let mut counters = Table::new("pipeline counters", &["counter", "value"]);
        for (name, value) in &pipeline.counters {
            counters.push_row(vec![name.clone(), value.to_string()]);
        }
        out.push_str(&counters.render());
    }
    out
}
