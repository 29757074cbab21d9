//! HTML sink: a self-contained static report.
//!
//! One file, no external assets — inline CSS only, no scripts fetched,
//! nothing referenced by URL — so the report can be archived next to the
//! trace it describes and opened offline years later.  Output is
//! deterministic byte-for-byte: every collection rendered is ordered
//! (`BTreeMap` iteration or explicit sorts) and no clock or randomness is
//! consulted.
//!
//! A machine-readable copy of the model is embedded in a
//! `<script type="application/json">` island, serialised through the
//! canonical writer in [`trace_obs::json`] (the same one the pipeline
//! run-report uses).  That writer has no float variant by design — its
//! schema is integers-and-strings — so fractional values are embedded as
//! fixed-format strings via [`trace_eval::report::fmt_f64`].

use trace_eval::report::fmt_f64;
use trace_obs::json::JsonValue;

use crate::model::{discrepancy_line, ReportModel};
use crate::trie::TrieNode;

/// Schema name embedded in the JSON island.
pub(crate) const HTML_SCHEMA_NAME: &str = "trace-report";
/// Schema version embedded in the JSON island.
pub(crate) const HTML_SCHEMA_VERSION: u64 = 2;

const STYLE: &str = "\
body{font-family:ui-monospace,Menlo,Consolas,monospace;margin:2rem auto;max-width:70rem;\
padding:0 1rem;color:#1a1a2e;background:#fafaf7}\
h1{font-size:1.3rem;border-bottom:2px solid #1a1a2e;padding-bottom:.3rem}\
h2{font-size:1.05rem;margin-top:1.6rem}\
table{border-collapse:collapse;margin:.5rem 0}\
th,td{border:1px solid #b5b5ad;padding:.2rem .55rem;text-align:right}\
th{background:#ecece4;text-align:center}\
td.name{text-align:left}\
tr.flagged td{background:#ffd9d9;font-weight:bold}\
pre{background:#1a1a2e;color:#e8e8df;padding:.7rem;overflow-x:auto;line-height:1.25}\
details{margin-left:1rem;border-left:1px dotted #b5b5ad;padding-left:.5rem}\
summary{cursor:pointer}\
.meta{color:#55555e}\
.regions{color:#55555e;margin:.1rem 0 .1rem 1.2rem;padding:0;list-style:none}";

/// Renders the model as a single self-contained HTML document.
pub fn render_html(model: &ReportModel) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str("<title>trace report: ");
    escape_html_into(&model.trace_name, &mut out);
    out.push_str("</title>\n<style>");
    out.push_str(STYLE);
    out.push_str("</style>\n</head>\n<body>\n");

    out.push_str("<h1>trace report: ");
    escape_html_into(&model.trace_name, &mut out);
    out.push_str("</h1>\n<p class=\"meta\">method ");
    escape_html_into(&model.method_label, &mut out);
    out.push_str(&format!(
        " &middot; {} ranks &middot; {} stored / {} execs &middot; degree of matching {}</p>\n",
        model.rank_count,
        model.total_stored,
        model.total_execs,
        fmt_f64(model.degree_of_matching)
    ));

    summary_section(model, &mut out);
    divergence_section(model, &mut out);
    trie_section(model, &mut out);
    severity_section(model, &mut out);
    pipeline_section(model, &mut out);

    out.push_str("<script type=\"application/json\" id=\"report-data\">");
    out.push_str(&embedded_json(model));
    out.push_str("</script>\n</body>\n</html>\n");
    out
}

fn summary_section(model: &ReportModel, out: &mut String) {
    out.push_str("<section id=\"summary\">\n<h2>Per-rank reduction</h2>\n<table>\n");
    out.push_str(
        "<tr><th>rank</th><th>stored</th><th>execs</th><th>matches</th><th>degree</th></tr>\n",
    );
    for rank in &model.ranks {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            rank.rank,
            rank.stored,
            rank.execs,
            rank.matches,
            fmt_f64(rank.degree_of_matching)
        ));
    }
    out.push_str("</table>\n");
    if let Some(full) = &model.full {
        out.push_str("<h2>The paper's four criteria</h2>\n<ul id=\"criteria\">\n");
        for line in full.criteria_lines() {
            out.push_str(&format!("<li>{}</li>\n", escape_html(&line)));
        }
        out.push_str("</ul>\n");
    }
    out.push_str("</section>\n");
}

fn divergence_section(model: &ReportModel, out: &mut String) {
    let divergence = &model.divergence;
    out.push_str("<section id=\"divergence\">\n<h2>Per-rank divergence</h2>\n");
    out.push_str(&format!(
        "<p class=\"meta\">method {} &middot; threshold {} &middot; {} shared segment keys</p>\n",
        escape_html(&divergence.method_label),
        fmt_f64(divergence.threshold),
        divergence.shared_keys
    ));
    out.push_str("<table>\n<tr><th>rank</th><th>keys</th><th>max score</th>");
    out.push_str("<th>worst context</th><th>kernel misses</th><th>flagged</th></tr>\n");
    for row in &divergence.ranks {
        let class = if row.flagged {
            " class=\"flagged\""
        } else {
            ""
        };
        out.push_str(&format!(
            "<tr{}><td>{}</td><td>{}</td><td>{}</td><td class=\"name\">{}</td><td>{}</td><td>{}</td></tr>\n",
            class,
            row.rank,
            row.keys_compared,
            fmt_f64(row.max_score),
            escape_html(row.worst_context.as_deref().unwrap_or("-")),
            row.kernel_mismatches,
            if row.flagged { "YES" } else { "no" }
        ));
    }
    out.push_str("</table>\n");
    let flagged = divergence.divergent_ranks();
    if flagged.is_empty() {
        out.push_str("<p id=\"divergent-ranks\">divergent ranks: none</p>\n");
    } else {
        let list: Vec<String> = flagged.iter().map(u32::to_string).collect();
        out.push_str(&format!(
            "<p id=\"divergent-ranks\">divergent ranks: {}</p>\n",
            list.join(", ")
        ));
    }
    out.push_str("</section>\n");
}

fn trie_section(model: &ReportModel, out: &mut String) {
    out.push_str("<section id=\"trie\">\n<h2>Region trie</h2>\n");
    trie_children(&model.trie.root, model.trie.total_ns, 0, out);
    out.push_str("</section>\n");
}

fn trie_children(node: &TrieNode, total_ns: u64, depth: usize, out: &mut String) {
    for (component, child) in &node.children {
        let percent = if total_ns > 0 {
            child.inclusive_ns as f64 * 100.0 / total_ns as f64
        } else {
            0.0
        };
        let open = if depth < 2 { " open" } else { "" };
        out.push_str(&format!(
            "<details{}><summary>{} &mdash; {} ms ({}%, {} execs)</summary>\n",
            open,
            escape_html(component),
            fmt_f64(child.inclusive_ns as f64 / 1e6),
            fmt_f64(percent),
            child.exec_count
        ));
        if !child.regions.is_empty() {
            out.push_str("<ul class=\"regions\">\n");
            for (region, stat) in &child.regions {
                out.push_str(&format!(
                    "<li>[{}] {} ms, {} calls, wait {} ms</li>\n",
                    escape_html(region),
                    fmt_f64(stat.time_ns as f64 / 1e6),
                    stat.calls,
                    fmt_f64(stat.wait_ms)
                ));
            }
            out.push_str("</ul>\n");
        }
        trie_children(child, total_ns, depth + 1, out);
        out.push_str("</details>\n");
    }
}

fn severity_section(model: &ReportModel, out: &mut String) {
    out.push_str("<section id=\"severity\">\n<h2>Severity chart</h2>\n");
    if let Some(full) = &model.full {
        out.push_str("<p>full trace</p>\n<pre>");
        escape_html_into(&full.severity_chart, out);
        out.push_str("</pre>\n<p>reconstructed trace</p>\n");
    }
    out.push_str("<pre>");
    escape_html_into(&model.severity_chart, out);
    out.push_str("</pre>\n");
    if model.significant_waits.is_empty() {
        out.push_str("<p>significant wait states: none</p>\n");
    } else {
        out.push_str("<ul>\n");
        for wait in &model.significant_waits {
            out.push_str(&format!(
                "<li>{} in {}: {} ms</li>\n",
                wait.metric,
                escape_html(&wait.region),
                fmt_f64(wait.total_ms)
            ));
        }
        out.push_str("</ul>\n");
    }
    out.push_str("</section>\n");
}

fn pipeline_section(model: &ReportModel, out: &mut String) {
    let Some(pipeline) = &model.pipeline else {
        return;
    };
    out.push_str("<section id=\"pipeline\">\n<h2>Pipeline metrics</h2>\n<table>\n");
    out.push_str("<tr><th>stage</th><th>spans</th><th>total ms</th><th>max ms</th></tr>\n");
    for stage in &pipeline.stages {
        out.push_str(&format!(
            "<tr><td class=\"name\">{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            stage.stage,
            stage.spans,
            fmt_f64(stage.total_ns as f64 / 1e6),
            fmt_f64(stage.max_ns as f64 / 1e6)
        ));
    }
    out.push_str("</table>\n<table>\n<tr><th>counter</th><th>value</th></tr>\n");
    for (name, value) in &pipeline.counters {
        out.push_str(&format!(
            "<tr><td class=\"name\">{}</td><td>{}</td></tr>\n",
            escape_html(name),
            value
        ));
    }
    out.push_str("</table>\n</section>\n");
}

/// Serialises the model through the canonical JSON writer and hardens it
/// for inline embedding (`<` escaped so `</script>` cannot occur).
fn embedded_json(model: &ReportModel) -> String {
    let ranks = model
        .ranks
        .iter()
        .map(|rank| {
            JsonValue::Obj(vec![
                ("rank".to_string(), JsonValue::UInt(u64::from(rank.rank))),
                ("stored".to_string(), JsonValue::UInt(rank.stored as u64)),
                ("execs".to_string(), JsonValue::UInt(rank.execs as u64)),
                ("matches".to_string(), JsonValue::UInt(rank.matches as u64)),
                (
                    "degree".to_string(),
                    JsonValue::Str(fmt_f64(rank.degree_of_matching)),
                ),
            ])
        })
        .collect();
    let divergence_rows = model
        .divergence
        .ranks
        .iter()
        .map(|row| {
            JsonValue::Obj(vec![
                ("rank".to_string(), JsonValue::UInt(u64::from(row.rank))),
                (
                    "keys".to_string(),
                    JsonValue::UInt(row.keys_compared as u64),
                ),
                (
                    "max_score".to_string(),
                    JsonValue::Str(fmt_f64(row.max_score)),
                ),
                (
                    "worst_context".to_string(),
                    match &row.worst_context {
                        Some(context) => JsonValue::Str(context.clone()),
                        None => JsonValue::Null,
                    },
                ),
                (
                    "kernel_mismatches".to_string(),
                    JsonValue::UInt(row.kernel_mismatches as u64),
                ),
                ("flagged".to_string(), JsonValue::Bool(row.flagged)),
            ])
        })
        .collect();
    let mut fields = vec![
        (
            "schema".to_string(),
            JsonValue::Str(HTML_SCHEMA_NAME.to_string()),
        ),
        ("version".to_string(), JsonValue::UInt(HTML_SCHEMA_VERSION)),
        (
            "trace".to_string(),
            JsonValue::Str(model.trace_name.clone()),
        ),
        (
            "method".to_string(),
            JsonValue::Str(model.method_label.clone()),
        ),
        (
            "ranks".to_string(),
            JsonValue::UInt(model.rank_count as u64),
        ),
        (
            "stored".to_string(),
            JsonValue::UInt(model.total_stored as u64),
        ),
        (
            "execs".to_string(),
            JsonValue::UInt(model.total_execs as u64),
        ),
        (
            "degree_of_matching".to_string(),
            JsonValue::Str(fmt_f64(model.degree_of_matching)),
        ),
        ("per_rank".to_string(), JsonValue::Arr(ranks)),
        (
            "divergence".to_string(),
            JsonValue::Obj(vec![
                (
                    "threshold".to_string(),
                    JsonValue::Str(fmt_f64(model.divergence.threshold)),
                ),
                (
                    "shared_keys".to_string(),
                    JsonValue::UInt(model.divergence.shared_keys as u64),
                ),
                ("per_rank".to_string(), JsonValue::Arr(divergence_rows)),
            ]),
        ),
    ];
    if let Some(full) = &model.full {
        let lines = full.discrepancies.iter().map(discrepancy_line);
        let mut criteria = full.criteria.json_fields();
        let discrepancies = JsonValue::Arr(lines.map(JsonValue::Str).collect());
        criteria.push(("discrepancies".to_string(), discrepancies));
        fields.push(("criteria".to_string(), JsonValue::Obj(criteria)));
    }
    if let Some(pipeline) = &model.pipeline {
        fields.push((
            "pipeline".to_string(),
            JsonValue::Obj(vec![
                (
                    "counters".to_string(),
                    JsonValue::Obj(
                        pipeline
                            .counters
                            .iter()
                            .map(|(name, value)| (name.clone(), JsonValue::UInt(*value)))
                            .collect(),
                    ),
                ),
                (
                    "stages".to_string(),
                    JsonValue::Arr(
                        pipeline
                            .stages
                            .iter()
                            .map(|stage| {
                                JsonValue::Obj(vec![
                                    ("stage".to_string(), JsonValue::Str(stage.stage.to_string())),
                                    ("spans".to_string(), JsonValue::UInt(stage.spans)),
                                    ("total_ns".to_string(), JsonValue::UInt(stage.total_ns)),
                                    ("max_ns".to_string(), JsonValue::UInt(stage.max_ns)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    JsonValue::Obj(fields).render().replace('<', "\\u003c")
}

/// HTML-escapes `s` into `out`.
fn escape_html_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// HTML-escapes `s` into a fresh string.
fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_html_into(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_markup_characters() {
        assert_eq!(escape_html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
