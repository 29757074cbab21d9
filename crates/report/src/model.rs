//! The analysis model every sink renders from.
//!
//! [`build_model`] takes the reduced trace (always), plus optionally the
//! original full trace (for the paper's four criteria, which need both
//! sides) and a [`trace_obs::RunReport`] from the run that produced the
//! reduction (for pipeline metrics).  All derived analysis — divergence,
//! region trie, severity diagnosis of the reconstruction — happens here
//! once, so the HTML, chrome and text sinks cannot disagree about the
//! numbers they show.

use trace_analysis::{diagnose, Discrepancy};
use trace_eval::report::fmt_f64;
use trace_eval::{Criteria, Mismatch, Original};
use trace_model::{AppTrace, ReducedAppTrace};
use trace_obs::{RunReport, Stage};
use trace_reduce::{Method, MethodConfig};

use crate::divergence::{self, DivergenceReport};
use crate::trie::RegionTrie;

/// Tunables for model construction.
#[derive(Clone, Debug)]
pub struct ReportOptions {
    /// Similarity method used for cross-rank kernel verdicts.
    pub method: MethodConfig,
    /// Divergence score above which a rank is flagged.
    pub divergence_threshold: f64,
    /// Fraction of total time a wait state must exceed to be listed as
    /// significant (passed to `Diagnosis::significant_wait_states`).
    pub wait_fraction: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            method: MethodConfig::with_default_threshold(Method::RelDiff),
            divergence_threshold: 0.25,
            wait_fraction: 0.05,
        }
    }
}

/// Reduction statistics for one rank.
#[derive(Clone, Debug, PartialEq)]
pub struct RankSummary {
    /// The rank.
    pub rank: u32,
    /// Stored representative segments.
    pub stored: usize,
    /// Segment executions in the log.
    pub execs: usize,
    /// Executions that matched an existing representative.
    pub matches: usize,
    /// Degree of matching (Section 4.3.2).
    pub degree_of_matching: f64,
}

/// What the original trace adds: the reduction judged against it.
#[derive(Clone, Debug, PartialEq)]
pub struct FullComparison {
    /// The paper's four criteria ([`Original::evaluate`]).
    pub criteria: Criteria,
    /// Why criterion 4 failed, when it did.
    pub discrepancies: Vec<Discrepancy>,
    /// ASCII severity chart of the full trace, shown next to the
    /// reconstruction's.
    pub severity_chart: String,
}

impl FullComparison {
    /// The four criteria as report lines, in the paper's units, then one
    /// line per discrepancy.  Both the text and the HTML sink print these.
    pub(crate) fn criteria_lines(&self) -> Vec<String> {
        let c = &self.criteria;
        let (bytes, full, ns) = (c.reduced_bytes, c.full_bytes, c.approx_p90_ns);
        let pct = fmt_f64(c.file_size_percent());
        let dom = fmt_f64(c.degree_of_matching());
        let us = fmt_f64(c.approximation_distance_us());
        let score = fmt_f64(c.trend_score());
        let retained = if c.retained { "yes" } else { "NO" };
        let mut lines = vec![
            format!("file size: {pct}% of the full trace ({bytes} of {full} v1 bytes)"),
            format!(
                "degree of matching: {dom} ({} of {} possible)",
                c.matches, c.possible
            ),
            format!("approximation distance: {us} us (p90 error {ns} ns)"),
            format!("trends retained: {retained} (score {score})"),
        ];
        lines.extend(self.discrepancies.iter().map(discrepancy_line));
        lines
    }
}

/// One trend discrepancy as the sinks print it.
pub(crate) fn discrepancy_line(d: &Discrepancy) -> String {
    let metric = d.metric.abbreviation();
    format!("discrepancy: {metric} in {}: {}", d.region, d.description)
}

/// Per-stage pipeline timing from a [`RunReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage name (`parse`, `match`, …).
    pub stage: &'static str,
    /// Number of recorded spans.
    pub spans: u64,
    /// Total time across spans, in nanoseconds.
    pub total_ns: u64,
    /// Longest single span, in nanoseconds.
    pub max_ns: u64,
}

/// Pipeline metrics carried over from the observability layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineSummary {
    /// All counters, in name order.
    pub counters: Vec<(String, u64)>,
    /// Stage timings, in pipeline order; stages with no spans are omitted.
    pub stages: Vec<StageSummary>,
}

/// A significant wait state from the severity diagnosis.
#[derive(Clone, Debug, PartialEq)]
pub struct WaitState {
    /// Metric abbreviation (`LS`, `WB`, …).
    pub metric: &'static str,
    /// Region name.
    pub region: String,
    /// Total time in the state across ranks, in milliseconds.
    pub total_ms: f64,
}

/// Everything the sinks render.
#[derive(Clone, Debug)]
pub struct ReportModel {
    /// Name of the analyzed trace.
    pub trace_name: String,
    /// Label of the similarity method used for divergence verdicts.
    pub method_label: String,
    /// Number of ranks.
    pub rank_count: usize,
    /// Stored representatives across ranks.
    pub total_stored: usize,
    /// Segment executions across ranks.
    pub total_execs: usize,
    /// Application-wide degree of matching.
    pub degree_of_matching: f64,
    /// Per-rank reduction statistics.
    pub ranks: Vec<RankSummary>,
    /// Cross-rank divergence verdicts.
    pub divergence: DivergenceReport,
    /// Region/callpath trie of the reduced timeline.
    pub trie: RegionTrie,
    /// ASCII severity chart of the reconstructed trace
    /// ([`trace_analysis::Diagnosis::render_chart`]).
    pub severity_chart: String,
    /// Wait states above the significance cutoff, worst first.
    pub significant_waits: Vec<WaitState>,
    /// Present when the original trace was supplied.
    pub full: Option<FullComparison>,
    /// Present when a pipeline run report was supplied.
    pub pipeline: Option<PipelineSummary>,
}

/// Builds the analysis model for `reduced`.
///
/// `original` adds the paper's four criteria and is refused when `reduced`
/// is not a reduction of it; `run` carries the pipeline metrics of the
/// reduce that produced this trace.
pub fn build_model(
    reduced: &ReducedAppTrace,
    original: Option<&AppTrace>,
    run: Option<&RunReport>,
    options: &ReportOptions,
) -> Result<ReportModel, Mismatch> {
    // The reconstruction is rebuilt and diagnosed once: by the evaluator
    // when there is an original, here otherwise.
    let (diagnosis, full) = match original {
        Some(app) => {
            let original = Original::new(app);
            let evaluation = original.evaluate(reduced)?;
            let full = FullComparison {
                criteria: evaluation.criteria,
                discrepancies: evaluation.discrepancies,
                severity_chart: original.diagnosis().render_chart(),
            };
            (evaluation.diagnosis, Some(full))
        }
        None => (diagnose(&reduced.reconstruct()), None),
    };
    let significant_waits = diagnosis
        .significant_wait_states(options.wait_fraction)
        .into_iter()
        .map(|entry| WaitState {
            metric: entry.metric.abbreviation(),
            region: entry.region.clone(),
            total_ms: entry.total_ms(),
        })
        .collect();
    let ranks = reduced
        .ranks
        .iter()
        .map(|rank| RankSummary {
            rank: rank.rank.as_u32(),
            stored: rank.stored_count(),
            execs: rank.exec_count(),
            matches: rank.match_count(),
            degree_of_matching: rank.degree_of_matching(),
        })
        .collect();
    Ok(ReportModel {
        trace_name: reduced.name.clone(),
        method_label: options.method.label(),
        rank_count: reduced.rank_count(),
        total_stored: reduced.total_stored(),
        total_execs: reduced.total_execs(),
        degree_of_matching: reduced.degree_of_matching(),
        ranks,
        divergence: divergence::analyze(reduced, &options.method, options.divergence_threshold),
        trie: RegionTrie::build(reduced, &diagnosis),
        severity_chart: diagnosis.render_chart(),
        significant_waits,
        full,
        pipeline: run.map(pipeline_summary),
    })
}

fn pipeline_summary(run: &RunReport) -> PipelineSummary {
    let counters = run
        .counters
        .iter()
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    let stages = Stage::ALL
        .iter()
        .filter_map(|stage| {
            let snapshot = run.histograms.get(stage.histogram_name())?;
            if snapshot.count == 0 {
                return None;
            }
            Some(StageSummary {
                stage: stage.name(),
                spans: snapshot.count,
                total_ns: snapshot.sum,
                max_ns: snapshot.max,
            })
        })
        .collect();
    PipelineSummary { counters, stages }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_use_the_paper_method() {
        let options = ReportOptions::default();
        assert_eq!(options.method.method, Method::RelDiff);
        assert!(options.divergence_threshold > 0.0);
    }
}
