//! The severity matrix produced by the analysis and its CUBE-like rendering.

use std::collections::BTreeMap;

use crate::metrics::MetricKind;

/// Severities of one `(metric, code location)` pair, one value per rank, in
/// milliseconds.  Values may be negative when the analysed trace's time
/// stamps are skewed (which is how the paper detects broken reductions).
#[derive(Clone, Debug, PartialEq)]
pub struct SeverityEntry {
    /// The performance metric.
    pub metric: MetricKind,
    /// The code location (region / function name).
    pub region: String,
    /// Severity per rank in milliseconds.
    pub per_rank_ms: Vec<f64>,
}

impl SeverityEntry {
    /// Total severity over all ranks (milliseconds; may be negative).
    pub fn total_ms(&self) -> f64 {
        self.per_rank_ms.iter().sum()
    }

    /// Largest single-rank magnitude.
    pub(crate) fn max_abs_ms(&self) -> f64 {
        self.per_rank_ms.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }

    /// The per-rank severities normalized so the largest magnitude is 1
    /// (all zeros stay zero).  Used when comparing rank *patterns*.
    pub(crate) fn normalized(&self) -> Vec<f64> {
        let max = self.max_abs_ms();
        if max > 0.0 {
            self.per_rank_ms.iter().map(|v| v / max).collect()
        } else {
            vec![0.0; self.per_rank_ms.len()]
        }
    }
}

/// The full diagnosis of one trace: a severity matrix over
/// `(metric, code location, rank)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Diagnosis {
    /// Name of the analysed program / trace.
    pub trace_name: String,
    /// Number of ranks in the analysed trace.
    pub ranks: usize,
    /// All severity entries, keyed by `(metric, region)`.
    pub entries: BTreeMap<(MetricKind, String), SeverityEntry>,
}

impl Diagnosis {
    /// Creates an empty diagnosis.
    pub fn new(trace_name: impl Into<String>, ranks: usize) -> Self {
        Diagnosis {
            trace_name: trace_name.into(),
            ranks,
            entries: BTreeMap::new(),
        }
    }

    /// Adds `value_ms` to the severity of `(metric, region)` for `rank`.
    pub fn add(&mut self, metric: MetricKind, region: &str, rank: usize, value_ms: f64) {
        let entry = self
            .entries
            .entry((metric, region.to_owned()))
            .or_insert_with(|| SeverityEntry {
                metric,
                region: region.to_owned(),
                per_rank_ms: vec![0.0; self.ranks],
            });
        if rank < entry.per_rank_ms.len() {
            entry.per_rank_ms[rank] += value_ms;
        }
    }

    /// Looks up the entry for `(metric, region)`.
    pub fn entry(&self, metric: MetricKind, region: &str) -> Option<&SeverityEntry> {
        self.entries.get(&(metric, region.to_owned()))
    }

    /// Severity of `(metric, region)` for one rank (0 when absent).
    pub fn severity(&self, metric: MetricKind, region: &str, rank: usize) -> f64 {
        self.entry(metric, region)
            .and_then(|e| e.per_rank_ms.get(rank))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total severity of a metric summed over regions and ranks.
    pub(crate) fn metric_total_ms(&self, metric: MetricKind) -> f64 {
        self.entries
            .values()
            .filter(|e| e.metric == metric)
            .map(SeverityEntry::total_ms)
            .sum()
    }

    /// Total execution time over all ranks and regions (the denominator used
    /// when judging whether a wait-state severity is significant).
    pub(crate) fn total_time_ms(&self) -> f64 {
        self.metric_total_ms(MetricKind::ExecutionTime)
    }

    /// All wait-state entries whose total magnitude exceeds `fraction` of
    /// the total execution time, largest first.
    pub fn significant_wait_states(&self, fraction: f64) -> Vec<&SeverityEntry> {
        let budget = self.total_time_ms() * fraction;
        let mut entries: Vec<&SeverityEntry> = self
            .entries
            .values()
            .filter(|e| e.metric.is_wait_state() && e.total_ms().abs() >= budget)
            .collect();
        entries.sort_by(|a, b| b.total_ms().abs().total_cmp(&a.total_ms().abs()));
        entries
    }

    /// Renders the diagnosis as a Figure 7/8 style text chart: one row per
    /// `(metric, region)` with a severity bucket character per rank
    /// (`.` ≈ 0, then `1`–`4` for quartiles of the largest severity,
    /// `-` for negative values).
    pub fn render_chart(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} ({} ranks)\n", self.trace_name, self.ranks));
        let global_max = self
            .entries
            .values()
            .filter(|e| e.metric.is_wait_state())
            .map(SeverityEntry::max_abs_ms)
            .fold(0.0, f64::max)
            .max(1e-9);
        for entry in self.entries.values() {
            if !entry.metric.is_wait_state() && entry.region != "do_work" {
                continue;
            }
            let scale = if entry.metric.is_wait_state() {
                global_max
            } else {
                entry.max_abs_ms().max(1e-9)
            };
            out.push_str(&format!(
                "{:>3} {:<22} ",
                entry.metric.abbreviation(),
                entry.region
            ));
            for &v in &entry.per_rank_ms {
                let c = if v < -0.01 * scale {
                    '-'
                } else if v.abs() <= 0.02 * scale {
                    '.'
                } else {
                    let bucket = (v / scale * 4.0).ceil().clamp(1.0, 4.0) as u8;
                    char::from(b'0' + bucket)
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnosis {
        let mut d = Diagnosis::new("sample", 4);
        d.add(MetricKind::ExecutionTime, "do_work", 0, 10.0);
        d.add(MetricKind::ExecutionTime, "do_work", 3, 30.0);
        d.add(MetricKind::WaitAtNxN, "MPI_Alltoall", 0, 8.0);
        d.add(MetricKind::WaitAtNxN, "MPI_Alltoall", 1, 4.0);
        d.add(MetricKind::WaitAtNxN, "MPI_Alltoall", 0, 2.0);
        d.add(MetricKind::LateSender, "MPI_Recv", 2, -1.0);
        d
    }

    #[test]
    fn add_accumulates_per_rank() {
        let d = sample();
        assert_eq!(d.severity(MetricKind::WaitAtNxN, "MPI_Alltoall", 0), 10.0);
        assert_eq!(d.severity(MetricKind::WaitAtNxN, "MPI_Alltoall", 1), 4.0);
        assert_eq!(d.severity(MetricKind::WaitAtNxN, "MPI_Alltoall", 2), 0.0);
        assert_eq!(d.severity(MetricKind::WaitAtNxN, "MPI_Barrier", 0), 0.0);
    }

    #[test]
    fn totals_and_significance() {
        let d = sample();
        assert_eq!(d.total_time_ms(), 40.0);
        assert_eq!(d.metric_total_ms(MetricKind::WaitAtNxN), 14.0);
        let significant = d.significant_wait_states(0.1);
        assert_eq!(significant.len(), 1);
        assert_eq!(significant[0].region, "MPI_Alltoall");
        // Lower threshold also picks up the (negative) late-sender entry.
        let all = d.significant_wait_states(0.01);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn normalization_handles_zero_and_scales_to_one() {
        let d = sample();
        let entry = d.entry(MetricKind::WaitAtNxN, "MPI_Alltoall").unwrap();
        let norm = entry.normalized();
        assert_eq!(norm[0], 1.0);
        assert_eq!(norm[1], 0.4);
        let zero = SeverityEntry {
            metric: MetricKind::WaitAtBarrier,
            region: "x".into(),
            per_rank_ms: vec![0.0; 3],
        };
        assert_eq!(zero.normalized(), vec![0.0; 3]);
    }

    #[test]
    fn chart_rendering_marks_negative_and_zero() {
        let d = sample();
        let chart = d.render_chart();
        assert!(chart.contains("NN"), "{chart}");
        assert!(chart.contains("MPI_Alltoall"));
        assert!(
            chart.contains('-'),
            "negative severities must be visible: {chart}"
        );
        assert!(
            chart.contains('.'),
            "zero severities must be visible: {chart}"
        );
    }
}
