//! The performance metrics (inefficiency patterns) the analysis reports.

use std::fmt;

/// A performance metric reported by the analysis, following KOJAK/EXPERT's
/// pattern hierarchy restricted to the patterns exercised by the paper's
/// benchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum MetricKind {
    /// Total (inclusive) execution time of a code location.
    ExecutionTime,
    /// Blocking receive started before the matching send ("Late Sender").
    LateSender,
    /// Synchronous send started before the matching receive
    /// ("Late Receiver").
    LateReceiver,
    /// Root of an N→1 collective arrived before its senders
    /// ("Early Reduce" / "Early Gather").
    EarlyGatherReduce,
    /// Non-root ranks of a 1→N collective arrived before the root
    /// ("Late Broadcast" / "Late Scatter").
    LateBroadcastScatter,
    /// Waiting time at an explicit barrier ("Wait at Barrier").
    WaitAtBarrier,
    /// Waiting time at an N×N collective such as all-to-all or all-reduce
    /// ("Wait at N×N").
    WaitAtNxN,
}

impl MetricKind {
    /// All metrics, in report order.
    pub const ALL: [MetricKind; 7] = [
        MetricKind::ExecutionTime,
        MetricKind::LateSender,
        MetricKind::LateReceiver,
        MetricKind::EarlyGatherReduce,
        MetricKind::LateBroadcastScatter,
        MetricKind::WaitAtBarrier,
        MetricKind::WaitAtNxN,
    ];

    /// Full display name (as KOJAK's CUBE shows it).
    pub(crate) fn display_name(self) -> &'static str {
        match self {
            MetricKind::ExecutionTime => "Execution Time",
            MetricKind::LateSender => "Late Sender",
            MetricKind::LateReceiver => "Late Receiver",
            MetricKind::EarlyGatherReduce => "Early Gather/Reduce",
            MetricKind::LateBroadcastScatter => "Late Broadcast/Scatter",
            MetricKind::WaitAtBarrier => "Wait at Barrier",
            MetricKind::WaitAtNxN => "Wait at N x N",
        }
    }

    /// Short abbreviation used in the Figure 4/7/8 style charts
    /// (e.g. `NN` for "Wait at N x N").
    pub fn abbreviation(self) -> &'static str {
        match self {
            MetricKind::ExecutionTime => "T",
            MetricKind::LateSender => "LS",
            MetricKind::LateReceiver => "LR",
            MetricKind::EarlyGatherReduce => "N1",
            MetricKind::LateBroadcastScatter => "1N",
            MetricKind::WaitAtBarrier => "BR",
            MetricKind::WaitAtNxN => "NN",
        }
    }

    /// True for wait-state metrics (everything except execution time).
    pub fn is_wait_state(self) -> bool {
        self != MetricKind::ExecutionTime
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbreviations_are_unique() {
        let mut abbrs: Vec<_> = MetricKind::ALL.iter().map(|m| m.abbreviation()).collect();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), MetricKind::ALL.len());
    }

    #[test]
    fn wait_state_classification() {
        assert!(!MetricKind::ExecutionTime.is_wait_state());
        assert!(MetricKind::WaitAtNxN.is_wait_state());
        assert_eq!(MetricKind::WaitAtNxN.abbreviation(), "NN");
        assert_eq!(format!("{}", MetricKind::LateSender), "Late Sender");
    }
}
