//! The one evaluator: an original trace and one of its reductions in, the
//! four criteria out.

use std::fmt;

use trace_analysis::{compare_diagnoses, diagnose, ComparisonConfig, Diagnosis, Discrepancy};
use trace_model::codec::{encode_app_trace, encode_reduced_trace};
use trace_model::{AppTrace, ReducedAppTrace, ReducedRankTrace};

use crate::criteria::{approximation_distance_us, Criteria};

/// The original trace's side of the evaluation: its v1 length and its
/// diagnosis, computed once however many reductions are evaluated against
/// it.
#[derive(Clone, Debug)]
pub struct Original<'a> {
    trace: &'a AppTrace,
    full_bytes: u64,
    diagnosis: Diagnosis,
}

/// One reduction evaluated against its original.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The four criteria: one row of `PAPER_RESULTS.json`.
    pub criteria: Criteria,
    /// Why criterion 4 failed, when it did: every trend check that did not
    /// pass.
    pub discrepancies: Vec<Discrepancy>,
    /// The diagnosis of the reconstruction, which criterion 4 compared
    /// against the original's.
    pub diagnosis: Diagnosis,
}

/// The first way a reduced trace is not a reduction of the original it was
/// paired with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// The traces name different programs: (original, reduced).
    Name(String, String),
    /// The traces have different rank counts: (original, reduced).
    Ranks(usize, usize),
    /// A rank reconstructs a different number of events: (rank, original,
    /// reduced).
    Events(usize, usize, usize),
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the reduced trace is not a reduction of this trace: ")?;
        match self {
            Mismatch::Name(original, reduced) => {
                write!(f, "it reduces {reduced:?}, not {original:?}")
            }
            Mismatch::Ranks(original, reduced) => {
                write!(f, "it has {reduced} ranks, not {original}")
            }
            Mismatch::Events(rank, original, reduced) => {
                write!(f, "its rank {rank} has {reduced} events, not {original}")
            }
        }
    }
}

impl std::error::Error for Mismatch {}

impl<'a> Original<'a> {
    /// Measures and diagnoses the original trace.
    pub fn new(trace: &'a AppTrace) -> Self {
        Original {
            trace,
            full_bytes: encode_app_trace(trace).len() as u64,
            diagnosis: diagnose(trace),
        }
    }

    /// The original's v1 encoding, in bytes (criterion 1's denominator).
    pub fn full_bytes(&self) -> u64 {
        self.full_bytes
    }

    /// The original's wait-state diagnosis.
    pub fn diagnosis(&self) -> &Diagnosis {
        &self.diagnosis
    }

    /// Evaluates `reduced` against this original under all four criteria of
    /// Section 4.3: it is reconstructed and diagnosed once.  A reduced trace
    /// of another program, rank count or event count is refused, naming the
    /// first difference.
    pub fn evaluate(&self, reduced: &ReducedAppTrace) -> Result<Evaluation, Mismatch> {
        let full = self.trace;
        if reduced.name != full.name {
            return Err(Mismatch::Name(full.name.clone(), reduced.name.clone()));
        }
        if reduced.rank_count() != full.rank_count() {
            return Err(Mismatch::Ranks(full.rank_count(), reduced.rank_count()));
        }
        let approx = reduced.reconstruct();
        for (rank, (a, b)) in full.ranks.iter().zip(&approx.ranks).enumerate() {
            if a.event_count() != b.event_count() {
                return Err(Mismatch::Events(rank, a.event_count(), b.event_count()));
            }
        }
        let diagnosis = diagnose(&approx);
        let trend = compare_diagnoses(&self.diagnosis, &diagnosis, &ComparisonConfig::default());
        let sum =
            |count: fn(&ReducedRankTrace) -> usize| reduced.ranks.iter().map(count).sum::<usize>();
        let criteria = Criteria {
            full_bytes: self.full_bytes,
            reduced_bytes: encode_reduced_trace(reduced).len() as u64,
            stored: sum(ReducedRankTrace::stored_count) as u64,
            execs: sum(ReducedRankTrace::exec_count) as u64,
            matches: sum(ReducedRankTrace::match_count) as u64,
            possible: sum(ReducedRankTrace::possible_match_count) as u64,
            // Exact for integer-nanosecond time stamps below 2^53 ns.
            approx_p90_ns: (approximation_distance_us(full, &approx) * 1_000.0).round() as u64,
            retained: trend.retained,
            trend_score_ppm: (trend.score * 1e6).round() as u64,
        };
        Ok(Evaluation {
            criteria,
            discrepancies: trend.discrepancies,
            diagnosis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_reduce::{Method, MethodConfig, Reducer};
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    fn generate(kind: WorkloadKind) -> AppTrace {
        Workload::new(kind, SizePreset::Tiny).generate()
    }

    #[test]
    fn evaluation_populates_every_field_consistently() {
        let full = generate(WorkloadKind::EarlyGather);
        let reduced =
            Reducer::new(MethodConfig::with_default_threshold(Method::AvgWave)).reduce_app(&full);
        let original = Original::new(&full);
        let eval = original.evaluate(&reduced).unwrap();
        let c = eval.criteria;
        assert_eq!(c.full_bytes, encode_app_trace(&full).len() as u64);
        assert_eq!(c.reduced_bytes, encode_reduced_trace(&reduced).len() as u64);
        assert!(c.full_bytes > c.reduced_bytes);
        assert_eq!(c.stored, reduced.total_stored() as u64);
        assert_eq!(c.execs, reduced.total_execs() as u64);
        assert_eq!(c.matches, c.execs - c.stored);
        assert!(c.matches <= c.possible);
        assert_eq!(c.degree_of_matching(), reduced.degree_of_matching());
        assert!(c.trend_score_ppm > 0 && c.trend_score_ppm <= 1_000_000);
        assert_eq!(c.retained, eval.discrepancies.is_empty());
        assert_eq!(eval.diagnosis, diagnose(&reduced.reconstruct()));
        assert_eq!(original.diagnosis(), &diagnose(&full));
    }

    #[test]
    fn a_reduction_of_another_trace_is_refused() {
        let late_sender = generate(WorkloadKind::LateSender);
        let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&late_sender);
        let early_gather = generate(WorkloadKind::EarlyGather);
        let err = Original::new(&early_gather).evaluate(&reduced).unwrap_err();
        let names = ("early_gather".to_string(), "late_sender".to_string());
        assert_eq!(err, Mismatch::Name(names.0, names.1));
        assert!(err
            .to_string()
            .ends_with("reduces \"late_sender\", not \"early_gather\""));

        // The same program with a rank fewer, then with one event fewer.
        let ranks = late_sender.rank_count();
        let mut fewer_ranks = late_sender.clone();
        fewer_ranks.ranks.pop();
        let err = Original::new(&fewer_ranks).evaluate(&reduced).unwrap_err();
        assert_eq!(err, Mismatch::Ranks(ranks - 1, ranks));
        let mut fewer_events = late_sender.clone();
        let records = &mut fewer_events.ranks[ranks - 1].records;
        let event = records.iter().rposition(|r| r.as_event().is_some());
        records.remove(event.unwrap());
        let events = late_sender.ranks[ranks - 1].event_count();
        let err = Original::new(&fewer_events).evaluate(&reduced).unwrap_err();
        assert_eq!(err, Mismatch::Events(ranks - 1, events - 1, events));
    }
}
