#![forbid(unsafe_code)]
//! EXPERT/CUBE-style automatic performance analysis.
//!
//! The paper evaluates *retention of performance trends* by feeding both the
//! full trace and the trace reconstructed from a reduced trace into the
//! KOJAK tool set (EXPERT analysis + CUBE visualization) and checking that
//! an analyst would reach the same conclusions.  This crate plays the role
//! of KOJAK:
//!
//! * [`metrics::MetricKind`] — the wait-state patterns relevant to the
//!   paper's benchmarks (Late Sender, Late Receiver, Early Gather/Reduce,
//!   Late Broadcast/Scatter, Wait at Barrier, Wait at N×N) plus plain
//!   execution time.
//! * [`mod@diagnose`] — computes a per-(metric, code location, rank) severity
//!   matrix from event time stamps alone, by matching point-to-point
//!   messages and collective instances across ranks.  Because severities
//!   are derived from time stamps (not from any simulator ground truth),
//!   time-stamp error introduced by a reduction method shows up exactly the
//!   way the paper describes — including *negative* severities when time
//!   stamps are skewed.
//! * [`severity`] — the severity grid (CUBE-like view) and its text
//!   rendering, mirroring the charts of Figures 4, 7 and 8.
//! * [`compare`] — the trend-retention test: given the diagnosis of the
//!   full trace and of a reconstructed trace, decide whether the reduced
//!   trace still supports the same performance conclusions.

#![warn(missing_docs)]

pub mod compare;
pub mod diagnose;
pub mod metrics;
pub mod severity;

pub use compare::{compare_diagnoses, ComparisonConfig, Discrepancy, TrendComparison};
pub use diagnose::diagnose;
pub use metrics::MetricKind;
pub use severity::{Diagnosis, SeverityEntry};
