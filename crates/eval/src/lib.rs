#![forbid(unsafe_code)]
//! Evaluation framework: the paper's criteria and the table of its numbers.
//!
//! Section 4.3 of the paper defines four evaluation criteria: percentage
//! of full trace file size, degree of matching, approximation distance
//! (90th-percentile time-stamp error), and retention of performance trends
//! (via the `trace-analysis` crate).  One function computes all four:
//!
//! * [`evaluation`] — [`Original::evaluate`]: an original trace and one of
//!   its reductions in, one [`Criteria`] record out, or a typed
//!   [`Mismatch`] when the reduction is not of that trace.
//! * [`criteria`] — the [`Criteria`] record, the paper's units derived from
//!   it, and criterion 3 over two full traces.
//! * [`results`] — every method over its threshold grid on all 18
//!   workloads (Sections 5.1 and 5.2: Figures 5, 6 and 9–19, Tables
//!   1–18) as one canonical integer table, committed as
//!   `PAPER_RESULTS.json` at the repository root.
//! * [`report`] — plain-text/CSV table rendering used by `trace_report`.
//!
//! The Figure 7/8 trend charts are `trace-tools report --full` once per
//! method: it prints the full trace's severity chart next to the
//! reconstruction's.

#![warn(missing_docs)]

pub mod criteria;
pub mod evaluation;
pub mod report;
pub mod results;

pub use criteria::{approximation_distance_us, Criteria};
pub use evaluation::{Evaluation, Mismatch, Original};
