#![forbid(unsafe_code)]
//! Evaluation framework: the paper's criteria and the table of its numbers.
//!
//! Section 4.3 of the paper defines four evaluation criteria; this crate
//! implements them and the experiments built on top of them:
//!
//! * [`criteria`] — percentage of full trace file size, degree of matching,
//!   approximation distance (90th-percentile time-stamp error), and
//!   retention of performance trends (via the `trace-analysis` crate).
//! * [`evaluation`] — evaluates one (workload, method, threshold)
//!   combination and produces a [`evaluation::MethodEvaluation`] record.
//! * [`results`] — every method over its threshold grid on all 18
//!   workloads (Sections 5.1 and 5.2: Figures 5, 6 and 9–19, Tables
//!   1–18) as one canonical integer table, committed as
//!   `PAPER_RESULTS.json` at the repository root.
//! * [`comparative`] — the Figure 7/8 performance-trend charts.
//! * [`report`] — plain-text/CSV table rendering used by `trace_report`.

#![warn(missing_docs)]

pub mod comparative;
pub mod criteria;
pub mod evaluation;
pub mod report;
pub mod results;

pub use criteria::{approximation_distance_us, file_size_percent, trends_retained};
pub use evaluation::{evaluate_method, MethodEvaluation};
