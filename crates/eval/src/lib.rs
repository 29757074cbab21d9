#![forbid(unsafe_code)]
//! Evaluation framework: the paper's criteria and experiment drivers.
//!
//! Section 4.3 of the paper defines four evaluation criteria; this crate
//! implements them and the two studies built on top of them:
//!
//! * [`criteria`] — percentage of full trace file size, degree of matching,
//!   approximation distance (90th-percentile time-stamp error), and
//!   retention of performance trends (via the `trace-analysis` crate).
//! * [`evaluation`] — evaluates one (workload, method, threshold)
//!   combination and produces a [`evaluation::MethodEvaluation`] record.
//! * [`comparative`] — the comparative study of Section 5.2: every method at
//!   its best threshold over all 18 workloads (Figures 5–8 plus the method
//!   ranking).
//! * [`threshold`] — the threshold study of Section 5.1: every method over
//!   its threshold grid (Figures 9–19, Tables 1–18).
//! * [`report`] — plain-text/CSV table rendering used by the examples and
//!   the benchmark harness.

#![warn(missing_docs)]

pub mod comparative;
pub mod criteria;
pub mod evaluation;
pub mod report;
pub mod threshold;

pub use comparative::{comparative_study, ComparativeStudy};
pub use criteria::{approximation_distance_us, file_size_percent, trends_retained};
pub use evaluation::{evaluate_method, MethodEvaluation};
pub use threshold::{threshold_study_for_method, ThresholdPoint};
