//! Quickstart: generate a trace, reduce it, reconstruct it, and evaluate the
//! reduction with all four criteria of the paper.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use trace_reduction::eval::Original;
use trace_reduction::reduce::{Method, Reducer};
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

fn main() {
    // 1. "Run" a message-passing program with a known performance problem:
    //    the receivers of each rank pair block in MPI_Recv because their
    //    senders are late.
    let full = Workload::new(WorkloadKind::LateSender, SizePreset::Small).generate();
    let original = Original::new(&full);
    println!(
        "full trace: {} ranks, {} events, {} bytes encoded",
        full.rank_count(),
        full.total_events(),
        original.full_bytes()
    );

    // 2. Reduce each rank's trace with the average-wavelet similarity metric
    //    at the paper's recommended threshold (0.2).
    let reduced = Reducer::with_default_threshold(Method::AvgWave).reduce_app(&full);

    // 3. Reconstruct an approximate full trace, measure its time-stamp
    //    error, and check that a performance analyst would still reach the
    //    same conclusion (a Late Sender problem at MPI_Recv on the odd
    //    ranks).
    let evaluation = original.evaluate(&reduced).expect("its own reduction");
    let c = evaluation.criteria;
    println!(
        "reduced trace: {} representative segments for {} segment executions ({} bytes, {:.1}% of full)",
        c.stored,
        c.execs,
        c.reduced_bytes,
        c.file_size_percent(),
    );
    println!("degree of matching: {:.3}", c.degree_of_matching());
    println!(
        "approximation distance (90th pct time-stamp error): {:.1} us",
        c.approximation_distance_us()
    );
    let (retained, score) = (c.retained, c.trend_score());
    println!("performance trends retained: {retained} (score {score:.2})");
    println!(
        "\nFull-trace diagnosis:\n{}",
        original.diagnosis().render_chart()
    );
    println!(
        "Reduced-trace diagnosis:\n{}",
        evaluation.diagnosis.render_chart()
    );
}
