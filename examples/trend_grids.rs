//! KOJAK-style performance-trend charts (Figures 4, 7 and 8): the diagnosis
//! of the full trace followed by the diagnosis of every method's
//! reconstructed trace, for `dyn_load_balance` (Figure 7) and `1to1r_1024`
//! (Figure 8).
//!
//! Run with:
//! ```text
//! cargo run --release --example trend_grids                 # both figures
//! cargo run --release --example trend_grids -- sweep3d_8p   # any workload by name
//! ```

// Examples print their results to stdout by design.
#![allow(clippy::print_stdout)]

use trace_reduction::eval::comparative::trend_grids;
use trace_reduction::sim::{SizePreset, Workload, WorkloadKind};

/// The workload size the charts are drawn at.
const PRESET: SizePreset = SizePreset::Small;

fn main() {
    let requested: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<String> = if requested.is_empty() {
        vec!["dyn_load_balance".into(), "1to1r_1024".into()]
    } else {
        requested
    };

    for name in names {
        let Some(kind) = WorkloadKind::by_name(&name) else {
            eprintln!("unknown workload '{name}'; known workloads:");
            for k in WorkloadKind::all_paper() {
                eprintln!("  {}", k.name());
            }
            std::process::exit(1);
        };
        let full = Workload::new(kind, PRESET).generate();
        println!("{}", trend_grids(&full));
    }
}
