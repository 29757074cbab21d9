//! Figures 7/8 (and the Figure 4 representation) of the comparative study
//! (Section 5.2): KOJAK-style performance-trend charts for one workload, the
//! full trace against every method at its representative threshold.  The
//! study's numbers (Figures 5 and 6, the Section 5.2 rankings) are rows of
//! the committed table, [`crate::results`].

use trace_analysis::diagnose;
use trace_model::AppTrace;
use trace_reduce::{MethodConfig, Reducer};

/// Renders Figure 7/8-style trend charts for one workload: the full-trace
/// diagnosis followed by the diagnosis of each method's reconstructed trace
/// at its default threshold.
pub fn trend_grids(full: &AppTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "KOJAK-style performance trends for {} (full trace first)\n\n",
        full.name
    ));
    out.push_str("== full trace (no loss) ==\n");
    out.push_str(&diagnose(full).render_chart());
    for config in MethodConfig::all_defaults() {
        let reduced = Reducer::new(config).reduce_app(full);
        let approx = reduced.reconstruct();
        out.push_str(&format!("\n== {} ==\n", config.label()));
        out.push_str(&diagnose(&approx).render_chart());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_reduce::Method;
    use trace_sim::{SizePreset, Workload, WorkloadKind};

    #[test]
    fn trend_grids_include_full_trace_and_every_method() {
        let full = Workload::new(WorkloadKind::DynLoadBalance, SizePreset::Tiny).generate();
        let grids = trend_grids(&full);
        assert!(grids.contains("no loss"));
        for method in Method::ALL {
            assert!(grids.contains(method.name()), "missing {method}");
        }
        assert!(grids.contains("MPI_Alltoall"));
    }
}
