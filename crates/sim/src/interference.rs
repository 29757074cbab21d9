//! Irregular-behaviour benchmarks: system interference.
//!
//! The paper's second benchmark family reproduces the ASCI Q system-noise
//! study of Petrini et al.: every iteration performs about 1 ms of work that
//! is identical across ranks and iterations, followed by a communication
//! step; the *only* performance problem comes from periodic operating-system
//! interference that delays individual ranks before the communication step.
//!
//! Two interference scales are simulated on 32 ranks: the interruptions a
//! 32-node machine injects (`_32`) and the aggregate interruptions a
//! 1024-process run would experience (`_1024`).  Five communication
//! patterns are exercised: N→1 (`MPI_Gather`), 1→N (`MPI_Bcast`), N→N
//! (`MPI_Barrier`), and the two 1→1 variants (receiver-blocked `1to1r`, and
//! sender-blocked `1to1s`).

use trace_model::{AppTrace, CollectiveOp, Duration};

use crate::ats::{finalize_phase, init_phase};
use crate::cluster::{Cluster, P2pMode};
use crate::noise::NoiseModel;

/// Which communication pattern closes each iteration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// N→1: `MPI_Gather` to rank 0.
    NTo1,
    /// 1→N: `MPI_Bcast` from rank 0.
    OneToN,
    /// N→N: `MPI_Barrier`.
    NToN,
    /// 1→1 with a blocking receive (receiver blocked by a late sender).
    OneToOneRecvBlocked,
    /// 1→1 with a synchronous send (sender blocked by a late receiver).
    OneToOneSendBlocked,
}

impl Pattern {
    /// Short name used in benchmark names (`Nto1`, `1toN`, ...).
    pub(crate) fn short_name(self) -> &'static str {
        match self {
            Pattern::NTo1 => "Nto1",
            Pattern::OneToN => "1toN",
            Pattern::NToN => "NtoN",
            Pattern::OneToOneRecvBlocked => "1to1r",
            Pattern::OneToOneSendBlocked => "1to1s",
        }
    }

    /// All patterns, in the order the paper lists them.
    pub const ALL: [Pattern; 5] = [
        Pattern::NTo1,
        Pattern::NToN,
        Pattern::OneToN,
        Pattern::OneToOneRecvBlocked,
        Pattern::OneToOneSendBlocked,
    ];
}

/// Interference scale: how much system noise is injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterferenceScale {
    /// Noise of a 32-node run.
    Nodes32,
    /// Aggregate noise of a 1024-process run, simulated on 32 ranks.
    Procs1024,
}

impl InterferenceScale {
    /// Suffix used in benchmark names (`_32` / `_1024`).
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            InterferenceScale::Nodes32 => "32",
            InterferenceScale::Procs1024 => "1024",
        }
    }

    /// The noise model for this scale.
    pub(crate) fn noise(self) -> NoiseModel {
        match self {
            InterferenceScale::Nodes32 => NoiseModel::asci_q_32(),
            InterferenceScale::Procs1024 => NoiseModel::asci_q_1024(),
        }
    }
}

/// Parameters for the interference benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct InterferenceParams {
    /// Number of ranks (the paper uses 32).
    pub ranks: usize,
    /// Number of iterations.
    pub iterations: usize,
    /// Nominal per-iteration work (about 1 ms in the paper).
    pub work: Duration,
    /// Multiplicative jitter on the work.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InterferenceParams {
    fn default() -> Self {
        InterferenceParams {
            ranks: 32,
            iterations: 200,
            work: Duration::from_millis(1),
            jitter: 0.01,
            seed: 0xa5c1,
        }
    }
}

impl InterferenceParams {
    /// Paper-scale parameters (32 ranks, 200 iterations).
    pub fn paper() -> Self {
        Self::default()
    }
}

/// Generates one interference benchmark for the given communication pattern
/// and interference scale, e.g. `interference(Pattern::NTo1,
/// InterferenceScale::Procs1024, &params)` is the paper's `Nto1_1024`.
pub fn interference(
    pattern: Pattern,
    scale: InterferenceScale,
    params: &InterferenceParams,
) -> AppTrace {
    let name = format!("{}_{}", pattern.short_name(), scale.suffix());
    let mut c = Cluster::new(name, params.ranks, params.seed).with_noise(scale.noise());
    init_phase(&mut c, params.ranks);
    let ctx = c.context("main.1");
    for _ in 0..params.iterations {
        c.begin_segment_all(ctx);
        for rank in 0..params.ranks {
            c.compute_jittered(rank, "do_work", params.work, params.jitter);
        }
        match pattern {
            Pattern::NTo1 => c.collective(CollectiveOp::Gather, 0, 1024),
            Pattern::OneToN => c.collective(CollectiveOp::Bcast, 0, 1024),
            Pattern::NToN => c.collective(CollectiveOp::Barrier, 0, 0),
            Pattern::OneToOneRecvBlocked | Pattern::OneToOneSendBlocked => {
                let mode = if pattern == Pattern::OneToOneRecvBlocked {
                    P2pMode::StandardSend
                } else {
                    P2pMode::SynchronousSend
                };
                for pair in 0..params.ranks / 2 {
                    c.point_to_point(2 * pair, 2 * pair + 1, 17, 32_768, mode);
                }
            }
        }
        c.end_segment_all(ctx);
    }
    finalize_phase(&mut c, params.ranks);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::Time;

    fn params() -> InterferenceParams {
        InterferenceParams {
            ranks: 8,
            iterations: 20,
            ..InterferenceParams::default()
        }
    }

    #[test]
    fn names_match_paper_convention() {
        let p = params();
        let app = interference(
            Pattern::OneToOneRecvBlocked,
            InterferenceScale::Procs1024,
            &p,
        );
        assert_eq!(app.name, "1to1r_1024");
        let app = interference(Pattern::NTo1, InterferenceScale::Nodes32, &p);
        assert_eq!(app.name, "Nto1_32");
    }

    #[test]
    fn all_patterns_produce_well_formed_traces() {
        let p = params();
        let scales = [InterferenceScale::Nodes32, InterferenceScale::Procs1024];
        let patterns = scales
            .into_iter()
            .flat_map(|scale| Pattern::ALL.map(|p| (p, scale)));
        for (pattern, scale) in patterns {
            let app = interference(pattern, scale, &p);
            assert!(app.is_well_formed(), "{} malformed", app.name);
            assert_eq!(app.rank_count(), p.ranks);
            for rt in &app.ranks {
                assert_eq!(rt.segment_instance_count(), p.iterations + 2);
            }
        }
    }

    #[test]
    fn heavier_interference_runs_longer() {
        let p = params();
        let light = interference(Pattern::NToN, InterferenceScale::Nodes32, &p);
        let heavy = interference(Pattern::NToN, InterferenceScale::Procs1024, &p);
        assert!(
            heavy.end_time() > light.end_time(),
            "1024-scale noise must stretch the run ({} vs {})",
            heavy.end_time(),
            light.end_time()
        );
    }

    #[test]
    fn interference_creates_iteration_to_iteration_variation() {
        // Without noise all iterations would be nearly identical; with noise
        // the per-iteration barrier wait must vary noticeably.
        let p = params();
        let app = interference(Pattern::NToN, InterferenceScale::Procs1024, &p);
        let barrier = app.regions.lookup("MPI_Barrier").unwrap();
        let waits: Vec<f64> = app.ranks[0]
            .events()
            .filter(|e| e.region == barrier)
            .map(|e| e.wait.as_f64())
            .collect();
        assert!(waits.len() >= p.iterations);
        let max = waits.iter().copied().fold(0.0f64, f64::max);
        let min = waits.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max > 2.0 * (min + 1.0),
            "interference should make some iterations wait much longer (min {min}, max {max})"
        );
    }

    #[test]
    fn nominal_work_is_balanced_across_ranks() {
        // The only imbalance should come from interference.  Undisturbed
        // iterations exist for every rank, so the *minimum* per-iteration
        // do_work duration must be essentially the same everywhere (the
        // nominal 1 ms ± jitter), even though totals differ due to noise.
        let p = params();
        let app = interference(Pattern::NTo1, InterferenceScale::Nodes32, &p);
        let work = app.regions.lookup("do_work").unwrap();
        let mins: Vec<Time> = app
            .ranks
            .iter()
            .map(|rt| {
                rt.events()
                    .filter(|e| e.region == work)
                    .map(|e| e.duration())
                    .min()
                    .unwrap()
            })
            .collect();
        let max = mins.iter().max().unwrap().as_f64();
        let min = mins.iter().min().unwrap().as_f64();
        assert!(
            max / min < 1.05,
            "nominal per-iteration work should match across ranks ({max} vs {min})"
        );
    }
}
