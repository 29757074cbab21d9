//! System-interference (noise) model.
//!
//! The irregular benchmarks of the paper simulate the periodic operating
//! system interference that Petrini et al. identified on ASCI Q: daemons and
//! kernel activity interrupt the application at fixed periods on every node,
//! stretching compute phases and de-synchronizing ranks before communication
//! steps.  The paper runs two scenarios: interruptions as seen by a 32-node
//! run, and the (much heavier) aggregate interruption load a 1024-process
//! run would experience.
//!
//! [`NoiseModel`] reproduces that structure: a set of periodic
//! [`NoiseSource`]s per node, each with a period, a per-occurrence duration
//! and a per-node phase offset.  Applying the model to a compute interval
//! returns the interval's stretched duration.

use trace_model::{Duration, Time};

/// One periodic source of interference (e.g. an OS daemon).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseSource {
    /// Interval between consecutive interruptions.
    pub period: Duration,
    /// Duration stolen from the application per interruption.
    pub duration: Duration,
    /// Per-node phase offset multiplier: node `n` sees this source shifted by
    /// `offset_step * n` so that nodes are not interrupted in lockstep.
    pub offset_step: Duration,
}

impl NoiseSource {
    /// Creates a noise source.
    pub fn new(period: Duration, duration: Duration, offset_step: Duration) -> Self {
        NoiseSource {
            period,
            duration,
            offset_step,
        }
    }

    /// Total interruption time this source injects into the half-open busy
    /// interval `[start, start + busy)` on node `node`.
    fn interference_in(&self, node: u32, start: Time, busy: Duration) -> Duration {
        if self.period.is_zero() || busy.is_zero() {
            return Duration::ZERO;
        }
        let period = self.period.as_nanos();
        let offset = self.offset_step.as_nanos().wrapping_mul(u64::from(node)) % period;
        let lo = start.as_nanos();
        let hi = lo + busy.as_nanos();
        // Occurrences are at offset + k * period.  Count k with lo <= t < hi.
        let first_k = if lo <= offset {
            0
        } else {
            (lo - offset).div_ceil(period)
        };
        let first_t = offset + first_k * period;
        if first_t >= hi {
            return Duration::ZERO;
        }
        let count = (hi - 1 - first_t) / period + 1;
        Duration::from_nanos(count * self.duration.as_nanos())
    }
}

/// A collection of noise sources applied to every node of the simulated
/// machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NoiseModel {
    /// The periodic sources making up the interference.
    pub sources: Vec<NoiseSource>,
    /// How many ranks share one node (interference is per node).
    pub ranks_per_node: u32,
}

impl NoiseModel {
    /// Creates a noise model with the given sources; `ranks_per_node`
    /// defaults to one rank per node.
    pub fn new(sources: Vec<NoiseSource>) -> Self {
        NoiseModel {
            sources,
            ranks_per_node: 1,
        }
    }

    /// A model with no interference.
    pub(crate) fn silent() -> Self {
        NoiseModel::new(Vec::new())
    }

    /// ASCI-Q-like interference for a 32-node run (the `_32` benchmarks):
    /// a frequent short kernel tick plus two slower, longer daemons.
    pub(crate) fn asci_q_32() -> Self {
        NoiseModel::new(vec![
            // Kernel timer tick style: every 10ms steal 25us.
            NoiseSource::new(
                Duration::from_millis(10),
                Duration::from_micros(25),
                Duration::from_micros(310),
            ),
            // Node-local daemon: every 125ms steal 2.5ms.
            NoiseSource::new(
                Duration::from_millis(125),
                Duration::from_micros(2_500),
                Duration::from_millis(3),
            ),
            // Cluster management heartbeat: every 1s steal 5ms.
            NoiseSource::new(
                Duration::from_secs(1),
                Duration::from_millis(5),
                Duration::from_millis(17),
            ),
        ])
    }

    /// The interference a 1024-process run would experience, simulated on 32
    /// ranks (the `_1024` benchmarks).  With 32× more processes the chance
    /// that *some* rank is interrupted before a collective grows
    /// proportionally; the paper emulates this by injecting the aggregate
    /// interruption load into each of the 32 simulated ranks, which we model
    /// by scaling source frequency.
    pub(crate) fn asci_q_1024() -> Self {
        let mut model = Self::asci_q_32();
        for src in &mut model.sources {
            // 8× more frequent interruptions per rank approximates the
            // aggregate noise a 1024-process machine injects into each
            // collective; periods stay well above the per-iteration work.
            src.period = Duration::from_nanos((src.period.as_nanos() / 8).max(1));
        }
        model
    }

    /// Returns the node hosting `rank`.
    pub(crate) fn node_of(&self, rank: u32) -> u32 {
        rank / self.ranks_per_node.max(1)
    }

    /// Stretches a busy interval starting at `start` with nominal duration
    /// `busy` by the interference the node of `rank` experiences.
    ///
    /// The computation is applied twice so interference landing inside the
    /// stretched portion is also (approximately) accounted for.
    pub(crate) fn stretch(&self, rank: u32, start: Time, busy: Duration) -> Duration {
        if self.sources.is_empty() || busy.is_zero() {
            return busy;
        }
        let node = self.node_of(rank);
        let first: Duration = self
            .sources
            .iter()
            .map(|s| s.interference_in(node, start, busy))
            .sum();
        let extended = busy + first;
        let second: Duration = self
            .sources
            .iter()
            .map(|s| s.interference_in(node, start, extended))
            .sum();
        busy + second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_model_changes_nothing() {
        let m = NoiseModel::silent();
        let busy = Duration::from_millis(1);
        assert_eq!(m.stretch(0, Time::ZERO, busy), busy);
    }

    #[test]
    fn single_source_counts_occurrences() {
        let src = NoiseSource::new(
            Duration::from_micros(100),
            Duration::from_micros(10),
            Duration::ZERO,
        );
        // Busy for 1ms starting at 0: occurrences at 0, 100us, ..., 900us = 10.
        let hit = src.interference_in(0, Time::ZERO, Duration::from_millis(1));
        assert_eq!(hit.as_nanos(), 10 * 10_000);
        // A window that contains no occurrence.
        let miss = src.interference_in(0, Time::from_micros(1), Duration::from_micros(50));
        assert_eq!(miss, Duration::ZERO);
    }

    #[test]
    fn offsets_differ_per_node() {
        let src = NoiseSource::new(
            Duration::from_micros(100),
            Duration::from_micros(10),
            Duration::from_micros(50),
        );
        // Node 0 sees an occurrence at t=0; node 1 is offset by 50us.
        let n0 = src.interference_in(0, Time::ZERO, Duration::from_micros(40));
        let n1 = src.interference_in(1, Time::ZERO, Duration::from_micros(40));
        assert_eq!(n0.as_nanos(), 10_000);
        assert_eq!(n1, Duration::ZERO);
    }

    #[test]
    fn stretch_grows_with_noise_scale() {
        let m32 = NoiseModel::asci_q_32();
        let m1024 = NoiseModel::asci_q_1024();
        let busy = Duration::from_millis(50);
        let s32 = m32.stretch(3, Time::from_millis(1), busy);
        let s1024 = m1024.stretch(3, Time::from_millis(1), busy);
        assert!(s32 >= busy);
        assert!(
            s1024 > s32,
            "1024-process interference must stretch more than 32-node interference"
        );
    }

    #[test]
    fn stretch_is_monotone_in_busy_time() {
        let m = NoiseModel::asci_q_32();
        let short = m.stretch(0, Time::ZERO, Duration::from_millis(1));
        let long = m.stretch(0, Time::ZERO, Duration::from_millis(10));
        assert!(long >= short);
    }

    #[test]
    fn zero_period_source_is_ignored() {
        let m = NoiseModel::new(vec![NoiseSource::new(
            Duration::ZERO,
            Duration::from_micros(10),
            Duration::ZERO,
        )]);
        assert_eq!(
            m.stretch(0, Time::ZERO, Duration::from_millis(1)),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn node_mapping_respects_ranks_per_node() {
        let mut m = NoiseModel::asci_q_32();
        m.ranks_per_node = 4;
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        assert_eq!(m.node_of(31), 7);
    }
}
