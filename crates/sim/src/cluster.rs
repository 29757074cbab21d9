//! Virtual-time cluster: per-rank clocks with blocking MPI-like semantics.
//!
//! The cluster advances one virtual clock per rank and records trace events
//! as the workload generators drive it.  Communication operations resolve
//! the blocking semantics the paper's performance problems rely on:
//!
//! * standard send + blocking receive → a late sender makes the receiver
//!   wait (the *Late Sender* pattern);
//! * synchronous send + receive → a late receiver makes the sender wait
//!   (*Late Receiver*);
//! * rooted N-to-1 collectives → late senders make the root wait
//!   (*Early Gather* / *Early Reduce*);
//! * rooted 1-to-N collectives → a late root makes every receiver wait
//!   (*Late Broadcast* / *Late Scatter*);
//! * N-to-N collectives → the last arrival makes everyone wait
//!   (*Wait at Barrier* / *Wait at N×N*).
//!
//! All timings are deterministic given the seed; optional jitter and the
//! [`crate::noise::NoiseModel`] provide the run-to-run variation the
//! similarity metrics are evaluated against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trace_model::{
    AppTrace, CollectiveOp, CommInfo, ContextId, Duration, Event, Rank, RegionId, Time,
};

use crate::noise::NoiseModel;

/// Point-to-point send semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum P2pMode {
    /// Buffered/standard send: the sender does not block; a blocking receive
    /// waits for the matching send (late-sender behaviour).
    StandardSend,
    /// Synchronous send (`MPI_Ssend`): the sender blocks until the receiver
    /// has arrived (late-receiver behaviour).
    SynchronousSend,
}

/// Cost model for communication operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CostModel {
    /// One-way point-to-point latency.
    pub latency: Duration,
    /// Transfer cost per byte, in nanoseconds.
    pub per_byte_ns: f64,
    /// Base cost of a collective operation.
    pub collective_base: Duration,
    /// Additional collective cost per participating rank (log factor applied).
    pub collective_per_rank: Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            latency: Duration::from_micros(5),
            per_byte_ns: 0.5,
            collective_base: Duration::from_micros(10),
            collective_per_rank: Duration::from_micros(2),
        }
    }
}

impl CostModel {
    /// Transfer time for a message of `bytes` bytes.
    pub(crate) fn transfer(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_f64(self.per_byte_ns * bytes as f64)
    }

    /// Intrinsic cost of a collective over `n` ranks moving `bytes` per rank.
    pub(crate) fn collective(&self, n: u32, bytes: u64) -> Duration {
        let log_n = (u32::BITS - n.max(1).leading_zeros()) as u64;
        self.collective_base
            + Duration::from_nanos(self.collective_per_rank.as_nanos() * log_n)
            + Duration::from_f64(self.per_byte_ns * bytes as f64)
    }
}

/// The virtual-time cluster on which workloads are "run".
#[derive(Debug)]
pub struct Cluster {
    app: AppTrace,
    clocks: Vec<Time>,
    noise: NoiseModel,
    costs: CostModel,
    rng: StdRng,
    /// In-flight messages posted by [`Cluster::post_send`], keyed by
    /// `(sender, receiver, tag)`; the value is the time the payload becomes
    /// available at the receiver.
    in_flight: std::collections::HashMap<(usize, usize, u32), std::collections::VecDeque<Time>>,
}

/// Range of the per-segment entry overhead (loop/instrumentation overhead)
/// inserted between a segment-begin marker and the first event.  Real
/// traces always contain such small, highly variable gaps; they are what
/// makes the relative-difference metric strict (paper Section 3.2.1).
const ENTRY_OVERHEAD: (Duration, Duration) = (Duration::from_nanos(100), Duration::from_micros(10));

impl Cluster {
    /// Creates a cluster for `n_ranks` ranks with a deterministic seed.
    pub fn new(name: impl Into<String>, n_ranks: usize, seed: u64) -> Self {
        Cluster {
            app: AppTrace::new(name, n_ranks),
            clocks: vec![Time::ZERO; n_ranks],
            noise: NoiseModel::silent(),
            costs: CostModel::default(),
            rng: StdRng::seed_from_u64(seed),
            in_flight: std::collections::HashMap::new(),
        }
    }

    /// Installs a noise model (system interference).
    pub(crate) fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> usize {
        self.clocks.len()
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> Time {
        self.clocks[rank]
    }

    /// Interns a region name.
    pub fn region(&mut self, name: &str) -> RegionId {
        self.app.regions.intern(name)
    }

    /// Interns a segment context name.
    pub fn context(&mut self, name: &str) -> ContextId {
        self.app.contexts.intern(name)
    }

    /// A nominal duration with multiplicative uniform jitter of ±`frac`.
    pub(crate) fn jittered(&mut self, nominal: Duration, frac: f64) -> Duration {
        if frac <= 0.0 {
            return nominal;
        }
        let factor = 1.0 + self.rng.gen_range(-frac..frac);
        nominal.scale(factor)
    }

    /// Emits a segment-begin marker for `rank` at its current time, then
    /// advances the rank by a small random entry overhead (loop and
    /// instrumentation overhead between the marker and the first event).
    pub fn begin_segment(&mut self, rank: usize, context: ContextId) {
        let now = self.clocks[rank];
        self.app.ranks[rank].begin_segment(context, now);
        // Log-uniform: small overheads are as common as large ones, which
        // is what timer-resolution-scale measurements look like in real
        // traces and what makes relative-difference comparisons strict.
        let (lo, hi) = ENTRY_OVERHEAD;
        let (lo_f, hi_f) = (lo.as_f64().max(1.0), hi.as_f64().max(2.0));
        let ln = self.rng.gen_range(lo_f.ln()..hi_f.ln());
        self.clocks[rank] += Duration::from_f64(ln.exp());
    }

    /// Emits a segment-end marker for `rank` at its current time.
    pub fn end_segment(&mut self, rank: usize, context: ContextId) {
        let now = self.clocks[rank];
        self.app.ranks[rank].end_segment(context, now);
    }

    /// Emits a segment-begin marker on every rank.
    pub(crate) fn begin_segment_all(&mut self, context: ContextId) {
        for rank in 0..self.rank_count() {
            self.begin_segment(rank, context);
        }
    }

    /// Emits a segment-end marker on every rank.
    pub(crate) fn end_segment_all(&mut self, context: ContextId) {
        for rank in 0..self.rank_count() {
            self.end_segment(rank, context);
        }
    }

    /// Runs a compute phase of nominal length `duration` on `rank`,
    /// stretched by the noise model, and records it as an event in
    /// `region`.  Returns the stretched duration.
    pub fn compute(&mut self, rank: usize, region: &str, duration: Duration) -> Duration {
        let region = self.region(region);
        let start = self.clocks[rank];
        let stretched = self.noise.stretch(rank as u32, start, duration);
        let end = start + stretched;
        self.app.ranks[rank].push_event(Event::compute(region, start, end));
        self.clocks[rank] = end;
        stretched
    }

    /// [`Cluster::compute`] with multiplicative jitter of ±`frac` applied to
    /// the nominal duration before noise stretching.
    pub(crate) fn compute_jittered(
        &mut self,
        rank: usize,
        region: &str,
        duration: Duration,
        frac: f64,
    ) -> Duration {
        let jittered = self.jittered(duration, frac);
        self.compute(rank, region, jittered)
    }

    /// Records a locally-completed event (no cross-rank blocking), such as
    /// `MPI_Init` setup work.
    pub(crate) fn local_event(&mut self, rank: usize, region: &str, duration: Duration) {
        let region = self.region(region);
        let start = self.clocks[rank];
        let end = start + duration;
        self.app.ranks[rank].push_event(Event::compute(region, start, end));
        self.clocks[rank] = end;
    }

    /// Executes a collective operation over all ranks with `bytes` of
    /// payload per rank, applying the blocking semantics of the operation's
    /// communication pattern.  Records one event per rank.
    pub(crate) fn collective(&mut self, op: CollectiveOp, root: usize, bytes: u64) {
        let n = self.rank_count() as u32;
        let cost = self.costs.collective(n, bytes);
        let region = self.region(op.mpi_name());
        let arrivals = self.clocks.clone();
        let max_arrival = arrivals.iter().copied().max().unwrap_or(Time::ZERO);
        let root_arrival = arrivals[root];
        let comm = CommInfo::Collective {
            op,
            root: Rank(root as u32),
            comm_size: n,
            bytes,
        };

        for (rank, &arrival) in arrivals.iter().enumerate() {
            let (end, wait) = if op.is_n_to_n() {
                let end = max_arrival + cost;
                (end, max_arrival - arrival)
            } else if op.is_one_to_n() {
                if rank == root {
                    (arrival + cost, Duration::ZERO)
                } else {
                    let end = arrival.max(root_arrival) + cost;
                    (end, root_arrival - arrival)
                }
            } else {
                // N-to-1: only the root waits for the slowest sender.
                if rank == root {
                    (max_arrival + cost, max_arrival - arrival)
                } else {
                    (arrival + cost, Duration::ZERO)
                }
            };
            self.app.ranks[rank]
                .push_event(Event::with_comm(region, arrival, end, comm).with_wait(wait));
            self.clocks[rank] = end;
        }
    }

    /// Executes a point-to-point message from `sender` to `receiver`.
    ///
    /// Both the send-side and receive-side events are recorded; the blocking
    /// side depends on `mode` (see [`P2pMode`]).
    pub(crate) fn point_to_point(
        &mut self,
        sender: usize,
        receiver: usize,
        tag: u32,
        bytes: u64,
        mode: P2pMode,
    ) {
        assert_ne!(sender, receiver, "self-messages are not modelled");
        let transfer = self.costs.transfer(bytes);
        let send_region = match mode {
            P2pMode::StandardSend => self.region("MPI_Send"),
            P2pMode::SynchronousSend => self.region("MPI_Ssend"),
        };
        let recv_region = self.region("MPI_Recv");
        let arrival_s = self.clocks[sender];
        let arrival_r = self.clocks[receiver];

        let (send_end, send_wait) = match mode {
            P2pMode::StandardSend => (arrival_s + transfer, Duration::ZERO),
            P2pMode::SynchronousSend => {
                let end = arrival_s.max(arrival_r) + transfer;
                (end, arrival_r - arrival_s)
            }
        };
        // The receive completes once both sides have arrived and the data
        // has moved; a late sender shows up as wait time on the receiver.
        let recv_end = arrival_r.max(arrival_s) + transfer;
        let recv_wait = arrival_s - arrival_r;

        self.app.ranks[sender].push_event(
            Event::with_comm(
                send_region,
                arrival_s,
                send_end,
                CommInfo::Send {
                    peer: Rank(receiver as u32),
                    tag,
                    bytes,
                },
            )
            .with_wait(send_wait),
        );
        self.app.ranks[receiver].push_event(
            Event::with_comm(
                recv_region,
                arrival_r,
                recv_end,
                CommInfo::Recv {
                    peer: Rank(sender as u32),
                    tag,
                    bytes,
                },
            )
            .with_wait(recv_wait),
        );
        self.clocks[sender] = send_end;
        self.clocks[receiver] = recv_end;
    }

    /// Posts a (buffered, non-blocking-completion) send from `sender` to
    /// `receiver`.  The send event is recorded immediately on the sender;
    /// the payload becomes available to a matching [`Cluster::wait_recv`]
    /// after the transfer time.
    ///
    /// Together with `wait_recv` this models pipelined producer/consumer
    /// communication such as the Sweep3D wavefront; the caller must post the
    /// send before the matching receive is waited on (process ranks in
    /// dependency order).
    pub(crate) fn post_send(&mut self, sender: usize, receiver: usize, tag: u32, bytes: u64) {
        assert_ne!(sender, receiver, "self-messages are not modelled");
        let transfer = self.costs.transfer(bytes);
        let region = self.region("MPI_Send");
        let start = self.clocks[sender];
        // The sender only pays the local injection overhead.
        let end = start + self.costs.latency;
        self.app.ranks[sender].push_event(Event::with_comm(
            region,
            start,
            end,
            CommInfo::Send {
                peer: Rank(receiver as u32),
                tag,
                bytes,
            },
        ));
        self.clocks[sender] = end;
        self.in_flight
            .entry((sender, receiver, tag))
            .or_default()
            .push_back(start + transfer);
    }

    /// Blocks `receiver` on a receive matching an earlier
    /// [`Cluster::post_send`] from `sender` with `tag`.
    ///
    /// # Panics
    /// Panics if no matching send was posted — that is a bug in the workload
    /// generator, equivalent to an MPI deadlock.
    pub(crate) fn wait_recv(&mut self, receiver: usize, sender: usize, tag: u32, bytes: u64) {
        let available = self
            .in_flight
            .get_mut(&(sender, receiver, tag))
            .and_then(|q| q.pop_front())
            .expect("wait_recv without a matching post_send (simulated deadlock)");
        let region = self.region("MPI_Recv");
        let start = self.clocks[receiver];
        let end = start.max(available) + self.costs.latency;
        let wait = available - start;
        self.app.ranks[receiver].push_event(
            Event::with_comm(
                region,
                start,
                end,
                CommInfo::Recv {
                    peer: Rank(sender as u32),
                    tag,
                    bytes,
                },
            )
            .with_wait(wait),
        );
        self.clocks[receiver] = end;
    }

    /// Finishes the run and returns the collected application trace.
    ///
    /// # Panics
    /// Panics (in debug builds) if any rank trace is not well formed; the
    /// generators in this crate always produce well-formed traces.
    pub fn finish(self) -> AppTrace {
        debug_assert!(
            self.app.is_well_formed(),
            "simulator produced a malformed trace"
        );
        self.app
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new("test", n, 42)
    }

    #[test]
    fn compute_advances_clock_and_records_event() {
        let mut c = cluster(2);
        let d = c.compute(0, "do_work", Duration::from_micros(100));
        assert_eq!(d, Duration::from_micros(100));
        assert_eq!(c.now(0), Time::from_micros(100));
        assert_eq!(c.now(1), Time::ZERO);
        let app = c.finish();
        assert_eq!(app.ranks[0].event_count(), 1);
        assert_eq!(app.ranks[1].event_count(), 0);
    }

    #[test]
    fn n_to_n_collective_blocks_everyone_for_the_latest() {
        let mut c = cluster(4);
        for r in 0..4 {
            c.compute(r, "do_work", Duration::from_micros(100 * (r as u64 + 1)));
        }
        c.collective(CollectiveOp::Barrier, 0, 0);
        // Everyone finishes at the same time, after the slowest (rank 3).
        let finish: Vec<Time> = (0..4).map(|r| c.now(r)).collect();
        assert!(finish.iter().all(|&t| t == finish[0]));
        assert!(finish[0] >= Time::from_micros(400));
        let app = c.finish();
        let barrier_events: Vec<_> = app
            .ranks
            .iter()
            .map(|rt| *rt.events().last().unwrap())
            .collect();
        // Rank 0 arrived first and therefore waited the longest.
        assert!(barrier_events[0].wait > barrier_events[3].wait);
        assert_eq!(barrier_events[3].wait, Duration::ZERO);
    }

    #[test]
    fn n_to_one_collective_only_root_waits() {
        let mut c = cluster(3);
        c.compute(1, "do_work", Duration::from_micros(500));
        c.compute(2, "do_work", Duration::from_micros(200));
        c.collective(CollectiveOp::Gather, 0, 64);
        let app = c.finish();
        let root_event = *app.ranks[0].events().last().unwrap();
        let sender_event = *app.ranks[1].events().last().unwrap();
        assert_eq!(root_event.wait, Duration::from_micros(500));
        assert_eq!(sender_event.wait, Duration::ZERO);
        assert!(root_event.end > sender_event.end - root_event.wait);
    }

    #[test]
    fn one_to_n_collective_receivers_wait_for_root() {
        let mut c = cluster(3);
        c.compute(0, "do_work", Duration::from_micros(800));
        c.collective(CollectiveOp::Bcast, 0, 64);
        let app = c.finish();
        let root_event = *app.ranks[0].events().last().unwrap();
        let recv_event = *app.ranks[1].events().last().unwrap();
        assert_eq!(root_event.wait, Duration::ZERO);
        assert_eq!(recv_event.wait, Duration::from_micros(800));
        assert!(recv_event.end >= root_event.start);
    }

    #[test]
    fn late_sender_blocks_receiver() {
        let mut c = cluster(2);
        c.compute(0, "do_work", Duration::from_micros(1000)); // sender is late
        c.point_to_point(0, 1, 7, 1024, P2pMode::StandardSend);
        let app = c.finish();
        let send = *app.ranks[0].events().last().unwrap();
        let recv = *app.ranks[1].events().last().unwrap();
        assert_eq!(send.wait, Duration::ZERO);
        assert_eq!(recv.wait, Duration::from_micros(1000));
        assert_eq!(recv.start, Time::ZERO);
        assert!(recv.end > Time::from_micros(1000));
    }

    #[test]
    fn late_receiver_blocks_synchronous_sender() {
        let mut c = cluster(2);
        c.compute(1, "do_work", Duration::from_micros(1000)); // receiver is late
        c.point_to_point(0, 1, 7, 1024, P2pMode::SynchronousSend);
        let app = c.finish();
        let send = *app.ranks[0].events().last().unwrap();
        let recv = *app.ranks[1].events().last().unwrap();
        assert_eq!(send.wait, Duration::from_micros(1000));
        assert_eq!(recv.wait, Duration::ZERO);
        assert!(send.end > Time::from_micros(1000));
    }

    #[test]
    fn segments_wrap_events_and_trace_is_well_formed() {
        let mut c = cluster(2);
        let ctx = c.context("main.1");
        for _ in 0..3 {
            c.begin_segment_all(ctx);
            for r in 0..2 {
                c.compute(r, "do_work", Duration::from_micros(50));
            }
            c.collective(CollectiveOp::Allreduce, 0, 8);
            c.end_segment_all(ctx);
        }
        let app = c.finish();
        assert!(app.is_well_formed());
        for rt in &app.ranks {
            assert_eq!(rt.segment_instance_count(), 3);
            assert_eq!(rt.event_count(), 6);
        }
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let mut a = cluster(1);
        let mut b = cluster(1);
        let nominal = Duration::from_micros(1000);
        for _ in 0..100 {
            let ja = a.jittered(nominal, 0.05);
            let jb = b.jittered(nominal, 0.05);
            assert_eq!(ja, jb, "same seed must give the same jitter");
            assert!(ja >= nominal.scale(0.95) && ja <= nominal.scale(1.05));
        }
    }

    #[test]
    fn cost_model_scales_with_size_and_ranks() {
        let costs = CostModel::default();
        assert!(costs.transfer(1_000_000) > costs.transfer(100));
        assert!(costs.collective(32, 64) > costs.collective(8, 64));
    }

    #[test]
    #[should_panic(expected = "self-messages")]
    fn self_message_panics() {
        let mut c = cluster(2);
        c.point_to_point(1, 1, 0, 8, P2pMode::StandardSend);
    }

    #[test]
    fn post_send_wait_recv_models_pipeline_fill() {
        let mut c = cluster(3);
        // Rank 0 produces after 1ms; ranks 1 and 2 are idle consumers.
        c.compute(0, "sweep_", Duration::from_millis(1));
        c.post_send(0, 1, 0, 4096);
        c.wait_recv(1, 0, 0, 4096);
        c.compute(1, "sweep_", Duration::from_millis(1));
        c.post_send(1, 2, 0, 4096);
        c.wait_recv(2, 1, 0, 4096);
        let app = c.finish();
        assert!(app.is_well_formed());
        let recv1 = app.ranks[1]
            .events()
            .find(|e| matches!(e.comm, CommInfo::Recv { .. }))
            .unwrap();
        let recv2 = app.ranks[2]
            .events()
            .find(|e| matches!(e.comm, CommInfo::Recv { .. }))
            .unwrap();
        // Rank 1 waits ~1ms for rank 0; rank 2 waits ~2ms for the pipeline.
        assert!(recv1.wait >= Duration::from_millis(1));
        assert!(recv2.wait >= Duration::from_millis(2));
    }

    #[test]
    fn posted_sends_match_in_fifo_order() {
        let mut c = cluster(2);
        c.compute(0, "do_work", Duration::from_micros(10));
        c.post_send(0, 1, 5, 100);
        c.compute(0, "do_work", Duration::from_micros(10));
        c.post_send(0, 1, 5, 100);
        c.wait_recv(1, 0, 5, 100);
        let first_recv_end = c.now(1);
        c.wait_recv(1, 0, 5, 100);
        assert!(c.now(1) > first_recv_end);
        assert!(c.finish().is_well_formed());
    }

    #[test]
    #[should_panic(expected = "matching post_send")]
    fn unmatched_receive_panics() {
        let mut c = cluster(2);
        c.wait_recv(1, 0, 0, 8);
    }
}
