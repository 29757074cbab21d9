//! The analysis driver: from an application trace to a severity matrix.
//!
//! All severities are computed from event time stamps and message/collective
//! matching across ranks — never from simulator ground truth — so the same
//! code analyses full traces and traces reconstructed from reduced ones.
//! Reduction error therefore perturbs the reported severities exactly the
//! way the paper describes, including negative values when per-rank time
//! stamps become mutually inconsistent.
//!
//! Pattern definitions (restricted to what the paper's workloads exercise):
//!
//! * **Late Sender** — for a standard-send/blocking-receive pair, the
//!   receiver's waiting time `send.start − recv.start`, attributed to the
//!   receive location on the receiving rank.
//! * **Late Receiver** — for a synchronous send, the sender's waiting time
//!   `recv.start − send.start`, attributed to the send location on the
//!   sending rank.
//! * **Early Gather/Reduce** — for an N→1 collective, the root's time in the
//!   operation in excess of the last-arriving sender's time.
//! * **Late Broadcast/Scatter** — for a 1→N collective, each non-root rank's
//!   time in the operation in excess of the root's time.
//! * **Wait at Barrier / Wait at N×N** — for an N→N collective, each rank's
//!   time in the operation in excess of the last-arriving rank's time.
//! * **Execution Time** — inclusive time per code location and rank.

use std::collections::BTreeMap;

use trace_model::{AppTrace, CollectiveOp, CommInfo, Event};

use crate::metrics::MetricKind;
use crate::severity::Diagnosis;

const NS_PER_MS: f64 = 1_000_000.0;

fn ms(ns: f64) -> f64 {
    ns / NS_PER_MS
}

/// Runs the full analysis over an application trace.
pub fn diagnose(app: &AppTrace) -> Diagnosis {
    let mut diagnosis = Diagnosis::new(app.name.clone(), app.rank_count());
    execution_time(app, &mut diagnosis);
    point_to_point(app, &mut diagnosis);
    collectives(app, &mut diagnosis);
    sendrecv_exchanges(app, &mut diagnosis);
    diagnosis
}

/// Inclusive execution time per (region, rank).
fn execution_time(app: &AppTrace, diagnosis: &mut Diagnosis) {
    for (rank_idx, rank) in app.ranks.iter().enumerate() {
        for event in rank.events() {
            let region = app.regions.name_or_unknown(event.region);
            diagnosis.add(
                MetricKind::ExecutionTime,
                region,
                rank_idx,
                ms(event.duration().as_f64()),
            );
        }
    }
}

/// Matches standard sends with blocking receives (and synchronous sends with
/// their receives) and attributes Late Sender / Late Receiver severities.
fn point_to_point(app: &AppTrace, diagnosis: &mut Diagnosis) {
    type Key = (usize, usize, u32); // (sender, receiver, tag)
    let mut sends: BTreeMap<Key, Vec<&Event>> = BTreeMap::new();
    let mut recvs: BTreeMap<Key, Vec<&Event>> = BTreeMap::new();

    for (rank_idx, rank) in app.ranks.iter().enumerate() {
        for event in rank.events() {
            match event.comm {
                CommInfo::Send { peer, tag, .. } => {
                    sends
                        .entry((rank_idx, peer.as_usize(), tag))
                        .or_default()
                        .push(event);
                }
                CommInfo::Recv { peer, tag, .. } => {
                    recvs
                        .entry((peer.as_usize(), rank_idx, tag))
                        .or_default()
                        .push(event);
                }
                _ => {}
            }
        }
    }

    for (key, send_events) in &sends {
        let Some(recv_events) = recvs.get(key) else {
            continue;
        };
        let (sender, receiver, _tag) = *key;
        for (send, recv) in send_events.iter().zip(recv_events) {
            let send_region = app.regions.name_or_unknown(send.region);
            let recv_region = app.regions.name_or_unknown(recv.region);
            let skew_ms = ms(send.start.as_f64() - recv.start.as_f64());
            if send_region.contains("Ssend") {
                // Synchronous send: the sender blocks on a late receiver.
                diagnosis.add(MetricKind::LateReceiver, send_region, sender, -skew_ms);
            } else {
                // Standard send with a blocking receive: the receiver blocks
                // on a late sender.
                diagnosis.add(MetricKind::LateSender, recv_region, receiver, skew_ms);
            }
        }
    }
}

/// Groups collective events by (operation, root, communicator size) and
/// instance index, and attributes the per-pattern waiting times.
fn collectives(app: &AppTrace, diagnosis: &mut Diagnosis) {
    type Key = (CollectiveOp, u32, u32); // (op, root, comm_size)
                                         // key -> per-rank ordered list of events
    let mut groups: BTreeMap<Key, Vec<Vec<&Event>>> = BTreeMap::new();
    for (rank_idx, rank) in app.ranks.iter().enumerate() {
        for event in rank.events() {
            if let CommInfo::Collective {
                op,
                root,
                comm_size,
                ..
            } = event.comm
            {
                let entry = groups
                    .entry((op, root.as_u32(), comm_size))
                    .or_insert_with(|| vec![Vec::new(); app.rank_count()]);
                entry[rank_idx].push(event);
            }
        }
    }

    for ((op, root, _comm_size), per_rank) in &groups {
        let root = *root as usize;
        let instances = per_rank.iter().map(Vec::len).max().unwrap_or(0);
        for instance in 0..instances {
            // Participants of this instance: (rank, event).
            let participants: Vec<(usize, &Event)> = per_rank
                .iter()
                .enumerate()
                .filter_map(|(rank, events)| events.get(instance).map(|e| (rank, *e)))
                .collect();
            if participants.len() < 2 {
                continue;
            }
            // The reference is the rank that entered the operation last: by
            // construction it does not wait, so every other rank's waiting
            // time is its own duration in excess of the reference duration.
            let latest = participants
                .iter()
                .max_by_key(|(_, e)| e.start)
                .expect("non-empty participants");
            let reference_duration = latest.1.duration().as_f64();
            let root_duration = participants
                .iter()
                .find(|(rank, _)| *rank == root)
                .map(|(_, e)| e.duration().as_f64());

            for (rank, event) in &participants {
                let region = app.regions.name_or_unknown(event.region);
                let own = event.duration().as_f64();
                if op.is_n_to_n() {
                    let metric = if *op == CollectiveOp::Barrier {
                        MetricKind::WaitAtBarrier
                    } else {
                        MetricKind::WaitAtNxN
                    };
                    diagnosis.add(metric, region, *rank, ms(own - reference_duration));
                } else if op.is_n_to_one() {
                    if *rank == root {
                        diagnosis.add(
                            MetricKind::EarlyGatherReduce,
                            region,
                            *rank,
                            ms(own - reference_duration),
                        );
                    }
                } else if op.is_one_to_n() && *rank != root {
                    if let Some(root_duration) = root_duration {
                        diagnosis.add(
                            MetricKind::LateBroadcastScatter,
                            region,
                            *rank,
                            ms(own - root_duration),
                        );
                    }
                }
            }
        }
    }
}

/// Pairwise `MPI_Sendrecv` exchanges behave like a two-rank N×N operation.
fn sendrecv_exchanges(app: &AppTrace, diagnosis: &mut Diagnosis) {
    type Key = (usize, usize, u32); // (low rank, high rank, tag)
    let mut groups: BTreeMap<Key, Vec<Vec<&Event>>> = BTreeMap::new();
    for (rank_idx, rank) in app.ranks.iter().enumerate() {
        for event in rank.events() {
            if let CommInfo::SendRecv { to, tag, .. } = event.comm {
                let peer = to.as_usize();
                let key = (rank_idx.min(peer), rank_idx.max(peer), tag);
                let entry = groups.entry(key).or_insert_with(|| vec![Vec::new(); 2]);
                let slot = usize::from(rank_idx != rank_idx.min(peer));
                entry[slot].push(event);
            }
        }
    }
    for ((low, high, _tag), slots) in &groups {
        // Unmatched trailing instances are dropped, as zip stops at the
        // shorter side.
        for (&a, &b) in slots[0].iter().zip(slots[1].iter()) {
            let reference = if a.start >= b.start { a } else { b };
            for (rank, event) in [(*low, a), (*high, b)] {
                let region = app.regions.name_or_unknown(event.region);
                diagnosis.add(
                    MetricKind::WaitAtNxN,
                    region,
                    rank,
                    ms(event.duration().as_f64() - reference.duration().as_f64()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_sim::ats::{self, RegularParams};
    use trace_sim::dynload::{dyn_load_balance, DynLoadParams};
    use trace_sim::sweep3d::{sweep3d, Sweep3dParams};

    fn params() -> RegularParams {
        RegularParams::small()
    }

    #[test]
    fn late_sender_is_diagnosed_at_the_receive() {
        let app = ats::late_sender(&params());
        let d = diagnose(&app);
        let entry = d
            .entry(MetricKind::LateSender, "MPI_Recv")
            .expect("late sender entry");
        // Receivers are the odd ranks.
        assert!(entry.per_rank_ms[1] > 1.0);
        assert!(entry.per_rank_ms[0].abs() < 1e-6);
        // No significant late-receiver diagnosis.
        assert!(d.metric_total_ms(MetricKind::LateReceiver).abs() < 1e-6);
    }

    #[test]
    fn late_receiver_is_diagnosed_at_the_synchronous_send() {
        let app = ats::late_receiver(&params());
        let d = diagnose(&app);
        let entry = d
            .entry(MetricKind::LateReceiver, "MPI_Ssend")
            .expect("late receiver entry");
        assert!(entry.per_rank_ms[0] > 1.0, "{:?}", entry.per_rank_ms);
        assert!(entry.per_rank_ms[1].abs() < 1e-6);
        assert!(d.metric_total_ms(MetricKind::LateSender).abs() < 1e-6);
    }

    #[test]
    fn early_gather_is_diagnosed_at_the_root() {
        let app = ats::early_gather(&params());
        let d = diagnose(&app);
        let entry = d
            .entry(MetricKind::EarlyGatherReduce, "MPI_Gather")
            .expect("early gather entry");
        assert!(entry.per_rank_ms[0] > 1.0);
        for rank in 1..app.rank_count() {
            assert!(entry.per_rank_ms[rank].abs() < 1e-6);
        }
    }

    #[test]
    fn late_broadcast_is_diagnosed_at_the_receivers() {
        let app = ats::late_broadcast(&params());
        let d = diagnose(&app);
        let entry = d
            .entry(MetricKind::LateBroadcastScatter, "MPI_Bcast")
            .expect("late broadcast entry");
        assert!(entry.per_rank_ms[0].abs() < 1e-6, "root does not wait");
        assert!(entry.per_rank_ms[1] > 1.0);
    }

    #[test]
    fn barrier_imbalance_is_diagnosed_with_rank_gradient() {
        let p = params();
        let app = ats::imbalance_at_mpi_barrier(&p);
        let d = diagnose(&app);
        let entry = d
            .entry(MetricKind::WaitAtBarrier, "MPI_Barrier")
            .expect("barrier entry");
        // Rank 0 does the least work so it waits the most; the last rank
        // effectively does not wait.
        assert!(entry.per_rank_ms[0] > entry.per_rank_ms[p.ranks - 1] + 1.0);
        assert!(entry.per_rank_ms[p.ranks - 1].abs() < 0.5);
        // On a consistent full trace the waits are non-negative.
        assert!(entry.per_rank_ms.iter().all(|&v| v > -1e-6));
    }

    #[test]
    fn dyn_load_balance_shows_wait_at_nxn_for_lower_ranks() {
        let p = DynLoadParams::paper();
        let app = dyn_load_balance(&p);
        let d = diagnose(&app);
        let wait = d
            .entry(MetricKind::WaitAtNxN, "MPI_Alltoall")
            .expect("alltoall entry");
        let work = d
            .entry(MetricKind::ExecutionTime, "do_work")
            .expect("work entry");
        // The paper's Figure 7: lower ranks wait in MPI_Alltoall because the
        // upper ranks spend more time in do_work.
        assert!(wait.per_rank_ms[0] > wait.per_rank_ms[p.ranks - 1] + 1.0);
        assert!(work.per_rank_ms[p.ranks - 1] > work.per_rank_ms[0] + 1.0);
    }

    #[test]
    fn sweep3d_shows_late_sender_in_the_pipeline() {
        let app = sweep3d("sweep3d_test", &Sweep3dParams::small());
        let d = diagnose(&app);
        let entry = d
            .entry(MetricKind::LateSender, "MPI_Recv")
            .expect("pipeline waits");
        assert!(entry.total_ms() > 0.1);
    }

    #[test]
    fn repeated_diagnoses_are_bit_equal() {
        // In the sweep3d wavefront a receiver hears from two upstream
        // neighbours, so two (sender, receiver, tag) keys add into the same
        // `MPI_Recv` cell: the key order fixes the float summation order.
        let app = sweep3d("sweep3d_test", &Sweep3dParams::small());
        let bits = |d: &Diagnosis| -> Vec<u64> {
            d.entries
                .values()
                .flat_map(|e| e.per_rank_ms.iter().map(|v| v.to_bits()))
                .collect()
        };
        let reference = bits(&diagnose(&app));
        for _ in 0..8 {
            assert_eq!(bits(&diagnose(&app)), reference);
        }
    }

    #[test]
    fn execution_time_covers_every_region() {
        let app = ats::late_sender(&params());
        let d = diagnose(&app);
        for region in app.regions.names() {
            assert!(
                d.entry(MetricKind::ExecutionTime, region).is_some(),
                "missing execution time for {region}"
            );
        }
        let total = d.total_time_ms();
        let expected: f64 = app
            .ranks
            .iter()
            .flat_map(|rt| rt.events())
            .map(|e| e.duration().as_f64() / 1_000_000.0)
            .sum();
        assert!((total - expected).abs() < 1e-6);
    }

    #[test]
    fn full_trace_wait_severities_match_simulator_ground_truth() {
        // The analysis recomputes waits from time stamps; on the original
        // trace they must agree with the wait the simulator recorded.
        let app = ats::early_gather(&params());
        let d = diagnose(&app);
        let gather = app.regions.lookup("MPI_Gather").unwrap();
        let ground_truth_ms: f64 = app.ranks[0]
            .events()
            .filter(|e| e.region == gather)
            .map(|e| e.wait.as_f64() / 1_000_000.0)
            .sum();
        let diagnosed = d.severity(MetricKind::EarlyGatherReduce, "MPI_Gather", 0);
        let relative_error = (diagnosed - ground_truth_ms).abs() / ground_truth_ms.max(1e-9);
        assert!(
            relative_error < 0.05,
            "diagnosed {diagnosed} vs ground truth {ground_truth_ms}"
        );
    }
}
