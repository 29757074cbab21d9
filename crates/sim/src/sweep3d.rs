//! Sweep3D: a pipelined-wavefront structured-mesh application model.
//!
//! Sweep3D solves a 3-D neutron-transport problem with the KBA algorithm:
//! the 3-D domain is decomposed over a 2-D process grid, and for each of the
//! eight sweep directions (octants) a wavefront of work moves diagonally
//! across the grid in pipelined blocks.  Each rank repeatedly receives
//! boundary data from its upstream neighbours, computes a block, and sends
//! to its downstream neighbours; pipeline fill and drain produce
//! rank-dependent waiting time in `MPI_Recv`.
//!
//! The model reproduces the program structure that matters to the trace
//! reducers: many distinct segment contexts, per-octant differences in
//! message-passing parameters (different peers per sweep direction), very
//! regular behaviour across outer iterations, and a per-iteration
//! `MPI_Allreduce` (the flux-error check).  The paper traces an 8-process
//! run (`input.50`) and a 32-process run (`input.150`).

use trace_model::{AppTrace, CollectiveOp, Duration};

use crate::cluster::Cluster;

/// Parameters of the Sweep3D model.
#[derive(Clone, Copy, Debug)]
pub struct Sweep3dParams {
    /// Process-grid extent in the i direction.
    pub npe_i: usize,
    /// Process-grid extent in the j direction.
    pub npe_j: usize,
    /// Number of outer (timestep/source) iterations.
    pub iterations: usize,
    /// Number of pipelined blocks per octant (k-plane/angle blocks).
    pub blocks_per_octant: usize,
    /// Compute time per block per rank.
    pub block_work: Duration,
    /// Boundary-exchange message size in bytes.
    pub boundary_bytes: u64,
    /// Multiplicative jitter on compute phases.
    pub jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Sweep3dParams {
    /// The 8-process configuration (`sweep3d_8p`, input.50): 2×4 grid.
    pub(crate) fn paper_8p() -> Self {
        Sweep3dParams {
            npe_i: 2,
            npe_j: 4,
            iterations: 12,
            blocks_per_octant: 4,
            block_work: Duration::from_micros(400),
            boundary_bytes: 20_000,
            jitter: 0.02,
            seed: 0x53e3,
        }
    }

    /// The 32-process configuration (`sweep3d_32p`, input.150): 4×8 grid
    /// with a larger per-rank problem.
    pub fn paper_32p() -> Self {
        Sweep3dParams {
            npe_i: 4,
            npe_j: 8,
            iterations: 12,
            blocks_per_octant: 6,
            block_work: Duration::from_micros(700),
            boundary_bytes: 60_000,
            jitter: 0.02,
            seed: 0x53e4,
        }
    }

    /// A tiny configuration for unit tests (2×2 grid).
    pub fn small() -> Self {
        Sweep3dParams {
            npe_i: 2,
            npe_j: 2,
            iterations: 3,
            blocks_per_octant: 2,
            block_work: Duration::from_micros(200),
            boundary_bytes: 4_000,
            jitter: 0.02,
            seed: 0x53e5,
        }
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.npe_i * self.npe_j
    }
}

/// One of the eight sweep directions.
#[derive(Clone, Copy, Debug)]
struct Octant {
    /// +1 sweeps towards increasing i, -1 towards decreasing i.
    di: i32,
    /// +1 sweeps towards increasing j, -1 towards decreasing j.
    dj: i32,
    /// Message tag distinguishing this octant's boundary exchanges.
    tag: u32,
}

/// The eight octants: four 2-D wavefront directions, each swept twice
/// (once per k direction).
fn octants() -> [Octant; 8] {
    let mut out = [Octant {
        di: 1,
        dj: 1,
        tag: 0,
    }; 8];
    let dirs = [(1, 1), (-1, 1), (1, -1), (-1, -1)];
    for (idx, slot) in out.iter_mut().enumerate() {
        let (di, dj) = dirs[idx % 4];
        *slot = Octant {
            di,
            dj,
            tag: idx as u32,
        };
    }
    out
}

/// Grid coordinates of `rank`.
fn coords(rank: usize, npe_i: usize) -> (usize, usize) {
    (rank % npe_i, rank / npe_i)
}

/// Rank at grid coordinates `(i, j)`.
fn rank_at(i: usize, j: usize, npe_i: usize) -> usize {
    j * npe_i + i
}

/// The neighbour of `(i, j)` one step *against* the sweep direction `d`
/// along the given axis extent, i.e. the rank data is received from.
fn upstream(coord: usize, d: i32, extent: usize) -> Option<usize> {
    if d > 0 {
        coord.checked_sub(1)
    } else if coord + 1 < extent {
        Some(coord + 1)
    } else {
        None
    }
}

/// The neighbour of `(i, j)` one step *along* the sweep direction `d`.
fn downstream(coord: usize, d: i32, extent: usize) -> Option<usize> {
    if d > 0 {
        if coord + 1 < extent {
            Some(coord + 1)
        } else {
            None
        }
    } else {
        coord.checked_sub(1)
    }
}

/// Ranks ordered so that every rank appears after both of its upstream
/// neighbours for the given octant (wavefront/topological order).
fn wavefront_order(params: &Sweep3dParams, octant: &Octant) -> Vec<usize> {
    let mut order: Vec<usize> = (0..params.ranks()).collect();
    order.sort_by_key(|&rank| {
        let (i, j) = coords(rank, params.npe_i);
        let depth_i = if octant.di > 0 {
            i
        } else {
            params.npe_i - 1 - i
        };
        let depth_j = if octant.dj > 0 {
            j
        } else {
            params.npe_j - 1 - j
        };
        depth_i + depth_j
    });
    order
}

/// Generates a Sweep3D trace with the given name and parameters.
pub fn sweep3d(name: &str, params: &Sweep3dParams) -> AppTrace {
    let ranks = params.ranks();
    let mut c = Cluster::new(name, ranks, params.seed);

    // Initialization: MPI_Init, read/broadcast of the input deck, domain
    // decomposition.
    let ctx_init = c.context("init");
    c.begin_segment_all(ctx_init);
    for rank in 0..ranks {
        c.local_event(
            rank,
            "MPI_Init",
            Duration::from_micros(250 + 11 * rank as u64),
        );
        c.compute_jittered(rank, "decomp", Duration::from_micros(120), params.jitter);
    }
    c.collective(CollectiveOp::Bcast, 0, 2048);
    c.end_segment_all(ctx_init);

    let ctx_source = c.context("main.1");
    let ctx_octant = c.context("main.1.1");
    let ctx_stage = c.context("main.1.1.1");
    let ctx_flux = c.context("main.2");

    for _ in 0..params.iterations {
        // Per-iteration source computation (no communication).
        c.begin_segment_all(ctx_source);
        for rank in 0..ranks {
            c.compute_jittered(rank, "source", params.block_work.scale(0.5), params.jitter);
        }
        c.end_segment_all(ctx_source);

        // The eight octant sweeps.
        for octant in octants() {
            let order = wavefront_order(params, &octant);

            // Per-octant setup (angle initialisation) — its own segment so
            // the sweep stages below are a separate context.
            for &rank in &order {
                c.begin_segment(rank, ctx_octant);
                c.compute_jittered(
                    rank,
                    "octant_setup",
                    Duration::from_micros(40),
                    params.jitter,
                );
                c.end_segment(rank, ctx_octant);
            }

            for _stage in 0..params.blocks_per_octant {
                for &rank in &order {
                    let (i, j) = coords(rank, params.npe_i);
                    c.begin_segment(rank, ctx_stage);
                    if let Some(ui) = upstream(i, octant.di, params.npe_i) {
                        let peer = rank_at(ui, j, params.npe_i);
                        c.wait_recv(rank, peer, octant.tag, params.boundary_bytes);
                    }
                    if let Some(uj) = upstream(j, octant.dj, params.npe_j) {
                        let peer = rank_at(i, uj, params.npe_i);
                        c.wait_recv(rank, peer, octant.tag + 100, params.boundary_bytes);
                    }
                    c.compute_jittered(rank, "sweep_", params.block_work, params.jitter);
                    if let Some(dsi) = downstream(i, octant.di, params.npe_i) {
                        let peer = rank_at(dsi, j, params.npe_i);
                        c.post_send(rank, peer, octant.tag, params.boundary_bytes);
                    }
                    if let Some(dsj) = downstream(j, octant.dj, params.npe_j) {
                        let peer = rank_at(i, dsj, params.npe_i);
                        c.post_send(rank, peer, octant.tag + 100, params.boundary_bytes);
                    }
                    c.end_segment(rank, ctx_stage);
                }
            }
        }

        // Flux-error check: global reduction.
        c.begin_segment_all(ctx_flux);
        for rank in 0..ranks {
            c.compute_jittered(rank, "flux_err", Duration::from_micros(60), params.jitter);
        }
        c.collective(CollectiveOp::Allreduce, 0, 64);
        c.end_segment_all(ctx_flux);
    }

    // Finalization: gather of global diagnostics plus MPI_Finalize.
    let ctx_final = c.context("final");
    c.begin_segment_all(ctx_final);
    c.collective(CollectiveOp::Gather, 0, 4096);
    for rank in 0..ranks {
        c.local_event(rank, "MPI_Finalize", Duration::from_micros(150));
    }
    c.end_segment_all(ctx_final);

    c.finish()
}

/// The paper's 8-process Sweep3D run.
pub fn sweep3d_8p() -> AppTrace {
    sweep3d("sweep3d_8p", &Sweep3dParams::paper_8p())
}

/// The paper's 32-process Sweep3D run.
pub fn sweep3d_32p() -> AppTrace {
    sweep3d("sweep3d_32p", &Sweep3dParams::paper_32p())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::Time;

    #[test]
    fn small_sweep_is_well_formed() {
        let p = Sweep3dParams::small();
        let app = sweep3d("sweep3d_test", &p);
        assert!(app.is_well_formed());
        assert_eq!(app.rank_count(), 4);
        // Contexts: init, main.1, main.1.1, main.1.1.1, main.2, final.
        assert_eq!(app.contexts.len(), 6);
    }

    #[test]
    fn corner_ranks_wait_for_the_pipeline() {
        // In a wavefront sweep the ranks far from the starting corner spend
        // time waiting in MPI_Recv during pipeline fill.
        let p = Sweep3dParams::small();
        let app = sweep3d("sweep3d_test", &p);
        let recv = app.regions.lookup("MPI_Recv").unwrap();
        let total_wait: Time = app
            .ranks
            .iter()
            .flat_map(|rt| rt.events())
            .filter(|e| e.region == recv)
            .map(|e| e.wait)
            .sum();
        assert!(
            total_wait > Duration::from_micros(100),
            "pipeline fill should produce measurable receive wait, got {total_wait}"
        );
    }

    #[test]
    fn every_rank_has_the_same_segment_structure_per_iteration() {
        let p = Sweep3dParams::small();
        let app = sweep3d("sweep3d_test", &p);
        // Per iteration: 1 source + 8 octant setups + 8*blocks stages + 1 flux.
        let per_iter = 1 + 8 + 8 * p.blocks_per_octant + 1;
        let expected = 2 + p.iterations * per_iter; // + init + final
        for rt in &app.ranks {
            assert_eq!(rt.segment_instance_count(), expected);
        }
    }

    #[test]
    fn octant_direction_changes_message_peers() {
        let p = Sweep3dParams::small();
        let app = sweep3d("sweep3d_test", &p);
        // Rank 0 (corner) must send to different peers in different octants.
        let peers: std::collections::HashSet<u32> = app.ranks[0]
            .events()
            .filter_map(|e| match e.comm {
                trace_model::CommInfo::Send { peer, .. } => Some(peer.as_u32()),
                _ => None,
            })
            .collect();
        assert!(
            peers.len() >= 2,
            "corner rank should talk to both grid neighbours"
        );
    }

    #[test]
    fn paper_configurations_have_expected_rank_counts() {
        assert_eq!(Sweep3dParams::paper_8p().ranks(), 8);
        assert_eq!(Sweep3dParams::paper_32p().ranks(), 32);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = Sweep3dParams::small();
        assert_eq!(sweep3d("a", &p), sweep3d("a", &p));
    }
}
