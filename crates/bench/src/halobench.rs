//! Halo-exchange benchmark: the headline workload of the one-sided /
//! neighborhood subsystem. Each rank of a 2D periodic [`Cartcomm`] grid
//! exchanges a fixed-size halo block with each of its four neighbors,
//! per iteration, three ways:
//!
//! * **`two-sided`** — the classic pattern: four `irecv_into` posts,
//!   four `isend`s, drain. This is the baseline every MPI code writes
//!   first, and the cost model the other two must meet.
//! * **`neighbor-alltoall`** — one call on the topology communicator
//!   ([`Communicator::neighbor_all_to_all`]): the engine derives the
//!   neighbor list, tags and schedule from the cartesian topology.
//! * **`rma-fence`** — one-sided: each rank `put`s its block directly
//!   into the neighbor's window slot and closes the epoch with a
//!   `fence`. No receive posts, no tag matching — the fence is the only
//!   synchronization.
//!
//! All three move exactly the same bytes per iteration (4 blocks out,
//! 4 in, per rank), use slice-form APIs (one staging copy each), and are
//! timed with barrier-bracketed best-of-N windows, so the cells are
//! directly comparable. Fabrics: flat shared memory, and hybrid 2-/4-node
//! placements with the modelled gigabit inter-node link (intra-node
//! free) — the fabric where the neighborhood schedule's topology
//! awareness and RMA's lack of matching overhead are supposed to pay.
//!
//! During warm-up every method *verifies* its received halos (each
//! neighbor's block is rank-stamped), so a cell can never silently time
//! a wrong exchange.
//!
//! [`Cartcomm`]: mpijava::Cartcomm

use std::time::Instant;

use mpijava::rs::{CartCommunicator, Communicator};
use mpijava::{Cartcomm, DeviceKind, MpiResult, MpiRuntime, NetworkModel, NodeMap};

/// The three exchange implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloMethod {
    TwoSided,
    NeighborAlltoall,
    RmaFence,
}

impl HaloMethod {
    pub const ALL: [HaloMethod; 3] = [
        HaloMethod::TwoSided,
        HaloMethod::NeighborAlltoall,
        HaloMethod::RmaFence,
    ];

    pub fn label(self) -> &'static str {
        match self {
            HaloMethod::TwoSided => "two-sided",
            HaloMethod::NeighborAlltoall => "neighbor-alltoall",
            HaloMethod::RmaFence => "rma-fence",
        }
    }
}

/// A fabric the sweep runs over: flat shared memory, or a hybrid
/// placement of `ranks` across `nodes` with the modelled gigabit link
/// between nodes.
#[derive(Debug, Clone)]
pub struct HaloFabric {
    /// Cell label (`shm`, `hybrid-2n`, `hybrid-4n`).
    pub label: String,
    pub ranks: usize,
    /// `None` = flat `shm-fast`; `Some(n)` = block placement on n nodes.
    pub nodes: Option<usize>,
}

impl HaloFabric {
    pub fn shm(ranks: usize) -> HaloFabric {
        HaloFabric {
            label: "shm".to_string(),
            ranks,
            nodes: None,
        }
    }

    pub fn hybrid(ranks: usize, nodes: usize) -> HaloFabric {
        HaloFabric {
            label: format!("hybrid-{nodes}n"),
            ranks,
            nodes: Some(nodes),
        }
    }

    fn runtime(&self) -> MpiRuntime {
        let runtime = MpiRuntime::new(self.ranks).eager_threshold(1 << 22);
        match self.nodes {
            None => runtime.device(DeviceKind::ShmFast),
            Some(nodes) => runtime
                .device(DeviceKind::Hybrid)
                .nodes(NodeMap::split(self.ranks, nodes))
                .inter_network(NetworkModel::gigabit()),
        }
    }
}

/// One measured cell.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloRecord {
    /// `two-sided`, `neighbor-alltoall`, `rma-fence`.
    pub method: String,
    /// `shm`, `hybrid-2n`, `hybrid-4n`.
    pub fabric: String,
    /// Halo block size per neighbor (each rank moves 4× this out and in).
    pub payload_bytes: usize,
    pub ranks: usize,
    /// Wall microseconds per full halo exchange (best window, rank 0).
    pub us_per_iter: f64,
}

/// Sweep specification.
#[derive(Debug, Clone)]
pub struct HaloBenchSpec {
    pub fabrics: Vec<HaloFabric>,
    pub methods: Vec<HaloMethod>,
    /// Per-neighbor halo block sizes.
    pub payloads: Vec<usize>,
    pub reps: usize,
    pub warmup: usize,
}

impl Default for HaloBenchSpec {
    fn default() -> HaloBenchSpec {
        HaloBenchSpec {
            fabrics: vec![
                HaloFabric::shm(4),
                HaloFabric::hybrid(4, 2),
                HaloFabric::hybrid(8, 4),
            ],
            methods: HaloMethod::ALL.to_vec(),
            payloads: vec![1024, 8 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024],
            reps: 5,
            warmup: 2,
        }
    }
}

/// The grid: `ranks` as a `ranks/2 × 2` fully periodic torus, so every
/// rank has exactly four neighbor slots `[src0, dst0, src1, dst1]`
/// (MPI-3 §7.6 order — some may coincide on small grids, which is
/// exactly the degenerate case the tag scheme must survive).
fn make_grid(world: &mpijava::Intracomm) -> MpiResult<Cartcomm> {
    let size = world.size()?;
    assert!(
        size >= 4 && size % 2 == 0,
        "halo grid needs an even size >= 4"
    );
    Ok(world
        .create_cart(&[size / 2, 2], &[true, true], false)?
        .expect("every rank belongs to the full grid"))
}

/// Neighbor ranks in slot order `[src0, dst0, src1, dst1]`, as `usize`
/// (the torus is fully periodic, so no slot is ever `PROC_NULL`).
fn slot_peers(cart: &Cartcomm) -> MpiResult<[usize; 4]> {
    let (src0, dst0) = cart.cart_shift(0, 1)?;
    let (src1, dst1) = cart.cart_shift(1, 1)?;
    Ok([src0 as usize, dst0 as usize, src1 as usize, dst1 as usize])
}

/// The slot *on the peer* where my block for local slot `j` lands: my
/// dim-`d` source sees me as its destination and vice versa.
fn remote_slot(j: usize) -> usize {
    j ^ 1
}

/// Verify one received halo set: the block in slot `j` must carry its
/// sender's rank stamp.
fn check_halos(peers: &[usize; 4], chunk: usize, got: impl Fn(usize) -> Vec<u8>) {
    for (j, &peer) in peers.iter().enumerate() {
        let block = got(j);
        assert_eq!(block.len(), chunk, "slot {j}: wrong halo length");
        assert!(
            block.iter().all(|&b| b == peer as u8),
            "slot {j}: halo not from rank {peer}"
        );
    }
}

/// Measure one (fabric, method, payload) cell: microseconds per full
/// halo exchange, best of three barrier-bracketed windows, rank 0.
pub fn measure_halo(
    fabric: &HaloFabric,
    method: HaloMethod,
    payload_bytes: usize,
    reps: usize,
    warmup: usize,
) -> HaloRecord {
    let per_rank = fabric
        .runtime()
        .run(move |mpi| {
            let world = mpi.comm_world();
            crate::pin_rank_thread(world.rank()?);
            let cart = make_grid(&world)?;
            let rank = cart.rank()?;
            let peers = slot_peers(&cart)?;
            let chunk = payload_bytes;
            let stamp = vec![rank as u8; chunk];

            match method {
                HaloMethod::TwoSided => {
                    let mut halos: Vec<Vec<u8>> = vec![vec![0u8; chunk]; 4];
                    let exchange = |halos: &mut Vec<Vec<u8>>| -> MpiResult<()> {
                        let mut recvs = Vec::with_capacity(4);
                        // The block I receive in slot j is the one the
                        // peer sent for its slot j^1, so tag by the
                        // sender's slot: recv slot j <-> tag j^1.
                        for (j, buf) in halos.iter_mut().enumerate() {
                            recvs.push(cart.irecv_into(
                                buf,
                                peers[j] as i32,
                                100 + remote_slot(j) as i32,
                            )?);
                        }
                        let mut sends = Vec::with_capacity(4);
                        for (j, &peer) in peers.iter().enumerate() {
                            sends.push(cart.isend(&stamp, peer as i32, 100 + j as i32)?);
                        }
                        for req in sends {
                            req.wait()?;
                        }
                        for req in recvs {
                            req.wait()?;
                        }
                        Ok(())
                    };
                    for _ in 0..warmup {
                        exchange(&mut halos)?;
                        check_halos(&peers, chunk, |j| halos[j].clone());
                    }
                    let mut best = f64::INFINITY;
                    for _ in 0..3 {
                        cart.barrier()?;
                        let start = Instant::now();
                        for _ in 0..reps {
                            exchange(&mut halos)?;
                        }
                        cart.barrier()?;
                        best = best.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
                    }
                    Ok(best)
                }
                HaloMethod::NeighborAlltoall => {
                    let send: Vec<u8> = std::iter::repeat_n(&stamp, 4).flatten().copied().collect();
                    for _ in 0..warmup {
                        let parts = cart.neighbor_all_to_all(&send)?;
                        check_halos(&peers, chunk, |j| parts[j].clone());
                    }
                    let mut best = f64::INFINITY;
                    for _ in 0..3 {
                        cart.barrier()?;
                        let start = Instant::now();
                        for _ in 0..reps {
                            let parts = cart.neighbor_all_to_all(&send)?;
                            std::hint::black_box(&parts);
                        }
                        cart.barrier()?;
                        best = best.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
                    }
                    Ok(best)
                }
                HaloMethod::RmaFence => {
                    // Window layout mirrors the neighbor slots: slot j's
                    // incoming halo lives at offset j*chunk.
                    let mut region = vec![0u8; 4 * chunk];
                    let mut win = cart.win_create(&mut region)?;
                    win.fence()?; // open the first epoch
                    let exchange = |win: &mut mpijava::Window<'_, u8>| -> MpiResult<()> {
                        for (j, &peer) in peers.iter().enumerate() {
                            win.put(peer, remote_slot(j) * chunk, &stamp)?;
                        }
                        win.fence()
                    };
                    for _ in 0..warmup {
                        exchange(&mut win)?;
                        let local = win.local()?.to_vec();
                        check_halos(&peers, chunk, |j| {
                            local[j * chunk..(j + 1) * chunk].to_vec()
                        });
                    }
                    let mut best = f64::INFINITY;
                    for _ in 0..3 {
                        cart.barrier()?;
                        let start = Instant::now();
                        for _ in 0..reps {
                            exchange(&mut win)?;
                        }
                        cart.barrier()?;
                        best = best.min(start.elapsed().as_secs_f64() * 1e6 / reps as f64);
                    }
                    win.free()?;
                    Ok(best)
                }
            }
        })
        .expect("halo bench run");
    HaloRecord {
        method: method.label().to_string(),
        fabric: fabric.label.clone(),
        payload_bytes,
        ranks: fabric.ranks,
        us_per_iter: per_rank[0],
    }
}

/// Run the sweep; `progress` fires once per finished cell.
pub fn run_halo_suite(
    spec: &HaloBenchSpec,
    mut progress: impl FnMut(&HaloRecord),
) -> Vec<HaloRecord> {
    let mut records = Vec::new();
    for fabric in &spec.fabrics {
        for &method in &spec.methods {
            for &payload in &spec.payloads {
                let record = measure_halo(fabric, method, payload, spec.reps, spec.warmup);
                progress(&record);
                records.push(record);
            }
        }
    }
    records
}

/// Aligned text table, for humans.
pub fn format_halo_table(records: &[HaloRecord]) -> String {
    let mut out = format!(
        "{:>18} {:>10} {:>10} {:>6} {:>12}\n",
        "method", "fabric", "bytes", "ranks", "us/iter"
    );
    for r in records {
        out.push_str(&format!(
            "{:>18} {:>10} {:>10} {:>6} {:>12.2}\n",
            r.method, r.fabric, r.payload_bytes, r.ranks, r.us_per_iter
        ));
    }
    out
}

/// Find a cell.
pub fn find_halo(
    records: &[HaloRecord],
    method: &str,
    fabric: &str,
    payload: usize,
) -> Option<f64> {
    records
        .iter()
        .find(|r| r.method == method && r.fabric == fabric && r.payload_bytes == payload)
        .map(|r| r.us_per_iter)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every method measures a sane tiny cell on shm — and because
    /// warm-up iterations verify the received halos, this also pins the
    /// slot/tag/offset mapping of all three implementations against the
    /// rank-stamp ground truth.
    #[test]
    fn tiny_cells_measure_and_verify_on_every_method() {
        let fabric = HaloFabric::shm(4);
        for method in HaloMethod::ALL {
            let record = measure_halo(&fabric, method, 512, 2, 1);
            assert!(record.us_per_iter > 0.0, "{method:?}");
            assert_eq!(record.ranks, 4);
            assert_eq!(record.fabric, "shm");
        }
    }

    /// The degenerate torus direction (extent-2 periodic dim: src == dst)
    /// must still verify — this is where naive tag schemes cross halos.
    #[test]
    fn degenerate_two_extent_dims_verify_on_a_hybrid_fabric() {
        let fabric = HaloFabric::hybrid(4, 2);
        for method in HaloMethod::ALL {
            let record = measure_halo(&fabric, method, 256, 1, 1);
            assert!(record.us_per_iter > 0.0, "{method:?}");
        }
    }
}
