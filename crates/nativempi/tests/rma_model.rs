//! Differential test of one-sided (RMA) epochs against a reference model.
//!
//! The model is an obviously-correct deferred-epoch window: each rank
//! holds the region as last synchronized, plus, per target, one FIFO of
//! queued operations per origin. Nothing an origin issues touches a
//! region until its covering sync. A fence applies every target's
//! queues origin by origin in rank order, each origin's operations in
//! issue order, and a `get` reads the region at the moment it is applied
//! there. Its value is the origin's to take only after that fence.
//!
//! Three engines run one seeded stream of `put`s, `accumulate`s and
//! `get`s from a single thread, self-targeted ones included. After every
//! operation the target drains its transport, then the origin (which
//! ships a granted rendezvous payload), then the target again, so the
//! order in which a target sees different origins' operations is the
//! stream's order, not rank order. After every step every region must
//! still equal the model's synchronized one, and a `get` must refuse to
//! be taken before its fence. The fences run on one thread per rank, as
//! a collective must. A small eager limit sends the larger payloads by
//! rendezvous.
//!
//! A closing passive-target phase has every rank, the target included,
//! run read-modify-write epochs (`lock`, `get`, `flush`, `put`,
//! `unlock`) on one target at once. Lock exclusivity serializes them:
//! the values each epoch read and wrote must chain from the model's
//! value to the region's final one.

use mpi_native::comm::COMM_WORLD;
use mpi_native::{Engine, PredefinedOp, PrimitiveKind, SendMode, WinHandle, ANY_SOURCE};
use mpi_transport::{DeviceKind, Fabric, FabricConfig};

const SEEDS: u64 = 256;
const RANKS: usize = 3;
/// `i32` cells per window.
const CELLS: usize = 8;
const EPOCHS: usize = 3;
const OPS_PER_EPOCH: usize = 10;
/// Passive read-modify-write epochs per rank.
const PASSIVE_ROUNDS: usize = 2;
/// RMA headers (17 and 19 bytes) and markers go eager; payloads of 6 to
/// 8 cells go by rendezvous.
const EAGER_LIMIT: usize = 20;
const REDUCTIONS: [PredefinedOp; 4] = [
    PredefinedOp::Sum,
    PredefinedOp::Max,
    PredefinedOp::Min,
    PredefinedOp::Bxor,
];

fn ints(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn read_ints(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// One queued operation of the model.
enum ModelOp {
    Put {
        cell: usize,
        values: Vec<i32>,
    },
    Acc {
        cell: usize,
        values: Vec<i32>,
        op: PredefinedOp,
    },
    Get {
        cell: usize,
        len: usize,
        get: usize,
    },
}

/// The reference window.
struct Model {
    /// Each rank's region as of its last completed sync.
    regions: Vec<Vec<i32>>,
    /// `queued[target][origin]`: operations awaiting the next fence.
    queued: Vec<Vec<Vec<ModelOp>>>,
    /// Every get's value, filled in when the model applies it.
    got: Vec<Option<Vec<i32>>>,
}

impl Model {
    fn new(regions: Vec<Vec<i32>>) -> Model {
        Model {
            regions,
            queued: (0..RANKS)
                .map(|_| (0..RANKS).map(|_| Vec::new()).collect())
                .collect(),
            got: Vec::new(),
        }
    }

    fn issue(&mut self, origin: usize, target: usize, op: ModelOp) {
        self.queued[target][origin].push(op);
    }

    fn new_get(&mut self) -> usize {
        self.got.push(None);
        self.got.len() - 1
    }

    fn fence(&mut self) {
        for (region, origins) in self.regions.iter_mut().zip(&mut self.queued) {
            for queue in origins.iter_mut() {
                for op in queue.drain(..) {
                    match op {
                        ModelOp::Put { cell, values } => {
                            region[cell..cell + values.len()].copy_from_slice(&values);
                        }
                        ModelOp::Acc { cell, values, op } => {
                            for (slot, v) in region[cell..].iter_mut().zip(values) {
                                *slot = match op {
                                    PredefinedOp::Sum => *slot + v,
                                    PredefinedOp::Max => (*slot).max(v),
                                    PredefinedOp::Min => (*slot).min(v),
                                    _ => *slot ^ v,
                                };
                            }
                        }
                        ModelOp::Get { cell, len, get } => {
                            self.got[get] = Some(region[cell..cell + len].to_vec());
                        }
                    }
                }
            }
        }
    }
}

/// xorshift64*: the seeded stream.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// Run `f` on every engine at once, one thread each: the collective
/// calls (`win_fence`, `win_free`) and the passive phase.
fn on_every_rank(engines: &mut [Engine], f: impl Fn(usize, &mut Engine) + Sync) {
    std::thread::scope(|s| {
        let f = &f;
        for (rank, engine) in engines.iter_mut().enumerate() {
            s.spawn(move || f(rank, engine));
        }
    });
}

fn regions(engines: &[Engine], win: WinHandle) -> Vec<Vec<i32>> {
    engines
        .iter()
        .map(|engine| read_ints(engine.win_region(win).unwrap()))
        .collect()
}

/// One passive read-modify-write epoch's write: distinct per rank and
/// round, so a lost update breaks the chain.
fn mix(value: i32, rank: usize, round: usize) -> i32 {
    value
        .wrapping_mul(7)
        .wrapping_add(1 + rank as i32 * 2 + round as i32 * 6)
}

/// Run one seeded stream; returns how many sends went by rendezvous.
fn run(seed: u64) -> u64 {
    let endpoints = Fabric::build(FabricConfig::new(RANKS, DeviceKind::ShmFast))
        .unwrap()
        .into_endpoints();
    let mut engines: Vec<Engine> = endpoints.into_iter().map(Engine::new).collect();
    let mut gen = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let initial: Vec<Vec<i32>> = (0..RANKS)
        .map(|rank| (0..CELLS).map(|c| (rank * 100 + c) as i32).collect())
        .collect();
    let mut win = None;
    for (engine, region) in engines.iter_mut().zip(&initial) {
        engine.set_eager_threshold(EAGER_LIMIT);
        win = Some(engine.win_create(COMM_WORLD, ints(region)).unwrap());
    }
    let win = win.unwrap();
    let mut model = Model::new(initial);
    on_every_rank(&mut engines, |_, engine| engine.win_fence(win).unwrap());

    let mut step = 0i32;
    for epoch in 0..EPOCHS {
        let mut gets = Vec::new();
        for _ in 0..OPS_PER_EPOCH {
            step += 1;
            let origin = gen.below(RANKS);
            let target = gen.below(RANKS);
            let len = 1 + gen.below(CELLS);
            let cell = gen.below(CELLS - len + 1);
            let values: Vec<i32> = (0..len).map(|i| step * 10 + i as i32).collect();
            let engine = &mut engines[origin];
            match gen.below(3) {
                0 => {
                    engine
                        .win_put(win, target, cell * 4, &ints(&values))
                        .unwrap();
                    model.issue(origin, target, ModelOp::Put { cell, values });
                }
                1 => {
                    let op = REDUCTIONS[gen.below(REDUCTIONS.len())];
                    engine
                        .win_accumulate(
                            win,
                            target,
                            cell * 4,
                            &ints(&values),
                            PrimitiveKind::Int,
                            op,
                        )
                        .unwrap();
                    model.issue(origin, target, ModelOp::Acc { cell, values, op });
                }
                _ => {
                    let handle = engine.win_get(win, target, cell * 4, len * 4).unwrap();
                    let get = model.new_get();
                    model.issue(origin, target, ModelOp::Get { cell, len, get });
                    gets.push((origin, handle, get));
                }
            }
            for rank in [target, origin, target] {
                engines[rank].progress_poll().unwrap();
            }
            assert_eq!(
                regions(&engines, win),
                model.regions,
                "seed {seed} epoch {epoch} step {step}: an operation was applied before its fence"
            );
        }
        for (origin, handle, _) in &gets {
            assert!(
                engines[*origin].win_get_take(win, *handle).is_err(),
                "seed {seed} epoch {epoch}: a get was taken before its fence"
            );
        }
        on_every_rank(&mut engines, |_, engine| engine.win_fence(win).unwrap());
        model.fence();
        assert_eq!(
            regions(&engines, win),
            model.regions,
            "seed {seed} epoch {epoch}: regions after the fence"
        );
        for (i, (origin, handle, get)) in gets.into_iter().enumerate() {
            let want = model.got[get].clone().unwrap();
            let engine = &mut engines[origin];
            let got = if i % 2 == 0 {
                read_ints(&engine.win_get_take(win, handle).unwrap())
            } else {
                let mut buf = vec![0u8; want.len() * 4];
                engine.win_get_take_into(win, handle, &mut buf).unwrap();
                read_ints(&buf)
            };
            assert_eq!(got, want, "seed {seed} epoch {epoch}: get {get}");
        }
    }

    // Passive phase: every rank runs read-modify-write epochs on one
    // cell of one target; the target keeps its progress engine turning
    // in a receive until every other rank is done.
    let target = gen.below(RANKS);
    let cell = gen.below(CELLS);
    let chain: std::sync::Mutex<Vec<(i32, i32)>> = std::sync::Mutex::new(Vec::new());
    on_every_rank(&mut engines, |rank, engine| {
        for round in 0..PASSIVE_ROUNDS {
            engine.win_lock(win, target).unwrap();
            let get = engine.win_get(win, target, cell * 4, 4).unwrap();
            engine.win_flush(win, target).unwrap();
            let read = read_ints(&engine.win_get_take(win, get).unwrap())[0];
            let wrote = mix(read, rank, round);
            engine
                .win_put(win, target, cell * 4, &ints(&[wrote]))
                .unwrap();
            let get = engine.win_get(win, target, cell * 4, 4).unwrap();
            engine.win_flush(win, target).unwrap();
            let reread = read_ints(&engine.win_get_take(win, get).unwrap())[0];
            assert_eq!(
                reread, wrote,
                "seed {seed}: rank {rank}'s own write under its lock"
            );
            engine.win_unlock(win, target).unwrap();
            chain.lock().unwrap().push((read, wrote));
        }
        if rank == target {
            for _ in 1..RANKS {
                engine.recv(COMM_WORLD, ANY_SOURCE, 7, None).unwrap();
            }
        } else {
            engine
                .send(COMM_WORLD, target as i32, 7, b"done", SendMode::Standard)
                .unwrap();
        }
    });
    let mut chain = chain.into_inner().unwrap();
    let mut value = model.regions[target][cell];
    while !chain.is_empty() {
        let Some(next) = chain.iter().position(|&(read, _)| read == value) else {
            panic!("seed {seed}: passive epochs did not serialize: {value} was never read in {chain:?}");
        };
        value = chain.swap_remove(next).1;
    }
    model.regions[target][cell] = value;
    assert_eq!(
        regions(&engines, win),
        model.regions,
        "seed {seed}: after the passive epochs"
    );

    let rendezvous = engines.iter().map(|e| e.stats().rendezvous_sends).sum();
    on_every_rank(&mut engines, |_, engine| {
        engine.win_free(win).unwrap();
        engine.finalize().unwrap();
    });
    rendezvous
}

#[test]
fn engine_epochs_agree_with_the_reference_model() {
    let mut rendezvous = 0;
    for seed in 0..SEEDS {
        rendezvous += run(seed);
    }
    // The streams exercise the rendezvous path, not just eager frames.
    assert!(rendezvous > SEEDS, "only {rendezvous} rendezvous sends");
}
