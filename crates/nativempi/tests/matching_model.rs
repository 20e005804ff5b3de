//! Differential test of message matching against a reference model.
//!
//! The model is an obviously-correct matcher: per communicator, a FIFO
//! list of posted receives and a FIFO list of unexpected messages; an
//! arrival takes the first posted receive it fits, a post takes the
//! first unexpected message it fits, and `ANY_SOURCE` / `ANY_TAG` fit
//! anything. Three engines run one seeded operation stream from a single
//! thread, so the order in which rank 0 sees posts and arrivals is the
//! stream's order exactly: every step is either rank 0 posting a receive
//! on `COMM_WORLD` or on a dup of it, or rank 1 or 2 sending followed by
//! rank 0 draining its transport (one `iprobe`), which makes that frame
//! arrive at that point. A small eager limit sends most messages by
//! rendezvous, so matched announcements go through the grant. Every
//! receive must end with the (source, tag, payload id) the model gives
//! it, or unmatched where the model leaves it unmatched.

use std::collections::HashMap;

use mpi_native::comm::COMM_WORLD;
use mpi_native::{Engine, RequestId, SendMode, ANY_SOURCE, ANY_TAG};
use mpi_transport::{DeviceKind, Fabric, FabricConfig};

const SEEDS: u64 = 256;
const STEPS: usize = 40;
/// Payloads are 4..=43 bytes: most go by rendezvous, some eager.
const EAGER_LIMIT: usize = 16;

/// What a receive got: (source, tag, payload id).
type Got = Option<(i32, i32, u32)>;

fn fits(want_src: i32, want_tag: i32, src: i32, tag: i32) -> bool {
    (want_src == ANY_SOURCE || want_src == src) && (want_tag == ANY_TAG || want_tag == tag)
}

/// The reference matcher, keyed by communicator index (0 = world, 1 = dup).
#[derive(Default)]
struct Model {
    /// (receive index, source, tag), oldest first.
    posted_recvs: HashMap<usize, Vec<(usize, i32, i32)>>,
    /// (source, tag, payload id), oldest first.
    unexpected_msgs: HashMap<usize, Vec<(i32, i32, u32)>>,
    got: Vec<Got>,
}

impl Model {
    fn post(&mut self, comm: usize, src: i32, tag: i32) {
        let recv = self.got.len();
        self.got.push(None);
        let queue = self.unexpected_msgs.entry(comm).or_default();
        match queue.iter().position(|&(s, t, _)| fits(src, tag, s, t)) {
            Some(i) => self.got[recv] = Some(queue.remove(i)),
            None => self
                .posted_recvs
                .entry(comm)
                .or_default()
                .push((recv, src, tag)),
        }
    }

    fn arrive(&mut self, comm: usize, src: i32, tag: i32, id: u32) {
        let queue = self.posted_recvs.entry(comm).or_default();
        match queue.iter().position(|&(_, s, t)| fits(s, t, src, tag)) {
            Some(i) => {
                let (recv, _, _) = queue.remove(i);
                self.got[recv] = Some((src, tag, id));
            }
            None => self
                .unexpected_msgs
                .entry(comm)
                .or_default()
                .push((src, tag, id)),
        }
    }
}

/// xorshift64*: the seeded stream.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// Three engines over shared memory, each with `COMM_WORLD` and a dup.
fn job() -> (Vec<Engine>, usize) {
    let endpoints = Fabric::build(FabricConfig::new(3, DeviceKind::ShmFast))
        .unwrap()
        .into_endpoints();
    let mut engines: Vec<Engine> = endpoints.into_iter().map(Engine::new).collect();
    let dups: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = engines
            .iter_mut()
            .map(|engine| s.spawn(move || engine.comm_dup(COMM_WORLD).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(dups.iter().all(|&d| d == dups[0]));
    for engine in &mut engines {
        engine.set_eager_threshold(EAGER_LIMIT);
    }
    (engines, dups[0])
}

/// Run one seeded stream; returns what each receive got, engine first,
/// and how many sends went by rendezvous.
fn run(seed: u64) -> (Vec<Got>, Vec<Got>, u64) {
    let (mut engines, dup) = job();
    let comms = [COMM_WORLD, dup];
    let mut gen = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut model = Model::default();
    let mut recvs: Vec<RequestId> = Vec::new();
    let mut next_id = 0u32;
    for _ in 0..STEPS {
        let comm = gen.below(2) as usize;
        if gen.below(2) == 0 {
            let src = [ANY_SOURCE, 1, 2][gen.below(3) as usize];
            let tag = [ANY_TAG, 0, 1][gen.below(3) as usize];
            recvs.push(engines[0].irecv(comms[comm], src, tag, None).unwrap());
            model.post(comm, src, tag);
        } else {
            let src = 1 + gen.below(2) as usize;
            let tag = gen.below(2) as i32;
            let mut payload = next_id.to_le_bytes().to_vec();
            payload.resize(4 + gen.below(40) as usize, 0xA5);
            engines[src]
                .isend(comms[comm], 0, tag, &payload, SendMode::Standard)
                .unwrap();
            engines[0].iprobe(COMM_WORLD, ANY_SOURCE, ANY_TAG).unwrap();
            model.arrive(comm, src as i32, tag, next_id);
            next_id += 1;
        }
    }
    // Let every granted rendezvous finish: the senders take their acks
    // and ship the data, which each receive's `test` then takes in.
    for sender in &mut engines[1..] {
        sender.iprobe(COMM_WORLD, ANY_SOURCE, ANY_TAG).unwrap();
    }
    let got = recvs
        .into_iter()
        .map(|req| {
            let completion = engines[0].test(req).unwrap()?;
            let data = completion.data.unwrap();
            let id = u32::from_le_bytes(data[..4].try_into().unwrap());
            Some((completion.status.source, completion.status.tag, id))
        })
        .collect();
    let rendezvous = engines[1..]
        .iter()
        .map(|e| e.stats().rendezvous_sends)
        .sum();
    (got, model.got, rendezvous)
}

#[test]
fn engine_matching_agrees_with_the_reference_model() {
    let (mut matched, mut rendezvous) = (0, 0);
    for seed in 0..SEEDS {
        let (engine, model, sent_by_rendezvous) = run(seed);
        assert_eq!(
            engine, model,
            "seed {seed}: (source, tag, payload id) per receive"
        );
        matched += model.iter().flatten().count();
        rendezvous += sent_by_rendezvous;
    }
    // The streams exercise matching and the grant, not just posting.
    assert!(matched > SEEDS as usize * 5, "only {matched} matches");
    assert!(rendezvous > SEEDS * 5, "only {rendezvous} rendezvous sends");
}
