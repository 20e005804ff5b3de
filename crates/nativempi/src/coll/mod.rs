//! Collective operations (MPI-1.1 §4): one descriptor, one plan step,
//! three launchers, over a pluggable set of schedule-building
//! algorithms.
//!
//! ## Call flow: descriptor → plan → launcher
//!
//! Every public entry point — blocking (`allreduce`), nonblocking
//! (`iallreduce`) or persistent (`allreduce_init`) — is one line: it
//! names its operation as a [`CollDesc`] (the op plus root /
//! `kind`·`count`·`&Op` / per-rank counts, all borrowed), pairs it with
//! the caller's [`Payload`], and hands both to a launcher.
//!
//! The descriptor and the three launchers are also the binding's entry
//! point: the `mpijava` crate describes each classic and idiomatic
//! collective call as one [`CollDesc`] plus its marshalled payload and
//! runs it through [`Engine::coll_run`], [`Engine::coll_launch`] or
//! [`Engine::coll_init`], storing the [`CollOutcome`] (or the request's
//! completion) back through its own marshal seam. The per-operation
//! methods below stay as the engine-level API of tests and benchmarks.
//!
//! 1. **Descriptor.** Everything the dispatch needs is derived from it:
//!    the [`CollOp`], the selector's inputs (payload bytes,
//!    [`OrderPolicy`], whether topology matters), the argument and
//!    buffer validation (`CollDesc::need`), the single-rank
//!    outcome and the schedule-cache key.
//! 2. **Plan** (`Engine::plan`) runs, exactly once per call and
//!    identically for every op: validate → single-rank communicators
//!    complete immediately (no frames, no schedule) → [`tuning`] selects
//!    the algorithm → `nb::cache::cache_use` decides
//!    templatable-or-not → cache lookup, or build (`Engine::build`, one
//!    `match` over the descriptor into the algorithm modules below) and
//!    cache store. The result is a runnable `nb::CollSchedule` labelled
//!    with the `(op, algorithm)` pair it was planned with.
//! 3. **Launchers.** [`Engine::coll_launch`] starts the plan and
//!    returns a [`RequestId`] (the `i*` forms, completed like any
//!    request through [`Engine::test`] / [`Engine::wait`], whose
//!    completion is the result bytes); [`Engine::coll_run`] is launch +
//!    wait (the blocking forms — the two cannot diverge);
//!    [`Engine::coll_init`] plans without a payload and pins the
//!    schedule as a persistent operation's template (the `*_init`
//!    forms: one more [`RequestId`], restarted with [`Engine::start`]).
//!
//! See [`nb`] for the schedule model, the progress semantics, the
//! tag-window accounting and the schedule cache.
//!
//! ## Algorithms, and which schedules are templatable
//!
//! * [`linear`] — the seed's fan-in/fan-out through one rank, kept as
//!   the paper-faithful baseline; implements everything,
//! * [`tree`] — binomial trees (O(log P) levels),
//! * [`rd`] — recursive doubling on power-of-two communicators,
//! * [`ring`] — ring allgather / reduce-scatter / allreduce for large
//!   payloads (every link busy every round),
//! * [`hier`] — leader-based schedules for multi-fabric jobs: intra-node
//!   traffic folds to the node leaders over the cheap fabric, the
//!   leaders run the flat tree/recursive-doubling schedules among
//!   themselves over the expensive link (auto-selected when the fabric's
//!   [`NodeMap`](mpi_transport::NodeMap) is non-trivial).
//!
//! A schedule is *templatable* when it depends on the call's payload
//! only through its one input slot, so a built schedule can be stored
//! payload-free and replayed (the cache, persistent operations). `✓`
//! templatable, `✗` built per call, blank = the algorithm does not
//! implement the op ([`tuning::supported`]) and selection falls back:
//!
//! | op | linear | tree | rd | ring | hier |
//! |---|---|---|---|---|---|
//! | barrier | ✓ | ✓ | ✓ | | ✓ |
//! | bcast | ✓ | ✓ | | | ✓ |
//! | gather | ✓ | ✓ | | | |
//! | scatter | ✗ | ✗ | | | |
//! | allgather | ✓ | | ✓ | ✓ | ✓ |
//! | alltoall | ✗ | | | | |
//! | reduce | ✓ | ✓ | | | ✓ |
//! | allreduce | ✓ | ✓ | ✓ | ✓ | ✓ |
//! | reduce_scatter | ✗ | | | ✓ | |
//! | scan | ✓ | | | | |
//!
//! Every schedule is a static list of rounds fixed at build time. The
//! `✗` cells bake the payload into that list: scatter and alltoall
//! stage one chunk per destination at build time, and the linear
//! reduce-scatter ends in a scatter. The ring reduce-scatter and
//! allreduce run over their input slot alone (see [`ring`]), so a
//! reduce-scatter's cache key adds its per-rank counts.
//! A templatable call staging more than
//! `nb::cache::SCHED_CACHE_MAX_INPUT_BYTES` bypasses the cache too —
//! one function, `nb::cache::cache_use`, holds both rules.
//!
//! [`tuning`] picks an algorithm from (operation, communicator size,
//! payload bytes, reduction-order policy, node topology); the choice can
//! be pinned with [`CollAlgorithm`] via [`Engine::set_coll_algorithm`]
//! or the `MPIJAVA_COLL_ALG` environment variable
//! ([`algorithm::COLL_ALG_ENV`]). Whatever is selected, every algorithm
//! produces byte-identical results (the cross-algorithm equivalence
//! suite in `tests/coll_equivalence.rs` enforces it — blocking,
//! nonblocking and persistent forms alike), which is why the selection
//! consults an [`OrderPolicy`] before re-associating a reduction.
//!
//! ## Semantics every algorithm preserves
//!
//! * Reductions fold in rank order; non-commutative (but associative, as
//!   MPI requires) user operations see `(((r0 ∘ r1) ∘ …) ∘ rP-1)` up to
//!   re-association, and floating `SUM`/`PROD` — where re-association
//!   changes bits — always run the sequential linear fold.
//! * The `v` variants (per-rank lengths) work under every algorithm: the
//!   tree and recursive-doubling data movers carry explicit
//!   `(rank, payload)` framing, the ring derives the owner of each block
//!   from the round number.
//! * Single-rank communicators return immediately without touching the
//!   transport (no frames, no self-copies through the matching queues);
//!   their nonblocking requests are born complete.

pub mod algorithm;
pub mod desc;
pub mod hier;
pub mod linear;
pub mod nb;
pub mod neighborhood;
pub mod rd;
pub mod ring;
pub mod tree;
pub mod tuning;

pub use algorithm::{CollAlgorithm, COLL_ALG_ENV};
pub use desc::{CollDesc, Payload, Reduction};
pub use nb::CollOutcome;
pub use tuning::{CollOp, OrderPolicy, TopoHint};

use std::borrow::Cow;

use nb::cache::{cache_use, CacheUse, PersistentColl, SchedTemplate};
use nb::{CollSchedule, Round, SlotId, TagWindow};

use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, MpiError, Result};
use crate::ops::Op;
use crate::request::{PersistentDef, RequestId};
use crate::types::PrimitiveKind;
use crate::Engine;

/// Serialize `(rank, payload)` entries for the framed tree / recursive
/// doubling data movers: `u32 n`, then per entry `u32 rank`, `u64 len`,
/// payload bytes (all little-endian). Generic over the payload storage
/// so callers can frame borrowed chunks without copying them first.
pub(crate) fn frame_entries<B: AsRef<[u8]>>(entries: &[(u32, B)]) -> Vec<u8> {
    let total: usize = entries.iter().map(|(_, p)| 12 + p.as_ref().len()).sum();
    let mut wire = Vec::with_capacity(4 + total);
    wire.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (rank, payload) in entries {
        let payload = payload.as_ref();
        wire.extend_from_slice(&rank.to_le_bytes());
        wire.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        wire.extend_from_slice(payload);
    }
    wire
}

/// Inverse of [`frame_entries`], with bounds checking: a truncated or
/// corrupted frame (including an absurd declared count or a length that
/// would overflow) yields a malformed-frame error, never a panic or an
/// unbounded allocation.
pub(crate) fn unframe_entries(wire: &[u8]) -> Result<Vec<(u32, Vec<u8>)>> {
    let malformed = || MpiError::new(ErrorClass::Intern, "malformed collective frame");
    let field = |at: usize, len: usize| -> Result<&[u8]> {
        let end = at.checked_add(len).ok_or_else(malformed)?;
        wire.get(at..end).ok_or_else(malformed)
    };
    let n = u32::from_le_bytes(field(0, 4)?.try_into().unwrap()) as usize;
    // Each entry needs at least its 12-byte header, which bounds how many
    // the wire can really hold regardless of what the count claims.
    if n > wire.len() / 12 {
        return Err(malformed());
    }
    let mut entries = Vec::with_capacity(n);
    let mut cursor = 4usize;
    for _ in 0..n {
        let rank = u32::from_le_bytes(field(cursor, 4)?.try_into().unwrap());
        let len = u64::from_le_bytes(field(cursor + 4, 8)?.try_into().unwrap()) as usize;
        cursor += 12;
        entries.push((rank, field(cursor, len)?.to_vec()));
        cursor += len;
    }
    Ok(entries)
}

/// Turn framed `(rank, payload)` entries into the rank-ordered
/// one-buffer-per-rank shape the collective APIs return, verifying every
/// rank contributed exactly once.
pub(crate) fn entries_to_parts(entries: Vec<(u32, Vec<u8>)>, size: usize) -> Result<Vec<Vec<u8>>> {
    let mut parts: Vec<Option<Vec<u8>>> = vec![None; size];
    for (rank, payload) in entries {
        let slot = parts.get_mut(rank as usize).ok_or_else(|| {
            MpiError::new(ErrorClass::Intern, "collective frame rank out of range")
        })?;
        if slot.replace(payload).is_some() {
            return err(ErrorClass::Intern, "duplicate rank in collective frame");
        }
    }
    parts
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| MpiError::new(ErrorClass::Intern, "missing rank in collective frame"))
}

/// Append the finalize round that publishes slot `slot` as the
/// collective's `Buffer` outcome.
fn finalize_buffer(s: &mut CollSchedule, slot: SlotId) {
    s.push(Round::new().compute(move |ctx| {
        let buffer = ctx.take(slot)?;
        ctx.set_outcome(CollOutcome::Buffer(buffer));
        Ok(())
    }));
}

/// Append the finalize round that unframes slot `slot` into the
/// rank-ordered `Parts` outcome.
fn finalize_parts_from_frame(s: &mut CollSchedule, slot: SlotId, size: usize) {
    s.push(Round::new().compute(move |ctx| {
        let wire = ctx.take(slot)?;
        let parts = entries_to_parts(unframe_entries(&wire)?, size)?;
        ctx.set_outcome(CollOutcome::Parts(parts));
        ctx.recycle(wire);
        Ok(())
    }));
}

/// Where one schedule is built: the communicator, this rank's place in
/// it and the selected algorithm.
#[derive(Clone, Copy)]
struct Site {
    comm: CommHandle,
    rank: usize,
    size: usize,
    alg: CollAlgorithm,
}

/// What [`Engine::plan`] made of one call.
enum Plan {
    /// Single-rank communicator: complete at start, no frames.
    Immediate(CollOutcome),
    /// A runnable schedule and the algorithm it was planned with.
    Run(CollSchedule, CollAlgorithm),
    /// A payload-less (`*_init`) plan selected an algorithm whose
    /// schedules are built around each call's payload: plan per start.
    PerStart,
}

impl Engine {
    /// The node-grouping of a communicator's members (see
    /// [`hier::CommTopology`]); identical on every member because it is
    /// derived from shared state (the fabric's node map and the member
    /// list) without communication.
    pub(crate) fn comm_topology(&self, comm: CommHandle) -> Result<hier::CommTopology> {
        Ok(hier::CommTopology::new(
            self.comm(comm)?.group.ranks(),
            &self.nodes,
        ))
    }

    /// The topology hint for one collective dispatch. Operations without
    /// a hierarchical schedule and single-fabric jobs (the common case)
    /// skip the O(P) member grouping entirely; the full
    /// [`hier::CommTopology`] is only built on non-flat node maps — and
    /// rebuilt by the hier builder when it is actually selected, which
    /// only happens on such maps.
    fn topo_hint(&self, comm: CommHandle, op: CollOp) -> Result<TopoHint> {
        if self.nodes.is_flat() || !tuning::topology_matters(op) {
            return Ok(TopoHint::FLAT);
        }
        Ok(self.comm_topology(comm)?.hint())
    }

    pub(crate) fn expect_buffer(outcome: CollOutcome) -> Result<Vec<u8>> {
        match outcome {
            CollOutcome::Buffer(b) => Ok(b),
            _ => err(ErrorClass::Intern, "collective outcome is not a buffer"),
        }
    }

    pub(crate) fn expect_parts(outcome: CollOutcome) -> Result<Vec<Vec<u8>>> {
        match outcome {
            CollOutcome::Parts(p) => Ok(p),
            _ => err(
                ErrorClass::Intern,
                "collective outcome is not per-rank parts",
            ),
        }
    }

    // ---------------------------------------------------------------------
    // Plan and the three launchers
    // ---------------------------------------------------------------------

    /// Check the engine, the communicator and the call; returns this
    /// rank, the communicator size and the bytes this rank contributes.
    pub(crate) fn coll_validate(
        &self,
        comm: CommHandle,
        d: &CollDesc<'_>,
        payload: &Payload<'_>,
    ) -> Result<(usize, usize, usize)> {
        self.check_live()?;
        let size = self.comm_size(comm)?;
        let rank = self.comm_rank(comm)?;
        Ok((rank, size, d.need(rank, size, payload)?))
    }

    /// Turn one described call into something runnable: validate →
    /// immediate-or-select → templatable-or-not → cache get / build /
    /// put. Every collective, in every call mode, passes through here
    /// exactly once. The selector's inputs are values every rank
    /// computes identically, so hits, misses and the tag windows either
    /// consumes line up across ranks.
    fn plan(&mut self, comm: CommHandle, d: &CollDesc<'_>, payload: Payload<'_>) -> Result<Plan> {
        let (rank, size, need) = self.coll_validate(comm, d, &payload)?;
        if size == 1 {
            return Ok(Plan::Immediate(d.solo_outcome(payload, need)));
        }
        let op = d.op();
        let (bytes, policy) = d.tuning_inputs(need);
        let topo = self.topo_hint(comm, op)?;
        let alg = tuning::select(op, size, bytes, policy, topo, self.forced_coll_alg);
        let at = Site {
            comm,
            rank,
            size,
            alg,
        };
        let schedule = match cache_use(op, alg, need) {
            CacheUse::Never if matches!(payload, Payload::Deferred) => return Ok(Plan::PerStart),
            CacheUse::Never => self.build(at, d, payload, need)?,
            CacheUse::Bypass => {
                self.stats.sched_cache_misses += 1;
                self.build(at, d, payload, need)?
            }
            CacheUse::Template => {
                let key = d.cache_key(comm, alg);
                match self.sched_cache_get(&key) {
                    Some(mut hit) => {
                        hit.set_input(payload.into_vec(need));
                        hit
                    }
                    None => {
                        let mut built = self.build(at, d, payload, need)?;
                        self.sched_cache_put(key, &mut built);
                        built
                    }
                }
            }
        };
        Ok(Plan::Run(schedule, alg))
    }

    /// Launcher: start the planned call, return its request. Its
    /// completion is the [`CollOutcome`] as bytes: nothing for
    /// [`CollOutcome::Done`], the buffer, or the parts concatenated in
    /// rank order.
    pub fn coll_launch(
        &mut self,
        comm: CommHandle,
        d: &CollDesc<'_>,
        payload: Payload<'_>,
    ) -> Result<RequestId> {
        match self.plan(comm, d, payload)? {
            Plan::Immediate(outcome) => self.coll_immediate(outcome),
            Plan::Run(schedule, alg) => self.coll_start(comm, schedule, Some((d.op(), alg))),
            Plan::PerStart => err(ErrorClass::Intern, "collective started without a payload"),
        }
    }

    /// Launcher: start the planned call and wait for it — the blocking
    /// collectives run the same schedules as their `i*` twins.
    pub fn coll_run(
        &mut self,
        comm: CommHandle,
        d: &CollDesc<'_>,
        payload: Payload<'_>,
    ) -> Result<CollOutcome> {
        let req = self.coll_launch(comm, d, payload)?;
        self.wait_outcome(req)
    }

    /// Launcher: plan without a payload and keep the schedule as a
    /// persistent operation's template, pinned to the tag windows the
    /// plan consumed (the schedule itself is never started). Init is a
    /// collective call — every member must call it in the same order
    /// relative to other collectives on the communicator, because it
    /// draws from the shared window sequence. Each [`Engine::start`]
    /// passes this rank's payload; `root_len`, on a broadcast root, is
    /// the length every start must pass (`None`: unchecked).
    pub fn coll_init(
        &mut self,
        comm: CommHandle,
        desc: CollDesc<'static>,
        root_len: Option<usize>,
    ) -> Result<RequestId> {
        let template = match self.plan(comm, &desc, Payload::Deferred)? {
            Plan::Run(mut schedule, alg) => {
                SchedTemplate::capture(&mut schedule).map(|tpl| (tpl, alg))
            }
            Plan::Immediate(_) | Plan::PerStart => None,
        };
        self.persistent_init(PersistentDef::Coll(Box::new(PersistentColl {
            comm,
            desc,
            root_len,
            template,
        })))
    }

    // ---------------------------------------------------------------------
    // Schedule construction: descriptor × algorithm → rounds
    // ---------------------------------------------------------------------

    /// Allocate `N` consecutive tag windows recorded on `s` (see
    /// [`Engine::sched_window`]).
    fn sched_windows<const N: usize>(
        &mut self,
        comm: CommHandle,
        s: &mut CollSchedule,
    ) -> [TagWindow; N] {
        std::array::from_fn(|_| self.sched_window(comm, s))
    }

    /// Build the schedule of `d` under `at.alg` from scratch. Templatable
    /// schedules take the payload through their input slot; the others
    /// (see the table in the module docs) read it here, at build time.
    fn build(
        &mut self,
        at: Site,
        d: &CollDesc<'_>,
        payload: Payload<'_>,
        need: usize,
    ) -> Result<CollSchedule> {
        let mut schedule = CollSchedule::new();
        let s = &mut schedule;
        match d {
            CollDesc::Barrier => self.build_barrier(s, at)?,
            CollDesc::Bcast { root } => self.build_bcast(s, at, *root, payload.into_vec(need))?,
            CollDesc::Gather { root } => self.build_gather(s, at, *root, payload.into_vec(need)),
            CollDesc::Scatter { root } => self.build_scatter(s, at, *root, payload.chunks()),
            CollDesc::Allgather => self.build_allgather(s, at, payload.into_vec(need))?,
            CollDesc::Alltoall => {
                // The posted pairwise exchange is already contention-free;
                // no alternative algorithm is implemented.
                let [win] = self.sched_windows(at.comm, s);
                let chunks = payload.chunks().unwrap_or_default();
                linear::alltoall(s, win, at.rank, at.size, chunks);
            }
            CollDesc::Reduce { root, red } => {
                self.build_reduce(s, at, *root, red, payload.into_vec(need))?
            }
            CollDesc::Allreduce(red) => self.build_allreduce(s, at, red, payload.into_vec(need))?,
            CollDesc::ReduceScatter { counts, red } => {
                self.build_reduce_scatter(s, at, counts, red, payload.into_vec(need))
            }
            CollDesc::Scan(red) => {
                // The prefix chain *is* sequential: linear is the only
                // algorithm.
                let [win] = self.sched_windows(at.comm, s);
                let own = s.input(payload.into_vec(need));
                let op = Op::clone(&red.op);
                let acc = linear::scan(s, win, at.rank, at.size, own, red.kind, red.count, op);
                finalize_buffer(s, acc);
            }
        }
        Ok(schedule)
    }

    fn build_barrier(&mut self, s: &mut CollSchedule, at: Site) -> Result<()> {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        if alg == CollAlgorithm::Hierarchical {
            let topo = self.comm_topology(comm)?;
            let wins = self.sched_windows(comm, s);
            hier::barrier(s, wins, rank, &topo);
            return Ok(());
        }
        let [win] = self.sched_windows(comm, s);
        match alg {
            CollAlgorithm::RecursiveDoubling => rd::barrier(s, win, rank, size),
            CollAlgorithm::BinomialTree => tree::barrier(s, win, rank, size),
            _ => linear::barrier(s, win, rank, size),
        }
        Ok(())
    }

    /// `buf` is the root's payload (ignored elsewhere).
    fn build_bcast(
        &mut self,
        s: &mut CollSchedule,
        at: Site,
        root: usize,
        buf: Vec<u8>,
    ) -> Result<()> {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let data = if rank == root {
            s.input(buf)
        } else {
            s.empty()
        };
        if alg == CollAlgorithm::Hierarchical {
            let topo = self.comm_topology(comm)?;
            let wins = self.sched_windows(comm, s);
            hier::bcast(s, wins, rank, &topo, root, data);
        } else {
            let [win] = self.sched_windows(comm, s);
            match alg {
                CollAlgorithm::BinomialTree => tree::bcast(s, win, rank, size, root, data),
                _ => linear::bcast(s, win, rank, size, root, data),
            }
        }
        finalize_buffer(s, data);
        Ok(())
    }

    fn build_gather(&mut self, s: &mut CollSchedule, at: Site, root: usize, own: Vec<u8>) {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let [win] = self.sched_windows(comm, s);
        let own = s.input(own);
        let framed = match alg {
            CollAlgorithm::BinomialTree => tree::gather(s, win, rank, size, root, own),
            _ => linear::gather(s, win, rank, size, root, own),
        };
        if rank == root {
            finalize_parts_from_frame(s, framed, size);
        }
    }

    fn build_scatter(
        &mut self,
        s: &mut CollSchedule,
        at: Site,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let [win] = self.sched_windows(comm, s);
        let out = s.empty();
        match alg {
            CollAlgorithm::BinomialTree => tree::scatter(s, win, rank, size, root, chunks, out),
            _ => {
                let dest_slots = chunks.map(|chunks| {
                    chunks
                        .iter()
                        .map(|chunk| s.filled(chunk.clone()))
                        .collect::<Vec<_>>()
                });
                linear::scatter(s, win, rank, size, root, dest_slots, out);
            }
        }
        finalize_buffer(s, out);
    }

    fn build_allgather(&mut self, s: &mut CollSchedule, at: Site, own: Vec<u8>) -> Result<()> {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let own = s.input(own);
        let framed = match alg {
            CollAlgorithm::Hierarchical => {
                let topo = self.comm_topology(comm)?;
                let wins = self.sched_windows(comm, s);
                hier::allgather(s, wins, rank, &topo, own)
            }
            CollAlgorithm::RecursiveDoubling => {
                let [win] = self.sched_windows(comm, s);
                rd::allgather(s, win, rank, size, own)
            }
            CollAlgorithm::Ring => {
                let [win] = self.sched_windows(comm, s);
                let parts = ring::allgather(s, win, rank, size, own);
                s.push(Round::new().compute(move |ctx| {
                    let mut out = Vec::with_capacity(parts.len());
                    for &slot in &parts {
                        out.push(ctx.take(slot)?);
                    }
                    ctx.set_outcome(CollOutcome::Parts(out));
                    Ok(())
                }));
                return Ok(());
            }
            _ => {
                // Linear composite: gather to rank 0, broadcast the framed
                // concatenation (per-rank lengths may differ — that is what
                // makes this double as allgatherv).
                let [w1, w2] = self.sched_windows(comm, s);
                let framed = linear::gather(s, w1, rank, size, 0, own);
                linear::bcast(s, w2, rank, size, 0, framed);
                framed
            }
        };
        finalize_parts_from_frame(s, framed, size);
        Ok(())
    }

    fn build_reduce(
        &mut self,
        s: &mut CollSchedule,
        at: Site,
        root: usize,
        red: &Reduction<'_>,
        own: Vec<u8>,
    ) -> Result<()> {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let (kind, count, op) = (red.kind, red.count, Op::clone(&red.op));
        let own = s.input(own);
        let out = if alg == CollAlgorithm::Hierarchical {
            let topo = self.comm_topology(comm)?;
            let wins = self.sched_windows(comm, s);
            hier::reduce(s, wins, rank, &topo, root, own, kind, count, op)
        } else {
            let [win] = self.sched_windows(comm, s);
            match alg {
                CollAlgorithm::BinomialTree => {
                    tree::reduce(s, win, rank, size, root, own, kind, count, op)
                }
                _ => linear::reduce(s, win, rank, size, root, own, kind, count, op),
            }
        };
        if rank == root {
            finalize_buffer(s, out);
        }
        Ok(())
    }

    fn build_allreduce(
        &mut self,
        s: &mut CollSchedule,
        at: Site,
        red: &Reduction<'_>,
        own: Vec<u8>,
    ) -> Result<()> {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let (kind, count) = (red.kind, red.count);
        let own = s.input(own);
        let op = Op::clone(&red.op);
        let out = match alg {
            CollAlgorithm::Ring => {
                let wins = self.sched_windows(comm, s);
                ring::allreduce(s, wins, rank, size, own, kind, count, op);
                own
            }
            CollAlgorithm::Hierarchical => {
                let topo = self.comm_topology(comm)?;
                let wins = self.sched_windows(comm, s);
                hier::allreduce(s, wins, rank, &topo, own, kind, count, op)
            }
            CollAlgorithm::RecursiveDoubling => {
                let [win] = self.sched_windows(comm, s);
                rd::allreduce(s, win, rank, size, own, kind, count, op)
            }
            CollAlgorithm::BinomialTree => {
                let [w1, w2] = self.sched_windows(comm, s);
                let reduced = tree::reduce(s, w1, rank, size, 0, own, kind, count, op);
                tree::bcast(s, w2, rank, size, 0, reduced);
                reduced
            }
            // Linear: reduce to rank 0, then broadcast the result.
            _ => {
                let [w1, w2] = self.sched_windows(comm, s);
                let reduced = linear::reduce(s, w1, rank, size, 0, own, kind, count, op);
                linear::bcast(s, w2, rank, size, 0, reduced);
                reduced
            }
        };
        finalize_buffer(s, out);
        Ok(())
    }

    fn build_reduce_scatter(
        &mut self,
        s: &mut CollSchedule,
        at: Site,
        counts: &[usize],
        red: &Reduction<'_>,
        own: Vec<u8>,
    ) {
        let Site {
            comm,
            rank,
            size,
            alg,
        } = at;
        let kind = red.kind;
        let own = s.input(own);
        let out = if alg == CollAlgorithm::Ring {
            let [win] = self.sched_windows(comm, s);
            let bounds = ring::bounds(counts, kind.size());
            ring::reduce_scatter(s, win, rank, size, own, &bounds, kind, Op::clone(&red.op));
            // This rank's reduced segment becomes the whole buffer.
            let (lo, hi) = (bounds[rank], bounds[rank + 1]);
            s.push(Round::new().compute(move |ctx| {
                let data = ctx.get_mut(own)?;
                data.copy_within(lo..hi, 0);
                data.truncate(hi - lo);
                Ok(())
            }));
            own
        } else {
            // Linear composite: reduce the full vector at rank 0, then
            // scatter `counts[i]`-element segments.
            let [w1, w2] = self.sched_windows(comm, s);
            let op = Op::clone(&red.op);
            let reduced = linear::reduce(s, w1, rank, size, 0, own, kind, red.count, op);
            let out = s.empty();
            let dest_slots: Option<Vec<SlotId>> =
                (rank == 0).then(|| (0..size).map(|_| s.empty()).collect());
            if let Some(bridge_slots) = dest_slots.clone() {
                let counts = counts.to_vec();
                let elem = kind.size();
                s.push(Round::new().compute(move |ctx| {
                    let full = ctx.take(reduced)?;
                    let mut cursor = 0usize;
                    for (&slot, &c) in bridge_slots.iter().zip(&counts) {
                        let bytes = c * elem;
                        ctx.put(slot, full[cursor..cursor + bytes].to_vec());
                        cursor += bytes;
                    }
                    ctx.recycle(full);
                    Ok(())
                }));
            }
            linear::scatter(s, w2, rank, size, 0, dest_slots, out);
            out
        };
        finalize_buffer(s, out);
    }

    // ---------------------------------------------------------------------
    // Public entry points: one descriptor, one launcher each
    // ---------------------------------------------------------------------

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: CommHandle) -> Result<()> {
        self.coll_run(comm, &CollDesc::Barrier, Payload::Bytes(&[]))?;
        Ok(())
    }

    /// `MPI_Ibarrier`: completes with no payload.
    pub fn ibarrier(&mut self, comm: CommHandle) -> Result<RequestId> {
        self.coll_launch(comm, &CollDesc::Barrier, Payload::Bytes(&[]))
    }

    /// `MPI_Barrier_init`: a reusable barrier. Start iterations with
    /// [`Engine::start`] (input ignored).
    pub fn barrier_init(&mut self, comm: CommHandle) -> Result<RequestId> {
        self.coll_init(comm, CollDesc::Barrier, None)
    }

    /// `MPI_Bcast`: `buf` is the payload on the root and is overwritten on
    /// every other rank.
    pub fn bcast(&mut self, comm: CommHandle, root: usize, buf: &mut Vec<u8>) -> Result<()> {
        let desc = CollDesc::Bcast { root };
        // Validate before taking the buffer so a rejected call leaves
        // the caller's payload untouched.
        self.coll_validate(comm, &desc, &Payload::Deferred)?;
        let outcome = self.coll_run(comm, &desc, Payload::Owned(std::mem::take(buf)))?;
        *buf = Self::expect_buffer(outcome)?;
        Ok(())
    }

    /// `MPI_Ibcast`: `buf` is the payload on the root (ignored
    /// elsewhere); completes with the broadcast payload on every rank.
    pub fn ibcast(&mut self, comm: CommHandle, root: usize, buf: Vec<u8>) -> Result<RequestId> {
        self.coll_launch(comm, &CollDesc::Bcast { root }, Payload::Owned(buf))
    }

    /// `MPI_Bcast_init`: a reusable broadcast from `root`. `len` is the
    /// payload length the root will pass to every `start()` (ignored on
    /// other ranks, which receive whatever arrives).
    pub fn bcast_init(&mut self, comm: CommHandle, root: usize, len: usize) -> Result<RequestId> {
        let root_len = (self.comm_rank(comm)? == root).then_some(len);
        self.coll_init(comm, CollDesc::Bcast { root }, root_len)
    }

    /// `MPI_Gather` / `MPI_Gatherv`: every rank contributes `send`; the root
    /// receives one buffer per rank (in rank order), everyone else `None`.
    pub fn gather(
        &mut self,
        comm: CommHandle,
        root: usize,
        send: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        match self.coll_run(comm, &CollDesc::Gather { root }, Payload::Bytes(send))? {
            CollOutcome::Done => Ok(None),
            outcome => Ok(Some(Self::expect_parts(outcome)?)),
        }
    }

    /// `MPI_Igather` / `Igatherv`: completes with every rank's
    /// contribution, concatenated in rank order, on the root, and with
    /// no payload elsewhere.
    pub fn igather(&mut self, comm: CommHandle, root: usize, send: &[u8]) -> Result<RequestId> {
        self.coll_launch(comm, &CollDesc::Gather { root }, Payload::Bytes(send))
    }

    /// `MPI_Scatter` / `MPI_Scatterv`: the root supplies one buffer per rank
    /// (`chunks`, rank order); every rank receives its own chunk.
    pub fn scatter(
        &mut self,
        comm: CommHandle,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> Result<Vec<u8>> {
        let outcome = self.coll_run(comm, &CollDesc::Scatter { root }, Payload::Chunks(chunks))?;
        Self::expect_buffer(outcome)
    }

    /// `MPI_Iscatter` / `Iscatterv`: the root supplies one buffer per
    /// rank (`chunks`, rank order); completes with this rank's chunk.
    pub fn iscatter(
        &mut self,
        comm: CommHandle,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
    ) -> Result<RequestId> {
        self.coll_launch(comm, &CollDesc::Scatter { root }, Payload::Chunks(chunks))
    }

    /// `MPI_Allgather` / `MPI_Allgatherv`: returns one buffer per rank on
    /// every rank.
    pub fn allgather(&mut self, comm: CommHandle, send: &[u8]) -> Result<Vec<Vec<u8>>> {
        let outcome = self.coll_run(comm, &CollDesc::Allgather, Payload::Bytes(send))?;
        Self::expect_parts(outcome)
    }

    /// `MPI_Iallgather` / `Iallgatherv`: completes with every rank's
    /// contribution, concatenated in rank order, on every rank.
    pub fn iallgather(&mut self, comm: CommHandle, send: &[u8]) -> Result<RequestId> {
        self.coll_launch(comm, &CollDesc::Allgather, Payload::Bytes(send))
    }

    /// `MPI_Allgather_init`: a reusable allgather (per-rank lengths may
    /// vary between starts — the wire format is length-independent).
    pub fn allgather_init(&mut self, comm: CommHandle) -> Result<RequestId> {
        self.coll_init(comm, CollDesc::Allgather, None)
    }

    /// `MPI_Alltoall` / `MPI_Alltoallv`: `chunks[d]` goes to rank `d`;
    /// returns the chunk received from every rank.
    pub fn alltoall(&mut self, comm: CommHandle, chunks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let outcome = self.coll_run(comm, &CollDesc::Alltoall, Payload::Chunks(Some(chunks)))?;
        Self::expect_parts(outcome)
    }

    /// `MPI_Ialltoall` / `Ialltoallv`: `chunks[d]` goes to rank `d`;
    /// completes with the chunks received from every rank, concatenated
    /// in rank order.
    pub fn ialltoall(&mut self, comm: CommHandle, chunks: &[Vec<u8>]) -> Result<RequestId> {
        self.coll_launch(comm, &CollDesc::Alltoall, Payload::Chunks(Some(chunks)))
    }

    /// `MPI_Reduce`: element-wise reduction of `count` elements of `kind`
    /// with `op`, rank order, result on the root.
    pub fn reduce<'a>(
        &mut self,
        comm: CommHandle,
        root: usize,
        send: impl Into<Cow<'a, [u8]>>,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<Option<Vec<u8>>> {
        let red = Reduction::borrowed(kind, count, op);
        match self.coll_run(
            comm,
            &CollDesc::Reduce { root, red },
            Payload::from(send.into()),
        )? {
            CollOutcome::Done => Ok(None),
            outcome => Ok(Some(Self::expect_buffer(outcome)?)),
        }
    }

    /// `MPI_Ireduce`: element-wise reduction of `count` elements of
    /// `kind` with `op`, rank order; completes with the result on the
    /// root and with no payload elsewhere.
    pub fn ireduce<'a>(
        &mut self,
        comm: CommHandle,
        root: usize,
        send: impl Into<Cow<'a, [u8]>>,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<RequestId> {
        let red = Reduction::borrowed(kind, count, op);
        self.coll_launch(
            comm,
            &CollDesc::Reduce { root, red },
            Payload::from(send.into()),
        )
    }

    /// `MPI_Reduce_init`: a reusable rank-order reduction to `root`.
    pub fn reduce_init(
        &mut self,
        comm: CommHandle,
        root: usize,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<RequestId> {
        let red = Reduction::owned(kind, count, op);
        self.coll_init(comm, CollDesc::Reduce { root, red }, None)
    }

    /// `MPI_Allreduce`: the reduction delivered to every rank.
    pub fn allreduce<'a>(
        &mut self,
        comm: CommHandle,
        send: impl Into<Cow<'a, [u8]>>,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<Vec<u8>> {
        let desc = CollDesc::Allreduce(Reduction::borrowed(kind, count, op));
        Self::expect_buffer(self.coll_run(comm, &desc, Payload::from(send.into()))?)
    }

    /// `MPI_Iallreduce`: completes with the full reduction on every
    /// rank.
    pub fn iallreduce<'a>(
        &mut self,
        comm: CommHandle,
        send: impl Into<Cow<'a, [u8]>>,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<RequestId> {
        let desc = CollDesc::Allreduce(Reduction::borrowed(kind, count, op));
        self.coll_launch(comm, &desc, Payload::from(send.into()))
    }

    /// `MPI_Allreduce_init`: a reusable allreduce. Each `start()` takes
    /// this rank's `count * kind.size()`-byte contribution; the wait's
    /// completion is the full reduction, as for `iallreduce`.
    pub fn allreduce_init(
        &mut self,
        comm: CommHandle,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<RequestId> {
        let red = Reduction::owned(kind, count, op);
        self.coll_init(comm, CollDesc::Allreduce(red), None)
    }

    /// `MPI_Reduce_scatter`: reduce the full vector, deliver `counts[i]`
    /// elements of the result to rank `i`.
    pub fn reduce_scatter<'a>(
        &mut self,
        comm: CommHandle,
        send: impl Into<Cow<'a, [u8]>>,
        counts: &[usize],
        kind: PrimitiveKind,
        op: &Op,
    ) -> Result<Vec<u8>> {
        let desc = CollDesc::reduce_scatter(counts, kind, op);
        let my_chunk =
            Self::expect_buffer(self.coll_run(comm, &desc, Payload::from(send.into()))?)?;
        debug_assert_eq!(my_chunk.len(), counts[self.comm_rank(comm)?] * kind.size());
        Ok(my_chunk)
    }

    /// `MPI_Ireduce_scatter`: completes with this rank's
    /// `counts[rank]`-element slice of the reduced vector.
    pub fn ireduce_scatter<'a>(
        &mut self,
        comm: CommHandle,
        send: impl Into<Cow<'a, [u8]>>,
        counts: &[usize],
        kind: PrimitiveKind,
        op: &Op,
    ) -> Result<RequestId> {
        let desc = CollDesc::reduce_scatter(counts, kind, op);
        self.coll_launch(comm, &desc, Payload::from(send.into()))
    }

    /// `MPI_Scan`: inclusive prefix reduction in rank order.
    pub fn scan<'a>(
        &mut self,
        comm: CommHandle,
        send: impl Into<Cow<'a, [u8]>>,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<Vec<u8>> {
        let desc = CollDesc::Scan(Reduction::borrowed(kind, count, op));
        Self::expect_buffer(self.coll_run(comm, &desc, Payload::from(send.into()))?)
    }

    /// `MPI_Iscan`: inclusive prefix reduction in rank order; completes
    /// with this rank's prefix.
    pub fn iscan<'a>(
        &mut self,
        comm: CommHandle,
        send: impl Into<Cow<'a, [u8]>>,
        kind: PrimitiveKind,
        count: usize,
        op: &Op,
    ) -> Result<RequestId> {
        let desc = CollDesc::Scan(Reduction::borrowed(kind, count, op));
        self.coll_launch(comm, &desc, Payload::from(send.into()))
    }

    /// Agree on the maximum of a `u32` across the communicator (used for
    /// context-id allocation).
    pub(crate) fn allreduce_u32_max(&mut self, comm: CommHandle, value: u32) -> Result<u32> {
        let bytes = (value as i64).to_le_bytes();
        let out = self.allreduce(
            comm,
            &bytes,
            PrimitiveKind::Long,
            1,
            &Op::Predefined(crate::ops::PredefinedOp::Max),
        )?;
        Ok(i64::from_le_bytes(out[..8].try_into().unwrap()) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{COMM_SELF, COMM_WORLD};
    use crate::ops::PredefinedOp;
    use crate::request::Completion;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;
    use std::borrow::Cow;

    /// The payload a collective's completion delivers.
    fn payload(completion: Completion) -> Vec<u8> {
        completion.data.expect("a payload").into()
    }

    fn ints(values: &[i32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn to_ints(bytes: &[u8]) -> Vec<i32> {
        bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn barrier_completes_on_all_ranks() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            for _ in 0..3 {
                engine.barrier(COMM_WORLD).unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn bcast_distributes_roots_buffer() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let mut buf = if engine.world_rank() == 2 {
                b"broadcast payload".to_vec()
            } else {
                Vec::new()
            };
            engine.bcast(COMM_WORLD, 2, &mut buf).unwrap();
            assert_eq!(&buf, b"broadcast payload");
        })
        .unwrap();
        // Under each bcast algorithm, blocking and nonblocking: empty,
        // one-byte, 32 KiB and ragged 96 KiB payloads from a root at
        // either end replace a non-root's stale buffer, and an `ibcast`
        // completes when driven by `test` alone.
        for alg in [CollAlgorithm::Linear, CollAlgorithm::BinomialTree] {
            for size in [2usize, 3, 4, 8] {
                Universe::run(size, DeviceKind::ShmFast, move |engine| {
                    engine.set_coll_algorithm(Some(alg));
                    let rank = engine.world_rank();
                    for root in [0, size - 1] {
                        for len in [0usize, 1, 32 << 10, (96 << 10) + 7] {
                            let expected: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                            let contribution = || {
                                if rank == root {
                                    expected.clone()
                                } else {
                                    vec![0xEE; 3]
                                }
                            };
                            let at = format!("{alg} size={size} root={root} len={len}");
                            let mut buf = contribution();
                            engine.bcast(COMM_WORLD, root, &mut buf).unwrap();
                            assert_eq!(buf, expected, "{at}");
                            let req = engine.ibcast(COMM_WORLD, root, contribution()).unwrap();
                            let completion = loop {
                                if let Some(completion) = engine.test(req).unwrap() {
                                    break completion;
                                }
                                std::thread::yield_now();
                            };
                            assert_eq!(payload(completion), expected, "{at}");
                        }
                    }
                })
                .unwrap();
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let send = vec![rank as u8; rank + 1]; // different lengths (gatherv)
            let got = engine.gather(COMM_WORLD, 0, &send).unwrap();
            if rank == 0 {
                let parts = got.unwrap();
                assert_eq!(parts.len(), 4);
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p.len(), r + 1);
                    assert!(p.iter().all(|&b| b == r as u8));
                }
            } else {
                assert!(got.is_none());
            }
        })
        .unwrap();
    }

    #[test]
    fn scatter_delivers_per_rank_chunks() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let chunks: Option<Vec<Vec<u8>>> = if rank == 1 {
                Some((0..3).map(|r| vec![r as u8 * 10; r + 1]).collect())
            } else {
                None
            };
            let mine = engine.scatter(COMM_WORLD, 1, chunks.as_deref()).unwrap();
            assert_eq!(mine.len(), rank + 1);
            assert!(mine.iter().all(|&b| b == rank as u8 * 10));
        })
        .unwrap();
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let parts = engine
                .allgather(COMM_WORLD, &[rank as u8, (rank * 2) as u8])
                .unwrap();
            assert_eq!(parts.len(), 4);
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(p, &vec![r as u8, (r * 2) as u8]);
            }
        })
        .unwrap();
    }

    #[test]
    fn alltoall_transposes_chunks() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            // chunk sent from rank r to rank d = [r, d]
            let chunks: Vec<Vec<u8>> = (0..3).map(|d| vec![rank as u8, d as u8]).collect();
            let got = engine.alltoall(COMM_WORLD, &chunks).unwrap();
            for (src, chunk) in got.iter().enumerate() {
                assert_eq!(chunk, &vec![src as u8, rank as u8]);
            }
        })
        .unwrap();
    }

    #[test]
    fn reduce_sums_in_rank_order() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let send = ints(&[rank, rank * 10]);
            let got = engine
                .reduce(
                    COMM_WORLD,
                    0,
                    &send,
                    PrimitiveKind::Int,
                    2,
                    &Op::Predefined(PredefinedOp::Sum),
                )
                .unwrap();
            if engine.world_rank() == 0 {
                assert_eq!(to_ints(&got.unwrap()), vec![6, 60]);
            } else {
                assert!(got.is_none());
            }
        })
        .unwrap();
    }

    #[test]
    fn allreduce_max_everywhere() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let send = ints(&[rank, -rank]);
            let got = engine
                .allreduce(
                    COMM_WORLD,
                    &send,
                    PrimitiveKind::Int,
                    2,
                    &Op::Predefined(PredefinedOp::Max),
                )
                .unwrap();
            assert_eq!(to_ints(&got), vec![3, 0]);
        })
        .unwrap();
    }

    #[test]
    fn scan_computes_inclusive_prefix() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let send = ints(&[rank + 1]);
            let got = engine
                .scan(
                    COMM_WORLD,
                    &send,
                    PrimitiveKind::Int,
                    1,
                    &Op::Predefined(PredefinedOp::Sum),
                )
                .unwrap();
            let expected: i32 = (1..=rank + 1).sum();
            assert_eq!(to_ints(&got), vec![expected]);
        })
        .unwrap();
    }

    #[test]
    fn reduce_scatter_splits_reduced_vector() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            // Every rank contributes [rank; 6]; sum = [0+1+2; 6] = [3; 6].
            let send = ints(&[rank; 6]);
            let counts = [1usize, 2, 3];
            let got = engine
                .reduce_scatter(
                    COMM_WORLD,
                    &send,
                    &counts,
                    PrimitiveKind::Int,
                    &Op::Predefined(PredefinedOp::Sum),
                )
                .unwrap();
            let vals = to_ints(&got);
            assert_eq!(vals.len(), counts[rank as usize]);
            assert!(vals.iter().all(|&v| v == 3));
        })
        .unwrap();
    }

    #[test]
    fn collectives_work_on_split_communicators() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let sub = engine
                .comm_split(COMM_WORLD, (rank % 2) as i32, rank as i32)
                .unwrap()
                .unwrap();
            let send = ints(&[rank as i32]);
            let got = engine
                .allreduce(
                    sub,
                    &send,
                    PrimitiveKind::Int,
                    1,
                    &Op::Predefined(PredefinedOp::Sum),
                )
                .unwrap();
            // evens: 0 + 2 = 2; odds: 1 + 3 = 4
            let expected = if rank % 2 == 0 { 2 } else { 4 };
            assert_eq!(to_ints(&got), vec![expected]);
        })
        .unwrap();
    }

    #[test]
    fn user_defined_op_in_allreduce() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            use std::sync::Arc;
            let op = Op::User(Arc::new(|incoming, acc, _kind, count| {
                for i in 0..count {
                    let a = i32::from_le_bytes(acc[i * 4..(i + 1) * 4].try_into().unwrap());
                    let b = i32::from_le_bytes(incoming[i * 4..(i + 1) * 4].try_into().unwrap());
                    acc[i * 4..(i + 1) * 4].copy_from_slice(&(a * 10 + b).to_le_bytes());
                }
                Ok(())
            }));
            let rank = engine.world_rank() as i32;
            let got = engine
                .allreduce(COMM_WORLD, ints(&[rank + 1]), PrimitiveKind::Int, 1, &op)
                .unwrap();
            // fold in rank order: ((1*10+2)*10+3) = 123
            assert_eq!(to_ints(&got), vec![123]);
        })
        .unwrap();
    }

    #[test]
    fn invalid_roots_and_counts_are_rejected() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let mut buf = Vec::new();
            assert!(engine.bcast(COMM_WORLD, 5, &mut buf).is_err());
            assert!(engine.gather(COMM_WORLD, 9, b"x").is_err());
            assert!(engine.alltoall(COMM_WORLD, &[vec![0u8]]).is_err());
        })
        .unwrap();
    }

    #[test]
    fn forced_algorithms_still_produce_correct_results() {
        for alg in CollAlgorithm::ALL {
            Universe::run(4, DeviceKind::ShmFast, move |engine| {
                engine.set_coll_algorithm(Some(alg));
                let rank = engine.world_rank() as i32;
                let got = engine
                    .allreduce(
                        COMM_WORLD,
                        ints(&[rank]),
                        PrimitiveKind::Int,
                        1,
                        &Op::Predefined(PredefinedOp::Sum),
                    )
                    .unwrap();
                assert_eq!(to_ints(&got), vec![6], "{alg}");
                let mut buf = if rank == 1 { vec![9u8; 33] } else { Vec::new() };
                engine.bcast(COMM_WORLD, 1, &mut buf).unwrap();
                assert_eq!(buf, vec![9u8; 33], "{alg}");
            })
            .unwrap();
        }
    }

    /// Satellite: every collective on a single-rank communicator returns
    /// immediately without touching the transport.
    #[test]
    fn size_one_fast_paths_skip_the_transport() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let op = Op::Predefined(PredefinedOp::Sum);
            engine.barrier(COMM_WORLD).unwrap();
            let mut buf = b"solo".to_vec();
            engine.bcast(COMM_WORLD, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"solo");
            let parts = engine.gather(COMM_WORLD, 0, b"g").unwrap().unwrap();
            assert_eq!(parts, vec![b"g".to_vec()]);
            let chunk = engine
                .scatter(COMM_WORLD, 0, Some(&[b"s".to_vec()]))
                .unwrap();
            assert_eq!(chunk, b"s".to_vec());
            let all = engine.allgather(COMM_WORLD, b"ag").unwrap();
            assert_eq!(all, vec![b"ag".to_vec()]);
            let exchanged = engine.alltoall(COMM_WORLD, &[b"a2a".to_vec()]).unwrap();
            assert_eq!(exchanged, vec![b"a2a".to_vec()]);
            let reduced = engine
                .reduce(COMM_WORLD, 0, ints(&[7]), PrimitiveKind::Int, 1, &op)
                .unwrap()
                .unwrap();
            assert_eq!(to_ints(&reduced), vec![7]);
            let allred = engine
                .allreduce(COMM_WORLD, ints(&[8]), PrimitiveKind::Int, 1, &op)
                .unwrap();
            assert_eq!(to_ints(&allred), vec![8]);
            let rs = engine
                .reduce_scatter(COMM_WORLD, ints(&[4, 5]), &[2], PrimitiveKind::Int, &op)
                .unwrap();
            assert_eq!(to_ints(&rs), vec![4, 5]);
            let scanned = engine
                .scan(COMM_WORLD, ints(&[6]), PrimitiveKind::Int, 1, &op)
                .unwrap();
            assert_eq!(to_ints(&scanned), vec![6]);
            let stats = engine.stats();
            assert_eq!(stats.eager_sends + stats.rendezvous_sends, 0);
            assert_eq!(stats.bytes_sent, 0);
            assert_eq!(stats.bytes_received, 0);
        })
        .unwrap();
    }

    /// COMM_SELF is a single-rank communicator even in a multi-rank world,
    /// so its collectives must take the same fast path.
    #[test]
    fn comm_self_collectives_use_the_fast_path() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let before = engine.stats().clone();
            let rank = engine.world_rank() as i32;
            let got = engine
                .allreduce(
                    COMM_SELF,
                    ints(&[rank]),
                    PrimitiveKind::Int,
                    1,
                    &Op::Predefined(PredefinedOp::Sum),
                )
                .unwrap();
            assert_eq!(to_ints(&got), vec![rank]);
            engine.barrier(COMM_SELF).unwrap();
            let after = engine.stats();
            assert_eq!(
                before.eager_sends + before.rendezvous_sends,
                after.eager_sends + after.rendezvous_sends
            );
        })
        .unwrap();
    }

    /// Tentpole smoke: every hierarchical collective over a genuine
    /// hybrid fabric (2 nodes × 4 ranks), including non-leader roots
    /// (the extra intra-node hop) and variable-length contributions.
    #[test]
    fn hierarchical_collectives_work_over_a_hybrid_fabric() {
        use crate::UniverseConfig;
        use mpi_transport::NodeMap;
        let config = UniverseConfig::new(8, DeviceKind::Hybrid)
            .with_nodes(NodeMap::regular(2, 4))
            .with_coll_algorithm(CollAlgorithm::Hierarchical);
        Universe::run_with_config(config, |engine| {
            let rank = engine.world_rank();
            let sum = Op::Predefined(PredefinedOp::Sum);
            engine.barrier(COMM_WORLD).unwrap();

            // Bcast from a non-leader root (rank 5 lives on node 1,
            // whose leader is rank 4): exercises the root hop.
            let mut buf = if rank == 5 {
                b"hier".to_vec()
            } else {
                Vec::new()
            };
            engine.bcast(COMM_WORLD, 5, &mut buf).unwrap();
            assert_eq!(&buf, b"hier");

            // Allreduce on every rank.
            let got = engine
                .allreduce(
                    COMM_WORLD,
                    ints(&[rank as i32, 1]),
                    PrimitiveKind::Int,
                    2,
                    &sum,
                )
                .unwrap();
            assert_eq!(to_ints(&got), vec![28, 8]);

            // Reduce to a non-leader root (delivery hop).
            let got = engine
                .reduce(
                    COMM_WORLD,
                    3,
                    ints(&[rank as i32]),
                    PrimitiveKind::Int,
                    1,
                    &sum,
                )
                .unwrap();
            if rank == 3 {
                assert_eq!(to_ints(&got.unwrap()), vec![28]);
            } else {
                assert!(got.is_none());
            }

            // Allgatherv with variable (incl. zero) lengths.
            let contribution = vec![rank as u8; rank % 3];
            let parts = engine.allgather(COMM_WORLD, &contribution).unwrap();
            assert_eq!(parts.len(), 8);
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(p, &vec![r as u8; r % 3], "rank {r}");
            }

            // And the nonblocking twin of one of them, driven by test().
            let req = engine
                .iallreduce(COMM_WORLD, ints(&[1]), PrimitiveKind::Int, 1, &sum)
                .unwrap();
            let completion = loop {
                if let Some(completion) = engine.test(req).unwrap() {
                    break completion;
                }
                std::thread::yield_now();
            };
            assert_eq!(to_ints(&payload(completion)), vec![8]);
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn frame_helpers_round_trip() {
        let entries = vec![
            (3u32, vec![1u8, 2, 3]),
            (0u32, Vec::new()),
            (2u32, vec![9u8; 100]),
            (1u32, vec![7u8]),
        ];
        let wire = frame_entries(&entries);
        let back = unframe_entries(&wire).unwrap();
        assert_eq!(back, entries);
        let parts = entries_to_parts(back, 4).unwrap();
        assert_eq!(parts[0], Vec::<u8>::new());
        assert_eq!(parts[3], vec![1, 2, 3]);
        // Truncated wire is rejected, not panicked on.
        assert!(unframe_entries(&wire[..wire.len() - 1]).is_err());
        // A corrupted count prefix must error, not attempt a huge alloc.
        assert!(unframe_entries(&[0xff, 0xff, 0xff, 0xff]).is_err());
        // Missing / duplicate ranks are rejected.
        assert!(entries_to_parts(vec![(0, Vec::new())], 2).is_err());
        assert!(entries_to_parts(vec![(0, Vec::new()), (0, Vec::new())], 2).is_err());
    }

    // -----------------------------------------------------------------
    // Nonblocking entry points
    // -----------------------------------------------------------------

    /// All seven nonblocking collectives complete through `wait` and
    /// match their blocking twins' results.
    #[test]
    fn nonblocking_collectives_complete_via_wait() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let sum = Op::Predefined(PredefinedOp::Sum);

            let req = engine.ibarrier(COMM_WORLD).unwrap();
            assert_eq!(engine.wait(req).unwrap(), Completion::empty());

            let buf = if rank == 1 {
                b"nb-bcast".to_vec()
            } else {
                Vec::new()
            };
            let req = engine.ibcast(COMM_WORLD, 1, buf).unwrap();
            assert_eq!(payload(engine.wait(req).unwrap()), b"nb-bcast".to_vec());

            let req = engine.igather(COMM_WORLD, 2, &[rank as u8; 3]).unwrap();
            let completion = engine.wait(req).unwrap();
            if rank == 2 {
                let all: Vec<u8> = (0..4u8).flat_map(|r| [r; 3]).collect();
                assert_eq!(payload(completion), all);
            } else {
                assert_eq!(completion, Completion::empty());
            }

            let chunks: Option<Vec<Vec<u8>>> = if rank == 0 {
                Some((0..4).map(|r| vec![r as u8; r + 1]).collect())
            } else {
                None
            };
            let req = engine.iscatter(COMM_WORLD, 0, chunks.as_deref()).unwrap();
            assert_eq!(
                payload(engine.wait(req).unwrap()),
                vec![rank as u8; rank + 1]
            );

            let req = engine.iallgather(COMM_WORLD, &[rank as u8]).unwrap();
            assert_eq!(payload(engine.wait(req).unwrap()), vec![0, 1, 2, 3]);

            let req = engine
                .ireduce(
                    COMM_WORLD,
                    3,
                    ints(&[rank as i32]),
                    PrimitiveKind::Int,
                    1,
                    &sum,
                )
                .unwrap();
            let completion = engine.wait(req).unwrap();
            if rank == 3 {
                assert_eq!(to_ints(&payload(completion)), vec![6]);
            } else {
                assert_eq!(completion, Completion::empty());
            }

            let req = engine
                .iallreduce(
                    COMM_WORLD,
                    ints(&[rank as i32 + 1]),
                    PrimitiveKind::Int,
                    1,
                    &sum,
                )
                .unwrap();
            assert_eq!(to_ints(&payload(engine.wait(req).unwrap())), vec![10]);
        })
        .unwrap();
    }

    /// A nonblocking collective completes through non-parking `test`
    /// polling alone.
    #[test]
    fn nonblocking_allreduce_completes_via_test() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let sum = Op::Predefined(PredefinedOp::Sum);
            let req = engine
                .iallreduce(COMM_WORLD, ints(&[rank]), PrimitiveKind::Int, 1, &sum)
                .unwrap();
            let completion = loop {
                if let Some(completion) = engine.test(req).unwrap() {
                    break completion;
                }
                std::thread::yield_now();
            };
            assert_eq!(to_ints(&payload(completion)), vec![6]);
        })
        .unwrap();
    }

    /// Several collectives in flight concurrently on the same
    /// communicator occupy distinct tag windows and complete in any wait
    /// order.
    #[test]
    fn concurrent_collectives_in_flight_do_not_interfere() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let sum = Op::Predefined(PredefinedOp::Sum);
            let r1 = engine
                .iallreduce(
                    COMM_WORLD,
                    ints(&[rank as i32]),
                    PrimitiveKind::Int,
                    1,
                    &sum,
                )
                .unwrap();
            let buf = if rank == 0 { vec![7u8; 50] } else { Vec::new() };
            let r2 = engine.ibcast(COMM_WORLD, 0, buf).unwrap();
            let r3 = engine.iallgather(COMM_WORLD, &[rank as u8; 2]).unwrap();
            let r4 = engine.ibarrier(COMM_WORLD).unwrap();
            // Complete in reverse order of issue.
            assert_eq!(engine.wait(r4).unwrap(), Completion::empty());
            let all: Vec<u8> = (0..4u8).flat_map(|r| [r; 2]).collect();
            assert_eq!(payload(engine.wait(r3).unwrap()), all);
            assert_eq!(payload(engine.wait(r2).unwrap()), vec![7u8; 50]);
            assert_eq!(to_ints(&payload(engine.wait(r1).unwrap())), vec![6]);
        })
        .unwrap();
    }

    /// Outstanding (unfinished, unwaited) collectives block `finalize`;
    /// freed ones quiesce and leave no posted receives behind.
    #[test]
    fn abandoned_collectives_quiesce_before_finalize() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let sum = Op::Predefined(PredefinedOp::Sum);
            let req = engine
                .iallreduce(COMM_WORLD, ints(&[rank]), PrimitiveKind::Int, 1, &sum)
                .unwrap();
            engine.request_free(req).unwrap();
            assert_eq!(engine.coll_outstanding(), 0);
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    /// Repeating a collective with the same shape replays the cached
    /// schedule template (fresh payload, fresh tag windows) instead of
    /// rebuilding it, and still computes the right answer.
    #[test]
    fn schedule_cache_replays_templates_across_calls() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let rank = engine.world_rank() as i32;
            let miss0 = engine.stats().sched_cache_misses;
            for round in 0..5i32 {
                let got = engine
                    .allreduce(
                        COMM_WORLD,
                        ints(&[rank * round]),
                        PrimitiveKind::Int,
                        1,
                        &sum,
                    )
                    .unwrap();
                assert_eq!(to_ints(&got), vec![6 * round]);
            }
            // One build, four replays.
            assert_eq!(engine.stats().sched_cache_misses, miss0 + 1);
            assert!(engine.stats().sched_cache_hits >= 4);
        })
        .unwrap();
    }

    /// Every cacheable collective survives the template round-trip:
    /// the second call (a cache hit) must agree with the first.
    #[test]
    fn cached_schedules_match_fresh_builds_for_all_ops() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let sum = Op::Predefined(PredefinedOp::Sum);
            for _ in 0..2 {
                engine.barrier(COMM_WORLD).unwrap();
                let mut buf = if rank == 1 {
                    ints(&[42, 43])
                } else {
                    Vec::new()
                };
                engine.bcast(COMM_WORLD, 1, &mut buf).unwrap();
                assert_eq!(to_ints(&buf), vec![42, 43]);
                let gathered = engine.gather(COMM_WORLD, 2, &[rank as u8; 3]).unwrap();
                if rank == 2 {
                    let parts = gathered.unwrap();
                    assert_eq!(parts, (0..4).map(|r| vec![r as u8; 3]).collect::<Vec<_>>());
                } else {
                    assert!(gathered.is_none());
                }
                let parts = engine.allgather(COMM_WORLD, &[rank as u8]).unwrap();
                assert_eq!(parts, (0..4).map(|r| vec![r as u8]).collect::<Vec<_>>());
                let reduced = engine
                    .reduce(COMM_WORLD, 0, ints(&[1]), PrimitiveKind::Int, 1, &sum)
                    .unwrap();
                if rank == 0 {
                    assert_eq!(to_ints(&reduced.unwrap()), vec![4]);
                }
                let scanned = engine
                    .scan(COMM_WORLD, ints(&[1]), PrimitiveKind::Int, 1, &sum)
                    .unwrap();
                assert_eq!(to_ints(&scanned), vec![rank as i32 + 1]);
            }
            assert!(engine.stats().sched_cache_hits >= 6);
        })
        .unwrap();
    }

    /// Payloads past the cache's input-byte cutoff bypass the template
    /// store entirely — every call rebuilds (the build cost is noise
    /// against the transfer at that size) and nothing that large is
    /// ever captured.
    #[test]
    fn large_payloads_bypass_the_schedule_cache() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            // Pin an algorithm whose templates do not depend on the
            // size, so only the input-byte cutoff decides.
            engine.forced_coll_alg = Some(CollAlgorithm::BinomialTree);
            let sum = Op::Predefined(PredefinedOp::Sum);
            let rank = engine.world_rank() as i32;
            let count = nb::cache::SCHED_CACHE_MAX_INPUT_BYTES / 4 + 1;
            let send: Vec<i32> = vec![rank; count];
            let bytes: Vec<u8> = send.iter().flat_map(|v| v.to_le_bytes()).collect();
            let hits0 = engine.stats().sched_cache_hits;
            let miss0 = engine.stats().sched_cache_misses;
            for _ in 0..2 {
                let got = engine
                    .allreduce(COMM_WORLD, &bytes, PrimitiveKind::Int, count, &sum)
                    .unwrap();
                assert_eq!(to_ints(&got), vec![6i32; count]);
            }
            assert_eq!(engine.stats().sched_cache_hits, hits0);
            assert_eq!(engine.stats().sched_cache_misses, miss0 + 2);
            assert!(engine.sched_cache.is_empty());
        })
        .unwrap();
    }

    /// An owned contribution is moved, not copied: the 1 MiB ring
    /// allreduce folds into the caller's buffer and hands that same
    /// allocation back as the result.
    #[test]
    fn ring_allreduce_returns_an_owned_contribution_as_the_result() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank() as i32;
            let count = (1 << 20) / 4;
            let send: Vec<i32> = (0..count as i32).map(|i| i ^ rank).collect();
            let v: Vec<u8> = send.iter().flat_map(|x| x.to_le_bytes()).collect();
            let ptr = v.as_ptr();
            let sum = Op::Predefined(PredefinedOp::Sum);
            let got = engine
                .allreduce(COMM_WORLD, Cow::Owned(v), PrimitiveKind::Int, count, &sum)
                .unwrap();
            assert_eq!(got.as_ptr(), ptr, "the contribution's own allocation");
            let want: Vec<i32> = (0..count as i32).map(|i| i + (i ^ 1)).collect();
            assert_eq!(to_ints(&got), want);
        })
        .unwrap();
    }

    /// The ring schedules depend on the payload only through their input
    /// slot, so at 64 KiB (under the cache's input cutoff) the second
    /// allreduce and the second reduce-scatter replay the first one's
    /// template: one hit, no new miss.
    #[test]
    fn ring_schedules_replay_from_the_cache() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            engine.set_coll_algorithm(Some(CollAlgorithm::Ring));
            let sum = Op::Predefined(PredefinedOp::Sum);
            let rank = engine.world_rank() as i32;
            let count = (64 << 10) / 4;
            let send = ints(&vec![rank + 1; count]);
            let counts = [count / 2 - 3, count / 2 + 3];
            for call in 0..2 {
                let (hits, misses) = (
                    engine.stats().sched_cache_hits,
                    engine.stats().sched_cache_misses,
                );
                let all = engine
                    .allreduce(COMM_WORLD, &send, PrimitiveKind::Int, count, &sum)
                    .unwrap();
                assert_eq!(to_ints(&all), vec![3; count]);
                let mine = engine
                    .reduce_scatter(COMM_WORLD, &send, &counts, PrimitiveKind::Int, &sum)
                    .unwrap();
                assert_eq!(to_ints(&mine), vec![3; counts[rank as usize]]);
                let stats = engine.stats();
                let (new_hits, new_misses) = (
                    stats.sched_cache_hits - hits,
                    stats.sched_cache_misses - misses,
                );
                assert_eq!(
                    (new_hits, new_misses),
                    if call == 0 { (0, 2) } else { (2, 0) }
                );
            }
        })
        .unwrap();
    }

    /// Integer `SUM` wraps on the wire as in the kernel: `i32::MAX + 1`
    /// across two ranks is `i32::MIN`, in debug builds too.
    #[test]
    fn allreduce_sum_wraps_on_overflow() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let mine = if engine.world_rank() == 0 {
                i32::MAX
            } else {
                1
            };
            let sum = Op::Predefined(PredefinedOp::Sum);
            let got = engine
                .allreduce(COMM_WORLD, ints(&[mine, -1]), PrimitiveKind::Int, 2, &sum)
                .unwrap();
            assert_eq!(to_ints(&got), vec![i32::MIN, -2]);
        })
        .unwrap();
    }

    /// Freeing a communicator drops its cached schedule templates (a
    /// recycled handle must start cold, not replay a dead comm's wiring).
    #[test]
    fn comm_free_drops_cached_schedules() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let sub = engine
                .comm_split(COMM_WORLD, (rank % 2) as i32, rank as i32)
                .unwrap()
                .unwrap();
            let sum = Op::Predefined(PredefinedOp::Sum);
            for _ in 0..2 {
                engine
                    .allreduce(sub, ints(&[1]), PrimitiveKind::Int, 1, &sum)
                    .unwrap();
            }
            assert!(engine.sched_cache.keys().any(|k| k.comm == sub));
            engine.comm_free(sub).unwrap();
            assert!(!engine.sched_cache.keys().any(|k| k.comm == sub));
        })
        .unwrap();
    }

    /// A persistent allreduce built once replays across starts with
    /// fresh payloads, reusing its pinned template (no cache lookup, so
    /// no hit and no miss after init).
    #[test]
    fn persistent_allreduce_replays_with_fresh_payloads() {
        Universe::run(4, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let rank = engine.world_rank() as i32;
            let op = engine
                .allreduce_init(COMM_WORLD, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            let hits_after_init = engine.stats().sched_cache_hits;
            let misses_after_init = engine.stats().sched_cache_misses;
            for round in 1..=4i32 {
                engine
                    .start(op, Cow::Borrowed(&ints(&[rank * round])))
                    .unwrap();
                let completion = engine.wait(op).unwrap();
                assert_eq!(to_ints(&payload(completion)), vec![6 * round]);
            }
            assert_eq!(engine.stats().sched_cache_hits, hits_after_init);
            assert_eq!(engine.stats().sched_cache_misses, misses_after_init);
            engine.request_free(op).unwrap();
            assert!(engine.is_complete(op).is_err(), "freed, so unknown");
        })
        .unwrap();
    }

    /// Persistent barrier, bcast and allgather round-trip; bcast
    /// payloads vary per start on the root.
    #[test]
    fn persistent_bcast_barrier_allgather_round_trip() {
        Universe::run(3, DeviceKind::ShmFast, |engine| {
            let rank = engine.world_rank();
            let barrier = engine.barrier_init(COMM_WORLD).unwrap();
            let bcast = engine.bcast_init(COMM_WORLD, 0, 4).unwrap();
            let allgather = engine.allgather_init(COMM_WORLD).unwrap();
            for round in 0..3u8 {
                engine.start(barrier, Cow::Borrowed(&[])).unwrap();
                assert_eq!(engine.wait(barrier).unwrap(), Completion::empty());
                let root_buf = if rank == 0 {
                    vec![round; 4]
                } else {
                    Vec::new()
                };
                engine.start(bcast, Cow::Borrowed(&root_buf)).unwrap();
                assert_eq!(payload(engine.wait(bcast).unwrap()), vec![round; 4]);
                engine
                    .start(allgather, Cow::Borrowed(&[rank as u8, round]))
                    .unwrap();
                let all: Vec<u8> = (0..3u8).flat_map(|r| [r, round]).collect();
                assert_eq!(payload(engine.wait(allgather).unwrap()), all);
            }
            for op in [barrier, bcast, allgather] {
                engine.request_free(op).unwrap();
            }
        })
        .unwrap();
    }

    /// Double-start without an intervening wait is refused; an inactive
    /// persistent op completes at once, empty, matching `MPI_Test` on an
    /// inactive persistent request.
    #[test]
    fn persistent_double_start_is_refused() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let op = engine
                .allreduce_init(COMM_WORLD, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            assert_eq!(engine.wait(op).unwrap(), Completion::empty());
            engine.start(op, Cow::Borrowed(&ints(&[1]))).unwrap();
            assert!(engine.start(op, Cow::Borrowed(&ints(&[1]))).is_err());
            engine.wait(op).unwrap();
            engine.request_free(op).unwrap();
        })
        .unwrap();
    }

    /// `finalize` refuses while a persistent start is in flight; freeing
    /// the operation quiesces it so finalize can proceed.
    #[test]
    fn finalize_refuses_active_persistent_collectives() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let op = engine
                .allreduce_init(COMM_WORLD, PrimitiveKind::Int, 1, &sum)
                .unwrap();
            engine.start(op, Cow::Borrowed(&ints(&[1]))).unwrap();
            assert!(engine.finalize().is_err());
            engine.request_free(op).unwrap();
            assert_eq!(engine.persistent_active(), 0);
            engine.finalize().unwrap();
        })
        .unwrap();
    }

    /// A `*_init` whose element count overflows fails with `Count`
    /// before it registers anything: the request table stays empty.
    #[test]
    fn overflowing_persistent_inits_register_nothing() {
        const HUGE: usize = 1 << 62;
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let sum = Op::Predefined(PredefinedOp::Sum);
            let int = PrimitiveKind::Int;
            let r = engine.reduce_init(COMM_WORLD, 0, int, HUGE, &sum);
            assert_eq!(r.unwrap_err().class, ErrorClass::Count, "reduce_init");
            let r = engine.allreduce_init(COMM_WORLD, int, HUGE, &sum);
            assert_eq!(r.unwrap_err().class, ErrorClass::Count, "allreduce_init");
            assert_eq!(engine.requests.values().count(), 0);
        })
        .unwrap();
    }

    /// Persistent collectives work under every forced algorithm, each
    /// replaying the template its init pinned.
    #[test]
    fn persistent_collectives_under_forced_algorithms() {
        for alg in CollAlgorithm::ALL {
            Universe::run(4, DeviceKind::ShmFast, move |engine| {
                engine.set_coll_algorithm(Some(alg));
                let sum = Op::Predefined(PredefinedOp::Sum);
                let rank = engine.world_rank() as i32;
                let op = engine
                    .allreduce_init(COMM_WORLD, PrimitiveKind::Int, 4, &sum)
                    .unwrap();
                for round in 1..=2i32 {
                    engine
                        .start(op, Cow::Borrowed(&ints(&[rank * round; 4])))
                        .unwrap();
                    let got = payload(engine.wait(op).unwrap());
                    assert_eq!(to_ints(&got), vec![6 * round; 4], "{alg}");
                }
                engine.request_free(op).unwrap();
            })
            .unwrap();
        }
    }
}
