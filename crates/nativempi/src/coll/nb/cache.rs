//! Schedule templates, the per-engine schedule cache, and persistent
//! collective operations.
//!
//! See the [parent module](super)'s "Schedule caching" section for the
//! design: keying, what is cacheable, tag retargeting and invalidation.
//! This file holds the mechanics — [`SchedTemplate`] (a reusable,
//! payload-free image of a built [`CollSchedule`]), [`SchedKey`] (the
//! per-rank memoization key), and [`PersistentColl`], the definition a
//! persistent collective (the `*_init` entry points in [`crate::coll`])
//! keeps in the request table.

use std::borrow::Cow;
use std::sync::Arc;

use super::{CollSchedule, Round, Rounds, SlotId, ROUND_SPACE};
use crate::coll::desc::{CollDesc, Payload};
use crate::coll::CollOp;
use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, Result};
use crate::ops::{Op, PredefinedOp};
use crate::request::RequestId;
use crate::types::PrimitiveKind;
use crate::{CollAlgorithm, Engine};

/// Upper bound on cached templates per engine; beyond it new shapes are
/// simply built from scratch (the working set of a real application is
/// a handful of shapes — the cap only guards against key churn).
const SCHED_CACHE_CAP: usize = 1024;

/// Transient calls staging more input-payload bytes than this bypass
/// the schedule cache and rebuild from scratch. The cache amortizes the
/// payload-independent build cost (rounds, closures, window plumbing),
/// which dominates small calls; at large payloads that cost is noise
/// against the transfer itself, and a hit (which replays the template's
/// rounds by reference) has no copy left to save there. The bypass
/// stays until a workload shows that caching large calls helps:
/// removing it would change what `sched_cache_hit_share` reads on a
/// 1 MiB allreduce. Persistent
/// operations are exempt — their templates pin the init-time tag
/// windows (no per-start retargeting), which is the semantic point of
/// `MPI_Start`, not just a cache.
pub(crate) const SCHED_CACHE_MAX_INPUT_BYTES: usize = 128 * 1024;

/// Identity of a reduction operation for cache keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum OpKey {
    Predefined(PredefinedOp),
    /// Address of the user function's allocation. Sound as a key only
    /// while the allocation is pinned: the cached template's compute
    /// closures hold a clone of the user's `Arc`, so the address cannot
    /// be recycled by a new allocation while the entry lives.
    User(usize),
}

impl OpKey {
    pub(crate) fn of(op: &Op) -> OpKey {
        match op {
            Op::Predefined(p) => OpKey::Predefined(*p),
            Op::User(f) => OpKey::User(std::sync::Arc::as_ptr(f) as *const () as usize),
        }
    }
}

/// Per-rank local memoization key of the schedule cache (see the parent
/// module docs for why no cross-rank coordination is needed), derived
/// from the call's descriptor by [`CollDesc::cache_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SchedKey {
    pub(crate) comm: CommHandle,
    pub(crate) alg: CollAlgorithm,
    pub(crate) op: CollOp,
    pub(crate) root: usize,
    pub(crate) reduction: Option<(PrimitiveKind, usize, OpKey)>,
    /// Reduce-scatter's per-rank element counts (empty for every other
    /// operation): the ring's segment bounds are built from them.
    pub(crate) counts: Vec<usize>,
}

/// How one planned call relates to the schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheUse {
    /// The schedule bakes this call's payload in: it can never be a
    /// template.
    Never,
    /// Templatable, but the staged payload is past
    /// [`SCHED_CACHE_MAX_INPUT_BYTES`]: build fresh, count a miss.
    Bypass,
    /// Look the template up; build and store it on a miss.
    Template,
}

/// The cache decision for `(op, alg)` staging `staged` payload bytes —
/// the code form of the templatable table in the [`crate::coll`] module
/// docs.
pub(crate) fn cache_use(op: CollOp, alg: CollAlgorithm, staged: usize) -> CacheUse {
    match (op, alg) {
        (CollOp::Scatter | CollOp::Alltoall, _) => CacheUse::Never,
        (CollOp::ReduceScatter, alg) if alg != CollAlgorithm::Ring => CacheUse::Never,
        _ if staged > SCHED_CACHE_MAX_INPUT_BYTES => CacheUse::Bypass,
        _ => CacheUse::Template,
    }
}

/// A reusable image of a built schedule: its rounds, shared by
/// reference with every schedule instantiated from it, the slot store
/// with the per-call input slot cleared, and the consecutive tag-window
/// run it was captured on. Instantiating yields a runnable
/// [`CollSchedule`] — on the same windows (persistent operations, which
/// pin theirs at init) or on fresh ones (transient cache hits), which
/// only changes the tag shift the executor adds as it posts.
pub(crate) struct SchedTemplate {
    rounds: Arc<[Round]>,
    /// The shift that puts `rounds`' tags on `base_window`'s run: 0 for
    /// a template captured from a fresh build, the instance's own shift
    /// for one captured from a cache hit.
    shift: i32,
    slots: Vec<Option<Vec<u8>>>,
    input: Option<SlotId>,
    base_window: u32,
    nwindows: u32,
}

impl SchedTemplate {
    /// Capture a template from a schedule that has not started — a
    /// fresh build, whose rounds this freezes into shared ones, or a
    /// cache hit, whose shared rounds and shift it keeps. `None` when
    /// the schedule cannot be reused: a builder marked it uncacheable,
    /// or its windows are not one consecutive run (the
    /// once-per-`NUM_TAG_WINDOWS` sequence wrap).
    pub(crate) fn capture(s: &mut CollSchedule) -> Option<SchedTemplate> {
        if s.uncacheable || s.outcome.is_some() {
            return None;
        }
        let mut slots = s.slots.clone();
        if let Some(slot) = s.input {
            slots[slot] = None;
        }
        Some(SchedTemplate {
            rounds: s.freeze(),
            shift: s.shift,
            slots,
            input: s.input,
            base_window: s.windows.0,
            nwindows: s.windows.1,
        })
    }

    /// A runnable schedule on the `nwindows` windows from `new_base`,
    /// its input slot still empty (the caller fills it with
    /// [`CollSchedule::set_input`]). The rounds are not copied: the
    /// schedule holds them by reference, with the uniform tag shift from
    /// the template's windows to the new ones.
    pub(crate) fn instantiate(&self, new_base: u32) -> CollSchedule {
        let delta = (self.base_window as i32 - new_base as i32) * ROUND_SPACE as i32;
        CollSchedule {
            rounds: Rounds::Shared(Arc::clone(&self.rounds)),
            shift: self.shift + delta,
            slots: self.slots.clone(),
            windows: (new_base, self.nwindows),
            input: self.input,
            ..CollSchedule::default()
        }
    }
}

/// What each start of a persistent collective operation runs.
pub(crate) struct PersistentColl {
    pub(crate) comm: CommHandle,
    /// The operation, owning its reduction operator.
    pub(crate) desc: CollDesc<'static>,
    /// A persistent broadcast's root: the payload length every start
    /// must supply.
    pub(crate) root_len: Option<usize>,
    /// The init-built schedule and the algorithm it was planned with,
    /// pinned to the tag windows allocated at init time (symmetric:
    /// init is collective-ordered like every other collective call).
    /// Sequential `start()`s may reuse those tags — the transport is
    /// FIFO per pair and a schedule uses its tags in deterministic
    /// order. `None` (single-rank communicator, non-templatable
    /// algorithm) → every start plans the transient form.
    pub(crate) template: Option<(SchedTemplate, CollAlgorithm)>,
}

impl Engine {
    /// Consult the schedule cache. On a hit the template is instantiated
    /// onto freshly allocated consecutive tag windows; `None` (a miss —
    /// unknown key, or the window sequence wrapped mid-allocation) means
    /// the caller must build from scratch.
    pub(crate) fn sched_cache_get(&mut self, key: &SchedKey) -> Option<CollSchedule> {
        let Some(n) = self.sched_cache.get(key).map(|tpl| tpl.nwindows) else {
            self.stats.sched_cache_misses += 1;
            return None;
        };
        // Allocate the windows first (symmetric across ranks: a miss
        // consumes the same count via the builder's `sched_windows`
        // calls), then re-borrow the template.
        let mut base = 0u32;
        let mut consecutive = true;
        for i in 0..n {
            let w = self.alloc_tag_window(key.comm).0;
            if i == 0 {
                base = w;
            } else if w != base + i {
                consecutive = false;
            }
        }
        if !consecutive {
            // The per-comm sequence wrapped inside this run: the uniform
            // tag shift doesn't apply. Rebuild (the builder allocates
            // its own fresh windows — one extra run per 8192
            // collectives is noise).
            self.stats.sched_cache_misses += 1;
            return None;
        }
        let tpl = self.sched_cache.get(key)?;
        self.stats.sched_cache_hits += 1;
        Some(tpl.instantiate(if n == 0 { tpl.base_window } else { base }))
    }

    /// Store a freshly built schedule's template under `key` (no-op if
    /// the schedule is not templatable or the cache is full).
    pub(crate) fn sched_cache_put(&mut self, key: SchedKey, s: &mut CollSchedule) {
        if self.sched_cache.len() >= SCHED_CACHE_CAP && !self.sched_cache.contains_key(&key) {
            return;
        }
        if let Some(tpl) = SchedTemplate::capture(s) {
            self.sched_cache.insert(key, tpl);
        }
    }

    /// Launch one iteration of a persistent collective with this rank's
    /// `payload` (see [`Engine::start`]); an owned payload is moved into
    /// the schedule, not copied.
    pub(crate) fn start_persistent_coll(
        &mut self,
        p: &PersistentColl,
        payload: Cow<'_, [u8]>,
    ) -> Result<RequestId> {
        if let Some(len) = p.root_len.filter(|&len| len != payload.len()) {
            return err(
                ErrorClass::Count,
                format!(
                    "persistent bcast was initialized for {len} bytes, got {}",
                    payload.len()
                ),
            );
        }
        let payload = Payload::from(payload);
        let Some((tpl, alg)) = &p.template else {
            // Symmetric: every rank's init made the same
            // template-or-not decision.
            return self.coll_launch(p.comm, &p.desc, payload);
        };
        let (_, _, need) = self.coll_validate(p.comm, &p.desc, &payload)?;
        // Reusing the pinned windows is the whole point: no window
        // allocation, no tag shift, no schedule build, and no cache
        // lookup, so neither cache counter moves.
        let mut schedule = tpl.instantiate(tpl.base_window);
        schedule.set_input(payload.into_vec(need));
        self.coll_start(p.comm, schedule, Some((p.desc.op(), *alg)))
    }
}
