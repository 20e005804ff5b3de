//! The matching queues of every communicator context, behind one type.
//!
//! [`Matching`] is the only code that knows how posted receives,
//! unexpected messages and freed-context tombstones are laid out; the
//! rules it implements are the "Matching" section of [`crate::p2p`].
//! Sources are world ranks here: a context belongs to exactly one
//! communicator, so its callers translate once, outside the scan.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::comm::CommHandle;
use crate::types::ANY_TAG;
use crate::{IdMap, IdSet};

/// What a receive or a probe asks for: a source world rank (`None` is
/// `ANY_SOURCE`) and a tag ([`ANY_TAG`] matches any).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Want {
    pub src: Option<u32>,
    pub tag: i32,
}

impl Want {
    fn matches(self, src: u32, tag: i32) -> bool {
        self.src.is_none_or(|want| want == src) && (self.tag == ANY_TAG || self.tag == tag)
    }
}

/// A receive that has been posted but not yet matched.
#[derive(Debug)]
pub(crate) struct PostedRecv {
    pub req: u64,
    pub comm: CommHandle,
    pub want: Want,
    pub max_len: Option<usize>,
    /// A receive holding a buffer of `max_len` bytes
    /// ([`crate::Engine::recv_into`]): a rendezvous it matches streams.
    pub window: bool,
    /// Engine clock at posting time, feeding the `p2p.latency`
    /// histogram when the arrival matches (0 when timing is off).
    pub posted_ns: u64,
}

/// What kind of message arrived.
#[derive(Debug)]
pub(crate) enum UnexpectedKind {
    /// Full payload already here.
    Eager(Bytes),
    /// Envelope of a rendezvous; payload still held by the sender.
    Rendezvous,
}

/// An arrived message: matched at once, or parked until a receive
/// takes it.
#[derive(Debug)]
pub(crate) struct UnexpectedMsg {
    pub src_world: u32,
    pub tag: i32,
    pub token: u64,
    pub msg_len: u64,
    pub kind: UnexpectedKind,
    /// Engine clock at arrival, feeding the `p2p.latency` histogram
    /// with queue residency when a receive matches (0 when timing is
    /// off).
    pub arrived_ns: u64,
}

/// One context's two FIFOs.
struct Queues {
    posted: VecDeque<PostedRecv>,
    unexpected: VecDeque<UnexpectedMsg>,
}

/// Entries each FIFO has room for when its context opens, so a context
/// that never holds more than this — a ping-pong's, whichever side its
/// messages reach first — allocates on its first message only.
const QUEUE_START: usize = 4;

impl Default for Queues {
    fn default() -> Queues {
        Queues {
            posted: VecDeque::with_capacity(QUEUE_START),
            unexpected: VecDeque::with_capacity(QUEUE_START),
        }
    }
}

/// Every context's posted and unexpected FIFOs, and the ids of the
/// contexts closed by `comm_free`. Each call below finds and takes with
/// one lookup of its context.
#[derive(Default)]
pub(crate) struct Matching {
    open: IdMap<u32, Queues>,
    /// Tombstones: four bytes per freed context.
    closed: IdSet<u32>,
}

/// Remove and return the oldest entry `hit` selects.
fn take_first<T>(queue: &mut VecDeque<T>, hit: impl Fn(&T) -> bool) -> Option<T> {
    let i = queue.iter().position(hit)?;
    queue.remove(i)
}

impl Matching {
    /// Post a receive: the oldest unexpected message of `context` it
    /// matches comes back with it, or the receive joins the posted FIFO.
    pub(crate) fn post(
        &mut self,
        context: u32,
        recv: PostedRecv,
    ) -> Option<(PostedRecv, UnexpectedMsg)> {
        let queues = self.open.entry(context).or_default();
        let want = recv.want;
        match take_first(&mut queues.unexpected, |m| want.matches(m.src_world, m.tag)) {
            Some(msg) => Some((recv, msg)),
            None => {
                queues.posted.push_back(recv);
                None
            }
        }
    }

    /// A message arrives: the oldest posted receive of `context` it
    /// matches comes back with it, or it parks in the unexpected FIFO. A
    /// closed context drops it. An unknown one is not closed: a peer may
    /// send on a new communicator before this rank has installed it.
    pub(crate) fn arrive(
        &mut self,
        context: u32,
        msg: UnexpectedMsg,
    ) -> Option<(PostedRecv, UnexpectedMsg)> {
        if let Some(queues) = self.open.get_mut(&context) {
            let (src, tag) = (msg.src_world, msg.tag);
            return match take_first(&mut queues.posted, |p| p.want.matches(src, tag)) {
                Some(recv) => Some((recv, msg)),
                None => {
                    queues.unexpected.push_back(msg);
                    None
                }
            };
        }
        if !self.closed.contains(&context) {
            self.open
                .entry(context)
                .or_default()
                .unexpected
                .push_back(msg);
        }
        None
    }

    /// The oldest unexpected message of `context` a probe matches.
    pub(crate) fn peek(&self, context: u32, want: Want) -> Option<&UnexpectedMsg> {
        let queues = self.open.get(&context)?;
        queues
            .unexpected
            .iter()
            .find(|m| want.matches(m.src_world, m.tag))
    }

    /// Take every unexpected message of `context` carrying `tag`, in
    /// arrival order (an RMA window's data channel). A standing posted
    /// receive cannot do this: it would be re-posted for every message.
    pub(crate) fn take_tagged(&mut self, context: u32, tag: i32) -> Vec<UnexpectedMsg> {
        let mut taken = Vec::new();
        if let Some(queues) = self.open.get_mut(&context) {
            let mut i = 0;
            while let Some(msg) = queues.unexpected.get(i) {
                if msg.tag == tag {
                    taken.extend(queues.unexpected.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        taken
    }

    /// Close a freed communicator's context: drop its parked messages,
    /// leave a tombstone so later arrivals drop too, and return the
    /// request ids of the receives still posted (they can never match).
    pub(crate) fn close(&mut self, context: u32) -> impl Iterator<Item = u64> {
        self.closed.insert(context);
        self.open
            .remove(&context)
            .into_iter()
            .flat_map(|queues| queues.posted)
            .map(|recv| recv.req)
    }

    /// Take receive `req` off `context`'s posted FIFO (cancel, free).
    pub(crate) fn withdraw(&mut self, context: u32, req: u64) {
        if let Some(queues) = self.open.get_mut(&context) {
            take_first(&mut queues.posted, |p| p.req == req);
        }
    }

    /// Take every posted receive `doomed` selects, on every context, and
    /// return their request ids (the failure sweep and teardown).
    pub(crate) fn withdraw_where(
        &mut self,
        mut doomed: impl FnMut(&PostedRecv) -> bool,
    ) -> Vec<u64> {
        let mut taken = Vec::new();
        for queues in self.open.values_mut() {
            queues.posted.retain(|p| {
                let hit = doomed(p);
                if hit {
                    taken.push(p.req);
                }
                !hit
            });
        }
        taken
    }

    /// Posted receives and parked messages, summed over every context.
    pub(crate) fn depths(&self) -> (usize, usize) {
        self.open.values().fold((0, 0), |(posted, unexpected), q| {
            (posted + q.posted.len(), unexpected + q.unexpected.len())
        })
    }
}

#[cfg(test)]
impl Matching {
    /// Contexts with queues, ascending.
    pub(crate) fn open_contexts(&self) -> Vec<u32> {
        let mut open: Vec<u32> = self.open.keys().copied().collect();
        open.sort_unstable();
        open
    }

    /// Tombstones left by closed contexts.
    pub(crate) fn closed_contexts(&self) -> usize {
        self.closed.len()
    }
}
