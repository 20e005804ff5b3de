//! A blocking, bounded, multi-producer inbox with optional delayed delivery.
//!
//! Each rank of the in-process devices owns one `Mailbox`; every other rank
//! pushes frames into it. Delivery order is the push order, which together
//! with the per-sender FIFO of the callers gives the per-pair ordering the
//! MPI engine relies on. A frame may carry a *due* instant (set by the
//! [`crate::NetworkModel`]); it is then not handed to the receiver before
//! that instant, which is how the DM-mode link is simulated without
//! blocking senders.
//!
//! # Waiting on an empty queue: spin → yield → park
//!
//! Every blocking wait of the engine ends in [`Mailbox::pop_timeout`], and
//! a futex park/wake round trip costs ~23 µs one way where the queue
//! itself costs ~0.3 µs, so a consumer that finds the queue empty does
//! not go to sleep at once. It waits in three phases:
//!
//! 1. **Spin.** Poll the `pushed` counter with `spin_loop` for `SPIN`
//!    (1 µs): the reply of a peer that is itself polling arrives here.
//! 2. **Yield.** Keep polling with `yield_now` between looks until the
//!    mailbox's *budget* is spent. On an oversubscribed host the yield
//!    hands the core to the peer being waited for; on an idle core it is
//!    a ~0.3 µs syscall that returns at once.
//! 3. **Park** on the `Condvar`, counted in `Inner::parked_pops`.
//!
//! The spin reads a counter and never the lock: a spinner that took the
//! mutex for every look would contend with the very `push` it is waiting
//! for. `pushed` is bumped under the lock by every `push` (and by
//! `close`), and the consumer samples it under the same lock while it
//! sees the queue empty, so "the counter moved" is exactly "something
//! happened since I looked"; the queue itself is only ever read under the
//! lock.
//!
//! **The budget** is the time a wait may spend in phases 1–2. It is per
//! mailbox and adapts: it is halved by every wait that outlasted the cap
//! of 50 µs (polling for it was futile), and raised by a quarter of the
//! cap by every wait that ended within the cap — caught by the poll,
//! or parked and woken in time, which is how two peers that have both
//! decayed to parking find their way back (each one's wait is then the
//! other's wake latency, which no budget below the cap would catch). The
//! cap is on the order of one park/wake round trip: polling longer than
//! the sleep it avoids cannot pay. The budget *starts at the cap* because
//! most fabrics are short-lived (a test universe, a benchmark's bring-up
//! cycle) and must benefit from their first wait; an idle or
//! oversubscribed rank decays to parking at once within a
//! few waits.
//!
//! **The waiter counts** (`parked_pops`, `parked_pushes`) are changed only
//! under the lock, around the `Condvar` wait itself, and read by the other
//! side under the same lock right after it changed the queue. A notifier
//! therefore either ran before the waiter looked (the waiter sees the new
//! queue state and does not park) or sees its count and notifies: no
//! wake-up is lost, and `notify_one` — an unconditional `futex_wake`
//! syscall on the std-backed `parking_lot` stub — is skipped whenever
//! nobody is parked, which on the hot path is always.
//!
//! A wait on a head frame that is present but not yet *due* is a timed
//! park and never polls: the modelled link's latency is not the
//! program's to shave.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{Result, TransportError};
use crate::frame::Frame;

/// Length of the pure-spin phase of a wait on an empty queue. It is pure
/// loss when the peer shares this core (the one-core drill in CI), and on
/// two cores 0.5, 1 and 2 us read the same, a yield being ~0.3 us.
const SPIN: Duration = Duration::from_micros(1);

/// Largest (and initial) polling budget of a wait, in nanoseconds: on the
/// order of one park/wake round trip (2 x ~23 us on the reference runner).
const BUDGET_CAP_NS: u32 = 50_000;

/// What a wait that ended within the cap adds to the budget.
const BUDGET_STEP_NS: u32 = BUDGET_CAP_NS / 4;

/// Spin-phase looks at the counter per look at the clock (~20 ns against
/// ~40 ns): bounds how far the spin can overshoot a deadline.
const POLLS_PER_CLOCK: u32 = 16;

/// The budget after a wait that began with `budget`: one step up when the
/// wait ended within the cap, half when it outlasted it.
fn adapted(budget: u32, within_cap: bool) -> u32 {
    if within_cap {
        budget.saturating_add(BUDGET_STEP_NS).min(BUDGET_CAP_NS)
    } else {
        budget / 2
    }
}

/// Slots an inbox holds from the start, or its capacity if smaller (64
/// slots of 128 bytes: 8 KiB per mailbox). A burst up to this deep never
/// grows the queue, so a high-water mark a job reaches once — a sender
/// outrunning its receiver by a few frames — costs nothing after
/// bring-up instead of one reallocation whenever the timing first allows
/// it.
const PRESIZED_SLOTS: usize = 64;

struct Slot {
    frame: Frame,
    due: Option<Instant>,
}

struct Inner {
    queue: VecDeque<Slot>,
    closed: bool,
    /// Consumers inside `not_empty.wait*` right now.
    parked_pops: usize,
    /// Producers inside `not_full.wait` right now.
    parked_pushes: usize,
}

/// Blocking bounded inbox. See the module documentation.
pub struct Mailbox {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Pushes plus closes so far; bumped under the lock, polled without it.
    pushed: AtomicU64,
    /// Polling budget of the next wait on an empty queue.
    budget_ns: AtomicU32,
}

impl Mailbox {
    /// Create a mailbox holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity.min(PRESIZED_SLOTS)),
                closed: false,
                parked_pops: 0,
                parked_pushes: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
            pushed: AtomicU64::new(0),
            budget_ns: AtomicU32::new(BUDGET_CAP_NS),
        }
    }

    /// Number of frames currently queued (including not-yet-due ones).
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a frame, blocking while the mailbox is full.
    pub fn push(&self, frame: Frame, due: Option<Instant>) -> Result<()> {
        let mut inner = self.inner.lock();
        while inner.queue.len() >= self.capacity && !inner.closed {
            inner.parked_pushes += 1;
            self.not_full.wait(&mut inner);
            inner.parked_pushes -= 1;
        }
        if inner.closed {
            return Err(TransportError::Disconnected);
        }
        inner.queue.push_back(Slot { frame, due });
        // Release pairs with the Acquire in `poll`; the poller still takes
        // the lock before it reads the queue.
        self.pushed.fetch_add(1, Ordering::Release);
        let wake = inner.parked_pops > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pop the frame at the head of the queue, blocking until one is
    /// available *and* its due time (if any) has passed.
    pub fn pop(&self) -> Result<Frame> {
        loop {
            if let Some(frame) = self.pop_deadline(None)? {
                return Ok(frame);
            }
        }
    }

    /// Pop with a timeout. Returns `Ok(None)` when the timeout expires; a
    /// timeout too large to add to the clock means "no deadline".
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        self.pop_deadline(Instant::now().checked_add(timeout))
    }

    /// Non-blocking pop. Returns `Ok(None)` when no frame is ready
    /// (either the queue is empty or the head frame is not yet due).
    pub fn try_pop(&self) -> Result<Option<Frame>> {
        let inner = self.inner.lock();
        match inner.queue.front() {
            Some(slot) if slot.due.is_some_and(|due| Instant::now() < due) => Ok(None),
            Some(_) => Ok(Some(self.take_front(inner))),
            None if inner.closed => Err(TransportError::Disconnected),
            None => Ok(None),
        }
    }

    fn pop_deadline(&self, deadline: Option<Instant>) -> Result<Option<Frame>> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(slot) = inner.queue.front() {
                let Some(due) = slot.due.filter(|&due| Instant::now() < due) else {
                    return Ok(Some(self.take_front(inner)));
                };
                // Head frame exists but is still "on the wire".
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(None);
                }
                self.park_pop(&mut inner, Some(deadline.map_or(due, |d| d.min(due))));
                continue;
            }
            if inner.closed {
                return Err(TransportError::Disconnected);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Ok(None);
            }
            inner = self.wait_for_push(inner, now, deadline);
        }
    }

    /// Remove the head frame and wake one producer blocked on a full queue.
    fn take_front(&self, mut inner: MutexGuard<'_, Inner>) -> Frame {
        let slot = inner
            .queue
            .pop_front()
            .expect("caller saw a head frame under this lock");
        let wake = inner.parked_pushes > 0;
        drop(inner);
        if wake {
            self.not_full.notify_one();
        }
        slot.frame
    }

    /// The one wait on an empty queue (module docs): called with the lock
    /// held and the queue seen empty at `start`, returns with the lock
    /// held once something was pushed, the mailbox was closed, `deadline`
    /// passed or the park woke for no reason. The caller looks again.
    fn wait_for_push<'a>(
        &'a self,
        inner: MutexGuard<'a, Inner>,
        start: Instant,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, Inner> {
        // Bumps happen under the lock we hold, so this is the value that
        // goes with the empty queue.
        let seen = self.pushed.load(Ordering::Relaxed);
        drop(inner);
        // Relaxed: the budget is a tuning statistic and publishes nothing.
        let budget = self.budget_ns.load(Ordering::Relaxed);
        let gave_up_at = self.poll(seen, start, Duration::from_nanos(budget.into()), deadline);
        let mut inner = self.inner.lock();
        let Some(gave_up_at) = gave_up_at else {
            // Caught by the poll, which never runs past the cap.
            self.adapt(budget, true);
            return inner;
        };
        if inner.queue.is_empty() && !inner.closed && deadline.is_none_or(|d| gave_up_at < d) {
            self.park_pop(&mut inner, deadline);
        }
        if start.elapsed() > Duration::from_nanos(BUDGET_CAP_NS.into()) {
            self.adapt(budget, false);
        } else if !inner.queue.is_empty() {
            self.adapt(budget, true);
        }
        inner
    }

    /// Phases 1 and 2: look at `pushed` until it leaves `seen` (`None`), or
    /// until `budget` is spent or `deadline` passes (the clock reading
    /// that said so). The clock is read after every yield and before the
    /// next look, so a `None` is always a wait that ended within `budget`.
    fn poll(
        &self,
        seen: u64,
        start: Instant,
        budget: Duration,
        deadline: Option<Instant>,
    ) -> Option<Instant> {
        let give_up = deadline.map_or(start + budget, |d| d.min(start + budget));
        let spin_until = start + SPIN;
        let mut now = start;
        let mut polls = 0u32;
        loop {
            if now >= give_up {
                return Some(now);
            }
            if self.pushed.load(Ordering::Acquire) != seen {
                return None;
            }
            if now < spin_until {
                std::hint::spin_loop();
                polls += 1;
                if !polls.is_multiple_of(POLLS_PER_CLOCK) {
                    continue;
                }
            } else {
                std::thread::yield_now();
            }
            now = Instant::now();
        }
    }

    /// Phase 3, and the wait for a due time: park on `not_empty` until
    /// notified or `until` passes, counted so that `push` knows to notify.
    fn park_pop(&self, inner: &mut MutexGuard<'_, Inner>, until: Option<Instant>) {
        inner.parked_pops += 1;
        match until {
            Some(until) => {
                self.not_empty.wait_until(inner, until);
            }
            None => self.not_empty.wait(inner),
        }
        inner.parked_pops -= 1;
    }

    fn adapt(&self, budget: u32, within_cap: bool) {
        let next = adapted(budget, within_cap);
        if next != budget {
            self.budget_ns.store(next, Ordering::Relaxed);
        }
    }

    /// Mark the mailbox closed: pending pops return `Disconnected` once the
    /// queue drains; new pushes fail immediately.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        // A close is an event a poller must look at, like a push.
        self.pushed.fetch_add(1, Ordering::Release);
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameKind};
    use bytes::Bytes;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::thread;

    const MS: Duration = Duration::from_millis(1);

    fn frame_from(src: u32, tag: i32) -> Frame {
        Frame::control(FrameHeader {
            kind: FrameKind::Eager,
            src,
            dst: 1,
            tag,
            context: 0,
            token: 0,
            msg_len: 0,
        })
    }

    fn frame(tag: i32, payload: &[u8]) -> Frame {
        let mut frame = frame_from(0, tag);
        frame.header.msg_len = payload.len() as u64;
        frame.payload = Bytes::copy_from_slice(payload);
        frame
    }

    /// Run `body` on its own thread and fail if it is not done after
    /// `limit`: a lost wake-up must be a failed test, not a hung job.
    fn watchdog<T: Send + 'static>(
        limit: Duration,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done, result) = mpsc::channel();
        let worker = thread::spawn(move || {
            let _ = done.send(body());
        });
        match result.recv_timeout(limit) {
            Ok(value) => {
                worker.join().expect("body already reported");
                value
            }
            Err(RecvTimeoutError::Timeout) => panic!("watchdog: still blocked after {limit:?}"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("body dropped its sender"))
            }
        }
    }

    /// Yield until `cond` holds (the waiter counts make "the other thread
    /// is parked" observable, so no test sleeps and hopes).
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < 20_000 * MS, "never saw {what}");
            thread::yield_now();
        }
    }

    fn parked_pops(mb: &Mailbox) -> usize {
        mb.inner.lock().parked_pops
    }

    fn budget(mb: &Mailbox) -> u32 {
        mb.budget_ns.load(Ordering::Relaxed)
    }

    /// Start `pop` on its own thread and return once that thread has been
    /// polling the empty mailbox for far longer than the spin phase. Its
    /// budget is ~4 s instead of ~50 us, so the caller can act while the
    /// consumer is provably still in the yield phase.
    fn polling_consumer<T: Send + 'static>(
        mb: &Arc<Mailbox>,
        pop: impl FnOnce(&Mailbox) -> T + Send + 'static,
    ) -> thread::JoinHandle<T> {
        mb.budget_ns.store(u32::MAX, Ordering::Relaxed);
        let started = Arc::new(Barrier::new(2));
        let consumer = thread::spawn({
            let (mb, started) = (Arc::clone(mb), Arc::clone(&started));
            move || {
                started.wait();
                pop(&mb)
            }
        });
        started.wait();
        thread::sleep(2 * MS);
        assert_eq!(parked_pops(mb), 0, "consumer parked inside its budget");
        consumer
    }

    #[test]
    fn push_pop_is_fifo() {
        let mb = Mailbox::new(16);
        for i in 0..5 {
            mb.push(frame(i, &[i as u8]), None).unwrap();
        }
        for i in 0..5 {
            assert_eq!(mb.pop().unwrap().header.tag, i);
        }
        assert!(mb.is_empty());
    }

    /// A burst up to the presized depth never grows the inbox (the
    /// backpressure tests pin a small mailbox's bound).
    #[test]
    fn a_burst_within_the_presized_depth_never_grows_the_inbox() {
        let mb = Mailbox::new(64 * 1024);
        let capacity = mb.inner.lock().queue.capacity();
        assert!(capacity >= PRESIZED_SLOTS);
        for i in 0..PRESIZED_SLOTS as i32 {
            mb.push(frame(i, &[]), None).unwrap();
        }
        assert_eq!(mb.inner.lock().queue.capacity(), capacity);
    }

    #[test]
    fn try_pop_on_empty_returns_none() {
        let mb = Mailbox::new(4);
        assert!(mb.try_pop().unwrap().is_none());
    }

    /// Preemption can make any single return late, so the upper bounds
    /// take the best of three; the lower bound holds every time.
    #[test]
    fn pop_timeout_returns_on_time_at_both_ends_of_the_scale() {
        let mb = Mailbox::new(4);
        let time = |timeout: Duration| {
            let start = Instant::now();
            assert!(mb.pop_timeout(timeout).unwrap().is_none());
            start.elapsed()
        };
        // The first wait runs on a full budget, the later ones on a decayed one.
        let long: Vec<Duration> = (0..3).map(|_| time(30 * MS)).collect();
        assert!(long.iter().all(|&t| t >= 30 * MS), "early: {long:?}");
        assert!(long.iter().any(|&t| t <= 40 * MS), "late: {long:?}");
        let short: Vec<Duration> = (0..3).map(|_| time(Duration::from_micros(1))).collect();
        assert!(short.iter().any(|&t| t <= MS), "late: {short:?}");
    }

    #[test]
    fn a_timeout_too_large_for_the_clock_means_no_deadline() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(4));
            let consumer = thread::spawn({
                let mb = Arc::clone(&mb);
                move || mb.pop_timeout(Duration::MAX)
            });
            wait_until("the consumer parked", || parked_pops(&mb) == 1);
            mb.push(frame(9, b""), None).unwrap();
            let got = consumer.join().unwrap().unwrap();
            assert_eq!(
                got.expect("no deadline, so only a frame ends it")
                    .header
                    .tag,
                9
            );
        });
    }

    #[test]
    fn delayed_frames_are_not_released_early() {
        let mb = Mailbox::new(4);
        let due = Instant::now() + 50 * MS;
        mb.push(frame(1, b"x"), Some(due)).unwrap();
        assert!(mb.try_pop().unwrap().is_none(), "frame released before due");
        assert!(mb.pop_timeout(5 * MS).unwrap().is_none(), "released early");
        assert_eq!(mb.pop().unwrap().header.tag, 1);
        assert!(Instant::now() >= due);
    }

    #[test]
    fn a_polling_consumer_does_not_release_a_frame_before_it_is_due() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(4));
            let consumer = polling_consumer(&mb, |mb| (mb.pop(), Instant::now()));
            let due = Instant::now() + 50 * MS;
            mb.push(frame(1, b"x"), Some(due)).unwrap();
            let (got, at) = consumer.join().unwrap();
            assert_eq!(got.unwrap().header.tag, 1);
            assert!(at >= due, "released {:?} early", due - at);
        });
    }

    #[test]
    fn blocking_pop_wakes_on_push_from_other_thread() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(4));
            let consumer = thread::spawn({
                let mb = Arc::clone(&mb);
                move || mb.pop().unwrap().header.tag
            });
            wait_until("the consumer parked", || parked_pops(&mb) == 1);
            mb.push(frame(7, b"hello"), None).unwrap();
            assert_eq!(consumer.join().unwrap(), 7);
        });
    }

    #[test]
    fn close_reaches_a_parked_consumer_and_fails_later_pushes() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(4));
            let consumer = thread::spawn({
                let mb = Arc::clone(&mb);
                move || mb.pop()
            });
            wait_until("the consumer parked", || parked_pops(&mb) == 1);
            mb.close();
            assert!(matches!(
                consumer.join().unwrap(),
                Err(TransportError::Disconnected)
            ));
            assert!(matches!(
                mb.push(frame(0, b""), None),
                Err(TransportError::Disconnected)
            ));
        });
    }

    #[test]
    fn close_reaches_a_yielding_consumer() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(4));
            let consumer = polling_consumer(&mb, |mb| mb.pop());
            mb.close();
            assert!(matches!(
                consumer.join().unwrap(),
                Err(TransportError::Disconnected)
            ));
        });
    }

    /// The spin phase lasts 1 us, so it cannot be hit on purpose: closer
    /// and consumer leave a barrier together and the close lands before
    /// the pop, in its first microseconds or after them, round after round.
    #[test]
    fn close_racing_the_start_of_a_pop_always_disconnects() {
        watchdog(60_000 * MS, || {
            for _ in 0..500 {
                let mb = Arc::new(Mailbox::new(4));
                let start = Arc::new(Barrier::new(2));
                let consumer = thread::spawn({
                    let (mb, start) = (Arc::clone(&mb), Arc::clone(&start));
                    move || {
                        start.wait();
                        mb.pop()
                    }
                });
                start.wait();
                mb.close();
                assert!(matches!(
                    consumer.join().unwrap(),
                    Err(TransportError::Disconnected)
                ));
            }
        });
    }

    #[test]
    fn a_push_on_a_full_mailbox_blocks_until_a_pop_wakes_it() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(2));
            mb.push(frame(0, b"a"), None).unwrap();
            mb.push(frame(1, b"b"), None).unwrap();
            let pusher = thread::spawn({
                let mb = Arc::clone(&mb);
                move || mb.push(frame(2, b"c"), None).unwrap()
            });
            wait_until("the producer parked", || mb.inner.lock().parked_pushes == 1);
            assert_eq!(mb.len(), 2, "third push went through a full mailbox");
            assert_eq!(mb.pop().unwrap().header.tag, 0);
            pusher.join().unwrap();
            assert_eq!(mb.pop().unwrap().header.tag, 1);
            assert_eq!(mb.pop().unwrap().header.tag, 2);
        });
    }

    /// Seeded pauses for the stress test: after one operation in `one_in`,
    /// a busy wait around the 1 us spin phase, one around the 50 us
    /// budget, or a sleep far past it.
    struct Pauses {
        state: u64,
        one_in: u64,
    }

    impl Pauses {
        fn maybe_pause(&mut self) {
            // xorshift64
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let r = self.state;
            if !r.is_multiple_of(self.one_in) {
                return;
            }
            let busy = |d: Duration| {
                let start = Instant::now();
                while start.elapsed() < d {
                    std::hint::spin_loop();
                }
            };
            let jitter = (r >> 24) % 64;
            match (r >> 16) % 4 {
                0 => busy(Duration::from_nanos(200 + jitter * 50)),
                1 => busy(Duration::from_micros(20 + jitter)),
                _ => thread::sleep(Duration::from_micros(100 + jitter)),
            }
        }
    }

    /// Producers send in bursts and mostly sleep between them, so the one
    /// consumer keeps finding the queue empty for anything from nothing to
    /// far beyond its budget, which meanwhile decays and recovers; its own
    /// rarer pauses let the slots fill and park the producers.
    #[test]
    fn four_producers_with_pauses_around_every_phase_boundary_lose_nothing() {
        const PRODUCERS: u32 = 4;
        const FRAMES: i32 = 100_000;
        watchdog(300_000 * MS, || {
            let mb = Mailbox::new(1024);
            thread::scope(|s| {
                for src in 0..PRODUCERS {
                    let mb = &mb;
                    s.spawn(move || {
                        let mut pauses = Pauses {
                            state: 0x9E37_79B9_7F4A_7C15 + u64::from(src),
                            one_in: 32,
                        };
                        for tag in 0..FRAMES {
                            pauses.maybe_pause();
                            mb.push(frame_from(src, tag), None).unwrap();
                        }
                    });
                }
                let mut pauses = Pauses {
                    state: 0xD1B5_4A32_D192_ED03,
                    one_in: 256,
                };
                let mut next = [0i32; PRODUCERS as usize];
                for _ in 0..PRODUCERS as i32 * FRAMES {
                    pauses.maybe_pause();
                    let got = mb.pop().unwrap().header;
                    assert_eq!(got.tag, next[got.src as usize], "from {}", got.src);
                    next[got.src as usize] += 1;
                }
                assert_eq!(next, [FRAMES; PRODUCERS as usize]);
            });
            assert!(mb.try_pop().unwrap().is_none());
        });
    }

    #[test]
    fn the_budget_steps_up_and_halves_down_within_its_cap() {
        assert_eq!(adapted(BUDGET_CAP_NS, true), BUDGET_CAP_NS);
        assert_eq!(adapted(BUDGET_CAP_NS, false), BUDGET_CAP_NS / 2);
        assert_eq!(adapted(0, false), 0);
        // Back from parking at once in four short waits, not in one.
        assert_eq!(adapted(0, true), BUDGET_STEP_NS);
        assert!(adapted(BUDGET_CAP_NS / 64, true) < BUDGET_CAP_NS);
        assert_eq!(adapted(u32::MAX, true), BUDGET_CAP_NS);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn thread_cpu_time() -> Duration {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, exclusively borrowed `struct timespec`
        // of the layout 64-bit Linux uses (two 64-bit fields), which is
        // all `clock_gettime` writes to.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn futile_waits_decay_to_parking_and_one_arrival_does_not_undo_it() {
        watchdog(20_000 * MS, || {
            let mb = Arc::new(Mailbox::new(4));
            assert_eq!(
                budget(&mb),
                BUDGET_CAP_NS,
                "a new mailbox starts at the cap"
            );
            for _ in 0..6 {
                assert!(mb.pop_timeout(MS).unwrap().is_none());
            }
            // (a spurious wake-up inside one of them may halve it once more)
            assert!(budget(&mb) <= BUDGET_CAP_NS >> 6);

            let (wall, cpu) = (Instant::now(), thread_cpu_time());
            assert!(mb.pop_timeout(5 * MS).unwrap().is_none());
            let (wall, cpu) = (wall.elapsed(), thread_cpu_time() - cpu);
            assert!(cpu * 20 < wall, "an idle wait of {wall:?} burned {cpu:?}");

            // A frame for a parked consumer ends its wait within the cap
            // (one step up) or after it (halved again): never at the cap.
            let decayed = budget(&mb);
            let consumer = thread::spawn({
                let mb = Arc::clone(&mb);
                move || mb.pop().unwrap().header.tag
            });
            wait_until("the consumer parked", || parked_pops(&mb) == 1);
            mb.push(frame(3, b""), None).unwrap();
            assert_eq!(consumer.join().unwrap(), 3);
            let after = budget(&mb);
            assert!(after <= adapted(decayed, true), "{decayed} -> {after}");
            assert!(after < BUDGET_CAP_NS);
        });
    }
}
