//! The measuring loop every pass shares: a window gate that lets rank 0
//! decide — by the clock — how many equal windows run while the other
//! ranks follow without an extra MPI message, and a meter that keeps
//! in-call time, verification results and sampled spans apart.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use mpijava::MpiResult;

/// Nanoseconds since the first call in this process (span timestamps).
pub fn now_ns(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    at.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// SplitMix64: the seed is the only source of workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Wrapping sum of the little-endian 64-bit words of `bytes` (a short
/// tail is zero-extended). Splitting at a multiple of 8 splits the sum.
pub fn sum64(bytes: &[u8]) -> u64 {
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    words
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(u64::from_le_bytes(tail), u64::wrapping_add)
}

/// [`sum64`] of the little-endian image of `values`.
pub fn sum64_i32(values: &[i32]) -> u64 {
    let pairs = values.chunks_exact(2);
    let tail = pairs.remainder().first().map_or(0, |&v| v as u32 as u64);
    pairs
        .map(|p| p[0] as u32 as u64 | (p[1] as u32 as u64) << 32)
        .fold(tail, u64::wrapping_add)
}

/// One timed window on rank 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowRec {
    /// Time inside the operation proper (verification excluded).
    pub timed_ns: u64,
    /// The part of `timed_ns` spent inside communication calls.
    pub comm_ns: u64,
    pub ops: u64,
}

impl WindowRec {
    pub fn us_per_op(&self) -> f64 {
        self.timed_ns as f64 / 1e3 / self.ops as f64
    }
}

/// A span recorded by the harness around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub level: &'static str,
    pub parent: Option<&'static str>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-rank bookkeeping of one pass.
pub struct Meter {
    level: &'static str,
    parent: Option<&'static str>,
    /// Operations whose result was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// `--inject-fail`: the check whose expected value gets corrupted.
    inject_at: Option<u64>,
    checks: u64,
    cur: WindowRec,
    pub windows: Vec<WindowRec>,
    /// `Some` on a traced pass: one timed interval of every window is
    /// recorded, which bounds the span file. Which one rotates from
    /// window to window, so that steps that differ (every tenth Jacobi
    /// step reduces a residual) are all sampled.
    spans: Option<Vec<Span>>,
    /// Timed intervals closed in this window, and in the previous one.
    closed: u64,
    closed_before: u64,
    ops_seen: u64,
}

impl Meter {
    pub fn new(level: &'static str, parent: Option<&'static str>, traced: bool) -> Meter {
        // Fix the span epoch before the first operation starts.
        now_ns(Instant::now());
        Meter {
            level,
            parent,
            attempted: 0,
            failed: 0,
            inject_at: None,
            checks: 0,
            cur: WindowRec::default(),
            windows: Vec::new(),
            spans: traced.then(Vec::new),
            closed: 0,
            closed_before: 1,
            ops_seen: 0,
        }
    }

    pub fn inject_fail_at(&mut self, check: u64) {
        self.inject_at = Some(check);
    }

    /// Compare one operation's result checksum with its expected value.
    pub fn check(&mut self, got: u64, want: u64) {
        self.check_n(1, got, want);
    }

    /// One comparison that vouches for `ops` operations at once.
    pub fn check_n(&mut self, ops: u64, got: u64, mut want: u64) {
        if self.inject_at == Some(self.checks) {
            want ^= 1;
        }
        self.checks += 1;
        self.attempted += ops;
        if got != want {
            self.failed += ops;
        }
    }

    /// Mark every operation checked so far as failed (an end-of-run
    /// check that cannot say which operation went wrong).
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    /// True while the current interval's spans are being recorded.
    fn sampling(&self) -> bool {
        self.spans.is_some() && self.closed == self.windows.len() as u64 % self.closed_before
    }

    /// Record a child span of the current operation.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.sampling() {
            self.push_span(name, start, end);
        }
    }

    fn push_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            level: self.level,
            parent: self.parent,
            name,
            op: self.ops_seen,
            start_ns: now_ns(start),
            end_ns: now_ns(end),
        };
        self.spans
            .as_mut()
            .expect("sampling implies traced")
            .push(span);
    }

    /// Close `ops` operations that ran from `start` to `end` and
    /// consisted of communication only.
    pub fn end(&mut self, start: Instant, end: Instant, ops: u64) {
        self.end_split(start, end, ops, (end - start).as_nanos() as u64);
    }

    /// Close `ops` operations of which `comm_ns` was communication.
    pub fn end_split(&mut self, start: Instant, end: Instant, ops: u64, comm_ns: u64) {
        self.cur.timed_ns += (end - start).as_nanos() as u64;
        self.cur.comm_ns += comm_ns;
        self.cur.ops += ops;
        if self.sampling() {
            self.push_span("op", start, end);
        }
        self.closed += 1;
        self.ops_seen += ops;
    }

    fn close_window(&mut self) {
        self.windows.push(std::mem::take(&mut self.cur));
        self.closed_before = std::mem::take(&mut self.closed).max(1);
    }

    /// Forget the windows recorded so far (the warm-up).
    pub fn discard_windows(&mut self) {
        self.windows.clear();
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }
}

/// How long rank 0 keeps a phase going.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub time: Duration,
    /// Stop after this many windows even if time is left (count-only
    /// passes and `--smoke`).
    pub max_windows: usize,
}

/// Shared by the ranks of one pass. Rank 0 permits windows one at a time
/// while its budget lasts; the others run exactly the permitted windows.
#[derive(Default)]
pub struct Gate {
    permitted: AtomicU64,
    stopped: AtomicBool,
    warm_windows: AtomicU64,
}

impl Gate {
    /// Rank 0: run at least one window, then more until `budget` is used.
    pub fn lead(
        &self,
        budget: Budget,
        meter: &mut Meter,
        mut window: impl FnMut(&mut Meter) -> MpiResult<()>,
    ) -> MpiResult<()> {
        let start = Instant::now();
        let mut run = 0;
        while run == 0 || (run < budget.max_windows && start.elapsed() < budget.time) {
            self.permitted.fetch_add(1, Ordering::SeqCst);
            window(meter)?;
            meter.close_window();
            run += 1;
        }
        Ok(())
    }

    /// Rank 0: the windows run so far were the warm-up.
    pub fn end_warm_up(&self, windows: usize) {
        self.warm_windows.store(windows as u64, Ordering::SeqCst);
    }

    /// How many leading windows were warm-up (valid once stopped).
    pub fn warm_windows(&self) -> usize {
        self.warm_windows.load(Ordering::SeqCst) as usize
    }

    /// Rank 0: no more windows.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    /// Other ranks: run every permitted window until rank 0 stops.
    pub fn follow(
        &self,
        meter: &mut Meter,
        mut window: impl FnMut(&mut Meter) -> MpiResult<()>,
    ) -> MpiResult<()> {
        let mut done = 0u64;
        loop {
            let mut go = false;
            spin_until(|| {
                go = self.permitted.load(Ordering::SeqCst) > done;
                go || self.stopped.load(Ordering::SeqCst)
            });
            if !go {
                return Ok(());
            }
            window(meter)?;
            meter.close_window();
            done += 1;
        }
    }
}

/// Busy-wait for `ready`. Rank threads own their cores, so spinning is
/// the cheapest hand-off; with more ranks than cores (the four-rank
/// count pass, tests) it falls back to yielding.
pub fn spin_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        if spins < 1000 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Stops the gate when dropped, so that a failing rank 0 releases the
/// followers instead of leaving them spinning.
pub struct StopOnDrop<'a>(pub &'a Gate);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum64_splits_at_word_boundaries_and_matches_i32_image() {
        let bytes = Rng::new(7, 0).bytes(8 * 5 + 3);
        assert_eq!(
            sum64(&bytes),
            sum64(&bytes[..8]).wrapping_add(sum64(&bytes[8..]))
        );
        for len in [1usize, 2, 7] {
            let ints: Vec<i32> = (0..len as i32).map(|i| i * -77_777).collect();
            let image: Vec<u8> = ints.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(sum64_i32(&ints), sum64(&image), "len {len}");
        }
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_streams() {
        assert_eq!(Rng::new(1, 2).bytes(33), Rng::new(1, 2).bytes(33));
        assert_ne!(Rng::new(1, 2).bytes(33), Rng::new(1, 3).bytes(33));
        let x = Rng::new(9, 9).unit_f64();
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn injected_failure_corrupts_exactly_one_expected_value() {
        let mut m = Meter::new("t", None, false);
        m.inject_fail_at(2);
        for i in 0..5 {
            m.check(i, i);
        }
        assert_eq!((m.attempted, m.failed), (5, 1));
    }

    #[test]
    fn gate_runs_the_same_windows_on_leader_and_follower() {
        let gate = Gate::default();
        let budget = Budget {
            time: Duration::from_secs(60),
            max_windows: 7,
        };
        let (lead, follow) = std::thread::scope(|s| {
            let f = s.spawn(|| {
                let mut m = Meter::new("t", None, false);
                gate.follow(&mut m, |m| {
                    m.end(Instant::now(), Instant::now(), 1);
                    Ok(())
                })
                .unwrap();
                m.windows.len()
            });
            let mut m = Meter::new("t", None, true);
            {
                let _stop = StopOnDrop(&gate);
                gate.lead(budget, &mut m, |m| {
                    m.end(Instant::now(), Instant::now(), 3);
                    Ok(())
                })
                .unwrap();
            }
            assert_eq!(m.take_spans().len(), 7, "one sampled op per window");
            (m.windows.len(), f.join().unwrap())
        });
        assert_eq!((lead, follow), (7, 7));
    }
}
