//! The few process-level calls the harness rules need: CPU pinning,
//! glibc malloc tuning and resource counters. Declared by hand because
//! the image has no `libc` crate; Linux/glibc x86-64 and aarch64 layouts.

use std::os::raw::{c_int, c_long};

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// `struct rusage` (two `timeval`s, then fourteen `long`s).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

/// Pin the calling thread to `core`. Returns false when the kernel
/// refuses (the run then reports itself as unpinned).
pub fn pin_to_core(core: usize) -> bool {
    let mut mask = [0u64; 16];
    if core >= mask.len() * 64 {
        return false;
    }
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: `mask` is a live, correctly sized bitset for the duration
    // of the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The malloc settings every run applies, as `(name, param, value)`.
/// Setting any of the three also switches off glibc's dynamic
/// mmap/trim threshold, whose drift made a 1 MiB allreduce flip between
/// ~0.6 ms and ~1.4 ms from run to run.
pub const MALLOC_SETTINGS: [(&str, c_int, c_int); 3] = [
    ("M_MMAP_THRESHOLD", -3, 32 << 20),
    ("M_TRIM_THRESHOLD", -1, 512 << 20),
    ("M_TOP_PAD", -2, 64 << 20),
];

/// Apply [`MALLOC_SETTINGS`]; false if glibc rejected one.
pub fn fix_malloc() -> bool {
    MALLOC_SETTINGS.iter().all(|&(_, param, value)| {
        // SAFETY: mallopt takes two ints and touches only malloc's own
        // tunables; called from `main` before any rank thread exists.
        unsafe { mallopt(param, value) == 1 }
    })
}

/// Process-wide resource counters (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_us: f64,
    pub vol_ctx_switches: f64,
    pub minor_faults: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage`; 0 is RUSAGE_SELF.
        if unsafe { getrusage(0, &mut ru) } != 0 {
            return Usage::default();
        }
        let us = |tv: [c_long; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
        Usage {
            cpu_us: us(ru.utime) + us(ru.stime),
            vol_ctx_switches: ru.nvcsw as f64,
            minor_faults: ru.minflt as f64,
        }
    }

    pub fn since(&self, start: &Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - start.cpu_us,
            vol_ctx_switches: self.vol_ctx_switches - start.vol_ctx_switches,
            minor_faults: self.minor_faults - start.minor_faults,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First field of `/proc/loadavg` (1-minute load), or NaN.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}
