//! Link model used to reproduce the paper's distributed-memory (DM)
//! configuration: two hosts connected by 10BaseT Ethernet.
//!
//! The paper's DM-mode results (Table 1 second row, Figure 6) are dominated
//! by the link: one-way 1-byte latencies of several hundred microseconds and
//! a bandwidth ceiling around 1 MByte/s (~90 % of 10 Mbps). We do not have
//! two 1999 workstations on a thin-wire Ethernet, so the TCP device can be
//! shaped by this model instead: each delivered frame is held until
//! `latency + bytes / bandwidth` has elapsed since it was sent.
//!
//! The model is deliberately simple (no congestion, no per-packet
//! segmentation) because the experiment only needs the first-order shape.

use std::time::{Duration, Instant};

/// A point-to-point link model: fixed one-way latency plus a serialization
/// delay proportional to message size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way propagation + protocol latency added to every frame.
    pub latency: Duration,
    /// Link bandwidth in bytes per second. `f64::INFINITY` disables the
    /// serialization delay.
    pub bandwidth_bytes_per_sec: f64,
    /// Whether the model is applied at all.
    pub enabled: bool,
}

impl NetworkModel {
    /// No shaping: frames are delivered as fast as the device can move them.
    pub const fn unshaped() -> NetworkModel {
        NetworkModel {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
            enabled: false,
        }
    }

    /// An explicit latency/bandwidth pair.
    pub fn new(latency: Duration, bandwidth_bytes_per_sec: f64) -> NetworkModel {
        NetworkModel {
            latency,
            bandwidth_bytes_per_sec,
            enabled: true,
        }
    }

    /// The link used in the paper's DM experiments: 10BaseT Ethernet.
    ///
    /// 10 Mbps ≈ 1.25 MB/s raw; the paper measures ~1 MB/s application
    /// payload ("about 90 % of the maximum attainable"), and one-way 1-byte
    /// times of 245–960 µs depending on the stack. We model the wire itself
    /// (raw bandwidth, ~200 µs one-way latency); the software stacks above
    /// contribute their own measured overheads.
    pub fn ethernet_10base_t() -> NetworkModel {
        NetworkModel::new(Duration::from_micros(200), 1.25e6)
    }

    /// A conservative model of a modern gigabit LAN, used by the extended
    /// experiments (not part of the paper's evaluation).
    pub fn gigabit() -> NetworkModel {
        NetworkModel::new(Duration::from_micros(30), 125.0e6)
    }

    /// Time the link needs to move `len` payload bytes.
    pub fn transfer_time(&self, len: usize) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let serialization =
            if self.bandwidth_bytes_per_sec.is_finite() && self.bandwidth_bytes_per_sec > 0.0 {
                Duration::from_secs_f64(len as f64 / self.bandwidth_bytes_per_sec)
            } else {
                Duration::ZERO
            };
        self.latency + serialization
    }

    /// The instant at which a frame of `len` bytes sent *now* becomes
    /// visible at the far end.
    pub fn due(&self, len: usize) -> Option<Instant> {
        if !self.enabled {
            None
        } else {
            Some(Instant::now() + self.transfer_time(len))
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::unshaped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshaped_model_adds_no_delay() {
        let m = NetworkModel::unshaped();
        assert_eq!(m.transfer_time(1 << 20), Duration::ZERO);
        assert!(m.due(100).is_none());
    }

    #[test]
    fn ethernet_model_matches_paper_regime() {
        let m = NetworkModel::ethernet_10base_t();
        // 1-byte latency must be in the hundreds of microseconds.
        let t1 = m.transfer_time(1);
        assert!(t1 >= Duration::from_micros(100) && t1 <= Duration::from_millis(1));
        // 1 MiB should take on the order of a second (the paper's Figure 6
        // peaks around 1 MByte/s).
        let t_big = m.transfer_time(1 << 20);
        assert!(t_big >= Duration::from_millis(500) && t_big <= Duration::from_secs(2));
    }

    #[test]
    fn transfer_time_is_monotone_in_size() {
        let m = NetworkModel::ethernet_10base_t();
        let mut prev = Duration::ZERO;
        for size in [0usize, 1, 64, 1024, 65536, 1 << 20] {
            let t = m.transfer_time(size);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn due_is_in_the_future_when_enabled() {
        let m = NetworkModel::new(Duration::from_millis(5), 1e6);
        let due = m.due(1000).unwrap();
        assert!(due > Instant::now());
    }
}
