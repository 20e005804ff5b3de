//! MatlabMPI-style file-spool device: messages are files.
//!
//! Kepner's MatlabMPI demonstrated that a complete MPI can run over
//! nothing but a shared file system — every send writes a file, every
//! receive polls for it. The latency is orders of magnitude worse than a
//! real fabric, but the trade buys *radical deployability* (any shared
//! mount is a fabric) and *natural persistence*: in-flight traffic
//! survives the death of either endpoint, which is exactly the substrate
//! the engine's fault-tolerance tier (failure detection, late join,
//! checkpoint/restart) needs. This module reproduces that design behind
//! the unchanged [`Endpoint`] trait.
//!
//! # Spool layout
//!
//! ```text
//! <root>/
//!   leases/rank00003.lease        # heartbeat file per rank (mtime = last beat)
//!   rank00001/
//!     tmp/                        # sender-staged frames (same fs as inbox)
//!     inbox/                      # published frames addressed to rank 1
//!       s00000-q00000000000000000042.frame
//!   checkpoint/                   # engine checkpoint records (see mpi-native)
//! ```
//!
//! # Rename-commit protocol
//!
//! A send stages the encoded frame ([`FrameHeader::encode`] header bytes
//! followed by the payload) in the *destination's* `tmp/` directory, then
//! publishes it with [`std::fs::rename`] into the destination's `inbox/`.
//! Because `tmp/` and `inbox/` live under the same directory tree the
//! rename is atomic on every POSIX file system: a scan of `inbox/` sees
//! either no file or a complete frame, never a torn write. Inbox file
//! names carry the source rank and a per-(src, dst) sequence number
//! (`s<src>-q<seq>.frame`); the single consumer (the destination rank)
//! sorts by `(src, seq)` and drains the lowest first, which preserves the
//! per-pair FIFO order the engine's matching layer requires — the sender
//! is sequential, so the rename of frame *n* strictly precedes the
//! staging of frame *n*+1.
//!
//! # Heartbeat leases
//!
//! Each rank periodically rewrites `leases/rank<r>.lease`; the file's
//! mtime is the last proof of life. [`Endpoint::poll_failures`] compares
//! every peer's lease age against the fabric's lease window
//! ([`FabricConfig::lease`], default [`crate::DEFAULT_LEASE`], engine
//! override `MPIJAVA_LEASE_MS`): a peer stale for longer than the window
//! is declared dead, permanently (dead-is-dead — a restarted rank
//! re-attaches via [`SpoolDevice::attach`] to drain its spool, it does
//! not rejoin the old fabric's membership). Beats are refreshed from
//! every endpoint operation (send, the receive polling loops,
//! `poll_failures` itself), so a rank blocked in the engine's progress
//! loop keeps its lease alive; a rank that is silent because it is
//! executing a long pure-compute phase with no MPI calls looks dead to
//! its peers — the classic limitation of lease-based detection, so size
//! the lease to the application's longest quiet phase. A *missing* lease
//! file means a late joiner: it is only treated as a death after a grace
//! period of twice the lease window from endpoint creation.
//!
//! # Persistence modes
//!
//! With [`FabricConfig::spool_dir`] unset the device creates a fresh
//! directory under the system temp dir and removes it when the last
//! endpoint drops. An explicit spool dir is never removed: frames left
//! in an inbox survive the process, and [`SpoolDevice::attach`] builds a
//! fresh endpoint on the existing spool so a restarted or late-joining
//! rank drains exactly the traffic that was addressed to it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use bytes::Bytes;

use crate::error::{check_rank, Result, TransportError};
use crate::frame::{Frame, FrameHeader};
use crate::nodemap::NodeMap;
use crate::{DeviceKind, DeviceProfile, Endpoint, FabricConfig, PeerLiveness};

/// Distinguishes concurrently-built ephemeral spool roots within one
/// process (the pid alone is not enough when tests build fabrics in
/// parallel).
static EPHEMERAL_ROOTS: AtomicU64 = AtomicU64::new(0);

/// State shared by every endpoint of one spool fabric. Dropping the last
/// reference removes the root if it was auto-created (ephemeral mode).
struct SpoolShared {
    root: PathBuf,
    ephemeral: bool,
}

impl Drop for SpoolShared {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = fs::remove_dir_all(&self.root);
        }
    }
}

/// Failure-detection cache: lease checks are throttled and a rank once
/// declared dead stays dead.
struct FailCache {
    last_check: Option<Instant>,
    dead: BTreeSet<usize>,
}

/// Builder for the spool fabric; see the module docs for the protocol.
pub struct SpoolDevice;

impl SpoolDevice {
    /// Build `config.size` endpoints over one spool root. The root comes
    /// from [`FabricConfig::spool_dir`] (persistent) or a fresh temp
    /// directory (removed when the last endpoint drops). All ranks'
    /// lease files and inbox directories are created up front, so a
    /// missing lease file afterwards is meaningful.
    pub fn build(config: &FabricConfig) -> Result<Vec<SpoolEndpoint>> {
        let (root, ephemeral) = match &config.spool_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                let n = EPHEMERAL_ROOTS.fetch_add(1, Ordering::Relaxed);
                (
                    std::env::temp_dir().join(format!("mpijava-spool-{}-{n}", std::process::id())),
                    true,
                )
            }
        };
        init_root(&root, config.size)?;
        let shared = Arc::new(SpoolShared { root, ephemeral });
        (0..config.size)
            .map(|rank| {
                SpoolEndpoint::new(
                    Arc::clone(&shared),
                    rank,
                    config.size,
                    config.lease,
                    config.profile,
                    config.nodes.clone(),
                )
            })
            .collect()
    }

    /// Attach a single endpoint to an *existing* spool root — the late
    /// join / restart entry point. The root must already exist (build a
    /// fabric with an explicit [`FabricConfig::spool_dir`] first); the
    /// attached endpoint re-announces itself by rewriting its lease file
    /// and then drains whatever frames are pending in its inbox. Never
    /// ephemeral: attaching does not adopt ownership of the directory.
    pub fn attach(
        root: impl Into<PathBuf>,
        rank: usize,
        size: usize,
        lease: Duration,
    ) -> Result<SpoolEndpoint> {
        let root = root.into();
        check_rank(rank, size)?;
        if !root.is_dir() {
            return Err(TransportError::InvalidConfig(format!(
                "spool root {} does not exist",
                root.display()
            )));
        }
        // (Re)create this rank's own structure; peers' dirs are made
        // lazily by senders if needed.
        fs::create_dir_all(root.join(format!("rank{rank:05}")).join("tmp"))?;
        fs::create_dir_all(root.join(format!("rank{rank:05}")).join("inbox"))?;
        fs::create_dir_all(root.join("leases"))?;
        let shared = Arc::new(SpoolShared {
            root,
            ephemeral: false,
        });
        SpoolEndpoint::new(
            shared,
            rank,
            size,
            lease,
            DeviceProfile::default(),
            NodeMap::flat(size),
        )
    }
}

fn init_root(root: &Path, size: usize) -> Result<()> {
    if size == 0 {
        return Err(TransportError::InvalidConfig(
            "spool fabric size must be at least 1".into(),
        ));
    }
    fs::create_dir_all(root.join("leases"))?;
    for rank in 0..size {
        fs::create_dir_all(root.join(format!("rank{rank:05}")).join("tmp"))?;
        fs::create_dir_all(root.join(format!("rank{rank:05}")).join("inbox"))?;
        fs::write(lease_path(root, rank), b"beat\n")?;
    }
    Ok(())
}

fn lease_path(root: &Path, rank: usize) -> PathBuf {
    root.join("leases").join(format!("rank{rank:05}.lease"))
}

/// One rank's attachment to a spool fabric.
pub struct SpoolEndpoint {
    shared: Arc<SpoolShared>,
    rank: usize,
    size: usize,
    lease: Duration,
    profile: DeviceProfile,
    nodes: NodeMap,
    created: Instant,
    /// Per-destination sequence counters driving inbox file ordering.
    seqs: Mutex<Vec<u64>>,
    /// Last time we rewrote our own lease file.
    last_beat: Mutex<Instant>,
    fail_cache: Mutex<FailCache>,
}

impl SpoolEndpoint {
    fn new(
        shared: Arc<SpoolShared>,
        rank: usize,
        size: usize,
        lease: Duration,
        profile: DeviceProfile,
        nodes: NodeMap,
    ) -> Result<SpoolEndpoint> {
        fs::write(lease_path(&shared.root, rank), b"beat\n")?;
        Ok(SpoolEndpoint {
            shared,
            rank,
            size,
            lease,
            profile,
            nodes,
            created: Instant::now(),
            seqs: Mutex::new(vec![0; size]),
            last_beat: Mutex::new(Instant::now()),
            fail_cache: Mutex::new(FailCache {
                last_check: None,
                dead: BTreeSet::new(),
            }),
        })
    }

    fn root(&self) -> &Path {
        &self.shared.root
    }

    fn inbox_dir(&self, rank: usize) -> PathBuf {
        self.root().join(format!("rank{rank:05}")).join("inbox")
    }

    fn tmp_dir(&self, rank: usize) -> PathBuf {
        self.root().join(format!("rank{rank:05}")).join("tmp")
    }

    /// Rewrite our lease file if the last beat is getting old. Called
    /// from every operation so any engine activity keeps the lease
    /// fresh; the refresh threshold (a quarter lease) keeps the beat
    /// comfortably inside the window without a write per operation.
    fn heartbeat(&self) {
        let mut last = self.last_beat.lock().expect("heartbeat clock poisoned");
        if last.elapsed() > self.lease / 4 {
            let _ = fs::write(lease_path(self.root(), self.rank), b"beat\n");
            *last = Instant::now();
        }
    }

    /// Polling quantum for the blocking receive loops: fine-grained
    /// enough to stay well under the lease window, coarse enough not to
    /// burn the disk.
    fn quantum(&self) -> Duration {
        (self.lease / 20).clamp(Duration::from_micros(200), Duration::from_millis(2))
    }

    /// Scan our inbox and claim the lowest-(src, seq) frame, if any.
    fn claim_next(&self) -> Result<Option<Frame>> {
        let inbox = self.inbox_dir(self.rank);
        let mut best: Option<(usize, u64, PathBuf)> = None;
        for entry in fs::read_dir(&inbox)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some((src, seq)) = parse_frame_name(&name.to_string_lossy()) else {
                continue;
            };
            if best
                .as_ref()
                .is_none_or(|(bs, bq, _)| (src, seq) < (*bs, *bq))
            {
                best = Some((src, seq, entry.path()));
            }
        }
        let Some((_, _, path)) = best else {
            return Ok(None);
        };
        let bytes = fs::read(&path)?;
        let frame = decode_frame_file(&bytes).map_err(|e| match e {
            TransportError::Corrupt(why) => {
                TransportError::Corrupt(format!("spool frame {}: {why}", path.display()))
            }
            other => other,
        })?;
        fs::remove_file(&path)?;
        Ok(Some(frame))
    }
}

/// Decode one frame file: an encoded header, then exactly the payload
/// length it declares. The length comes from the file, so a file too
/// short for it — or a length whose end overflows — is `Corrupt`.
fn decode_frame_file(bytes: &[u8]) -> Result<Frame> {
    let (header, payload_len) = FrameHeader::decode(bytes)?;
    let payload = FrameHeader::WIRE_LEN
        .checked_add(payload_len)
        .and_then(|end| bytes.get(FrameHeader::WIRE_LEN..end))
        .ok_or_else(|| {
            TransportError::Corrupt(format!(
                "truncated: {} bytes hold no {payload_len}-byte payload",
                bytes.len()
            ))
        })?;
    Ok(Frame::new(header, Bytes::copy_from_slice(payload)))
}

/// Parse `s<src>-q<seq>.frame`.
fn parse_frame_name(name: &str) -> Option<(usize, u64)> {
    let stem = name.strip_suffix(".frame")?;
    let (src, seq) = stem.split_once("-q")?;
    let src = src.strip_prefix('s')?.parse().ok()?;
    let seq = seq.parse().ok()?;
    Some((src, seq))
}

impl Endpoint for SpoolEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, frame: Frame) -> Result<()> {
        let dst = frame.header.dst as usize;
        check_rank(dst, self.size)?;
        self.heartbeat();
        self.profile.charge(frame.len());
        let seq = {
            let mut seqs = self.seqs.lock().expect("spool seq counters poisoned");
            seqs[dst] += 1;
            seqs[dst]
        };
        let tmp = self.tmp_dir(dst).join(format!("{}-{seq}.tmp", self.rank));
        let mut bytes = Vec::with_capacity(FrameHeader::WIRE_LEN + frame.len());
        bytes.extend_from_slice(&frame.header.encode(frame.len()));
        bytes.extend_from_slice(&frame.payload);
        fs::write(&tmp, &bytes)?;
        let published = self
            .inbox_dir(dst)
            .join(format!("s{:05}-q{seq:020}.frame", self.rank));
        fs::rename(&tmp, &published)?;
        Ok(())
    }

    fn recv(&self) -> Result<Frame> {
        loop {
            self.heartbeat();
            if let Some(frame) = self.claim_next()? {
                return Ok(frame);
            }
            std::thread::sleep(self.quantum());
        }
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        self.heartbeat();
        self.claim_next()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        let start = Instant::now();
        loop {
            self.heartbeat();
            if let Some(frame) = self.claim_next()? {
                return Ok(Some(frame));
            }
            if start.elapsed() >= timeout {
                return Ok(None);
            }
            std::thread::sleep(self.quantum().min(timeout));
        }
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Spool
    }

    fn node_map(&self) -> &NodeMap {
        &self.nodes
    }

    fn poll_failures(&self) -> Vec<usize> {
        self.heartbeat();
        let mut cache = self.fail_cache.lock().expect("failure cache poisoned");
        let throttle = (self.lease / 4).min(Duration::from_millis(50));
        let due = cache.last_check.is_none_or(|at| at.elapsed() >= throttle);
        if due {
            cache.last_check = Some(Instant::now());
            let now = SystemTime::now();
            for peer in 0..self.size {
                if peer == self.rank || cache.dead.contains(&peer) {
                    continue;
                }
                match fs::metadata(lease_path(self.root(), peer)).and_then(|m| m.modified()) {
                    Ok(modified) => {
                        if now
                            .duration_since(modified)
                            .is_ok_and(|age| age > self.lease)
                        {
                            cache.dead.insert(peer);
                        }
                    }
                    Err(_) => {
                        // No lease file: a late joiner, unless it stays
                        // missing past the grace window.
                        if self.created.elapsed() > self.lease * 2 {
                            cache.dead.insert(peer);
                        }
                    }
                }
            }
        }
        cache.dead.iter().copied().collect()
    }

    fn spool_dir(&self) -> Option<&Path> {
        Some(self.root())
    }

    fn peer_liveness(&self) -> Vec<PeerLiveness> {
        // Lease-file mtimes are the ground truth poll_failures judges
        // against; report them raw (unthrottled) so the observability
        // layer can gauge how close each peer is to its lease deadline.
        let dead: BTreeSet<usize> = {
            let cache = self.fail_cache.lock().expect("failure cache poisoned");
            cache.dead.clone()
        };
        let now = SystemTime::now();
        (0..self.size)
            .filter(|&peer| peer != self.rank)
            .map(|peer| {
                let heartbeat_age = fs::metadata(lease_path(self.root(), peer))
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|modified| now.duration_since(modified).ok());
                PeerLiveness {
                    rank: peer,
                    heartbeat_age,
                    lease: self.lease,
                    dead: dead.contains(&peer),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    fn frame(src: usize, dst: usize, tag: i32, payload: &[u8]) -> Frame {
        Frame::new(
            FrameHeader {
                kind: FrameKind::Eager,
                src: src as u32,
                dst: dst as u32,
                tag,
                context: 0,
                token: 0,
                msg_len: payload.len() as u64,
            },
            Bytes::copy_from_slice(payload),
        )
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "mpijava-spool-test-{tag}-{}-{}",
            std::process::id(),
            EPHEMERAL_ROOTS.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn roundtrip_preserves_header_payload_and_pair_order() {
        let eps = SpoolDevice::build(&FabricConfig::new(2, DeviceKind::Spool)).unwrap();
        for i in 0..5 {
            eps[0]
                .send(frame(0, 1, i, format!("msg{i}").as_bytes()))
                .unwrap();
        }
        for i in 0..5 {
            let f = eps[1].recv().unwrap();
            assert_eq!(f.header.tag, i);
            assert_eq!(&f.payload[..], format!("msg{i}").as_bytes());
            assert_eq!(f.header.src, 0);
        }
        assert!(eps[1].try_recv().unwrap().is_none());
    }

    /// A frame file's payload length is read from the file: a length
    /// past the end of the file, or one whose end overflows, is a
    /// `Corrupt` error, not a panic.
    #[test]
    fn a_crafted_payload_length_is_corrupt_not_a_panic() {
        let f = frame(0, 1, 3, b"four");
        for declared in [5, usize::MAX] {
            let mut bytes = f.header.encode(declared).to_vec();
            bytes.extend_from_slice(&f.payload);
            assert!(
                matches!(decode_frame_file(&bytes), Err(TransportError::Corrupt(_))),
                "declared {declared}"
            );
        }
        let mut bytes = f.header.encode(4).to_vec();
        bytes.extend_from_slice(&f.payload);
        let decoded = decode_frame_file(&bytes).unwrap();
        assert_eq!(
            (decoded.header, &decoded.payload[..]),
            (f.header, &b"four"[..])
        );
    }

    #[test]
    fn ephemeral_root_is_removed_with_the_last_endpoint() {
        let eps = SpoolDevice::build(&FabricConfig::new(2, DeviceKind::Spool)).unwrap();
        let root = eps[0].spool_dir().unwrap().to_path_buf();
        assert!(root.is_dir());
        drop(eps);
        assert!(!root.exists(), "ephemeral spool root should be cleaned up");
    }

    #[test]
    fn explicit_root_persists_and_a_late_attach_drains_it() {
        let root = temp_root("latejoin");
        {
            let eps = SpoolDevice::build(&FabricConfig {
                spool_dir: Some(root.clone()),
                ..FabricConfig::new(2, DeviceKind::Spool)
            })
            .unwrap();
            eps[0].send(frame(0, 1, 7, b"pending")).unwrap();
            // Rank 1's original endpoint never receives; everything drops.
        }
        assert!(root.is_dir(), "explicit spool root must survive");
        let late = SpoolDevice::attach(&root, 1, 2, Duration::from_millis(200)).unwrap();
        let f = late.try_recv().unwrap().expect("spooled frame survived");
        assert_eq!(f.header.tag, 7);
        assert_eq!(&f.payload[..], b"pending");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_lease_is_reported_dead_and_stays_dead() {
        let lease = Duration::from_millis(60);
        let eps = SpoolDevice::build(&FabricConfig {
            lease,
            ..FabricConfig::new(2, DeviceKind::Spool)
        })
        .unwrap();
        let mut eps = eps;
        let victim = eps.pop().unwrap(); // rank 1
        let survivor = eps.pop().unwrap(); // rank 0
        assert!(survivor.poll_failures().is_empty());
        drop(victim); // no more heartbeats from rank 1
        std::thread::sleep(lease + Duration::from_millis(40));
        assert_eq!(survivor.poll_failures(), vec![1]);
        // Dead-is-dead, even if something recreates the lease file.
        fs::write(lease_path(survivor.root(), 1), b"beat\n").unwrap();
        assert_eq!(survivor.poll_failures(), vec![1]);
    }

    #[test]
    fn receive_loops_keep_their_own_lease_alive() {
        let lease = Duration::from_millis(60);
        let eps = SpoolDevice::build(&FabricConfig {
            lease,
            ..FabricConfig::new(2, DeviceKind::Spool)
        })
        .unwrap();
        // Rank 1 polls (empty) for well past the lease window; rank 0
        // must still consider it alive because polling heartbeats.
        let start = Instant::now();
        while start.elapsed() < lease * 2 {
            assert!(eps[1]
                .recv_timeout(Duration::from_millis(10))
                .unwrap()
                .is_none());
        }
        assert!(eps[0].poll_failures().is_empty());
    }

    #[test]
    fn frame_names_parse_and_sort_by_src_then_seq() {
        assert_eq!(
            parse_frame_name("s00002-q00000000000000000009.frame"),
            Some((2, 9))
        );
        assert_eq!(parse_frame_name("garbage"), None);
        assert_eq!(parse_frame_name("s1-q2.tmp"), None);
    }
}
