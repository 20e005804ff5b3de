//! Socket device for the paper's distributed-memory (DM) mode.
//!
//! The paper's DM experiments run the two MPI processes on two hosts joined
//! by 10BaseT Ethernet. We do not have two 1999 workstations, so the device
//! runs over loopback TCP — one real socket per rank pair, a dedicated
//! reader thread per socket feeding the rank's inbox — and the link itself
//! is reproduced by the [`NetworkModel`] attached to the fabric (frames are
//! held until their modelled arrival time). With the `ethernet_10base_t`
//! model the device lands in the same regime as the paper's Figure 6:
//! sub-millisecond small-message latency and a ~1 MB/s bandwidth ceiling.
//!
//! The wire format is [`FrameHeader::encode`] followed by the payload.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::error::{check_rank, Result, TransportError};
use crate::frame::{Frame, FrameHeader};
use crate::mailbox::Mailbox;
use crate::nodemap::NodeMap;
use crate::{
    DeviceKind, DeviceProfile, Endpoint, FabricConfig, NetworkModel, SharedMailbox, INBOX_CAPACITY,
};

/// One rank's endpoint on the TCP device.
pub struct TcpEndpoint {
    rank: usize,
    size: usize,
    inbox: SharedMailbox,
    /// Write half of the connection to each peer (keyed by peer rank).
    writers: HashMap<usize, Arc<Mutex<TcpStream>>>,
    profile: DeviceProfile,
    network: NetworkModel,
    nodes: Arc<NodeMap>,
    /// Reader threads draining peer sockets into `inbox`.
    readers: Vec<std::thread::JoinHandle<()>>,
}

/// Namespace struct for building TCP fabrics.
pub struct TcpDevice;

impl TcpDevice {
    /// Build a fully-connected loopback TCP fabric with `config.size` ranks.
    pub fn build(config: &FabricConfig) -> Result<Vec<TcpEndpoint>> {
        let n = config.size;
        let inboxes: Vec<SharedMailbox> = (0..n)
            .map(|_| Arc::new(Mailbox::new(INBOX_CAPACITY)))
            .collect();
        let mut writers: Vec<HashMap<usize, Arc<Mutex<TcpStream>>>> =
            (0..n).map(|_| HashMap::new()).collect();
        let mut readers: Vec<Vec<std::thread::JoinHandle<()>>> =
            (0..n).map(|_| Vec::new()).collect();

        // One TCP connection per unordered rank pair {i, j}, i < j.
        for i in 0..n {
            for j in (i + 1)..n {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let addr = listener.local_addr()?;
                let connector = std::thread::spawn(move || TcpStream::connect(addr));
                let (accepted, _) = listener.accept()?;
                let connected = connector.join().map_err(|_| {
                    TransportError::InvalidConfig("connector thread panicked".into())
                })??;
                accepted.set_nodelay(true)?;
                connected.set_nodelay(true)?;

                // `accepted` lives at rank i (talks to j); `connected` at rank j.
                let i_read = accepted.try_clone()?;
                let j_read = connected.try_clone()?;
                writers[i].insert(j, Arc::new(Mutex::new(accepted)));
                writers[j].insert(i, Arc::new(Mutex::new(connected)));
                readers[i].push(spawn_reader(
                    i_read,
                    Arc::clone(&inboxes[i]),
                    config.network,
                ));
                readers[j].push(spawn_reader(
                    j_read,
                    Arc::clone(&inboxes[j]),
                    config.network,
                ));
            }
        }

        let nodes = Arc::new(config.nodes.clone());
        let mut endpoints = Vec::with_capacity(n);
        for (rank, (inbox, (w, r))) in inboxes
            .into_iter()
            .zip(writers.into_iter().zip(readers))
            .enumerate()
        {
            endpoints.push(TcpEndpoint {
                rank,
                size: n,
                inbox,
                writers: w,
                profile: config.profile,
                network: config.network,
                nodes: Arc::clone(&nodes),
                readers: r,
            });
        }
        Ok(endpoints)
    }
}

/// Read frames off `stream` forever (until EOF/error) and push them into
/// `inbox`, stamping each with its modelled arrival time.
fn spawn_reader(
    mut stream: TcpStream,
    inbox: SharedMailbox,
    network: NetworkModel,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        // The connection ends at EOF, at an error, or at a corrupt frame.
        while let Ok(frame) = read_frame(&mut stream) {
            let due = network.due(frame.len());
            if inbox.push(frame, due).is_err() {
                break;
            }
        }
    })
}

/// Read one frame: its encoded header, then the payload length the
/// header declares. That length comes off the wire, so its buffer is
/// reserved fallibly and filled only as far as bytes arrive: a corrupt
/// length is an error, never an allocation that aborts the process.
fn read_frame(reader: &mut impl Read) -> Result<Frame> {
    let mut header_buf = [0u8; FrameHeader::WIRE_LEN];
    reader.read_exact(&mut header_buf)?;
    let (header, payload_len) = FrameHeader::decode(&header_buf)?;
    let mut payload = Vec::new();
    payload
        .try_reserve_exact(payload_len)
        .map_err(|e| TransportError::Corrupt(format!("payload of {payload_len} bytes: {e}")))?;
    reader.take(payload_len as u64).read_to_end(&mut payload)?;
    if payload.len() != payload_len {
        return Err(TransportError::Corrupt(format!(
            "payload truncated: {} of {payload_len} bytes",
            payload.len()
        )));
    }
    Ok(Frame::new(header, Bytes::from(payload)))
}

impl Endpoint for TcpEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, frame: Frame) -> Result<()> {
        let dst = frame.header.dst as usize;
        check_rank(dst, self.size)?;
        self.profile.charge(frame.len());
        if dst == self.rank {
            // Loopback: no socket to ourselves, deliver directly.
            let due = self.network.due(frame.len());
            return self.inbox.push(frame, due);
        }
        let writer = self.writers.get(&dst).ok_or(TransportError::Disconnected)?;
        let header = frame.header.encode(frame.len());
        let mut stream = writer.lock();
        stream.write_all(&header)?;
        if !frame.payload.is_empty() {
            stream.write_all(&frame.payload)?;
        }
        Ok(())
    }

    fn recv(&self) -> Result<Frame> {
        self.inbox.pop()
    }

    fn try_recv(&self) -> Result<Option<Frame>> {
        self.inbox.try_pop()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        self.inbox.pop_timeout(timeout)
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Tcp
    }

    fn node_map(&self) -> &NodeMap {
        &self.nodes
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        for writer in self.writers.values() {
            let stream = writer.lock();
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.inbox.close();
        // Reader threads exit on their own once the sockets shut down; we do
        // not join them here because the peer's endpoint may still be alive
        // and joining could block on a socket the peer owns.
        for handle in self.readers.drain(..) {
            drop(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    fn fabric(n: usize) -> Vec<TcpEndpoint> {
        TcpDevice::build(&FabricConfig::new(n, DeviceKind::Tcp)).unwrap()
    }

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

    /// The reader trusts no length off the wire: a header declaring
    /// `u64::MAX` payload bytes, or more than follow, is an error, and a
    /// well-formed frame reads back whole.
    #[test]
    fn a_crafted_payload_length_is_an_error_not_an_abort() {
        let f = frame(0, 1, 3, b"four");
        for declared in [usize::MAX, 5] {
            let mut wire = f.header.encode(declared).to_vec();
            wire.extend_from_slice(&f.payload);
            let read = read_frame(&mut std::io::Cursor::new(wire));
            assert!(
                matches!(read, Err(TransportError::Corrupt(_))),
                "declared {declared}"
            );
        }
        let mut wire = f.header.encode(4).to_vec();
        wire.extend_from_slice(&f.payload);
        let read = read_frame(&mut std::io::Cursor::new(wire)).unwrap();
        assert_eq!((read.header, &read.payload[..]), (f.header, &b"four"[..]));
    }

    #[test]
    fn two_rank_round_trip_over_sockets() {
        let mut eps = fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(frame(0, 1, 3, b"over tcp")).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.header.tag, 3);
        assert_eq!(&got.payload[..], b"over tcp");
        b.send(frame(1, 0, 4, b"reply")).unwrap();
        assert_eq!(&a.recv().unwrap().payload[..], b"reply");
    }

    #[test]
    fn large_payload_survives_framing() {
        let mut eps = fabric(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        a.send(frame(0, 1, 1, &payload)).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.payload.len(), payload.len());
        assert_eq!(&got.payload[..], &payload[..]);
    }

    #[test]
    fn three_rank_all_to_one() {
        let mut eps = fabric(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(frame(0, 2, 10, b"from a")).unwrap();
        b.send(frame(1, 2, 11, b"from b")).unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2 {
            let f = c.recv().unwrap();
            seen.insert(f.header.src);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn self_send_loops_back() {
        let eps = fabric(2);
        eps[0].send(frame(0, 0, 8, b"self")).unwrap();
        assert_eq!(&eps[0].recv().unwrap().payload[..], b"self");
    }

    #[test]
    fn shaped_fabric_delays_delivery() {
        let config = FabricConfig {
            network: NetworkModel::new(Duration::from_millis(40), f64::INFINITY),
            ..FabricConfig::new(2, DeviceKind::Tcp)
        };
        let mut eps = TcpDevice::build(&config).unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let start = std::time::Instant::now();
        a.send(frame(0, 1, 1, b"slow")).unwrap();
        let _ = b.recv().unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(35),
            "network model latency was not applied"
        );
    }

    #[test]
    fn recv_timeout_expires_when_idle() {
        let eps = fabric(2);
        let got = eps[1].recv_timeout(Duration::from_millis(30)).unwrap();
        assert!(got.is_none());
    }
}
