//! Wire frames exchanged between endpoints.
//!
//! A frame is the unit the devices move around: a small fixed-size header
//! (encoded to exactly [`FrameHeader::WIRE_LEN`] bytes on stream devices)
//! plus an opaque payload owned by a [`bytes::Bytes`] buffer so that the
//! in-process devices can hand it over without copying.

use bytes::Bytes;

use crate::error::{Result, TransportError};

/// Protocol role of a frame, assigned by the `mpi-native` engine.
///
/// The transport does not interpret these beyond copying them around; they
/// are part of the header so the engine's progress loop can dispatch
/// without peeking at payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Complete message sent eagerly (payload attached).
    Eager = 0,
    /// Rendezvous request: envelope only, payload withheld by the sender.
    RendezvousRequest = 1,
    /// Receiver grants a rendezvous (clear-to-send).
    RendezvousAck = 2,
    /// Payload of a granted rendezvous, whole or one chunk of it.
    RendezvousData = 3,
    /// Synchronous-send completion acknowledgement.
    SyncAck = 4,
    /// Engine-internal control traffic (barrier fan-in/fan-out, aborts).
    Control = 5,
}

impl FrameKind {
    /// Decode from the wire representation.
    pub fn from_u8(v: u8) -> Result<FrameKind> {
        Ok(match v {
            0 => FrameKind::Eager,
            1 => FrameKind::RendezvousRequest,
            2 => FrameKind::RendezvousAck,
            3 => FrameKind::RendezvousData,
            4 => FrameKind::SyncAck,
            5 => FrameKind::Control,
            other => {
                return Err(TransportError::Corrupt(format!(
                    "unknown frame kind {other}"
                )))
            }
        })
    }
}

/// Fixed-size frame header.
///
/// `src`/`dst` are fabric ranks. `tag`, `context` and `token` belong to the
/// engine: `tag` is the MPI tag, `context` the communicator context id, and
/// `token` a per-sender sequence/match token used by the rendezvous and
/// synchronous-mode protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    pub kind: FrameKind,
    pub src: u32,
    pub dst: u32,
    pub tag: i32,
    pub context: u32,
    pub token: u64,
    /// Length in bytes of the full logical message (may exceed the payload
    /// length of this particular frame for rendezvous request frames, whose
    /// payload is empty). Two kinds carry another length here, where the
    /// message length is known from the announcement already:
    ///
    /// * [`FrameKind::RendezvousAck`]: the grant, the most payload bytes
    ///   one data frame may carry (the message length grants it whole);
    /// * [`FrameKind::RendezvousData`]: the byte offset of this frame's
    ///   payload within the message (0 for a payload shipped whole).
    pub msg_len: u64,
}

impl FrameHeader {
    /// Number of bytes the header occupies on stream (TCP) devices.
    pub const WIRE_LEN: usize = 1 + 4 + 4 + 4 + 4 + 8 + 8 + 8; // + payload-len field

    /// Encode the header (plus the payload length of this frame) into a
    /// fixed-size buffer for stream transports.
    pub fn encode(&self, payload_len: usize) -> [u8; Self::WIRE_LEN] {
        let mut buf = [0u8; Self::WIRE_LEN];
        buf[0] = self.kind as u8;
        buf[1..5].copy_from_slice(&self.src.to_le_bytes());
        buf[5..9].copy_from_slice(&self.dst.to_le_bytes());
        buf[9..13].copy_from_slice(&self.tag.to_le_bytes());
        buf[13..17].copy_from_slice(&self.context.to_le_bytes());
        buf[17..25].copy_from_slice(&self.token.to_le_bytes());
        buf[25..33].copy_from_slice(&self.msg_len.to_le_bytes());
        buf[33..41].copy_from_slice(&(payload_len as u64).to_le_bytes());
        buf
    }

    /// Decode a header previously produced by [`FrameHeader::encode`].
    /// Returns the header and the payload length that follows on the wire.
    pub fn decode(buf: &[u8]) -> Result<(FrameHeader, usize)> {
        if buf.len() < Self::WIRE_LEN {
            return Err(TransportError::Corrupt(format!(
                "header truncated: {} < {}",
                buf.len(),
                Self::WIRE_LEN
            )));
        }
        let kind = FrameKind::from_u8(buf[0])?;
        let src = u32::from_le_bytes(read_array(buf, 1)?);
        let dst = u32::from_le_bytes(read_array(buf, 5)?);
        let tag = i32::from_le_bytes(read_array(buf, 9)?);
        let context = u32::from_le_bytes(read_array(buf, 13)?);
        let token = u64::from_le_bytes(read_array(buf, 17)?);
        let msg_len = u64::from_le_bytes(read_array(buf, 25)?);
        let payload_len = u64::from_le_bytes(read_array(buf, 33)?);
        let payload_len = usize::try_from(payload_len).map_err(|_| {
            TransportError::Corrupt(format!("payload length {payload_len} overflows usize"))
        })?;
        Ok((
            FrameHeader {
                kind,
                src,
                dst,
                tag,
                context,
                token,
                msg_len,
            },
            payload_len,
        ))
    }
}

/// The `N` bytes of `buf` starting at `at`; `Corrupt` when `buf` ends
/// first.
fn read_array<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N]> {
    buf.get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or_else(|| {
            TransportError::Corrupt(format!("header truncated: {} < {}", buf.len(), at + N))
        })
}

/// A header plus an owned payload.
#[derive(Debug, Clone)]
pub struct Frame {
    pub header: FrameHeader,
    pub payload: Bytes,
}

impl Frame {
    /// Build a frame, taking ownership of the payload bytes.
    pub fn new(header: FrameHeader, payload: Bytes) -> Frame {
        Frame { header, payload }
    }

    /// A payload-free frame (rendezvous request, acks, control).
    pub fn control(header: FrameHeader) -> Frame {
        Frame {
            header,
            payload: Bytes::new(),
        }
    }

    /// Payload length in bytes of this particular frame.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the frame carries no payload.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> FrameHeader {
        FrameHeader {
            kind: FrameKind::Eager,
            src: 3,
            dst: 1,
            tag: -42,
            context: 17,
            token: 0xdead_beef_cafe,
            msg_len: 12345,
        }
    }

    #[test]
    fn header_roundtrips_through_wire_encoding() {
        let h = sample_header();
        let wire = h.encode(512);
        let (decoded, payload_len) = FrameHeader::decode(&wire).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(payload_len, 512);
    }

    /// A streamed chunk's offset rides in `msg_len`, whatever its size.
    #[test]
    fn a_data_frame_offset_roundtrips() {
        for offset in [0, 128 * 1024, u64::MAX - 7] {
            let h = FrameHeader {
                kind: FrameKind::RendezvousData,
                msg_len: offset,
                ..sample_header()
            };
            let (decoded, payload_len) = FrameHeader::decode(&h.encode(7)).unwrap();
            assert_eq!((decoded, decoded.msg_len, payload_len), (h, offset, 7));
        }
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        for kind in [
            FrameKind::Eager,
            FrameKind::RendezvousRequest,
            FrameKind::RendezvousAck,
            FrameKind::RendezvousData,
            FrameKind::SyncAck,
            FrameKind::Control,
        ] {
            assert_eq!(FrameKind::from_u8(kind as u8).unwrap(), kind);
        }
        assert!(FrameKind::from_u8(99).is_err());
    }

    #[test]
    fn truncated_header_is_rejected() {
        let h = sample_header();
        let wire = h.encode(0);
        assert!(FrameHeader::decode(&wire[..10]).is_err());
    }

    #[test]
    fn negative_tags_survive_encoding() {
        let mut h = sample_header();
        h.tag = i32::MIN;
        let (decoded, _) = FrameHeader::decode(&h.encode(0)).unwrap();
        assert_eq!(decoded.tag, i32::MIN);
    }

    #[test]
    fn control_frames_are_empty() {
        let f = Frame::control(sample_header());
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }
}
