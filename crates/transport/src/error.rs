//! Error type shared by all transport devices.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TransportError>;

/// Errors produced by the transport layer.
#[derive(Debug)]
pub enum TransportError {
    /// The fabric configuration was rejected (zero size, bad address, ...).
    InvalidConfig(String),
    /// A frame addressed a rank outside `0..size`.
    RankOutOfRange { rank: usize, size: usize },
    /// The peer endpoint has been dropped / the fabric has shut down.
    Disconnected,
    /// An operating-system level I/O failure (TCP device only).
    Io(std::io::Error),
    /// A frame arrived with a malformed header (TCP framing only).
    Corrupt(String),
    /// A peer rank was declared dead: its heartbeat lease expired (spool
    /// device) or a fault-injection plan killed it (see [`crate::fault`]).
    /// Operations that require the dead rank fail with this instead of
    /// hanging.
    RankFailed { rank: usize },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::InvalidConfig(msg) => write!(f, "invalid fabric config: {msg}"),
            TransportError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for fabric of size {size}")
            }
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            TransportError::RankFailed { rank } => {
                write!(f, "rank {rank} failed (heartbeat lease expired or killed)")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Every device's destination check: `rank` must lie in `0..size`.
pub(crate) fn check_rank(rank: usize, size: usize) -> Result<()> {
    if rank < size {
        Ok(())
    } else {
        Err(TransportError::RankOutOfRange { rank, size })
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TransportError::RankOutOfRange { rank: 7, size: 4 };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains('4'));
        assert!(TransportError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(TransportError::InvalidConfig("x".into())
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn rank_failed_displays_its_details() {
        let e = TransportError::RankFailed { rank: 3 };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains("failed"));
        // A failure carries no inner error to chain.
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        let e: TransportError = io.into();
        assert!(matches!(e, TransportError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
