//! Error type of the native MPI engine.
//!
//! MPI-1.1 reports failures through error classes attached to an error
//! handler; the default handler (`MPI_ERRORS_ARE_FATAL`) aborts the job and
//! `MPI_ERRORS_RETURN` hands the class back to the caller. The engine always
//! *returns* errors (the Rust idiom); the binding layer above decides
//! whether to panic (fatal) or propagate, mirroring the two handlers.

use std::fmt;

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, MpiError>;

/// MPI-1.1 error classes (subset relevant to the engine) plus engine-level
/// failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorClass {
    /// Invalid buffer pointer / length combination.
    Buffer,
    /// Invalid count argument.
    Count,
    /// Invalid datatype argument.
    Type,
    /// Invalid tag argument.
    Tag,
    /// Invalid communicator.
    Comm,
    /// Invalid rank.
    Rank,
    /// Invalid request handle or request in the wrong state.
    Request,
    /// Invalid root rank for a collective.
    Root,
    /// Invalid group argument.
    Group,
    /// Invalid reduction operation.
    Op,
    /// Invalid topology / dimension argument.
    Topology,
    /// Invalid generic argument.
    Arg,
    /// Message truncated on receive (buffer too small).
    Truncate,
    /// Known error not in the standard list (engine internal).
    Other,
    /// Internal ("impossible") engine failure.
    Intern,
    /// Buffered send exhausted the attached buffer.
    BufferExhausted,
    /// The job was aborted (by this or another rank).
    Aborted,
    /// The transport underneath failed.
    Transport,
    /// Operation not supported by this engine.
    Unsupported,
    /// MPI was not initialized / already finalized.
    NotInitialized,
    /// A peer rank was declared dead (heartbeat lease expired or the
    /// fault plan killed it); the operation required that rank. ULFM's
    /// `MPI_ERR_PROC_FAILED`, in spirit.
    RankFailed,
    /// A bounded wait ran out of time before completing.
    Timeout,
}

impl ErrorClass {
    /// Numeric code mirroring the spirit of the MPI error classes (the exact
    /// values are implementation defined in MPI; these are stable within
    /// this engine and exposed through the binding's `MPIException`).
    pub fn code(&self) -> i32 {
        match self {
            ErrorClass::Buffer => 1,
            ErrorClass::Count => 2,
            ErrorClass::Type => 3,
            ErrorClass::Tag => 4,
            ErrorClass::Comm => 5,
            ErrorClass::Rank => 6,
            ErrorClass::Request => 7,
            ErrorClass::Root => 8,
            ErrorClass::Group => 9,
            ErrorClass::Op => 10,
            ErrorClass::Topology => 11,
            ErrorClass::Arg => 12,
            ErrorClass::Truncate => 14,
            ErrorClass::Other => 15,
            ErrorClass::Intern => 16,
            ErrorClass::BufferExhausted => 17,
            ErrorClass::Aborted => 18,
            ErrorClass::Transport => 19,
            ErrorClass::Unsupported => 20,
            ErrorClass::NotInitialized => 21,
            ErrorClass::RankFailed => 22,
            ErrorClass::Timeout => 23,
        }
    }
}

/// An error class plus a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiError {
    pub class: ErrorClass,
    pub message: String,
}

impl MpiError {
    /// Build an error of the given class.
    pub fn new(class: ErrorClass, message: impl Into<String>) -> MpiError {
        MpiError {
            class,
            message: message.into(),
        }
    }

    /// Numeric error code (see [`ErrorClass::code`]).
    pub fn code(&self) -> i32 {
        self.class.code()
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MPI error {:?} ({}): {}",
            self.class,
            self.code(),
            self.message
        )
    }
}

impl std::error::Error for MpiError {}

impl From<mpi_transport::TransportError> for MpiError {
    fn from(e: mpi_transport::TransportError) -> Self {
        let class = match &e {
            mpi_transport::TransportError::RankFailed { .. } => ErrorClass::RankFailed,
            _ => ErrorClass::Transport,
        };
        MpiError::new(class, e.to_string())
    }
}

/// Shorthand constructors used across the engine.
pub(crate) fn err<T>(class: ErrorClass, msg: impl Into<String>) -> Result<T> {
    Err(MpiError::new(class, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let classes = [
            ErrorClass::Buffer,
            ErrorClass::Count,
            ErrorClass::Type,
            ErrorClass::Tag,
            ErrorClass::Comm,
            ErrorClass::Rank,
            ErrorClass::Request,
            ErrorClass::Root,
            ErrorClass::Group,
            ErrorClass::Op,
            ErrorClass::Topology,
            ErrorClass::Arg,
            ErrorClass::Truncate,
            ErrorClass::Other,
            ErrorClass::Intern,
            ErrorClass::BufferExhausted,
            ErrorClass::Aborted,
            ErrorClass::Transport,
            ErrorClass::Unsupported,
            ErrorClass::NotInitialized,
            ErrorClass::RankFailed,
            ErrorClass::Timeout,
        ];
        let codes: std::collections::HashSet<i32> = classes.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), classes.len());
    }

    #[test]
    fn display_mentions_class_and_message() {
        let e = MpiError::new(ErrorClass::Rank, "rank 9 out of range");
        let s = e.to_string();
        assert!(s.contains("Rank") && s.contains("rank 9"));
    }

    #[test]
    fn transport_errors_convert() {
        let te = mpi_transport::TransportError::Disconnected;
        let e: MpiError = te.into();
        assert_eq!(e.class, ErrorClass::Transport);
    }

    #[test]
    fn failure_variants_keep_their_class_across_the_layers() {
        let e: MpiError = mpi_transport::TransportError::RankFailed { rank: 2 }.into();
        assert_eq!(e.class, ErrorClass::RankFailed);
        assert!(e.message.contains('2'));
    }
}
