//! Core value types of the engine: primitive kinds, wildcards, status.

/// Wildcard source rank (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = -1;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = -1;
/// Null process rank (`MPI_PROC_NULL`): sends/receives addressed to it
/// complete immediately and transfer no data.
pub const PROC_NULL: i32 = -2;
/// Color value for `split` meaning "I am not in any of the new
/// communicators" (`MPI_UNDEFINED`).
pub const UNDEFINED: i32 = -3;
/// Largest tag value guaranteed to be supported (`MPI_TAG_UB` attribute).
pub const TAG_UB: i32 = i32::MAX;

/// Primitive element kinds the engine can transfer and reduce.
///
/// These mirror the paper's Figure 2 (mpiJava basic datatypes mapped to the
/// Java primitive types) plus the pair kinds used by `MAXLOC`/`MINLOC`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveKind {
    /// `MPI.BYTE` — 1 byte, uninterpreted.
    Byte,
    /// `MPI.CHAR` — Java `char` is a 16-bit code unit.
    Char,
    /// `MPI.BOOLEAN` — 1 byte, 0 or 1.
    Boolean,
    /// `MPI.SHORT` — 16-bit signed.
    Short,
    /// `MPI.INT` — 32-bit signed.
    Int,
    /// `MPI.LONG` — 64-bit signed.
    Long,
    /// `MPI.FLOAT` — IEEE-754 single.
    Float,
    /// `MPI.DOUBLE` — IEEE-754 double.
    Double,
    /// `MPI.PACKED` — output of `Pack`, uninterpreted bytes.
    Packed,
    /// Pair (value, index) of 32-bit ints, for `MAXLOC`/`MINLOC` (`MPI.INT2`).
    Int2,
    /// Pair of 64-bit longs (`MPI.LONG2`).
    Long2,
    /// Pair of floats (`MPI.FLOAT2`).
    Float2,
    /// Pair of doubles (`MPI.DOUBLE2`).
    Double2,
    /// Pair (short value, short index) (`MPI.SHORT2`).
    Short2,
}

impl PrimitiveKind {
    /// Size in bytes of one element of this kind.
    pub const fn size(&self) -> usize {
        match self {
            PrimitiveKind::Byte | PrimitiveKind::Boolean | PrimitiveKind::Packed => 1,
            PrimitiveKind::Char | PrimitiveKind::Short => 2,
            PrimitiveKind::Int | PrimitiveKind::Float => 4,
            PrimitiveKind::Long | PrimitiveKind::Double => 8,
            PrimitiveKind::Short2 => 4,
            PrimitiveKind::Int2 | PrimitiveKind::Float2 => 8,
            PrimitiveKind::Long2 | PrimitiveKind::Double2 => 16,
        }
    }

    /// True for the pair kinds used by `MAXLOC`/`MINLOC`.
    pub fn is_pair(&self) -> bool {
        matches!(
            self,
            PrimitiveKind::Int2
                | PrimitiveKind::Long2
                | PrimitiveKind::Float2
                | PrimitiveKind::Double2
                | PrimitiveKind::Short2
        )
    }

    /// Short lowercase label used in diagnostics and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            PrimitiveKind::Byte => "byte",
            PrimitiveKind::Char => "char",
            PrimitiveKind::Boolean => "boolean",
            PrimitiveKind::Short => "short",
            PrimitiveKind::Int => "int",
            PrimitiveKind::Long => "long",
            PrimitiveKind::Float => "float",
            PrimitiveKind::Double => "double",
            PrimitiveKind::Packed => "packed",
            PrimitiveKind::Int2 => "int2",
            PrimitiveKind::Long2 => "long2",
            PrimitiveKind::Float2 => "float2",
            PrimitiveKind::Double2 => "double2",
            PrimitiveKind::Short2 => "short2",
        }
    }
}

/// Completion information for a receive (or probe), mirroring `MPI_Status`
/// and the mpiJava `Status` class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusInfo {
    /// Rank of the sender *within the communicator* the receive used.
    pub source: i32,
    /// Tag of the matched message.
    pub tag: i32,
    /// Number of bytes actually received.
    pub count_bytes: usize,
    /// True if the request was cancelled before it matched.
    pub cancelled: bool,
    /// Index of the request that completed this status (set by `Waitany`
    /// and friends; mirrors the extra `index` field the paper describes
    /// adding to the Java `Status`).
    pub index: i32,
}

impl StatusInfo {
    /// An empty status (used for `PROC_NULL` operations and cancelled
    /// requests).
    pub fn empty() -> StatusInfo {
        StatusInfo {
            source: PROC_NULL,
            tag: ANY_TAG,
            count_bytes: 0,
            cancelled: false,
            index: 0,
        }
    }

    /// Element count for a primitive kind (`MPI_Get_count`). Returns `None`
    /// when the byte count is not a whole number of elements
    /// (MPI_UNDEFINED in the standard).
    pub fn count(&self, kind: PrimitiveKind) -> Option<usize> {
        let sz = kind.size();
        if sz == 0 || !self.count_bytes.is_multiple_of(sz) {
            None
        } else {
            Some(self.count_bytes / sz)
        }
    }
}

/// Send modes of MPI-1.1 (standard, buffered, synchronous, ready).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendMode {
    /// `MPI_Send`: eager below the threshold, rendezvous above.
    Standard,
    /// `MPI_Bsend`: copied into the attached buffer, completes locally.
    Buffered,
    /// `MPI_Ssend`: completes only when the matching receive started.
    Synchronous,
    /// `MPI_Rsend`: the user asserts the receive is already posted.
    Ready,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes_match_java_layout() {
        assert_eq!(PrimitiveKind::Byte.size(), 1);
        assert_eq!(PrimitiveKind::Boolean.size(), 1);
        assert_eq!(PrimitiveKind::Char.size(), 2);
        assert_eq!(PrimitiveKind::Short.size(), 2);
        assert_eq!(PrimitiveKind::Int.size(), 4);
        assert_eq!(PrimitiveKind::Long.size(), 8);
        assert_eq!(PrimitiveKind::Float.size(), 4);
        assert_eq!(PrimitiveKind::Double.size(), 8);
        assert_eq!(PrimitiveKind::Double2.size(), 16);
    }

    #[test]
    fn pair_kinds_are_flagged() {
        assert!(PrimitiveKind::Int2.is_pair());
        assert!(PrimitiveKind::Double2.is_pair());
        assert!(!PrimitiveKind::Int.is_pair());
    }

    #[test]
    fn status_count_divides_exactly_or_not_at_all() {
        let st = StatusInfo {
            source: 0,
            tag: 0,
            count_bytes: 12,
            cancelled: false,
            index: 0,
        };
        assert_eq!(st.count(PrimitiveKind::Int), Some(3));
        assert_eq!(st.count(PrimitiveKind::Double), None);
        assert_eq!(st.count(PrimitiveKind::Byte), Some(12));
    }

    #[test]
    fn wildcards_are_negative_and_distinct() {
        // Constant-true by construction; the test pins the contract.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(ANY_SOURCE < 0 && ANY_TAG < 0 && PROC_NULL < 0 && UNDEFINED < 0);
        }
        let set: std::collections::HashSet<i32> =
            [ANY_SOURCE, PROC_NULL, UNDEFINED].into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}
