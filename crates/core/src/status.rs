//! The `Status` class of the binding (mpiJava `Status`).
//!
//! As the paper (§2.1) explains, the Java binding returns `Status` objects
//! from receive operations rather than filling caller-provided structs, and
//! adds an extra `index` field filled by `Waitany` and friends.

use mpi_native::StatusInfo;

use crate::datatype::Datatype;

/// Completion information of a receive or probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Status {
    info: StatusInfo,
}

impl Status {
    pub(crate) fn from_info(info: StatusInfo) -> Status {
        Status { info }
    }

    /// This status as returned by `Waitany`: the completed request's
    /// position in the caller's array goes in the `index` field.
    pub(crate) fn with_index(mut self, slot: usize) -> Status {
        self.info.index = slot as i32;
        self
    }

    /// `status.source`: rank of the sender within the communicator used.
    pub fn source(&self) -> i32 {
        self.info.source
    }

    /// `status.tag`.
    pub fn tag(&self) -> i32 {
        self.info.tag
    }

    /// `status.index`: which request completed this status (set by
    /// `Waitany`/`Testany`, the field the paper adds to the C++ class).
    pub fn index(&self) -> i32 {
        self.info.index
    }

    /// `Status.Get_count(datatype)`: number of whole datatype instances
    /// received, or `None` when the byte count is not a whole multiple
    /// (`MPI_UNDEFINED`).
    pub fn get_count(&self, datatype: &Datatype) -> Option<usize> {
        let per_instance = datatype.size();
        if per_instance == 0 {
            return Some(0);
        }
        if self.info.count_bytes.is_multiple_of(per_instance) {
            Some(self.info.count_bytes / per_instance)
        } else {
            None
        }
    }

    /// `Status.Get_elements(datatype)`: number of base-type elements
    /// received (counts partial instances, unlike [`Status::get_count`]).
    pub fn get_elements(&self, datatype: &Datatype) -> Option<usize> {
        let elem = datatype.base_kind().size();
        if elem == 0 {
            return Some(0);
        }
        if self.info.count_bytes.is_multiple_of(elem) {
            Some(self.info.count_bytes / elem)
        } else {
            None
        }
    }

    /// Bytes received (not part of the mpiJava API, but handy in Rust).
    pub fn count_bytes(&self) -> usize {
        self.info.count_bytes
    }

    /// Number of `T` elements received — [`Status::get_count`] with the
    /// datatype inferred from the element type, for the idiomatic API
    /// ([`crate::rs`]): `status.count_elements::<u16>()`.
    pub fn count_elements<T: crate::buffer::BufferElement>(&self) -> Option<usize> {
        self.get_count(&T::datatype())
    }

    /// `Status.Test_cancelled()`.
    pub fn test_cancelled(&self) -> bool {
        self.info.cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_native::{ANY_TAG, PROC_NULL};

    fn status(bytes: usize) -> Status {
        Status::from_info(StatusInfo {
            source: 2,
            tag: 7,
            count_bytes: bytes,
            cancelled: false,
            index: 3,
        })
    }

    #[test]
    fn accessors_expose_fields() {
        let s = status(12);
        assert_eq!(s.source(), 2);
        assert_eq!(s.tag(), 7);
        assert_eq!(s.index(), 3);
        assert_eq!(s.count_bytes(), 12);
        assert!(!s.test_cancelled());
    }

    #[test]
    fn get_count_counts_whole_instances() {
        let s = status(12);
        assert_eq!(s.get_count(&Datatype::int()), Some(3));
        assert_eq!(s.get_count(&Datatype::double()), None);
        let vec3 = Datatype::contiguous(3, &Datatype::int()).unwrap();
        assert_eq!(s.get_count(&vec3), Some(1));
        assert_eq!(s.get_elements(&vec3), Some(3));
    }

    #[test]
    fn empty_status_mirrors_proc_null_semantics() {
        let s = Status::from_info(StatusInfo::empty());
        assert_eq!(s.source(), PROC_NULL);
        assert_eq!(s.tag(), ANY_TAG);
        assert_eq!(s.get_count(&Datatype::int()), Some(0));
    }
}
