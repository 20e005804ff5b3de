//! Derived datatype machinery (MPI-1.1 §3.12).
//!
//! A datatype is a *typemap*: a sequence of (primitive kind, byte
//! displacement) pairs plus an extent. The constructors mirror the MPI
//! ones the paper's binding exposes: `Contiguous`, `Vector`, `Hvector`,
//! `Indexed`, `Hindexed` and `Struct`. The engine works on raw byte
//! buffers, so displacements are byte displacements relative to the start
//! of the element the datatype describes.
//!
//! The mpiJava-specific restriction (all components of a `Struct` must
//! share one base type, because Java buffers are mono-typed primitive
//! arrays) is enforced one layer up, in the `mpijava` crate; the engine
//! itself supports fully general typemaps.
//!
//! A basic datatype's one-entry typemap is a shared static
//! ([`DatatypeDef::basic`] allocates nothing), so building `MPI.INT` —
//! which the idiomatic surface does on every call — and cloning it into
//! a pending receive cost no heap traffic. Only a derived datatype owns
//! its entries.

use std::borrow::Cow;

use crate::error::{err, ErrorClass, Result};
use crate::types::PrimitiveKind;

/// One entry of a typemap: a primitive element at a byte displacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeMapEntry {
    pub kind: PrimitiveKind,
    pub disp: isize,
}

/// The typemap of every basic datatype, at index `PrimitiveKind as usize`.
static BASIC: [TypeMapEntry; 14] = {
    use PrimitiveKind::*;
    let kinds = [
        Byte, Char, Boolean, Short, Int, Long, Float, Double, Packed, Int2, Long2, Float2, Double2,
        Short2,
    ];
    let mut map = [TypeMapEntry {
        kind: Byte,
        disp: 0,
    }; 14];
    let mut i = 0;
    while i < kinds.len() {
        map[kinds[i] as usize].kind = kinds[i];
        i += 1;
    }
    map
};

/// A committed datatype definition.
#[derive(Debug, Clone, PartialEq)]
pub struct DatatypeDef {
    entries: Cow<'static, [TypeMapEntry]>,
    /// Lower bound in bytes (minimum displacement, or explicit LB marker).
    lb: isize,
    /// Upper bound in bytes (max displacement + size, or explicit UB marker).
    ub: isize,
    /// Base kind if every entry shares one primitive kind.
    uniform_kind: Option<PrimitiveKind>,
}

impl DatatypeDef {
    /// A basic (primitive) datatype: its typemap is a shared static.
    pub fn basic(kind: PrimitiveKind) -> DatatypeDef {
        DatatypeDef {
            entries: Cow::Borrowed(std::slice::from_ref(&BASIC[kind as usize])),
            lb: 0,
            ub: kind.size() as isize,
            uniform_kind: Some(kind),
        }
    }

    /// The typemap entries, in map order.
    pub fn entries(&self) -> &[TypeMapEntry] {
        &self.entries
    }

    /// Number of primitive elements in one instance of the type.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// `MPI_Type_size`: number of data bytes one instance carries
    /// (holes excluded).
    pub fn size(&self) -> usize {
        self.entries.iter().map(|e| e.kind.size()).sum()
    }

    /// `MPI_Type_extent`: span from lower to upper bound (holes included).
    pub fn extent(&self) -> isize {
        self.ub - self.lb
    }

    /// `MPI_Type_lb`.
    pub fn lb(&self) -> isize {
        self.lb
    }

    /// `MPI_Type_ub`.
    pub fn ub(&self) -> isize {
        self.ub
    }

    /// The single base kind shared by every entry, if there is one.
    pub fn uniform_kind(&self) -> Option<PrimitiveKind> {
        self.uniform_kind
    }

    /// True when the typemap is a dense run of one kind with no holes —
    /// lets the pack path use a straight `memcpy`.
    pub fn is_contiguous_dense(&self) -> bool {
        if self.entries.is_empty() {
            return true;
        }
        let Some(kind) = self.uniform_kind else {
            return false;
        };
        let elem = kind.size() as isize;
        if self.lb != 0 || self.ub != elem * self.entries.len() as isize {
            return false;
        }
        self.entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.disp == i as isize * elem)
    }

    fn from_entries(entries: Vec<TypeMapEntry>) -> Result<DatatypeDef> {
        if entries.is_empty() {
            return Ok(DatatypeDef {
                entries: Cow::Owned(entries),
                lb: 0,
                ub: 0,
                uniform_kind: None,
            });
        }
        let lb = entries.iter().map(|e| e.disp).min().unwrap();
        let ub = entries
            .iter()
            .map(|e| e.disp + e.kind.size() as isize)
            .max()
            .unwrap();
        let first = entries[0].kind;
        let uniform = entries.iter().all(|e| e.kind == first).then_some(first);
        Ok(DatatypeDef {
            entries: Cow::Owned(entries),
            lb,
            ub,
            uniform_kind: uniform,
        })
    }

    /// `MPI_Type_contiguous`: `count` copies of `self`, back to back.
    pub fn contiguous(&self, count: usize) -> Result<DatatypeDef> {
        self.vector(count, 1, 1)
    }

    /// `MPI_Type_vector`: `count` blocks of `blocklength` elements,
    /// the start of consecutive blocks `stride` *elements* apart.
    pub fn vector(&self, count: usize, blocklength: usize, stride: isize) -> Result<DatatypeDef> {
        let stride_bytes = stride * self.extent();
        self.build_blocks(count, blocklength, |i| i as isize * stride_bytes)
    }

    /// `MPI_Type_hvector`: like `vector` but the stride is in *bytes*.
    pub fn hvector(
        &self,
        count: usize,
        blocklength: usize,
        stride_bytes: isize,
    ) -> Result<DatatypeDef> {
        self.build_blocks(count, blocklength, |i| i as isize * stride_bytes)
    }

    /// `MPI_Type_indexed`: blocks of varying length at varying
    /// *element* displacements.
    pub fn indexed(&self, blocklengths: &[usize], displacements: &[isize]) -> Result<DatatypeDef> {
        if blocklengths.len() != displacements.len() {
            return err(
                ErrorClass::Arg,
                "indexed: blocklengths and displacements must have equal length",
            );
        }
        let ext = self.extent();
        let mut entries = Vec::new();
        for (&bl, &disp) in blocklengths.iter().zip(displacements) {
            let base = disp * ext;
            for b in 0..bl {
                let block_off = base + b as isize * ext;
                for e in self.entries.iter() {
                    entries.push(TypeMapEntry {
                        kind: e.kind,
                        disp: block_off + e.disp,
                    });
                }
            }
        }
        DatatypeDef::from_entries(entries)
    }

    /// `MPI_Type_hindexed`: blocks of varying length at varying *byte*
    /// displacements.
    pub fn hindexed(&self, blocklengths: &[usize], displacements: &[isize]) -> Result<DatatypeDef> {
        if blocklengths.len() != displacements.len() {
            return err(
                ErrorClass::Arg,
                "hindexed: blocklengths and displacements must have equal length",
            );
        }
        let ext = self.extent();
        let mut entries = Vec::new();
        for (&bl, &disp) in blocklengths.iter().zip(displacements) {
            for b in 0..bl {
                let block_off = disp + b as isize * ext;
                for e in self.entries.iter() {
                    entries.push(TypeMapEntry {
                        kind: e.kind,
                        disp: block_off + e.disp,
                    });
                }
            }
        }
        DatatypeDef::from_entries(entries)
    }

    /// `MPI_Type_struct`: heterogeneous blocks; `types[i]` repeated
    /// `blocklengths[i]` times starting at byte displacement
    /// `displacements[i]`.
    pub fn struct_type(
        blocklengths: &[usize],
        displacements: &[isize],
        types: &[DatatypeDef],
    ) -> Result<DatatypeDef> {
        if blocklengths.len() != displacements.len() || blocklengths.len() != types.len() {
            return err(
                ErrorClass::Arg,
                "struct: blocklengths, displacements and types must have equal length",
            );
        }
        let mut entries = Vec::new();
        for ((&bl, &disp), ty) in blocklengths.iter().zip(displacements).zip(types) {
            let ext = ty.extent();
            for b in 0..bl {
                let block_off = disp + b as isize * ext;
                for e in ty.entries.iter() {
                    entries.push(TypeMapEntry {
                        kind: e.kind,
                        disp: block_off + e.disp,
                    });
                }
            }
        }
        DatatypeDef::from_entries(entries)
    }

    fn build_blocks(
        &self,
        count: usize,
        blocklength: usize,
        block_offset: impl Fn(usize) -> isize,
    ) -> Result<DatatypeDef> {
        let ext = self.extent();
        let mut entries = Vec::with_capacity(count * blocklength * self.entries.len());
        for i in 0..count {
            let base = block_offset(i);
            for b in 0..blocklength {
                let off = base + b as isize * ext;
                for e in self.entries.iter() {
                    entries.push(TypeMapEntry {
                        kind: e.kind,
                        disp: off + e.disp,
                    });
                }
            }
        }
        DatatypeDef::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int() -> DatatypeDef {
        DatatypeDef::basic(PrimitiveKind::Int)
    }

    #[test]
    fn basic_types_have_size_equal_extent() {
        use PrimitiveKind::*;
        for kind in [
            Byte, Char, Boolean, Short, Int, Long, Float, Double, Packed, Int2, Long2, Float2,
            Double2, Short2,
        ] {
            let d = DatatypeDef::basic(kind);
            assert_eq!(d.entries(), [TypeMapEntry { kind, disp: 0 }]);
            assert_eq!(d.size(), kind.size());
            assert_eq!(d.extent(), kind.size() as isize);
            assert!(d.is_contiguous_dense());
            let again = DatatypeDef::basic(kind).clone();
            assert_eq!(
                d.entries().as_ptr(),
                again.entries().as_ptr(),
                "one static typemap"
            );
        }
    }

    #[test]
    fn contiguous_multiplies_size_and_extent() {
        let d = int().contiguous(5).unwrap();
        assert_eq!(d.size(), 20);
        assert_eq!(d.extent(), 20);
        assert_eq!(d.num_entries(), 5);
        assert!(d.is_contiguous_dense());
    }

    #[test]
    fn vector_has_holes() {
        // 3 blocks of 2 ints, stride 4 ints: |xx..|xx..|xx| (last block not padded)
        let d = int().vector(3, 2, 4).unwrap();
        assert_eq!(d.size(), 3 * 2 * 4);
        assert_eq!(d.extent(), (2 * 4 + 2) as isize * 4);
        assert!(!d.is_contiguous_dense());
        assert_eq!(d.entries()[2].disp, 16); // second block starts at 4 ints
    }

    #[test]
    fn hvector_strides_in_bytes() {
        let d = int().hvector(2, 1, 32).unwrap();
        assert_eq!(d.entries()[0].disp, 0);
        assert_eq!(d.entries()[1].disp, 32);
        assert_eq!(d.extent(), 36);
    }

    #[test]
    fn indexed_places_blocks_at_element_offsets() {
        let d = int().indexed(&[2, 1], &[0, 5]).unwrap();
        let disps: Vec<isize> = d.entries().iter().map(|e| e.disp).collect();
        assert_eq!(disps, vec![0, 4, 20]);
        assert_eq!(d.size(), 12);
    }

    #[test]
    fn hindexed_places_blocks_at_byte_offsets() {
        let d = int().hindexed(&[1, 1], &[0, 13]).unwrap();
        let disps: Vec<isize> = d.entries().iter().map(|e| e.disp).collect();
        assert_eq!(disps, vec![0, 13]);
        assert_eq!(d.extent(), 17);
    }

    #[test]
    fn struct_combines_heterogeneous_types() {
        let d = DatatypeDef::struct_type(
            &[1, 2],
            &[0, 8],
            &[
                DatatypeDef::basic(PrimitiveKind::Double),
                DatatypeDef::basic(PrimitiveKind::Int),
            ],
        )
        .unwrap();
        assert_eq!(d.size(), 16);
        assert_eq!(d.uniform_kind(), None);
        assert_eq!(d.extent(), 16);
    }

    #[test]
    fn struct_of_uniform_kind_reports_it() {
        let d = DatatypeDef::struct_type(
            &[2, 1],
            &[0, 12],
            &[
                DatatypeDef::basic(PrimitiveKind::Int),
                DatatypeDef::basic(PrimitiveKind::Int),
            ],
        )
        .unwrap();
        assert_eq!(d.uniform_kind(), Some(PrimitiveKind::Int));
    }

    #[test]
    fn nested_derived_types_compose() {
        // vector of (contiguous of 2 ints)
        let pair = int().contiguous(2).unwrap();
        let v = pair.vector(2, 1, 3).unwrap();
        assert_eq!(v.size(), 2 * 2 * 4);
        // second block starts 3 extents (24 bytes) in
        assert_eq!(v.entries()[2].disp, 24);
    }

    #[test]
    fn mismatched_argument_lengths_are_rejected() {
        assert!(int().indexed(&[1], &[0, 1]).is_err());
        assert!(int().hindexed(&[1, 2], &[0]).is_err());
        assert!(DatatypeDef::struct_type(&[1], &[0, 4], &[int()]).is_err());
    }
}
