//! Reduction operations (MPI-1.1 §4.9.2) over raw byte buffers.
//!
//! The engine's collective layer hands this module two byte buffers that
//! contain `count` elements of a [`PrimitiveKind`]; `apply` combines the
//! incoming buffer into the accumulator element by element. All the MPI
//! predefined operations are provided, plus user-defined operations as
//! boxed closures (mirroring `MPI_Op_create` / the mpiJava `User_function`).
//!
//! ## Kernel shape
//!
//! A predefined operation matches on `(kind, op)` once per call and then
//! runs one monomorphised loop, `fold`, over the little-endian element
//! images (`as_chunks::<W>`): decode two elements, combine them with a
//! closure, encode the result in place. The loop body has no `match`, no
//! `Result` and no length check, so the compiler vectorizes it; an
//! invalid `(kind, op)` pair is refused before any byte is written. Each
//! element is combined on its own, with the accumulator-then-incoming
//! comparisons below, so `MAX` / `MIN` of `NaN` or `-0.0` and every
//! floating sum are bit for bit those of an element-at-a-time fold. The
//! one bit pattern left open is the payload of a sum or product of two
//! `NaN`s: IEEE 754 lets either operand's win, and the compiler may
//! commute the operands.
//!
//! ## Integer overflow
//!
//! MPI leaves the result of an overflowing `SUM` or `PROD` undefined.
//! Here it is defined: integers wrap (two's complement, or modulo 2^16
//! for `CHAR`), in debug and release builds alike, so neither user data
//! nor a peer's RMA `accumulate` can panic the engine.

use std::ops::{Add, BitAnd, BitOr, BitXor, Mul};
use std::sync::Arc;

use crate::error::{err, ErrorClass, Result};
use crate::types::PrimitiveKind;

/// The MPI predefined reduction operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredefinedOp {
    Max,
    Min,
    Sum,
    Prod,
    Land,
    Band,
    Lor,
    Bor,
    Lxor,
    Bxor,
    Maxloc,
    Minloc,
}

/// A reduction operation: predefined or user supplied.
///
/// User functions receive `(incoming, accumulator, kind, count)` and must
/// fold `incoming` into `accumulator`; this is the `commute = true` shape of
/// `MPI_Op_create` (the engine always reduces in rank order, so
/// non-commutative user operations still see a deterministic order).
#[derive(Clone)]
pub enum Op {
    Predefined(PredefinedOp),
    User(UserFn),
}

/// A user reduction function: folds `(incoming, accumulator, kind, count)`.
pub type UserFn = Arc<dyn Fn(&[u8], &mut [u8], PrimitiveKind, usize) -> Result<()> + Send + Sync>;

impl std::fmt::Debug for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Predefined(p) => write!(f, "Op::{p:?}"),
            Op::User(_) => write!(f, "Op::User(..)"),
        }
    }
}

impl Op {
    /// Fold `incoming` into `acc`, treating both as `count` elements of
    /// `kind`.
    pub fn apply(
        &self,
        incoming: &[u8],
        acc: &mut [u8],
        kind: PrimitiveKind,
        count: usize,
    ) -> Result<()> {
        let elem = kind.size();
        let need = elem * count;
        if incoming.len() < need || acc.len() < need {
            return err(
                ErrorClass::Count,
                format!(
                    "reduce: need {} bytes, have {} (in) / {} (acc)",
                    need,
                    incoming.len(),
                    acc.len()
                ),
            );
        }
        match self {
            Op::User(f) => f(incoming, acc, kind, count),
            Op::Predefined(op) => {
                let (incoming, acc) = (&incoming[..need], &mut acc[..need]);
                // An empty fold has nothing to refuse, whatever the pair.
                if apply_predefined(*op, incoming, acc, kind) || count == 0 {
                    Ok(())
                } else {
                    err(ErrorClass::Op, format!("{op:?} is not defined on {kind:?}"))
                }
            }
        }
    }
}

/// A fixed-width little-endian scalar the predefined operations fold.
/// `sum` / `prod` wrap on integers (see the module docs).
trait Scalar<const W: usize>: Copy + PartialOrd {
    const ZERO: Self;
    const ONE: Self;
    fn from_le(bytes: [u8; W]) -> Self;
    fn to_le(self) -> [u8; W];
    fn sum(self, other: Self) -> Self;
    fn prod(self, other: Self) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty => $w:literal, $zero:literal, $one:literal, $add:ident, $mul:ident);*) => {$(
        impl Scalar<$w> for $t {
            const ZERO: Self = $zero;
            const ONE: Self = $one;
            #[inline]
            fn from_le(bytes: [u8; $w]) -> Self {
                <$t>::from_le_bytes(bytes)
            }
            #[inline]
            fn to_le(self) -> [u8; $w] {
                self.to_le_bytes()
            }
            #[inline]
            fn sum(self, other: Self) -> Self {
                self.$add(other)
            }
            #[inline]
            fn prod(self, other: Self) -> Self {
                self.$mul(other)
            }
        }
    )*}
}
impl_scalar!(
    u8 => 1, 0, 1, wrapping_add, wrapping_mul;
    u16 => 2, 0, 1, wrapping_add, wrapping_mul;
    i16 => 2, 0, 1, wrapping_add, wrapping_mul;
    i32 => 4, 0, 1, wrapping_add, wrapping_mul;
    i64 => 8, 0, 1, wrapping_add, wrapping_mul;
    f32 => 4, 0.0, 1.0, add, mul;
    f64 => 8, 0.0, 1.0, add, mul
);

/// The one reduction loop: `acc[n] = f(acc[n], inc[n])` over the `W`-byte
/// elements of two equally long slices.
#[inline]
fn fold<T: Scalar<W>, const W: usize>(inc: &[u8], acc: &mut [u8], f: impl Fn(T, T) -> T) {
    let (acc, _) = acc.as_chunks_mut::<W>();
    let (inc, _) = inc.as_chunks::<W>();
    for (a, b) in acc.iter_mut().zip(inc) {
        *a = f(T::from_le(*a), T::from_le(*b)).to_le();
    }
}

/// Dispatch `(kind, op)` to its kernel; `false` when `op` is not defined
/// on `kind` (nothing was written).
fn apply_predefined(op: PredefinedOp, inc: &[u8], acc: &mut [u8], kind: PrimitiveKind) -> bool {
    use PrimitiveKind as K;
    match kind {
        K::Byte | K::Packed => int_reduce::<u8, 1>(op, inc, acc),
        K::Boolean => bool_reduce(op, inc, acc),
        K::Char => int_reduce::<u16, 2>(op, inc, acc),
        K::Short => int_reduce::<i16, 2>(op, inc, acc),
        K::Int => int_reduce::<i32, 4>(op, inc, acc),
        K::Long => int_reduce::<i64, 8>(op, inc, acc),
        K::Float => arith_reduce::<f32, 4>(op, inc, acc),
        K::Double => arith_reduce::<f64, 8>(op, inc, acc),
        K::Short2 => loc_reduce::<i16, 2>(op, inc, acc),
        K::Int2 => loc_reduce::<i32, 4>(op, inc, acc),
        K::Long2 => loc_reduce::<i64, 8>(op, inc, acc),
        K::Float2 => loc_reduce::<f32, 4>(op, inc, acc),
        K::Double2 => loc_reduce::<f64, 8>(op, inc, acc),
    }
}

/// `MAX`, `MIN`, `SUM` and `PROD`: the operations every numeric kind has.
fn arith_reduce<T: Scalar<W>, const W: usize>(
    op: PredefinedOp,
    inc: &[u8],
    acc: &mut [u8],
) -> bool {
    match op {
        PredefinedOp::Max => fold(inc, acc, |a: T, b| if a >= b { a } else { b }),
        PredefinedOp::Min => fold(inc, acc, |a: T, b| if a <= b { a } else { b }),
        PredefinedOp::Sum => fold(inc, acc, T::sum),
        PredefinedOp::Prod => fold(inc, acc, T::prod),
        _ => return false,
    }
    true
}

/// Integers add the bitwise and the logical (non-zero is true) operations.
fn int_reduce<T, const W: usize>(op: PredefinedOp, inc: &[u8], acc: &mut [u8]) -> bool
where
    T: Scalar<W> + BitAnd<Output = T> + BitOr<Output = T> + BitXor<Output = T>,
{
    let flag = |x: bool| if x { T::ONE } else { T::ZERO };
    match op {
        PredefinedOp::Band => fold(inc, acc, |a: T, b| a & b),
        PredefinedOp::Bor => fold(inc, acc, |a: T, b| a | b),
        PredefinedOp::Bxor => fold(inc, acc, |a: T, b| a ^ b),
        PredefinedOp::Land => fold(inc, acc, |a: T, b| flag(a != T::ZERO && b != T::ZERO)),
        PredefinedOp::Lor => fold(inc, acc, |a: T, b| flag(a != T::ZERO || b != T::ZERO)),
        PredefinedOp::Lxor => fold(inc, acc, |a: T, b| flag((a != T::ZERO) ^ (b != T::ZERO))),
        _ => return arith_reduce::<T, W>(op, inc, acc),
    }
    true
}

/// `BOOLEAN`: every operation but the `*LOC` pair is a logical one.
fn bool_reduce(op: PredefinedOp, inc: &[u8], acc: &mut [u8]) -> bool {
    use PredefinedOp as P;
    match op {
        P::Land | P::Band | P::Prod | P::Min => {
            fold(inc, acc, |a: u8, b| u8::from(a != 0 && b != 0))
        }
        P::Lor | P::Bor | P::Max | P::Sum => fold(inc, acc, |a: u8, b| u8::from(a != 0 || b != 0)),
        P::Lxor | P::Bxor => fold(inc, acc, |a: u8, b| u8::from((a != 0) ^ (b != 0))),
        P::Maxloc | P::Minloc => return false,
    }
    true
}

/// `(value, index)` pairs of `T`: the incoming pair replaces the
/// accumulated one when its value wins strictly; a tie keeps the
/// accumulated pair.
fn loc_reduce<T: Scalar<W>, const W: usize>(op: PredefinedOp, inc: &[u8], acc: &mut [u8]) -> bool {
    match op {
        PredefinedOp::Maxloc => loc_fold(inc, acc, |b: T, a| b > a),
        PredefinedOp::Minloc => loc_fold(inc, acc, |b: T, a| b < a),
        _ => return false,
    }
    true
}

/// [`fold`] for pairs: the incoming pair is copied over the accumulated
/// one where `wins(incoming value, accumulated value)`.
#[inline]
fn loc_fold<T: Scalar<W>, const W: usize>(inc: &[u8], acc: &mut [u8], wins: impl Fn(T, T) -> bool) {
    let (acc, _) = acc.as_chunks_mut::<W>();
    let (inc, _) = inc.as_chunks::<W>();
    for (a, b) in acc.chunks_exact_mut(2).zip(inc.chunks_exact(2)) {
        if wins(T::from_le(b[0]), T::from_le(a[0])) {
            a.copy_from_slice(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(values: &[i32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn to_ints(bytes: &[u8]) -> Vec<i32> {
        bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn doubles(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn to_doubles(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn int_sum_prod_max_min() {
        let a = ints(&[1, 5, -3]);
        let b = ints(&[4, 2, -7]);
        for (op, expect) in [
            (PredefinedOp::Sum, vec![5, 7, -10]),
            (PredefinedOp::Prod, vec![4, 10, 21]),
            (PredefinedOp::Max, vec![4, 5, -3]),
            (PredefinedOp::Min, vec![1, 2, -7]),
        ] {
            let mut acc = a.clone();
            Op::Predefined(op)
                .apply(&b, &mut acc, PrimitiveKind::Int, 3)
                .unwrap();
            assert_eq!(to_ints(&acc), expect, "{op:?}");
        }
    }

    #[test]
    fn int_bitwise_and_logical() {
        let a = ints(&[0b1100, 0, 1]);
        let b = ints(&[0b1010, 0, 0]);
        let cases = [
            (PredefinedOp::Band, vec![0b1000, 0, 0]),
            (PredefinedOp::Bor, vec![0b1110, 0, 1]),
            (PredefinedOp::Bxor, vec![0b0110, 0, 1]),
            (PredefinedOp::Land, vec![1, 0, 0]),
            (PredefinedOp::Lor, vec![1, 0, 1]),
            (PredefinedOp::Lxor, vec![0, 0, 1]),
        ];
        for (op, expect) in cases {
            let mut acc = a.clone();
            Op::Predefined(op)
                .apply(&b, &mut acc, PrimitiveKind::Int, 3)
                .unwrap();
            assert_eq!(to_ints(&acc), expect, "{op:?}");
        }
    }

    #[test]
    fn double_sum_and_max() {
        let a = doubles(&[1.5, -2.0]);
        let b = doubles(&[2.5, -3.0]);
        let mut acc = a.clone();
        Op::Predefined(PredefinedOp::Sum)
            .apply(&b, &mut acc, PrimitiveKind::Double, 2)
            .unwrap();
        assert_eq!(to_doubles(&acc), vec![4.0, -5.0]);
        let mut acc = a;
        Op::Predefined(PredefinedOp::Max)
            .apply(&b, &mut acc, PrimitiveKind::Double, 2)
            .unwrap();
        assert_eq!(to_doubles(&acc), vec![2.5, -2.0]);
    }

    #[test]
    fn bitwise_on_floats_is_rejected() {
        let a = doubles(&[1.0]);
        let mut acc = a.clone();
        assert!(Op::Predefined(PredefinedOp::Band)
            .apply(&a, &mut acc, PrimitiveKind::Double, 1)
            .is_err());
    }

    #[test]
    fn maxloc_tracks_index_of_winner() {
        // pairs (value, rank-index)
        let a: Vec<u8> = [10i32, 0, 3, 0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let b: Vec<u8> = [7i32, 1, 9, 1]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let mut acc = a.clone();
        Op::Predefined(PredefinedOp::Maxloc)
            .apply(&b, &mut acc, PrimitiveKind::Int2, 2)
            .unwrap();
        assert_eq!(to_ints(&acc), vec![10, 0, 9, 1]);
        let mut acc = a;
        Op::Predefined(PredefinedOp::Minloc)
            .apply(&b, &mut acc, PrimitiveKind::Int2, 2)
            .unwrap();
        assert_eq!(to_ints(&acc), vec![7, 1, 3, 0]);
    }

    #[test]
    fn maxloc_on_scalar_type_is_rejected() {
        let a = ints(&[1]);
        let mut acc = a.clone();
        assert!(Op::Predefined(PredefinedOp::Maxloc)
            .apply(&a, &mut acc, PrimitiveKind::Int, 1)
            .is_err());
    }

    #[test]
    fn user_op_is_invoked() {
        let op = Op::User(Arc::new(|incoming, acc, kind, count| {
            assert_eq!(kind, PrimitiveKind::Int);
            for i in 0..count {
                let a = i32::from_le_bytes(acc[i * 4..(i + 1) * 4].try_into().unwrap());
                let b = i32::from_le_bytes(incoming[i * 4..(i + 1) * 4].try_into().unwrap());
                acc[i * 4..(i + 1) * 4].copy_from_slice(&(a.max(b) * 2).to_le_bytes());
            }
            Ok(())
        }));
        let a = ints(&[3, 4]);
        let b = ints(&[5, 1]);
        let mut acc = a;
        op.apply(&b, &mut acc, PrimitiveKind::Int, 2).unwrap();
        assert_eq!(to_ints(&acc), vec![10, 8]);
    }

    #[test]
    fn short_buffers_are_rejected() {
        let a = ints(&[1, 2]);
        let mut acc = ints(&[1]);
        assert!(Op::Predefined(PredefinedOp::Sum)
            .apply(&a, &mut acc, PrimitiveKind::Int, 2)
            .is_err());
    }

    #[test]
    fn boolean_logical_ops() {
        let a = vec![1u8, 0, 1, 0];
        let b = vec![1u8, 1, 0, 0];
        let mut acc = a.clone();
        Op::Predefined(PredefinedOp::Land)
            .apply(&b, &mut acc, PrimitiveKind::Boolean, 4)
            .unwrap();
        assert_eq!(acc, vec![1, 0, 0, 0]);
        let mut acc = a;
        Op::Predefined(PredefinedOp::Lor)
            .apply(&b, &mut acc, PrimitiveKind::Boolean, 4)
            .unwrap();
        assert_eq!(acc, vec![1, 1, 1, 0]);
    }

    /// Every predefined operation in declaration order.
    const OPS: [PredefinedOp; 12] = {
        use PredefinedOp::*;
        [
            Max, Min, Sum, Prod, Land, Band, Lor, Bor, Lxor, Bxor, Maxloc, Minloc,
        ]
    };

    /// Every primitive kind.
    const KINDS: [PrimitiveKind; 14] = {
        use PrimitiveKind::*;
        [
            Byte, Char, Boolean, Short, Int, Long, Float, Double, Packed, Int2, Long2, Float2,
            Double2, Short2,
        ]
    };

    /// Integer lanes as `i128`: sign-extended unless `BYTE`/`CHAR`-like.
    fn lane_int(bytes: &[u8], signed: bool) -> i128 {
        let fill = if signed && bytes[bytes.len() - 1] & 0x80 != 0 {
            0xFF
        } else {
            0
        };
        let mut wide = [fill; 16];
        wide[..bytes.len()].copy_from_slice(bytes);
        i128::from_le_bytes(wide)
    }

    fn is_nan(kind: PrimitiveKind, x: &[u8]) -> bool {
        match kind {
            PrimitiveKind::Float => f32::from_le_bytes(x.try_into().unwrap()).is_nan(),
            PrimitiveKind::Double => f64::from_le_bytes(x.try_into().unwrap()).is_nan(),
            _ => false,
        }
    }

    fn float_ref<T>(op: PredefinedOp, a: T, b: T) -> Option<T>
    where
        T: Copy + PartialOrd + std::ops::Add<Output = T> + std::ops::Mul<Output = T>,
    {
        use PredefinedOp::*;
        Some(match op {
            Max => {
                if a >= b {
                    a
                } else {
                    b
                }
            }
            Min => {
                if a <= b {
                    a
                } else {
                    b
                }
            }
            Sum => a + b,
            Prod => a * b,
            _ => return None,
        })
    }

    /// The element-at-a-time reference fold: the semantics the kernels
    /// replaced, with integers wrapping. `None`: the pair is invalid.
    fn reference_elem(
        op: PredefinedOp,
        kind: PrimitiveKind,
        a: &[u8],
        b: &[u8],
    ) -> Option<Vec<u8>> {
        use PredefinedOp::*;
        use PrimitiveKind as K;
        let f32_of = |x: &[u8]| f32::from_le_bytes(x[..4].try_into().unwrap());
        let f64_of = |x: &[u8]| f64::from_le_bytes(x[..8].try_into().unwrap());
        if kind.is_pair() {
            let half = a.len() / 2;
            let order = match kind {
                K::Float2 => f32_of(b).partial_cmp(&f32_of(a)),
                K::Double2 => f64_of(b).partial_cmp(&f64_of(a)),
                _ => lane_int(&b[..half], true).partial_cmp(&lane_int(&a[..half], true)),
            };
            let wins = match op {
                Maxloc => order == Some(std::cmp::Ordering::Greater),
                Minloc => order == Some(std::cmp::Ordering::Less),
                _ => return None,
            };
            return Some(if wins { b } else { a }.to_vec());
        }
        match kind {
            K::Float => {
                return float_ref(op, f32_of(a), f32_of(b)).map(|r| r.to_le_bytes().to_vec())
            }
            K::Double => {
                return float_ref(op, f64_of(a), f64_of(b)).map(|r| r.to_le_bytes().to_vec())
            }
            _ => {}
        }
        let signed = matches!(kind, K::Short | K::Int | K::Long);
        let (x, y) = (lane_int(a, signed), lane_int(b, signed));
        let (p, q) = (x != 0, y != 0);
        let r = match (kind, op) {
            (_, Maxloc | Minloc) => return None,
            (K::Boolean, Land | Band | Prod | Min) => i128::from(p && q),
            (K::Boolean, Lor | Bor | Max | Sum) => i128::from(p || q),
            (K::Boolean, Lxor | Bxor) => i128::from(p ^ q),
            (_, Max) => {
                if x >= y {
                    x
                } else {
                    y
                }
            }
            (_, Min) => {
                if x <= y {
                    x
                } else {
                    y
                }
            }
            (_, Sum) => x + y,
            (_, Prod) => x * y,
            (_, Band) => x & y,
            (_, Bor) => x | y,
            (_, Bxor) => x ^ y,
            (_, Land) => i128::from(p && q),
            (_, Lor) => i128::from(p || q),
            (_, Lxor) => i128::from(p ^ q),
        };
        // Truncating the exact result is the two's-complement wrap.
        Some(r.to_le_bytes()[..a.len()].to_vec())
    }

    /// Seeded element images, half of them drawn from each kind's edge
    /// values: NaN, ±0.0, ±inf, the float limits, and the integer
    /// MIN / MAX / 0 / ±1 byte patterns (signed and unsigned alike).
    fn element(kind: PrimitiveKind, rng: &mut u64) -> Vec<u8> {
        let mut next = || {
            *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (*rng ^ (*rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB)
        };
        let lanes = if kind.is_pair() { 2 } else { 1 };
        let width = kind.size() / lanes;
        let float = matches!(
            kind,
            PrimitiveKind::Float
                | PrimitiveKind::Double
                | PrimitiveKind::Float2
                | PrimitiveKind::Double2
        );
        let mut out = Vec::new();
        for _ in 0..lanes {
            let pick = next();
            let mut lane = next().to_le_bytes()[..width].to_vec();
            let edge = (pick >> 8) as usize;
            if pick.is_multiple_of(2) && float {
                let edges = [
                    f64::NAN,
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::MAX,
                    f64::MIN,
                    1.0,
                    -1.0,
                ];
                let v = edges[edge % edges.len()];
                lane = if width == 4 {
                    (v as f32).to_le_bytes().to_vec()
                } else {
                    v.to_le_bytes().to_vec()
                };
            } else if pick.is_multiple_of(2) {
                let edges: [i128; 6] = [0, 1, -1, i128::MAX, i128::MIN, 2];
                let v = edges[edge % edges.len()];
                // Shift the i128 limits down to the lane: 0x7F..FF / 0x80..00.
                let v = if v == i128::MAX || v == i128::MIN {
                    v >> (128 - 8 * width)
                } else {
                    v
                };
                lane = v.to_le_bytes()[..width].to_vec();
            }
            out.extend(lane);
        }
        out
    }

    /// The kernels against the element-at-a-time reference for every
    /// kind × operation, at counts 0..=67 (tails past any vector width)
    /// and byte offsets 1..=7 (unaligned): byte-identical results, or
    /// both refuse with the same class.
    #[test]
    fn kernels_match_the_reference_fold() {
        let mut rng = 0x5EED_u64;
        for kind in KINDS {
            for op in OPS {
                for count in 0..=67usize {
                    let w = kind.size();
                    let (off_in, off_acc) = (1 + count % 7, 1 + (count / 7) % 7);
                    let mut incoming = vec![0u8; off_in];
                    let mut acc = vec![0u8; off_acc];
                    for _ in 0..count {
                        incoming.extend(element(kind, &mut rng));
                        // Repeat an incoming element now and then: ties.
                        let elem = if rng.is_multiple_of(5) {
                            incoming[incoming.len() - w..].to_vec()
                        } else {
                            element(kind, &mut rng)
                        };
                        acc.extend(elem);
                    }
                    let mut want = acc[off_acc..].to_vec();
                    let mut valid = true;
                    for n in 0..count {
                        let b = &incoming[off_in + n * w..off_in + (n + 1) * w];
                        match reference_elem(op, kind, &want[n * w..(n + 1) * w], b) {
                            Some(r) => want[n * w..(n + 1) * w].copy_from_slice(&r),
                            None => valid = false,
                        }
                    }
                    let before = acc.clone();
                    let got = Op::Predefined(op).apply(
                        &incoming[off_in..],
                        &mut acc[off_acc..],
                        kind,
                        count,
                    );
                    match got {
                        Ok(()) => {
                            assert!(valid, "{kind:?} {op:?} x{count}: accepted an invalid pair")
                        }
                        Err(e) => {
                            assert!(!valid, "{kind:?} {op:?} x{count}: {e}");
                            assert_eq!(e.class, ErrorClass::Op);
                            continue;
                        }
                    }
                    for n in 0..count {
                        let at =
                            |buf: &[u8], off: usize| buf[off + n * w..off + (n + 1) * w].to_vec();
                        let (got, want) = (at(&acc, off_acc), at(&want, 0));
                        // Which payload a sum or product of two NaNs keeps
                        // is the compiler's choice (IEEE 754 leaves it open).
                        let nans = [at(&before, off_acc), at(&incoming, off_in), got.clone()];
                        let open = matches!(op, PredefinedOp::Sum | PredefinedOp::Prod)
                            && nans.iter().all(|x| is_nan(kind, x));
                        assert!(got == want || open, "{kind:?} {op:?} x{count} element {n}");
                    }
                }
            }
        }
    }

    /// Integer `SUM` / `PROD` wrap at the type's limits, in debug builds
    /// too (`BYTE` and `CHAR` are unsigned).
    #[test]
    fn integer_sum_and_prod_wrap_at_the_limits() {
        use PrimitiveKind as K;
        for (kind, min, max) in [
            (K::Byte, 0, u8::MAX as i128),
            (K::Char, 0, u16::MAX as i128),
            (K::Short, i16::MIN as i128, i16::MAX as i128),
            (K::Int, i32::MIN as i128, i32::MAX as i128),
            (K::Long, i64::MIN as i128, i64::MAX as i128),
        ] {
            // Encoding truncates, so exact results encode as their wrap.
            let enc = |v: &[i128]| -> Vec<u8> {
                v.iter()
                    .flat_map(|x| x.to_le_bytes()[..kind.size()].to_vec())
                    .collect()
            };
            let acc = [max, min, max, min, max];
            let incoming = enc(&[1, -1, max, min, 2]);
            for (op, want) in [
                (
                    PredefinedOp::Sum,
                    [max + 1, min - 1, max + max, min + min, max + 2],
                ),
                (
                    PredefinedOp::Prod,
                    [max, -min, max * max, min * min, max * 2],
                ),
            ] {
                let mut got = enc(&acc);
                Op::Predefined(op)
                    .apply(&incoming, &mut got, kind, 5)
                    .unwrap();
                assert_eq!(got, enc(&want), "{kind:?} {op:?}");
            }
        }
    }
}
