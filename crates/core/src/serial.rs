//! Object serialization for the `MPI.OBJECT` datatype (paper §2.2).
//!
//! The paper proposes extending mpiJava with a predefined `MPI.OBJECT`
//! datatype whose buffers are arrays of serializable Java objects,
//! serialized automatically inside the send wrapper and reconstructed at
//! the destination. Rust has no built-in reflection-based serialization,
//! so this module provides the equivalent plumbing: a [`Serializable`]
//! trait (the analogue of `java.io.Serializable`) plus
//! [`ObjectOutputStream`] / [`ObjectInputStream`] encoders with a compact
//! little-endian binary format. Implementations are provided for the
//! primitive types, `String`, `Option`, `Vec` and small tuples, which is
//! enough to express the kinds of message payloads the paper's discussion
//! (and our examples) use.

use mpi_native::ErrorClass;

use crate::exception::{MPIException, MpiResult};

/// The analogue of `java.io.Serializable` + `writeObject`.
pub trait Serializable: Sized {
    /// Append this object's encoding to the stream.
    fn write_object(&self, out: &mut ObjectOutputStream);
    /// Decode one object from the stream.
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self>;
}

/// Growable encoder (`java.io.ObjectOutputStream`).
#[derive(Debug, Default)]
pub struct ObjectOutputStream {
    bytes: Vec<u8>,
}

impl ObjectOutputStream {
    /// An empty stream.
    pub fn new() -> ObjectOutputStream {
        ObjectOutputStream::default()
    }

    /// Finish and take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Append raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Append one object.
    pub fn write<T: Serializable>(&mut self, value: &T) {
        value.write_object(self);
    }
}

/// Decoder over a byte slice (`java.io.ObjectInputStream`).
#[derive(Debug)]
pub struct ObjectInputStream<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> ObjectInputStream<'a> {
    /// Decode from `bytes`.
    pub fn new(bytes: &'a [u8]) -> ObjectInputStream<'a> {
        ObjectInputStream { bytes, cursor: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.cursor
    }

    /// Read exactly `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> MpiResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(MPIException::new(
                ErrorClass::Truncate,
                format!(
                    "object stream exhausted: need {n} bytes, have {}",
                    self.remaining()
                ),
            ));
        }
        let out = &self.bytes[self.cursor..self.cursor + n];
        self.cursor += n;
        Ok(out)
    }

    /// Read exactly `N` raw bytes as an array: a fixed-width field.
    pub(crate) fn read_array<const N: usize>(&mut self) -> MpiResult<[u8; N]> {
        let field = self.read_bytes(N)?;
        Ok(std::array::from_fn(|i| field[i]))
    }

    /// Read one object.
    pub fn read<T: Serializable>(&mut self) -> MpiResult<T> {
        T::read_object(self)
    }
}

/// Serialize one value to a standalone byte vector.
pub fn serialize<T: Serializable>(value: &T) -> Vec<u8> {
    let mut out = ObjectOutputStream::new();
    out.write(value);
    out.into_bytes()
}

/// Deserialize one value from a byte slice produced by [`serialize`].
pub fn deserialize<T: Serializable>(bytes: &[u8]) -> MpiResult<T> {
    let mut input = ObjectInputStream::new(bytes);
    let value = input.read::<T>()?;
    Ok(value)
}

macro_rules! impl_serializable_number {
    ($($ty:ty),*) => {$(
        impl Serializable for $ty {
            fn write_object(&self, out: &mut ObjectOutputStream) {
                out.write_bytes(&self.to_le_bytes());
            }
            fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
                Ok(<$ty>::from_le_bytes(input.read_array()?))
            }
        }
    )*}
}
impl_serializable_number!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl Serializable for usize {
    // Platform-independent width: always encoded as a u64.
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write_bytes(&(*self as u64).to_le_bytes());
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        let v = u64::from_le_bytes(input.read_array()?);
        Ok(v as usize)
    }
}

impl Serializable for bool {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write_bytes(&[*self as u8]);
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        Ok(input.read_array::<1>()? != [0])
    }
}

impl Serializable for char {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write_bytes(&(*self as u32).to_le_bytes());
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        let code = u32::from_le_bytes(input.read_array()?);
        char::from_u32(code).ok_or_else(|| {
            MPIException::new(ErrorClass::Other, format!("invalid char code point {code}"))
        })
    }
}

impl Serializable for String {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write_bytes(&(self.len() as u64).to_le_bytes());
        out.write_bytes(self.as_bytes());
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        let len = u64::from_le_bytes(input.read_array()?) as usize;
        let bytes = input.read_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| MPIException::new(ErrorClass::Other, format!("invalid UTF-8: {e}")))
    }
}

impl<T: Serializable> Serializable for Vec<T> {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        out.write_bytes(&(self.len() as u64).to_le_bytes());
        for item in self {
            item.write_object(out);
        }
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        let len = u64::from_le_bytes(input.read_array()?) as usize;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::read_object(input)?);
        }
        Ok(out)
    }
}

impl<T: Serializable> Serializable for Option<T> {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        match self {
            None => out.write_bytes(&[0]),
            Some(v) => {
                out.write_bytes(&[1]);
                v.write_object(out);
            }
        }
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        match input.read_bytes(1)?[0] {
            0 => Ok(None),
            _ => Ok(Some(T::read_object(input)?)),
        }
    }
}

impl<A: Serializable, B: Serializable> Serializable for (A, B) {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        self.0.write_object(out);
        self.1.write_object(out);
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        Ok((A::read_object(input)?, B::read_object(input)?))
    }
}

impl<A: Serializable, B: Serializable, C: Serializable> Serializable for (A, B, C) {
    fn write_object(&self, out: &mut ObjectOutputStream) {
        self.0.write_object(out);
        self.1.write_object(out);
        self.2.write_object(out);
    }
    fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
        Ok((
            A::read_object(input)?,
            B::read_object(input)?,
            C::read_object(input)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(deserialize::<i32>(&serialize(&-42i32)).unwrap(), -42);
        assert_eq!(deserialize::<f64>(&serialize(&3.25f64)).unwrap(), 3.25);
        assert!(deserialize::<bool>(&serialize(&true)).unwrap());
        assert_eq!(deserialize::<char>(&serialize(&'λ')).unwrap(), 'λ');
    }

    #[test]
    fn strings_and_vectors_roundtrip() {
        let s = "Hello, there".to_string();
        assert_eq!(deserialize::<String>(&serialize(&s)).unwrap(), s);
        let v: Vec<i64> = vec![1, -2, 3_000_000_000];
        assert_eq!(deserialize::<Vec<i64>>(&serialize(&v)).unwrap(), v);
        let nested: Vec<Vec<u8>> = vec![vec![1, 2], vec![], vec![3]];
        assert_eq!(
            deserialize::<Vec<Vec<u8>>>(&serialize(&nested)).unwrap(),
            nested
        );
    }

    #[test]
    fn options_and_tuples_roundtrip() {
        let x: Option<String> = Some("maybe".into());
        assert_eq!(deserialize::<Option<String>>(&serialize(&x)).unwrap(), x);
        let none: Option<i32> = None;
        assert_eq!(deserialize::<Option<i32>>(&serialize(&none)).unwrap(), None);
        let t = (7i32, "pair".to_string());
        assert_eq!(deserialize::<(i32, String)>(&serialize(&t)).unwrap(), t);
        let t3 = (1u8, 2i64, 3.5f32);
        assert_eq!(deserialize::<(u8, i64, f32)>(&serialize(&t3)).unwrap(), t3);
    }

    #[test]
    fn custom_struct_via_manual_impl() {
        #[derive(Debug, PartialEq)]
        struct Particle {
            id: i32,
            position: (f64, f64),
            label: String,
        }
        impl Serializable for Particle {
            fn write_object(&self, out: &mut ObjectOutputStream) {
                out.write(&self.id);
                out.write(&self.position);
                out.write(&self.label);
            }
            fn read_object(input: &mut ObjectInputStream<'_>) -> MpiResult<Self> {
                Ok(Particle {
                    id: input.read()?,
                    position: input.read()?,
                    label: input.read()?,
                })
            }
        }
        let p = Particle {
            id: 9,
            position: (1.5, -2.5),
            label: "electron".into(),
        };
        let bytes = serialize(&p);
        assert_eq!(deserialize::<Particle>(&bytes).unwrap(), p);
    }

    #[test]
    fn truncated_streams_error_cleanly() {
        let bytes = serialize(&"truncate me".to_string());
        let err = deserialize::<String>(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.class, ErrorClass::Truncate);
        let err = deserialize::<i64>(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.class, ErrorClass::Truncate);
    }
}
