//! Message buffers with Java-array semantics.
//!
//! In mpiJava every communication call takes `(Object buf, int offset,
//! int count, Datatype datatype, ...)` where `buf` must be a
//! one-dimensional Java array of a primitive type (the paper, §2). This
//! module gives the Rust binding the same shape: the [`BufferElement`]
//! trait marks the Rust element types that correspond to the Java
//! primitive element types of Figure 2.
//!
//! ## The marshal seam
//!
//! Every conversion between a typed buffer and its little-endian wire
//! bytes is `bytes_of` (the bytes of `&[T]`), `store_bytes` (store bytes
//! into `&mut [T]`) or `with_bytes_mut` (lend a window's writable image
//! to a scatter or to the engine). The element type decides how, never
//! the caller. For the eight fixed-width numeric types on a little-endian
//! host the byte image *is* the slice: a borrowed view, one
//! `copy_from_slice`, the slice's own memory. `bool` and `char` take the
//! element loop instead — a `char` is 4 bytes in memory and one UTF-16
//! unit on the wire, and not every wire value is an element (`2` is no
//! `bool`, `0xD800` no `char`), so they are validated on the way in — and
//! so does every type on a big-endian host.

use std::borrow::Cow;

use mpi_native::PrimitiveKind;

/// Marker + byte-view trait for element types usable in message buffers.
///
/// The Java `char` (UTF-16 code unit) maps to `u16`; Java `byte` to `i8`
/// (with `u8` also accepted for convenience); `boolean` to `bool`.
pub trait BufferElement: Copy + Default + Send + Sync + 'static {
    /// The MPI basic datatype this element corresponds to (paper Figure 2).
    const KIND: PrimitiveKind;

    /// Serialize one element into little-endian bytes.
    fn write_le(&self, out: &mut [u8]);
    /// Deserialize one element from little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;

    /// The slice's own memory, when that memory is its wire image;
    /// `None` selects the element loop.
    #[doc(hidden)]
    fn wire_view(_buf: &[Self]) -> Option<&[u8]> {
        None
    }
    #[doc(hidden)]
    fn wire_view_mut(_buf: &mut [Self]) -> Option<&mut [u8]> {
        None
    }

    /// Width of one element in bytes.
    fn width() -> usize {
        Self::KIND.size()
    }

    /// The [`Datatype`](crate::Datatype) inferred for buffers of this
    /// element type. This is what lets the idiomatic API ([`crate::rs`])
    /// drop the explicit `Datatype` argument from every call site:
    /// `world.send(&buf, dest, tag)` sends `buf.len()` elements of
    /// `T::datatype()`.
    fn datatype() -> crate::datatype::Datatype {
        crate::datatype::Datatype::of_kind(Self::KIND)
    }
}

macro_rules! impl_buffer_element {
    ($($ty:ty => $kind:expr),* $(,)?) => {$(
        const _: () = assert!(std::mem::size_of::<$ty>() == $kind.size());
        impl BufferElement for $ty {
            const KIND: PrimitiveKind = $kind;
            fn write_le(&self, out: &mut [u8]) {
                out[..std::mem::size_of::<$ty>()].copy_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes[..std::mem::size_of::<$ty>()].try_into().unwrap())
            }
            #[cfg(target_endian = "little")]
            fn wire_view(buf: &[Self]) -> Option<&[u8]> {
                // SAFETY: a primitive number has no padding and `u8` has
                // alignment 1, so `buf`'s `size_of_val` bytes (`len *
                // KIND.size()`, asserted above) are a valid `[u8]` for as
                // long as `buf` is borrowed.
                Some(unsafe {
                    std::slice::from_raw_parts(buf.as_ptr().cast(), std::mem::size_of_val(buf))
                })
            }
            #[cfg(target_endian = "little")]
            fn wire_view_mut(buf: &mut [Self]) -> Option<&mut [u8]> {
                // SAFETY: as above, `buf` is borrowed exclusively, and
                // every bit pattern is a valid `$ty`, so any store
                // through the view leaves it valid.
                Some(unsafe {
                    std::slice::from_raw_parts_mut(
                        buf.as_mut_ptr().cast(),
                        std::mem::size_of_val(buf),
                    )
                })
            }
        }
    )*}
}

impl_buffer_element!(
    i8 => PrimitiveKind::Byte,
    u8 => PrimitiveKind::Byte,
    i16 => PrimitiveKind::Short,
    u16 => PrimitiveKind::Char,
    i32 => PrimitiveKind::Int,
    i64 => PrimitiveKind::Long,
    f32 => PrimitiveKind::Float,
    f64 => PrimitiveKind::Double,
);

impl BufferElement for bool {
    const KIND: PrimitiveKind = PrimitiveKind::Boolean;
    fn write_le(&self, out: &mut [u8]) {
        out[0] = *self as u8;
    }
    fn read_le(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

impl BufferElement for char {
    // Java's char is a UTF-16 code unit; mpiJava sends it as MPI.CHAR
    // (2 bytes). Characters outside the BMP are truncated exactly as a
    // Java cast to char would truncate them.
    const KIND: PrimitiveKind = PrimitiveKind::Char;
    fn write_le(&self, out: &mut [u8]) {
        let code = *self as u32 as u16;
        out[..2].copy_from_slice(&code.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        let code = u16::from_le_bytes(bytes[..2].try_into().unwrap());
        char::from_u32(code as u32).unwrap_or('\u{FFFD}')
    }
}

/// The wire image of `buf` (the simulated `Get*ArrayElements`): the
/// slice's own memory where the element type allows, else converted.
pub(crate) fn bytes_of<T: BufferElement>(buf: &[T]) -> Cow<'_, [u8]> {
    if let Some(view) = T::wire_view(buf) {
        return Cow::Borrowed(view);
    }
    let width = T::width();
    let mut out = vec![0u8; buf.len() * width];
    for (chunk, e) in out.chunks_exact_mut(width).zip(buf) {
        e.write_le(chunk);
    }
    Cow::Owned(out)
}

/// Store the whole elements `bytes` holds into the front of `buf` (the
/// simulated `Set*ArrayRegion`) and return how many; the rest of `buf`
/// is not touched.
pub(crate) fn store_bytes<T: BufferElement>(bytes: &[u8], buf: &mut [T]) -> usize {
    let width = T::width();
    let n = (bytes.len() / width).min(buf.len());
    let (bytes, buf) = (&bytes[..n * width], &mut buf[..n]);
    if let Some(view) = T::wire_view_mut(buf) {
        view.copy_from_slice(bytes);
    } else {
        for (e, chunk) in buf.iter_mut().zip(bytes.chunks_exact(width)) {
            *e = T::read_le(chunk);
        }
    }
    n
}

/// Run `fill` over the writable wire image of `buf`: the user's memory
/// where the image is the slice (the window is never read), else a
/// converted image that is stored back afterwards.
pub(crate) fn with_bytes_mut<T: BufferElement, R>(
    buf: &mut [T],
    fill: impl FnOnce(&mut [u8]) -> R,
) -> R {
    if let Some(view) = T::wire_view_mut(buf) {
        return fill(view);
    }
    let mut image = bytes_of(buf).into_owned();
    let result = fill(&mut image);
    store_bytes(&image, buf);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_kinds_match_figure_2() {
        assert_eq!(<i8 as BufferElement>::KIND, PrimitiveKind::Byte);
        assert_eq!(<u16 as BufferElement>::KIND, PrimitiveKind::Char);
        assert_eq!(<bool as BufferElement>::KIND, PrimitiveKind::Boolean);
        assert_eq!(<i16 as BufferElement>::KIND, PrimitiveKind::Short);
        assert_eq!(<i32 as BufferElement>::KIND, PrimitiveKind::Int);
        assert_eq!(<i64 as BufferElement>::KIND, PrimitiveKind::Long);
        assert_eq!(<f32 as BufferElement>::KIND, PrimitiveKind::Float);
        assert_eq!(<f64 as BufferElement>::KIND, PrimitiveKind::Double);
        assert_eq!(<char as BufferElement>::KIND, PrimitiveKind::Char);
    }

    #[test]
    fn roundtrip_every_type() {
        let ints = [1i32, -7, i32::MAX];
        let bytes = bytes_of(&ints);
        let mut back = [0i32; 3];
        assert_eq!(store_bytes(&bytes, &mut back), 3);
        assert_eq!(back, ints);

        let doubles = [3.5f64, -0.25, f64::MIN_POSITIVE];
        let bytes = bytes_of(&doubles);
        let mut back = [0f64; 3];
        store_bytes(&bytes, &mut back);
        assert_eq!(back, doubles);

        let bools = [true, false, true];
        let bytes = bytes_of(&bools);
        let mut back = [false; 3];
        store_bytes(&bytes, &mut back);
        assert_eq!(back, bools);
    }

    #[test]
    fn offsets_select_a_window() {
        let data = [10i32, 20, 30, 40, 50];
        let bytes = bytes_of(&data[1..4]);
        let mut back = [0i32; 5];
        store_bytes(&bytes, &mut back[2..]);
        assert_eq!(back, [0, 0, 20, 30, 40]);
    }

    #[test]
    fn chars_round_trip_like_java_chars() {
        let chars = ['H', 'i', '!'];
        let bytes = bytes_of(&chars);
        assert_eq!(bytes.len(), 6);
        let mut back = ['\0'; 3];
        store_bytes(&bytes, &mut back);
        assert_eq!(back, chars);
    }

    #[test]
    fn short_byte_input_writes_partial_elements() {
        let mut buf = [0i32; 4];
        let n = store_bytes(&bytes_of(&[7i32, 8]), &mut buf);
        assert_eq!(n, 2);
        assert_eq!(buf, [7, 8, 0, 0]);
        // A trailing partial element is not an element.
        assert_eq!(store_bytes(&[9, 0, 0, 0, 1, 1], &mut buf), 1);
        assert_eq!(buf, [9, 8, 0, 0]);
    }

    #[test]
    fn numeric_image_is_the_slice_and_bool_char_images_are_not() {
        let ints = [0x0403_0201i32, -1];
        let image = bytes_of(&ints);
        assert_eq!(&image[..4], &[1, 2, 3, 4], "little-endian on the wire");
        if cfg!(target_endian = "little") {
            assert!(matches!(image, Cow::Borrowed(_)));
            assert_eq!(image.as_ptr(), ints.as_ptr().cast::<u8>());
        }
        assert!(matches!(bytes_of(&['a', 'b']), Cow::Owned(_)));
        assert!(matches!(bytes_of(&[true]), Cow::Owned(_)));
    }

    #[test]
    fn invalid_wire_values_are_validated_on_the_way_in() {
        let mut flags = [false; 2];
        store_bytes(&[2, 0], &mut flags);
        assert_eq!(flags, [true, false]);
        let mut text = ['x'; 2];
        store_bytes(&[0x00, 0xD8, b'k', 0], &mut text);
        assert_eq!(text, ['\u{FFFD}', 'k']);
    }

    #[test]
    fn with_bytes_mut_writes_through_for_every_type() {
        fn check<T: BufferElement + PartialEq + std::fmt::Debug>(before: [T; 3], after: [T; 3]) {
            let mut buf = before;
            let wire = bytes_of(&after[1..2]).into_owned();
            let width = T::width();
            let wrote = with_bytes_mut(&mut buf, |image| {
                assert_eq!(image.len(), 3 * width);
                image[width..2 * width].copy_from_slice(&wire);
                wire.len()
            });
            assert_eq!(wrote, width);
            assert_eq!(buf, after);
        }
        check([1i16, 2, 3], [1, -9, 3]);
        check([1.5f64, 2.5, 3.5], [1.5, -0.0, 3.5]);
        check([true, true, true], [true, false, true]);
        check(['a', 'b', 'c'], ['a', 'ß', 'c']);
    }
}
