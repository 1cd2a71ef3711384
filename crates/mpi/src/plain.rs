//! Plain-old-data marker trait and byte-view helpers.
//!
//! The substrate transfers messages as raw bytes, exactly like an MPI
//! implementation on a homogeneous system. A type may be transferred this
//! way when it is *trivially copyable* in the sense of §III-D1 of the
//! paper: any byte pattern of the right length is a valid value, and the
//! type contains no padding (so no uninitialized bytes are read).
//!
//! [`Plain`] is the substrate-level equivalent of KaMPIng's implicit
//! "static type" construction for trivially copyable types: primitives,
//! fixed-size arrays of plain types, and user structs declared through the
//! [`plain_struct!`](crate::plain_struct) macro (which verifies the
//! no-padding requirement with a compile-time assertion).

use std::any::TypeId;
use std::borrow::Cow;
use std::sync::Arc;

use bytes::{ByteOwner, Bytes};

use crate::metrics;

/// Marker for types that can be sent as raw bytes.
///
/// # Safety
///
/// Implementors must guarantee that
/// - every bit pattern of `size_of::<Self>()` bytes is a valid value, and
/// - the type has no padding bytes (so reading it as bytes never touches
///   uninitialized memory).
pub unsafe trait Plain: Copy + Send + Sync + 'static {}

macro_rules! impl_plain_prims {
    ($($t:ty),* $(,)?) => {
        $(unsafe impl Plain for $t {})*
    };
}

impl_plain_prims!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

unsafe impl<T: Plain, const N: usize> Plain for [T; N] {}

/// Declares a user struct as a plain (trivially copyable) type.
///
/// Mirrors KaMPIng's `struct_type<T>` reflection-based type construction
/// (§III-D1): the macro verifies at compile time that the struct has no
/// padding (the sum of its field sizes equals its size) and then marks it
/// [`Plain`], so it is transferred as a contiguous block of bytes — the
/// paper's recommended default (§III-D4).
///
/// ```
/// use kmp_mpi::plain_struct;
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// struct Particle {
///     id: u64,
///     x: f64,
///     y: f64,
/// }
/// plain_struct!(Particle { id: u64, x: f64, y: f64 });
/// ```
#[macro_export]
macro_rules! plain_struct {
    ($name:ident { $($field:ident : $ftype:ty),* $(,)? }) => {
        const _: () = {
            // No-padding check: a padded struct would expose uninitialized
            // bytes when viewed as a byte slice.
            assert!(
                ::core::mem::size_of::<$name>() == 0 $(+ ::core::mem::size_of::<$ftype>())*,
                concat!("plain_struct!(", stringify!($name), "): struct has padding; \
                         reorder fields or add explicit filler fields")
            );
        };
        unsafe impl $crate::plain::Plain for $name {}
    };
}

/// Views a slice of plain values as its underlying bytes.
#[inline]
pub fn as_bytes<T: Plain>(s: &[T]) -> &[u8] {
    // SAFETY: `T: Plain` guarantees no padding, so all bytes are initialized.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Views a slice of plain values as its underlying bytes, mutably —
/// for writing payload chunks whose boundaries need not align with the
/// element size (e.g. the scatter+allgather broadcast).
#[inline]
pub fn as_bytes_mut<T: Plain>(s: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(s);
    // SAFETY: `T: Plain` has no padding and accepts every byte pattern,
    // so byte-level writes cannot create an invalid value.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<u8>(), len) }
}

/// Copies a byte buffer into a freshly allocated vector of plain values.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
#[inline]
pub fn bytes_to_vec<T: Plain>(bytes: &[u8]) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return Vec::new();
    }
    assert!(
        bytes.len().is_multiple_of(size),
        "byte length {} is not a multiple of element size {size}",
        bytes.len()
    );
    let n = bytes.len() / size;
    metrics::record_alloc();
    metrics::record_copy(bytes.len());
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: the destination has capacity for `n` elements and `T: Plain`
    // accepts arbitrary byte patterns.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    out
}

/// Copies a byte buffer into the prefix of an existing slice of plain
/// values, returning the number of elements written.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of the element size or if
/// the destination is too small.
#[inline]
pub fn copy_bytes_into<T: Plain>(bytes: &[u8], dst: &mut [T]) -> usize {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return 0;
    }
    assert!(
        bytes.len().is_multiple_of(size),
        "byte length {} is not a multiple of element size {size}",
        bytes.len()
    );
    let n = bytes.len() / size;
    assert!(
        n <= dst.len(),
        "receive buffer too small: need {n} elements, have {}",
        dst.len()
    );
    metrics::record_copy(bytes.len());
    // SAFETY: bounds checked above; `T: Plain` accepts arbitrary bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    n
}

/// The all-zero value of a plain type (valid because `Plain` types accept
/// every bit pattern).
#[inline]
pub fn zeroed<T: Plain>() -> T {
    // SAFETY: `T: Plain` guarantees all-zero bytes form a valid value.
    unsafe { std::mem::zeroed() }
}

/// Allocates a zero-initialized vector of plain values.
#[inline]
pub fn zeroed_vec<T: Plain>(n: usize) -> Vec<T> {
    metrics::record_alloc();
    let mut v = Vec::<T>::with_capacity(n);
    // SAFETY: capacity reserved above; the zero pattern is valid for
    // `T: Plain`, and `write_bytes` initializes every byte.
    unsafe {
        std::ptr::write_bytes(v.as_mut_ptr(), 0, n);
        v.set_len(n);
    }
    v
}

/// Copies between typed slices, charging the copy counters. Use instead
/// of `copy_from_slice` for payload-sized copies in the datapath.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn copy_slice<T: Plain>(src: &[T], dst: &mut [T]) {
    metrics::record_copy(std::mem::size_of_val(src));
    dst.copy_from_slice(src);
}

/// Appends the typed content of a byte buffer to a vector with a single
/// copy (no intermediate vector, no zero-fill), returning the number of
/// elements appended.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
#[inline]
pub fn extend_vec_from_bytes<T: Plain>(dst: &mut Vec<T>, bytes: &[u8]) -> usize {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return 0;
    }
    assert!(
        bytes.len().is_multiple_of(size),
        "byte length {} is not a multiple of element size {size}",
        bytes.len()
    );
    let n = bytes.len() / size;
    metrics::record_copy(bytes.len());
    dst.reserve(n);
    let old_len = dst.len();
    // SAFETY: capacity reserved above; `T: Plain` accepts arbitrary bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            dst.as_mut_ptr().add(old_len).cast::<u8>(),
            bytes.len(),
        );
        dst.set_len(old_len + n);
    }
    n
}

// ---------------------------------------------------------------------------
// Zero-copy Bytes conversions
// ---------------------------------------------------------------------------

/// Copies a typed slice into a fresh [`Bytes`] payload (the borrowed send
/// path: one counted copy) — a vector [`reclaim_vec`] can take back.
#[inline]
pub fn bytes_from_slice<T: Plain>(s: &[T]) -> Bytes {
    metrics::record_alloc();
    metrics::record_copy(std::mem::size_of_val(s));
    bytes_from_vec(s.to_vec())
}

/// A contribution on its way to the wire: an owned vector is adopted
/// (no copy), a borrowed slice is serialized (one counted copy).
#[inline]
pub fn bytes_from_cow<T: Plain>(data: Cow<'_, [T]>) -> Bytes {
    match data {
        Cow::Owned(v) => bytes_from_vec(v),
        Cow::Borrowed(s) => bytes_from_slice(s),
    }
}

/// A `Vec<T>` adopted as [`ByteOwner`] backing storage for a [`Bytes`].
struct PlainVec<T: Plain>(Vec<T>);

impl<T: Plain> ByteOwner for PlainVec<T> {
    fn as_bytes(&self) -> &[u8] {
        as_bytes(&self.0)
    }
}

/// Moves an owned vector into a [`Bytes`] payload **without copying**:
/// the allocation is adopted, not re-serialized. `Vec<u8>` payloads stay
/// recoverable on the receive side via [`bytes_into_vec`].
pub fn bytes_from_vec<T: Plain>(v: Vec<T>) -> Bytes {
    if TypeId::of::<T>() == TypeId::of::<u8>() {
        // SAFETY: T is u8 (checked above), so this is a no-op transmute
        // of the vector's type parameter.
        let v = unsafe {
            let mut v = std::mem::ManuallyDrop::new(v);
            Vec::from_raw_parts(v.as_mut_ptr().cast::<u8>(), v.len(), v.capacity())
        };
        Bytes::from(v)
    } else {
        Bytes::from_owner(Arc::new(PlainVec(v)))
    }
}

/// Converts a received payload into a typed vector with at most one copy —
/// and **zero** copies when [`reclaim_vec`] can take the vector back:
/// the payload is the unique whole view of a vector adopted as `Vec<T>`,
/// or of any byte buffer for `T = u8` (the common case for a delivered
/// point-to-point message).
///
/// # Panics
///
/// Panics if the byte length is not a multiple of the element size.
pub fn bytes_into_vec<T: Plain>(b: Bytes) -> Vec<T> {
    reclaim_vec(b).unwrap_or_else(|b| bytes_to_vec(&b))
}

/// Takes back the vector behind a payload **without copying**: succeeds
/// when the payload is the one whole view of a vector adopted by
/// [`bytes_from_vec`] (or a unique byte buffer, for `u8`), else hands
/// the payload back. Deterministic where nobody else can hold a view —
/// a moved-in message, or an allreduce result.
pub fn reclaim_vec<T: Plain>(b: Bytes) -> Result<Vec<T>, Bytes> {
    let b = match b.try_into_owner::<PlainVec<T>>() {
        Ok(v) => return Ok(v.0),
        Err(b) if TypeId::of::<T>() == TypeId::of::<u8>() => b,
        Err(b) => return Err(b),
    };
    let v = b.try_into_vec()?;
    // SAFETY: T is u8 (checked above), so this is a no-op transmute of
    // the vector's type parameter.
    Ok(unsafe {
        let mut v = std::mem::ManuallyDrop::new(v);
        Vec::from_raw_parts(v.as_mut_ptr().cast::<T>(), v.len(), v.capacity())
    })
}

/// An owned send container moved into the transport (§III-E): the
/// transport holds [`Bytes`] views aliasing the same allocation — nothing
/// was copied to send it — so the container comes home when its last
/// reader is done with it, not at a moment the sender can name. This
/// handle is what a completed non-blocking operation hands back in its
/// place:
///
/// - **reading** it (`Deref<Target = [T]>`) is free at any time: the
///   views are read-only, so the content is what the caller moved in;
/// - **[`take`](SharedPayload::take)** returns the container itself:
///   the original allocation once every view is gone, one counted copy
///   (one allocation) while a peer still holds one;
/// - **dropping** it costs a reference count.
pub struct SharedPayload<T: Plain>(SharedRepr<T>);

enum SharedRepr<T: Plain> {
    /// The vector is aliased by in-flight `Bytes` views.
    Shared(Arc<PlainVec<T>>),
    /// The vector never entered the transport (e.g. it was repacked
    /// first); hand it back directly.
    Ready(Vec<T>),
}

impl<T: Plain> SharedPayload<T> {
    /// Moves `v` into the transport: returns the reclaim handle and the
    /// zero-copy [`Bytes`] payload aliasing it.
    pub fn new(v: Vec<T>) -> (Self, Bytes) {
        let arc = Arc::new(PlainVec(v));
        let payload = Bytes::from_owner(Arc::clone(&arc) as Arc<dyn ByteOwner>);
        (SharedPayload(SharedRepr::Shared(arc)), payload)
    }

    /// Wraps a vector that is handed back as-is (no transport aliasing).
    pub fn ready(v: Vec<T>) -> Self {
        SharedPayload(SharedRepr::Ready(v))
    }

    /// Reclaims the container. Zero-copy when the transport has dropped
    /// every alias; one counted copy if a peer still holds a view of the
    /// payload. Never waits for that peer: the substrate progresses an
    /// operation only inside its owner's `test`/`wait`, so a handback
    /// that parked until the last view is gone could deadlock a legal
    /// program (`ibcast; wait; send` against `ibcast; recv; wait`).
    pub fn take(self) -> Vec<T> {
        match self.0 {
            SharedRepr::Ready(v) => v,
            SharedRepr::Shared(arc) => match Arc::try_unwrap(arc) {
                Ok(pv) => pv.0,
                Err(arc) => {
                    metrics::record_alloc();
                    metrics::record_copy(std::mem::size_of_val(arc.0.as_slice()));
                    arc.0.clone()
                }
            },
        }
    }
}

impl<T: Plain> std::ops::Deref for SharedPayload<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            SharedRepr::Shared(arc) => &arc.0,
            SharedRepr::Ready(v) => v,
        }
    }
}

/// Allocates an empty vector with room for `n` plain values, charging
/// the allocation counter — the `extend`-filled sibling of
/// [`zeroed_vec`] for results whose every byte is about to be written.
#[inline]
pub fn vec_with_capacity<T: Plain>(n: usize) -> Vec<T> {
    metrics::record_alloc();
    Vec::with_capacity(n)
}

/// Number of whole `T` elements in a delivered message of `bytes` bytes.
/// A message that does not divide into elements was sent as another type
/// (or cut short): that is the peer's doing, so it is reported as
/// [`MpiError::Truncated`](crate::MpiError::Truncated) instead of the
/// panic the copy helpers above reserve for internal misuse.
#[inline]
pub fn whole_elements<T: Plain>(bytes: usize) -> crate::Result<usize> {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        return Ok(0);
    }
    if !bytes.is_multiple_of(size) {
        return Err(crate::MpiError::Truncated {
            message_bytes: bytes,
            buffer_bytes: bytes / size * size,
        });
    }
    Ok(bytes / size)
}

/// The plain values of a byte buffer, read in place — a delivered
/// payload folded without copying it out. Unaligned reads; trailing
/// bytes short of a whole value are not read.
#[inline]
pub(crate) fn read_elements<T: Plain>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes
        .chunks_exact(std::mem::size_of::<T>().max(1))
        .map(|c| {
            // SAFETY: `c` holds `size_of::<T>()` bytes (a zero-sized `T`
            // reads none), and `T: Plain` permits unaligned reads of
            // arbitrary byte patterns.
            unsafe { c.as_ptr().cast::<T>().read_unaligned() }
        })
}

/// Number of `T` elements encoded by a byte count.
#[inline]
pub fn element_count<T: Plain>(bytes: usize) -> usize {
    let size = std::mem::size_of::<T>();
    if size == 0 {
        0
    } else {
        debug_assert!(bytes.is_multiple_of(size));
        bytes / size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64() {
        let v = vec![1u64, 2, 3, u64::MAX];
        let b = as_bytes(&v);
        assert_eq!(b.len(), 32);
        let back: Vec<u64> = bytes_to_vec(b);
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_f64() {
        let v = vec![1.5f64, -0.0, f64::INFINITY, f64::MIN_POSITIVE];
        let back: Vec<f64> = bytes_to_vec(as_bytes(&v));
        assert_eq!(back.len(), v.len());
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn copy_into_prefix() {
        let v = vec![7u32, 8, 9];
        let mut dst = [0u32; 5];
        let n = copy_bytes_into(as_bytes(&v), &mut dst);
        assert_eq!(n, 3);
        assert_eq!(&dst[..3], &[7, 8, 9]);
        assert_eq!(&dst[3..], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let b = [0u8; 7];
        let _: Vec<u32> = bytes_to_vec(&b);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn too_small_dst_panics() {
        let v = vec![1u8, 2, 3, 4];
        let mut dst = [0u16; 1];
        copy_bytes_into(&v, &mut dst);
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Edge {
        src: u64,
        dst: u64,
        weight: f64,
    }
    plain_struct!(Edge {
        src: u64,
        dst: u64,
        weight: f64
    });

    #[test]
    fn plain_struct_roundtrip() {
        let v = vec![
            Edge {
                src: 1,
                dst: 2,
                weight: 0.5,
            },
            Edge {
                src: 3,
                dst: 4,
                weight: -1.25,
            },
        ];
        let back: Vec<Edge> = bytes_to_vec(as_bytes(&v));
        assert_eq!(back, v);
    }

    #[test]
    fn arrays_are_plain() {
        let v = vec![[1u32, 2, 3], [4, 5, 6]];
        let back: Vec<[u32; 3]> = bytes_to_vec(as_bytes(&v));
        assert_eq!(back, v);
    }

    #[test]
    fn element_count_zero_sized_logic() {
        assert_eq!(element_count::<u64>(24), 3);
        assert_eq!(element_count::<u8>(7), 7);
    }

    #[test]
    fn bytes_from_vec_adopts_u8_without_copy() {
        let v = vec![3u8; 64];
        let ptr = v.as_ptr();
        let b = bytes_from_vec(v);
        assert_eq!(b.as_ptr(), ptr, "u8 vectors are adopted in place");
        let back: Vec<u8> = bytes_into_vec(b);
        assert_eq!(
            back.as_ptr(),
            ptr,
            "unique byte payloads come back in place"
        );
        assert_eq!(back, vec![3u8; 64]);
    }

    #[test]
    fn bytes_from_vec_adopts_typed_without_copy() {
        let v = vec![7u64, 8, 9];
        let ptr = v.as_ptr();
        let b = bytes_from_vec(v);
        assert_eq!(b.as_ptr().cast::<u64>(), ptr, "typed vectors are adopted");
        assert_eq!(b.len(), 24);
        let back: Vec<u64> = bytes_into_vec(b);
        assert_eq!(back, vec![7, 8, 9]);
    }

    #[test]
    fn bytes_into_vec_copies_shared_payloads() {
        let b = bytes_from_vec(vec![1u8, 2, 3]);
        let keep = b.clone();
        let back: Vec<u8> = bytes_into_vec(b);
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(&*keep, &[1, 2, 3], "the shared view stays valid");
    }

    #[test]
    fn reclaim_takes_back_a_unique_whole_vector_only() {
        let v = vec![1u64, 2, 3];
        let ptr = v.as_ptr();
        let b = bytes_from_vec(v);
        let shared = b.clone();
        let b = reclaim_vec::<u64>(b).expect_err("shared");
        drop(shared);
        assert!(reclaim_vec::<u64>(b.slice(8..)).is_err(), "sliced");
        let b = reclaim_vec::<u32>(b).expect_err("another element type");
        let back = reclaim_vec::<u64>(b).unwrap();
        assert_eq!((back.as_ptr(), &back[..]), (ptr, &[1, 2, 3][..]));
        let bytes = vec![7u8; 4];
        let ptr = bytes.as_ptr();
        let back = reclaim_vec::<u8>(bytes_from_vec(bytes)).unwrap();
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(reclaim_vec::<u64>(bytes_from_slice(&[5u64])).unwrap(), [5]);
    }

    #[test]
    fn shared_payload_take_is_zero_copy_when_unique() {
        let v = vec![5u32; 8];
        let ptr = v.as_ptr();
        let (hold, payload) = SharedPayload::new(v);
        assert_eq!(payload.len(), 32);
        drop(payload); // transport done with it
        let back = hold.take();
        assert_eq!(back.as_ptr(), ptr, "unique payloads are reclaimed in place");
        assert_eq!(back, vec![5u32; 8]);
    }

    #[test]
    fn shared_payload_take_falls_back_to_copy() {
        let (hold, payload) = SharedPayload::new(vec![9u16; 4]);
        let back = hold.take(); // payload still alive: copy
        assert_eq!(back, vec![9u16; 4]);
        assert_eq!(&*payload, as_bytes(&[9u16; 4]));
    }

    #[test]
    fn shared_payload_ready_hands_back_directly() {
        let v = vec![1u8, 2];
        let ptr = v.as_ptr();
        let back = SharedPayload::ready(v).take();
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn extend_from_bytes_appends_typed() {
        let mut v = vec![1u32];
        let n = extend_vec_from_bytes(&mut v, as_bytes(&[2u32, 3]));
        assert_eq!(n, 2);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn extend_from_bytes_rejects_misaligned() {
        let mut v: Vec<u32> = Vec::new();
        extend_vec_from_bytes(&mut v, &[0u8; 7]);
    }

    #[test]
    fn counted_slice_copy() {
        let src = [1u64, 2];
        let mut dst = [0u64; 2];
        copy_slice(&src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn zeroed_values_and_vectors() {
        assert_eq!(zeroed::<u64>(), 0);
        assert_eq!(zeroed::<f64>(), 0.0);
        let v = zeroed_vec::<u32>(5);
        assert_eq!(v, vec![0; 5]);
        let e = zeroed_vec::<Edge>(2);
        assert_eq!(
            e[0],
            Edge {
                src: 0,
                dst: 0,
                weight: 0.0
            }
        );
        assert_eq!(e.len(), 2);
        assert!(zeroed_vec::<u8>(0).is_empty());
    }
}
