//! Slot-resolution traits: how each `ArgSet` slot participates in a call.
//!
//! A collective's blanket implementation constrains each slot with one of
//! these traits. Because each trait has exactly one implementation per
//! slot shape, the compiler monomorphizes precisely the code path the
//! user's parameter combination needs — the paper's `constexpr if`
//! mechanism (§III-H), expressed through trait dispatch. Missing required
//! parameters surface as unsatisfied trait bounds with
//! `#[diagnostic::on_unimplemented]` messages (§III-G's human-readable
//! compile errors).

use std::borrow::Cow;

use bytes::Bytes;
use kmp_mpi::collectives::{concat_blocks, displacements_from_counts, place_blocks};
use kmp_mpi::op::ReduceOp;
use kmp_mpi::plain::{as_bytes, bytes_from_slice, bytes_into_vec, whole_elements, SharedPayload};
use kmp_mpi::{MpiError, Plain};

use super::containers::{AsSlice, ResizePolicy};
use super::{
    Absent, OpParam, RecvBuf, RecvCounts, RecvCountsOut, RecvDispls, RecvDisplsOut, SendBuf,
    SendCounts, SendCountsOut, SendDispls, SendDisplsOut, SendRecvBuf,
};

// ---------------------------------------------------------------------------
// Send data
// ---------------------------------------------------------------------------

/// A slot that provides send data (satisfied by `send_buf(..)`).
#[diagnostic::on_unimplemented(
    message = "missing required parameter `send_buf` (or the slot holds data of the wrong element type)",
    label = "this operation needs `send_buf(..)` with elements of type `{T}`",
    note = "pass e.g. `send_buf(&my_vec)`; for in-place operations use `send_recv_buf(..)` instead"
)]
pub trait ProvidesSendData<T> {
    /// View of the data to send.
    fn send_slice(&self) -> &[T];
}

impl<T: Plain, B: AsSlice<T>> ProvidesSendData<T> for SendBuf<B> {
    #[inline]
    fn send_slice(&self) -> &[T] {
        self.0.as_slice()
    }
}

// ---------------------------------------------------------------------------
// Handing send data over: to the transport, to a reduction
// ---------------------------------------------------------------------------

/// Hands a send slot over to the operation. One rule: **a buffer the
/// caller gave away is never copied, and its return costs nothing
/// unless the caller takes it.**
///
/// - To the transport ([`into_payload`](SendToTransport::into_payload)):
///   an owned `Vec<T>` *is* the wire payload — the transport aliases its
///   allocation, zero copies at call time — and the stored handle is the
///   [`SharedPayload`] a completed non-blocking operation hands back
///   (read it for free, `take()` it to get the vector). Borrowed buffers
///   are serialized with one counted copy and hold `()`.
/// - To a reduction ([`lend`](SendToTransport::lend)): an owned `Vec<T>`
///   is consumed and becomes the accumulator; borrowed buffers are
///   copied where the algorithm needs one.
pub trait SendToTransport<T: Plain>: ProvidesSendData<T> {
    /// What the in-flight operation keeps and its completion returns:
    /// [`SharedPayload<T>`] for an owned `Vec<T>`, `()` otherwise.
    type Hold;

    /// Splits into the wire payload and the handle.
    fn into_payload(self) -> (Bytes, Self::Hold);

    /// Like [`SendToTransport::into_payload`], but the wire payload is a
    /// repacked copy produced by `pack` (used when displacements reorder
    /// the buffer); the original container is still handed back.
    fn into_packed(
        self,
        pack: impl FnOnce(&[T]) -> kmp_mpi::Result<Vec<T>>,
    ) -> kmp_mpi::Result<(Bytes, Self::Hold)>;

    /// Passes the data on as a reduction's contribution: an owned
    /// `Vec<T>` moves, every other shape lends its slice.
    fn lend<R>(self, to: impl FnOnce(Cow<'_, [T]>) -> R) -> R;
}

impl<T: Plain> SendToTransport<T> for SendBuf<Vec<T>> {
    type Hold = SharedPayload<T>;

    #[inline]
    fn into_payload(self) -> (Bytes, SharedPayload<T>) {
        let (hold, payload) = SharedPayload::new(self.0);
        (payload, hold)
    }

    #[inline]
    fn into_packed(
        self,
        pack: impl FnOnce(&[T]) -> kmp_mpi::Result<Vec<T>>,
    ) -> kmp_mpi::Result<(Bytes, SharedPayload<T>)> {
        let packed = pack(&self.0)?;
        Ok((
            kmp_mpi::plain::bytes_from_vec(packed),
            SharedPayload::ready(self.0),
        ))
    }

    #[inline]
    fn lend<R>(self, to: impl FnOnce(Cow<'_, [T]>) -> R) -> R {
        to(Cow::Owned(self.0))
    }
}

macro_rules! borrowed_send_to_transport {
    ($([$($gen:tt)*] $container:ty),+ $(,)?) => {$(
        impl<$($gen)* T: Plain> SendToTransport<T> for SendBuf<$container>
        where
            SendBuf<$container>: ProvidesSendData<T>,
        {
            type Hold = ();

            #[inline]
            fn into_payload(self) -> (Bytes, ()) {
                (bytes_from_slice(self.send_slice()), ())
            }

            #[inline]
            fn into_packed(
                self,
                pack: impl FnOnce(&[T]) -> kmp_mpi::Result<Vec<T>>,
            ) -> kmp_mpi::Result<(Bytes, ())> {
                Ok((kmp_mpi::plain::bytes_from_vec(pack(self.send_slice())?), ()))
            }

            #[inline]
            fn lend<R>(self, to: impl FnOnce(Cow<'_, [T]>) -> R) -> R {
                to(Cow::Borrowed(self.send_slice()))
            }
        }
    )+};
}

borrowed_send_to_transport!(
    ['a, B: AsSlice<T>,] &'a B,
    ['a,] &'a [T],
    [const N: usize,] [T; N],
);

// ---------------------------------------------------------------------------
// Receive storage
// ---------------------------------------------------------------------------

/// A slot that can serve as receive storage.
///
/// Shapes: `Absent` (the library allocates a fresh vector and returns it
/// by value — the implicit receive-buffer out-parameter of §III-B),
/// `recv_buf(&mut v)` (written in place, nothing returned) and
/// `recv_buf(v)` (moved in, reused, returned by value).
///
/// One rule picks the lowering: **storage is never prepared before the
/// bytes exist, and the result is never built twice.** What the
/// substrate hands over decides the method:
///
/// | the substrate delivers | method | `Absent` pays | provided storage pays |
/// |---|---|---|---|
/// | one payload (`recv`) | [`adopt`] | at most 1 copy | prepare + 1 copy |
/// | blocks by source (`allgather`, `gather`, `alltoall`, every v-collective) | [`assemble`] | 1 allocation + 1 copy | prepare + 1 copy |
/// | an owned vector (the accumulator of `allreduce` / `reduce` / `scan` / `exscan`, a `scatter` block) | [`accept`] | nothing — the vector is the result | prepare + 1 copy |
/// | nothing: it writes through a `&mut [T]` | [`apply`] | 1 allocation + a **zero-fill** | prepare |
///
/// [`apply`]'s zero-fill — a pass over the whole result that `CopyStats`
/// does not see — is the price of handing out initialised memory. It is
/// right for layouts with gaps (user displacements, `exscan` on rank 0)
/// and for substrate routines that fold in place, and wrong wherever one
/// of the other three fits: every byte would be written twice.
///
/// Provided storage is prepared under its resize policy only once the
/// bytes exist, i.e. after the exchange: an undersized `no_resize`
/// buffer fails on that rank alone and leaves no peer waiting. A result
/// shorter than the storage fills its prefix; the tail is left as it
/// was.
///
/// [`adopt`]: RecvBufSpec::adopt
/// [`assemble`]: RecvBufSpec::assemble
/// [`accept`]: RecvBufSpec::accept
/// [`apply`]: RecvBufSpec::apply
#[diagnostic::on_unimplemented(
    message = "invalid `recv_buf` parameter for element type `{T}`",
    note = "pass `recv_buf(&mut my_vec)`, `recv_buf(my_vec)`, or omit the parameter to receive by value"
)]
pub trait RecvBufSpec<T: Plain> {
    /// The output component this slot contributes (`Vec<T>` or `()`).
    type Out;

    /// Prepares storage of (at least) `needed` elements, lets `fill`
    /// write into it, and produces the output component.
    fn apply<R>(
        self,
        needed: usize,
        fill: impl FnOnce(&mut [T]) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, Self::Out)>;

    /// Adopts a delivered payload directly into the slot's storage: a
    /// single copy into prepared buffers — and **zero** copies when the
    /// slot allocates its own `Vec<u8>`-shaped result and the payload is
    /// the unique view of its allocation. A payload that is not whole
    /// `T`s reports [`MpiError::Truncated`].
    fn adopt(self, payload: Bytes) -> kmp_mpi::Result<Self::Out>;

    /// Accepts a result the substrate built as an owned vector (a
    /// reduction's accumulator, a scattered block). `Absent` returns it
    /// as is — no copy, no second allocation; provided storage is
    /// prepared for `result.len()` elements under its resize policy and
    /// receives one copy into its prefix.
    fn accept(self, result: Vec<T>) -> kmp_mpi::Result<Self::Out>;

    /// Assembles the delivered blocks of a self-sizing exchange into the
    /// slot's storage, each byte copied once and each block released as
    /// soon as it is copied. `counts` are the
    /// blocks' element counts
    /// ([`block_counts`](kmp_mpi::collectives::block_counts)); block `j`
    /// lands at `displs[j]`, or packed in block order when the user gave
    /// no displacements. Resize policies apply exactly as in
    /// [`RecvBufSpec::apply`].
    fn assemble<B: AsRef<[u8]>>(
        self,
        blocks: Vec<B>,
        counts: &[usize],
        displs: Option<&[usize]>,
    ) -> kmp_mpi::Result<Self::Out>
    where
        Self: Sized,
    {
        match displs {
            Some(displs) => place_via_apply(self, blocks, counts, displs),
            None => place_via_apply(self, blocks, counts, &displacements_from_counts(counts)),
        }
    }
}

/// Elements a receive buffer must hold for `counts` placed at `displs`
/// (one past the furthest block end), validating the pair on the way.
fn layout_extent(counts: &[usize], displs: &[usize]) -> kmp_mpi::Result<usize> {
    if counts.len() != displs.len() {
        return Err(MpiError::InvalidLayout(format!(
            "{} receive displacements for {} receive counts",
            displs.len(),
            counts.len()
        )));
    }
    let mut extent = 0usize;
    for (&d, &c) in displs.iter().zip(counts) {
        let end = d
            .checked_add(c)
            .ok_or_else(|| MpiError::InvalidLayout(format!("receive block {d} + {c} overflows")))?;
        extent = extent.max(end);
    }
    Ok(extent)
}

/// Verify-and-place through [`RecvBufSpec::apply`]: storage is prepared
/// for the layout's extent under the slot's policy, then every block is
/// copied to its displacement.
fn place_via_apply<T: Plain, S: RecvBufSpec<T>, B: AsRef<[u8]>>(
    spec: S,
    blocks: Vec<B>,
    counts: &[usize],
    displs: &[usize],
) -> kmp_mpi::Result<S::Out> {
    let extent = layout_extent(counts, displs)?;
    let fill = |storage: &mut [T]| place_blocks(blocks, storage, counts, displs);
    spec.apply(extent, fill).map(|((), out)| out)
}

impl<T: Plain> RecvBufSpec<T> for Absent {
    type Out = Vec<T>;

    #[inline]
    fn apply<R>(
        self,
        needed: usize,
        fill: impl FnOnce(&mut [T]) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, Vec<T>)> {
        let mut v = kmp_mpi::plain::zeroed_vec::<T>(needed);
        let r = fill(&mut v)?;
        Ok((r, v))
    }

    #[inline]
    fn adopt(self, payload: Bytes) -> kmp_mpi::Result<Vec<T>> {
        whole_elements::<T>(payload.len())?;
        Ok(bytes_into_vec(payload))
    }

    #[inline]
    fn accept(self, result: Vec<T>) -> kmp_mpi::Result<Vec<T>> {
        Ok(result)
    }

    #[inline]
    fn assemble<B: AsRef<[u8]>>(
        self,
        blocks: Vec<B>,
        counts: &[usize],
        displs: Option<&[usize]>,
    ) -> kmp_mpi::Result<Vec<T>> {
        match displs {
            // Packed result: exactly sized, extended block by block —
            // no zero-fill of bytes that are about to be overwritten.
            None => Ok(concat_blocks(blocks, counts)),
            Some(displs) => place_via_apply(self, blocks, counts, displs),
        }
    }
}

impl<T: Plain, P: ResizePolicy> RecvBufSpec<T> for RecvBuf<&mut Vec<T>, P> {
    type Out = ();

    #[inline]
    fn apply<R>(
        self,
        needed: usize,
        fill: impl FnOnce(&mut [T]) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, ())> {
        P::prepare(self.buf, needed)?;
        let r = fill(self.buf)?;
        Ok((r, ()))
    }

    #[inline]
    fn adopt(self, payload: Bytes) -> kmp_mpi::Result<()> {
        adopt_into::<T, P>(self.buf, &payload)
    }

    #[inline]
    fn accept(self, result: Vec<T>) -> kmp_mpi::Result<()> {
        adopt_into::<T, P>(self.buf, as_bytes(&result))
    }
}

impl<T: Plain, P: ResizePolicy> RecvBufSpec<T> for RecvBuf<Vec<T>, P> {
    type Out = Vec<T>;

    #[inline]
    fn apply<R>(
        mut self,
        needed: usize,
        fill: impl FnOnce(&mut [T]) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, Vec<T>)> {
        P::prepare(&mut self.buf, needed)?;
        let r = fill(&mut self.buf)?;
        Ok((r, self.buf))
    }

    #[inline]
    fn adopt(mut self, payload: Bytes) -> kmp_mpi::Result<Vec<T>> {
        adopt_into::<T, P>(&mut self.buf, &payload)?;
        Ok(self.buf)
    }

    #[inline]
    fn accept(mut self, result: Vec<T>) -> kmp_mpi::Result<Vec<T>> {
        adopt_into::<T, P>(&mut self.buf, as_bytes(&result))?;
        Ok(self.buf)
    }
}

/// Prepares `buf` under policy `P` for the payload's element count and
/// copies the payload into its prefix (one copy).
fn adopt_into<T: Plain, P: ResizePolicy>(buf: &mut Vec<T>, payload: &[u8]) -> kmp_mpi::Result<()> {
    let n = whole_elements::<T>(payload.len())?;
    P::prepare(buf, n)?;
    kmp_mpi::plain::copy_bytes_into(payload, &mut buf[..n]);
    Ok(())
}

/// Like [`RecvBufSpec`], for the in-place `send_recv_buf` slot.
#[diagnostic::on_unimplemented(
    message = "missing required parameter `send_recv_buf` for this in-place operation",
    note = "pass `send_recv_buf(&mut my_vec)` or `send_recv_buf(my_vec)`"
)]
pub trait SendRecvBufSpec<T: Plain> {
    /// The output component (`Vec<T>` for owned, `()` for borrowed).
    type Out;

    /// Grants mutable access to the in-place buffer and produces the
    /// output component.
    fn apply<R>(
        self,
        work: impl FnOnce(&mut Vec<T>) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, Self::Out)>;
}

impl<T: Plain> SendRecvBufSpec<T> for SendRecvBuf<&mut Vec<T>> {
    type Out = ();

    #[inline]
    fn apply<R>(
        self,
        work: impl FnOnce(&mut Vec<T>) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, ())> {
        let r = work(self.0)?;
        Ok((r, ()))
    }
}

impl<T: Plain> SendRecvBufSpec<T> for SendRecvBuf<Vec<T>> {
    type Out = Vec<T>;

    #[inline]
    fn apply<R>(
        mut self,
        work: impl FnOnce(&mut Vec<T>) -> kmp_mpi::Result<R>,
    ) -> kmp_mpi::Result<(R, Vec<T>)> {
        let r = work(&mut self.0)?;
        Ok((r, self.0))
    }
}

// ---------------------------------------------------------------------------
// Counts / displacements
// ---------------------------------------------------------------------------

/// A counts-or-displacements slot: provided, absent (compute default), or
/// requested as an out-parameter (compute default *and* return it).
///
/// `PROVIDED` and `REQUESTED` are compile-time constants, so the
/// default-computation branch (`if !PROVIDED { communicate; }`) is
/// resolved during monomorphization — no runtime dispatch (§III-A).
pub trait CountsSlot {
    /// True if the user supplied the values.
    const PROVIDED: bool;
    /// True if the user asked for the computed values back.
    const REQUESTED: bool;
    /// The output component (`Vec<usize>` when requested, else `()`).
    type Out;

    /// The provided values, if any.
    fn provided(&self) -> Option<&[usize]>;

    /// Consumes the slot, turning the computed default (present iff
    /// `!PROVIDED`) into the output component.
    fn finish(self, computed: Option<Vec<usize>>) -> Self::Out;
}

impl CountsSlot for Absent {
    const PROVIDED: bool = false;
    const REQUESTED: bool = false;
    type Out = ();

    #[inline]
    fn provided(&self) -> Option<&[usize]> {
        None
    }

    #[inline]
    fn finish(self, _computed: Option<Vec<usize>>) {}
}

macro_rules! counts_slot_impls {
    ($in_ty:ident, $out_ty:ident) => {
        impl<B: AsSlice<usize>> CountsSlot for $in_ty<B> {
            const PROVIDED: bool = true;
            const REQUESTED: bool = false;
            type Out = ();

            #[inline]
            fn provided(&self) -> Option<&[usize]> {
                Some(self.0.as_slice())
            }

            #[inline]
            fn finish(self, _computed: Option<Vec<usize>>) -> () {}
        }

        impl CountsSlot for $out_ty {
            const PROVIDED: bool = false;
            const REQUESTED: bool = true;
            type Out = Vec<usize>;

            #[inline]
            fn provided(&self) -> Option<&[usize]> {
                None
            }

            #[inline]
            fn finish(self, computed: Option<Vec<usize>>) -> Vec<usize> {
                computed.expect("out-parameter must have been computed")
            }
        }
    };
}

counts_slot_impls!(SendCounts, SendCountsOut);
counts_slot_impls!(RecvCounts, RecvCountsOut);
counts_slot_impls!(SendDispls, SendDisplsOut);
counts_slot_impls!(RecvDispls, RecvDisplsOut);

/// A counts slot that *must* be user-provided because no default can be
/// computed — e.g. `send_counts` of an `alltoallv` (only the application
/// knows how its send buffer partitions across destinations).
#[diagnostic::on_unimplemented(
    message = "missing required parameter `send_counts`",
    note = "`alltoallv` cannot infer how the send buffer splits across \
            destinations; pass `send_counts(&counts)`"
)]
pub trait ProvidedCounts: CountsSlot {}

impl<B: AsSlice<usize>> ProvidedCounts for SendCounts<B> {}
impl<B: AsSlice<usize>> ProvidedCounts for RecvCounts<B> {}
impl<B: AsSlice<usize>> ProvidedCounts for SendDispls<B> {}
impl<B: AsSlice<usize>> ProvidedCounts for RecvDispls<B> {}

// ---------------------------------------------------------------------------
// Reduction operation
// ---------------------------------------------------------------------------

/// A slot that provides the reduction operation (satisfied by `op(..)`).
#[diagnostic::on_unimplemented(
    message = "missing required parameter `op` for this reduction",
    label = "this reduction needs `op(..)` over elements of type `{T}`",
    note = "pass e.g. `op(kamping::ops::Sum)` or `op(|a, b| ...)` via `kamping::params::op`"
)]
pub trait ProvidesOp<T> {
    /// The reduction operation type.
    type Op: ReduceOp<T>;

    /// Consumes the slot, yielding the operation.
    fn into_op(self) -> Self::Op;
}

impl<T, O: ReduceOp<T>> ProvidesOp<T> for OpParam<O> {
    type Op = O;

    #[inline]
    fn into_op(self) -> O {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{recv_buf, recv_counts, recv_counts_out, send_buf, send_recv_buf};

    #[test]
    fn send_data_views() {
        let v = vec![1u32, 2, 3];
        let p = send_buf(&v);
        assert_eq!(p.send_slice(), &[1, 2, 3]);
        let p = send_buf(v.clone());
        assert_eq!(ProvidesSendData::<u32>::send_slice(&p), &[1, 2, 3]);
    }

    #[test]
    fn lend_moves_owned_and_borrows_the_rest() {
        let v = vec![1u8, 2];
        let ptr = v.as_ptr();
        assert!(send_buf(&v).lend(|c| matches!(c, Cow::Borrowed(s) if s.as_ptr() == ptr)));
        assert!(send_buf([1u8, 2]).lend(|c| matches!(c, Cow::Borrowed(&[1, 2]))));
        assert!(send_buf(v).lend(|c| matches!(c, Cow::Owned(o) if o.as_ptr() == ptr)));
    }

    #[test]
    fn absent_recv_allocates() {
        let (n, out): (usize, Vec<u16>) = RecvBufSpec::<u16>::apply(Absent, 4, |s| {
            s[1] = 9;
            Ok(s.len())
        })
        .unwrap();
        assert_eq!(n, 4);
        assert_eq!(out, vec![0, 9, 0, 0]);
    }

    #[test]
    fn borrowed_recv_writes_in_place() {
        let mut storage = vec![0u8; 3];
        let p = recv_buf(&mut storage);
        let ((), ()) = p
            .apply(3, |s| {
                s[0] = 7;
                Ok(())
            })
            .unwrap();
        assert_eq!(storage, vec![7, 0, 0]);
    }

    #[test]
    fn owned_recv_moves_through() {
        let p = recv_buf(vec![0u32; 1]).resize_to_fit();
        let ((), out) = p
            .apply(2, |s| {
                s[1] = 5;
                Ok(())
            })
            .unwrap();
        assert_eq!(out, vec![0, 5]);
    }

    #[test]
    fn assemble_places_blocks_packed_or_at_user_displacements() {
        let blocks = || vec![vec![1u8, 0, 2, 0], vec![], vec![3u8, 0]];
        let counts = [2usize, 0, 1];
        // Library-allocated, no displacements: packed, exactly sized.
        let out: Vec<u16> = Absent.assemble(blocks(), &counts, None).unwrap();
        assert_eq!((out.as_slice(), out.capacity()), (&[1, 2, 3][..], 3));
        // User displacements (reordered, with a gap) size the storage.
        let out: Vec<u16> = Absent
            .assemble(blocks(), &counts, Some(&[2, 0, 0]))
            .unwrap();
        assert_eq!(out, vec![3, 0, 1, 2]);
        // Provided storage: the resize policy decides, as in `apply`.
        let mut storage = vec![9u16; 5];
        recv_buf(&mut storage)
            .grow_only()
            .assemble(blocks(), &counts, Some(&[3, 0, 0]))
            .unwrap();
        assert_eq!(storage, vec![3, 9, 9, 1, 2]);
        let mut small = vec![9u16; 2];
        let err = recv_buf(&mut small).assemble(blocks(), &counts, None);
        assert!(matches!(err, Err(MpiError::Truncated { .. })));
        let err = RecvBufSpec::<u16>::assemble(Absent, blocks(), &counts, Some(&[0]));
        assert!(matches!(err, Err(MpiError::InvalidLayout(_))));
    }

    #[test]
    fn send_recv_buf_shapes() {
        let mut v = vec![1u64, 2];
        let p = send_recv_buf(&mut v);
        let ((), ()) = p
            .apply(|b| {
                b.push(3);
                Ok(())
            })
            .unwrap();
        assert_eq!(v, vec![1, 2, 3]);

        let p = send_recv_buf(vec![9u64]);
        let ((), out) = p
            .apply(|b| {
                b[0] += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(out, vec![10]);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // asserting the compile-time slot flags is the point
    fn counts_slot_constants() {
        assert!(!<Absent as CountsSlot>::PROVIDED);
        assert!(!<Absent as CountsSlot>::REQUESTED);
        assert!(<RecvCounts<&Vec<usize>> as CountsSlot>::PROVIDED);
        assert!(<RecvCountsOut as CountsSlot>::REQUESTED);
    }

    #[test]
    fn counts_slot_values() {
        let c = vec![1usize, 2];
        let p = recv_counts(&c);
        assert_eq!(p.provided(), Some(&c[..]));
        p.finish(None);

        let p = recv_counts_out();
        assert_eq!(p.provided(), None);
        assert_eq!(p.finish(Some(vec![3, 4])), vec![3, 4]);
    }

    #[test]
    fn op_slot_applies() {
        let p = crate::params::op(kmp_mpi::op::Sum);
        let o = ProvidesOp::<u32>::into_op(p);
        assert_eq!(o.apply(&2, &3), 5);
    }
}
