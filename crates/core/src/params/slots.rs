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
use std::iter::once;

use bytes::Bytes;
use kmp_mpi::op::ReduceOp;
use kmp_mpi::plain::{
    as_bytes, as_bytes_mut, bytes_from_slice, copy_bytes_into, copy_slice, extend_vec_from_bytes,
    reclaim_vec, vec_with_capacity, whole_elements, zeroed, SharedPayload,
};
use kmp_mpi::{MpiError, Plain, Result};

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
    fn into_packed(self, pack: impl FnOnce(&[T]) -> Result<Vec<T>>) -> Result<(Bytes, Self::Hold)>;

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
        pack: impl FnOnce(&[T]) -> Result<Vec<T>>,
    ) -> Result<(Bytes, SharedPayload<T>)> {
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
                pack: impl FnOnce(&[T]) -> Result<Vec<T>>,
            ) -> Result<(Bytes, ())> {
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
/// Every receive of the crate — blocking calls, `i*` futures and
/// persistent cycles alike — ends in the one method,
/// [`lower`](RecvBufSpec::lower): what the substrate delivered, and the
/// ownership of the slot, decide who allocates and what is copied; the
/// lifecycle does not. One rule: **storage is never prepared before the
/// bytes exist, and each delivered byte is written once.**
///
/// | the substrate delivers | `Absent` pays | provided storage pays |
/// |---|---|---|
/// | [`Delivered::Vec`]: a reduction's accumulator, a `scatter` block, a lone message taken back | nothing — the vector is the result | 1 copy |
/// | [`Delivered::Message`]: a lone message it could not take back, a sized `bcast`'s chunks | 1 allocation + 1 copy | 1 copy |
/// | [`Delivered::Blocks`], packed (`allgather`, `gather`, `alltoall`, every v-collective and its `i*` / `*_init` form) | 1 allocation + 1 copy | 1 copy |
/// | [`Delivered::Blocks`] at user displacements | 1 allocation + a **zero-fill** + 1 copy | a zero-fill of what grew + 1 copy |
/// | [`Delivered::Gap`]: `exscan` on rank 0 | 1 allocation + a **zero-fill** | a zero-fill of what grew |
///
/// Only a layout with gaps is zero-filled: a packed result is written
/// over the storage's prefix, or extended into storage that has to grow
/// — never zero-filled first and then overwritten.
///
/// Provided storage is sized under its resize policy only once the
/// bytes exist, i.e. after the exchange: an undersized `no_resize`
/// buffer fails on that rank alone and leaves no peer waiting. A result
/// shorter than the storage fills its prefix; the tail is left as it
/// was.
#[diagnostic::on_unimplemented(
    message = "invalid `recv_buf` parameter for element type `{T}`",
    note = "pass `recv_buf(&mut my_vec)`, `recv_buf(my_vec)`, or omit the parameter to receive by value"
)]
pub trait RecvBufSpec<T: Plain> {
    /// The output component this slot contributes (`Vec<T>` or `()`).
    type Out;

    /// Turns what the substrate delivered into the slot's output. The
    /// delivery is checked against `layout` first — the declared
    /// counts, whole `T`s in every block, displacements that fit — so a
    /// message a peer got wrong is an [`MpiError::Truncated`] or
    /// [`MpiError::InvalidLayout`] on this rank, never a panic, and
    /// leaves provided storage untouched. Each block is released as soon
    /// as it is copied: it may be a view of a sender's buffer that the
    /// sender is about to take back.
    fn lower<B: AsRef<[u8]>>(
        self,
        delivered: Delivered<T, B>,
        layout: Layout<'_>,
    ) -> Result<Self::Out>;
}

/// What the substrate delivered to a receive: the input of
/// [`RecvBufSpec::lower`].
pub enum Delivered<T, B = Bytes> {
    /// A vector the substrate built — a reduction's accumulator, a
    /// scattered block — or a lone message taken back without a copy.
    Vec(Vec<T>),
    /// One message, in pieces that need not split at element boundaries
    /// (a sized broadcast's chunks); only the whole is checked for whole
    /// `T`s.
    Message(Vec<B>),
    /// Blocks by source, in order; each must be a whole number of `T`s.
    Blocks(Vec<B>),
    /// Nothing, where this many elements go: `exscan` on rank 0, which
    /// MPI leaves undefined.
    Gap(usize),
}

/// What the caller declared about a receive, checked by
/// [`RecvBufSpec::lower`] against what was delivered.
#[derive(Default)]
pub struct Layout<'a> {
    /// The element count every block must hold.
    pub(crate) counts: Counts<'a>,
    /// Where block `j` of [`Delivered::Blocks`] lands; packed in block
    /// order when `None`.
    pub(crate) displs: Option<&'a [usize]>,
    /// Collects each block's element count, for callers that return
    /// them.
    pub(crate) counts_out: Option<&'a mut Vec<usize>>,
    /// Leaves the allocation of `Absent`'s packed [`Delivered::Blocks`]
    /// result out of `CopyStats`. The blocking calls count it, as the
    /// substrate's `*_vec` calls they are measured against do; a future
    /// does not, as a hand-written completion of the substrate's `i*`
    /// request does not.
    pub(crate) uncounted: bool,
}

/// Declared element counts of the delivered blocks (a message is one
/// block).
#[derive(Clone, Copy, Default)]
pub enum Counts<'a> {
    /// Nothing declared: the blocks say how long they are.
    #[default]
    Any,
    /// Every block holds this many elements (`recv_count`, the
    /// equal-block collectives).
    Each(usize),
    /// Block `j` holds `counts[j]` elements (`recv_counts`).
    Listed(&'a [usize]),
}

impl<T: Plain> Delivered<T> {
    /// A lone message: the vector behind it, taken back without a copy
    /// where this rank holds its only view, else the payload itself.
    pub(crate) fn lone(payload: Bytes) -> Self {
        reclaim_vec(payload)
            .map_or_else(|payload| Delivered::Message(vec![payload]), Delivered::Vec)
    }
}

impl<T: Plain, B: AsRef<[u8]>> Delivered<T, B> {
    /// Checks the delivery against `layout` and returns how many
    /// elements the result spans — the one place a receive is checked.
    fn extent(&self, layout: &mut Layout<'_>) -> Result<usize> {
        let len = |piece: &B| piece.as_ref().len();
        match self {
            Delivered::Vec(v) => layout.check::<T>(once(as_bytes(v).len())),
            Delivered::Message(pieces) => layout.check::<T>(once(pieces.iter().map(len).sum())),
            Delivered::Blocks(blocks) => layout.check::<T>(blocks.iter().map(len)),
            Delivered::Gap(n) => Ok(*n),
        }
    }

    /// Writes the checked delivery as the first `extent` elements of
    /// `buf`, which is given `len` elements. A layout with gaps grows
    /// `buf` zero-filled and copies block `j` to `displs[j]`, releasing
    /// each block once it is copied.
    fn write(self, buf: &mut Vec<T>, extent: usize, len: usize, displs: Option<&[usize]>) {
        match (self, displs) {
            (Delivered::Vec(v), _) => write_packed(buf, extent, len, [as_bytes(&v)]),
            (Delivered::Message(pieces), _) | (Delivered::Blocks(pieces), None) => {
                write_packed(buf, extent, len, pieces)
            }
            (Delivered::Blocks(blocks), Some(displs)) => {
                buf.resize_with(len, zeroed);
                for (block, &at) in blocks.into_iter().zip(displs) {
                    copy_bytes_into(block.as_ref(), &mut buf[at..]);
                }
            }
            (Delivered::Gap(_), _) => buf.resize_with(len, zeroed),
        }
    }
}

impl<'a> Layout<'a> {
    /// Every block — a message is one — declared to hold `n` elements,
    /// where `n` is given.
    pub(crate) fn each(n: Option<usize>) -> Self {
        Layout {
            counts: n.map_or(Counts::Any, Counts::Each),
            ..Layout::default()
        }
    }

    /// Checks blocks of `lens` bytes: one declared count and one
    /// displacement per block, each block its declared count (or else a
    /// whole number) of `T`s, and a layout whose extent does not
    /// overflow. Returns the extent.
    fn check<T: Plain>(&mut self, lens: impl ExactSizeIterator<Item = usize>) -> Result<usize> {
        let blocks = lens.len();
        let listed = match self.counts {
            Counts::Listed(counts) => counts.len(),
            _ => blocks,
        };
        let displs = self.displs.map_or(blocks, <[usize]>::len);
        if (listed, displs) != (blocks, blocks) {
            return Err(MpiError::InvalidLayout(format!(
                "{listed} receive counts and {displs} displacements for {blocks} delivered blocks"
            )));
        }
        let mut extent = 0usize;
        for (j, bytes) in lens.enumerate() {
            let n = counted::<T>(
                bytes,
                match self.counts {
                    Counts::Any => None,
                    Counts::Each(n) => Some(n),
                    Counts::Listed(counts) => Some(counts[j]),
                },
            )?;
            self.counts_out.iter_mut().for_each(|out| out.push(n));
            extent = match self.displs {
                None => extent + n,
                Some(displs) => extent.max(displs[j].checked_add(n).ok_or_else(|| {
                    MpiError::InvalidLayout(format!("receive block {} + {n} overflows", displs[j]))
                })?),
            };
        }
        Ok(extent)
    }
}

/// The elements in a delivered block of `bytes`: the declared count
/// `want`, which the block must match exactly, or — nothing declared —
/// however many whole `T`s it holds. Anything else is the sender's doing
/// and reports [`MpiError::Truncated`].
pub(crate) fn counted<T: Plain>(bytes: usize, want: Option<usize>) -> Result<usize> {
    let declared = want.map(|want| (want, want.saturating_mul(std::mem::size_of::<T>())));
    match declared {
        None => whole_elements::<T>(bytes),
        Some((want, declared)) if declared == bytes => Ok(want),
        Some((_, declared)) => Err(MpiError::Truncated {
            message_bytes: bytes,
            buffer_bytes: declared,
        }),
    }
}

impl<T: Plain> RecvBufSpec<T> for Absent {
    type Out = Vec<T>;

    fn lower<B: AsRef<[u8]>>(
        self,
        delivered: Delivered<T, B>,
        mut layout: Layout<'_>,
    ) -> Result<Vec<T>> {
        let extent = delivered.extent(&mut layout)?;
        // One exactly sized allocation, or none: the substrate's vector
        // is the result.
        let mut out = match delivered {
            Delivered::Vec(v) => return Ok(v),
            Delivered::Blocks(_) if layout.uncounted => Vec::with_capacity(extent),
            _ => vec_with_capacity(extent),
        };
        delivered.write(&mut out, extent, extent, layout.displs);
        Ok(out)
    }
}

impl<T: Plain, P: ResizePolicy> RecvBufSpec<T> for RecvBuf<&mut Vec<T>, P> {
    type Out = ();

    /// Checked, given the length policy `P` grants the result, then
    /// written.
    fn lower<B: AsRef<[u8]>>(
        self,
        delivered: Delivered<T, B>,
        mut layout: Layout<'_>,
    ) -> Result<()> {
        let extent = delivered.extent(&mut layout)?;
        let len = P::resized_len::<T>(self.buf.len(), extent)?;
        delivered.write(self.buf, extent, len, layout.displs);
        Ok(())
    }
}

impl<T: Plain, P: ResizePolicy> RecvBufSpec<T> for RecvBuf<Vec<T>, P> {
    type Out = Vec<T>;

    #[inline]
    fn lower<B: AsRef<[u8]>>(
        self,
        delivered: Delivered<T, B>,
        layout: Layout<'_>,
    ) -> Result<Vec<T>> {
        let RecvBuf { mut buf, _policy } = self;
        RecvBuf {
            buf: &mut buf,
            _policy,
        }
        .lower(delivered, layout)?;
        Ok(buf)
    }
}

/// Writes the pieces, back to back, as the first `extent` elements of
/// `buf`, which its policy sizes to `len`: over the prefix when `buf` is
/// long enough — the tail left as it was — else by extending the
/// emptied buffer. Nothing is zero-filled first.
fn write_packed<T: Plain, B: AsRef<[u8]>>(
    buf: &mut Vec<T>,
    extent: usize,
    len: usize,
    pieces: impl IntoIterator<Item = B>,
) {
    if buf.len() < extent {
        buf.clear();
        buf.reserve_exact(extent);
        return extend(buf, pieces);
    }
    let mut dst = as_bytes_mut(&mut buf[..extent]);
    for piece in pieces {
        let (head, rest) = std::mem::take(&mut dst).split_at_mut(piece.as_ref().len());
        copy_slice(piece.as_ref(), head);
        dst = rest;
    }
    buf.truncate(len);
}

/// Appends the pieces, back to back, to `buf` with one counted copy of
/// each byte. Pieces need not split at element boundaries (a sized
/// broadcast splits its payload at byte offsets): an element that
/// straddles two is gathered whole before it is appended.
fn extend<T: Plain, B: AsRef<[u8]>>(buf: &mut Vec<T>, pieces: impl IntoIterator<Item = B>) {
    let elem = std::mem::size_of::<T>().max(1);
    let mut split = Vec::new(); // the leading bytes of an element a piece boundary cut
    for piece in pieces {
        let bytes = piece.as_ref();
        let (head, bytes) = bytes.split_at(((elem - split.len()) % elem).min(bytes.len()));
        split.extend_from_slice(head);
        if split.len() == elem {
            extend_vec_from_bytes(buf, &split);
            split.clear();
        }
        let (whole, tail) = bytes.split_at(bytes.len() - bytes.len() % elem);
        extend_vec_from_bytes(buf, whole);
        split.extend_from_slice(tail);
    }
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
    fn apply<R>(self, work: impl FnOnce(&mut Vec<T>) -> Result<R>) -> Result<(R, Self::Out)>;
}

impl<T: Plain> SendRecvBufSpec<T> for SendRecvBuf<&mut Vec<T>> {
    type Out = ();

    #[inline]
    fn apply<R>(self, work: impl FnOnce(&mut Vec<T>) -> Result<R>) -> Result<(R, ())> {
        let r = work(self.0)?;
        Ok((r, ()))
    }
}

impl<T: Plain> SendRecvBufSpec<T> for SendRecvBuf<Vec<T>> {
    type Out = Vec<T>;

    #[inline]
    fn apply<R>(mut self, work: impl FnOnce(&mut Vec<T>) -> Result<R>) -> Result<(R, Vec<T>)> {
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

    /// Blocks as a rank delivers them: `u16` 1, 2 from rank 0, nothing
    /// from rank 1, 3 from rank 2.
    fn blocks() -> Delivered<u16, Vec<u8>> {
        Delivered::Blocks(vec![vec![1u8, 0, 2, 0], vec![], vec![3u8, 0]])
    }

    fn at(displs: &[usize]) -> Layout<'_> {
        Layout {
            displs: Some(displs),
            ..Layout::default()
        }
    }

    #[test]
    fn absent_recv_allocates() {
        // A vector the substrate built is the result, not a copy of it.
        let v = vec![7u16, 8];
        let ptr = v.as_ptr();
        let out = Absent
            .lower(Delivered::<u16>::Vec(v), Layout::default())
            .unwrap();
        assert_eq!(out.as_ptr(), ptr);
        // A message it could not take back: one exactly sized copy.
        let out = Absent
            .lower(
                Delivered::<u16, _>::Message(vec![[5u8, 0]]),
                Layout::default(),
            )
            .unwrap();
        assert_eq!((out.as_slice(), out.capacity()), (&[5][..], 1));
        // A gap: zeroed library storage.
        let out = Absent
            .lower(Delivered::<u16>::Gap(3), Layout::default())
            .unwrap();
        assert_eq!(out, vec![0; 3]);
    }

    #[test]
    fn borrowed_recv_writes_in_place() {
        // A shorter result fills the prefix; the tail is left as it was.
        let mut storage = vec![9u16; 5];
        recv_buf(&mut storage)
            .lower(blocks(), Layout::default())
            .unwrap();
        assert_eq!(storage, vec![1, 2, 3, 9, 9]);
        // A gap leaves provided storage as it is.
        recv_buf(&mut storage)
            .lower(Delivered::<u16>::Gap(2), Layout::default())
            .unwrap();
        assert_eq!(storage, vec![1, 2, 3, 9, 9]);
    }

    #[test]
    fn owned_recv_moves_through() {
        let out = recv_buf(vec![0u32; 1])
            .resize_to_fit()
            .lower(Delivered::<u32>::Vec(vec![4, 5]), Layout::default())
            .unwrap();
        assert_eq!(out, vec![4, 5]);
        // `resize_to_fit` cuts oversized storage to the result.
        let out = recv_buf(vec![9u16; 5])
            .resize_to_fit()
            .lower(blocks(), Layout::default())
            .unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn assemble_places_blocks_packed_or_at_user_displacements() {
        // Library-allocated, no displacements: packed, exactly sized.
        let out: Vec<u16> = Absent.lower(blocks(), Layout::default()).unwrap();
        assert_eq!((out.as_slice(), out.capacity()), (&[1, 2, 3][..], 3));
        // User displacements (reordered, with a gap) size the storage;
        // the gap in library storage is zeroed.
        let out = Absent.lower(blocks(), at(&[2, 0, 0])).unwrap();
        assert_eq!(out, vec![3, 0, 1, 2]);
        // Provided storage: the resize policy decides. Under `grow_only`
        // what no block covers keeps its content, what grew is zeroed.
        let mut storage = vec![9u16; 2];
        recv_buf(&mut storage)
            .grow_only()
            .lower(blocks(), at(&[3, 0, 0]))
            .unwrap();
        assert_eq!(storage, vec![3, 9, 0, 1, 2]);
        // An undersized `no_resize` buffer is `Truncated`, and untouched.
        let mut small = vec![9u16; 2];
        let err = recv_buf(&mut small).lower(blocks(), Layout::default());
        assert!(matches!(err, Err(MpiError::Truncated { .. })), "{err:?}");
        assert_eq!(small, vec![9, 9]);
        // Displacements that do not match the blocks are `InvalidLayout`.
        let err = Absent.lower(blocks(), at(&[0]));
        assert!(matches!(err, Err(MpiError::InvalidLayout(_))), "{err:?}");
        let err = Absent.lower(blocks(), at(&[0, 0, usize::MAX]));
        assert!(matches!(err, Err(MpiError::InvalidLayout(_))), "{err:?}");
    }

    #[test]
    fn grow_only_and_declared_counts() {
        // grow_only: grows to the result, keeps an oversized tail.
        let mut grow = vec![9u16; 1];
        recv_buf(&mut grow)
            .grow_only()
            .lower(blocks(), Layout::default())
            .unwrap();
        assert_eq!(grow, vec![1, 2, 3]);
        let mut grow = vec![9u16; 4];
        recv_buf(&mut grow)
            .grow_only()
            .lower(blocks(), Layout::default())
            .unwrap();
        assert_eq!(grow, vec![1, 2, 3, 9]);
        // Declared counts: checked per block, listed or equal.
        let counts = |counts| Layout {
            counts,
            ..Layout::default()
        };
        let listed = Absent.lower(blocks(), counts(Counts::Listed(&[2, 0, 1])));
        assert_eq!(listed, Ok(vec![1, 2, 3]));
        let err = Absent.lower(blocks(), counts(Counts::Listed(&[2, 1, 1])));
        assert!(matches!(err, Err(MpiError::Truncated { .. })), "{err:?}");
        let err = Absent.lower(blocks(), counts(Counts::Listed(&[2, 0])));
        assert!(matches!(err, Err(MpiError::InvalidLayout(_))), "{err:?}");
        let err = Absent.lower(blocks(), counts(Counts::Each(2)));
        assert!(matches!(err, Err(MpiError::Truncated { .. })), "{err:?}");
        // A block that is not whole `T`s is `Truncated`, not a panic.
        let odd = Delivered::<u16, Vec<u8>>::Blocks(vec![vec![1, 0, 2]]);
        let err = Absent.lower(odd, Layout::default());
        let want = MpiError::Truncated {
            message_bytes: 3,
            buffer_bytes: 2,
        };
        assert_eq!(err, Err(want));
    }

    /// A `resize_to_fit` buffer that has to grow gets exactly what
    /// library storage gets, and is never zero-filled first: it is
    /// emptied, reserved once to the exact result — where growth through
    /// a fill would have doubled its capacity — and extended with one
    /// copy of each delivered byte. A message split at byte offsets (a
    /// sized broadcast's chunks) lands the same way.
    #[test]
    fn grown_resize_to_fit_buffer_is_extended_not_filled() {
        let want: Vec<u16> = Absent.lower(blocks(), Layout::default()).unwrap();
        let mut storage = Vec::with_capacity(2);
        storage.extend([9u16, 9]);
        let before = kmp_mpi::metrics::snapshot();
        recv_buf(&mut storage)
            .resize_to_fit()
            .lower(blocks(), Layout::default())
            .unwrap();
        assert_eq!(kmp_mpi::metrics::snapshot().since(&before).bytes_copied, 6);
        assert_eq!((&storage, storage.capacity()), (&want, 3));
        let chunks = vec![vec![1u8, 0, 2], vec![0, 3], vec![0]];
        let mut storage = vec![9u16; 1];
        recv_buf(&mut storage)
            .resize_to_fit()
            .lower(Delivered::Message(chunks), Layout::each(Some(3)))
            .unwrap();
        assert_eq!(storage, want);
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
