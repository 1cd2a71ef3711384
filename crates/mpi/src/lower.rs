//! The receive lowering: what a receive delivered, checked against what
//! its caller declared, and written into typed storage.
//!
//! Every receive that turns delivered [`Bytes`] into typed storage ends
//! here — the substrate's `*_into` and `*_vec` forms, the broadcast's
//! join of van de Geijn's chunks, and the binding's `RecvBufSpec::lower`
//! in every lifecycle. The caller decides who owns the storage:
//! [`Delivered::into_vec`] allocates the result (or hands the
//! substrate's own vector back), [`Delivered::into_slice`] fills a
//! caller's slice, and [`Delivered::extent`] + [`Delivered::write`] let a
//! caller size a vector under its own policy in between. One rule for
//! all of them: **storage is never prepared before the bytes exist, and
//! each delivered byte is written once** — a packed result is written
//! over the storage's prefix or extended into storage that has to grow,
//! and only a layout with gaps is zero-filled.

use std::iter::once;

use bytes::Bytes;

use crate::error::{MpiError, Result};
use crate::plain::{
    as_bytes, as_bytes_mut, copy_bytes_into, copy_slice, extend_vec_from_bytes, reclaim_vec,
    vec_with_capacity, whole_elements, zeroed,
};
use crate::request::Completion;
use crate::Plain;

/// What the substrate delivered to a receive.
pub enum Delivered<T, B = Bytes> {
    /// A vector the substrate built — a reduction's accumulator, a
    /// scattered block — or a lone message taken back without a copy.
    Vec(Vec<T>),
    /// One message, whole, that could not be taken back.
    Message(B),
    /// One message in pieces that need not split at element boundaries
    /// (van de Geijn's chunks); only the whole is checked for whole
    /// `T`s.
    Pieces(Vec<B>),
    /// Blocks by source, in order; each must be a whole number of `T`s.
    Blocks(Vec<B>),
    /// Nothing, where this many elements go: `exscan` on rank 0, which
    /// MPI leaves undefined.
    Gap(usize),
}

/// What the caller declared about a receive, checked against what was
/// delivered.
#[derive(Default)]
pub struct Layout<'a> {
    /// The element count every block must hold.
    pub counts: Counts<'a>,
    /// Where block `j` of [`Delivered::Blocks`] lands; packed in block
    /// order when `None`.
    pub displs: Option<&'a [usize]>,
    /// Collects each block's element count, for callers that return
    /// them.
    pub counts_out: Option<&'a mut Vec<usize>>,
    /// Leaves the allocation of [`Delivered::into_vec`]'s packed
    /// [`Delivered::Blocks`] result out of `CopyStats`. The blocking
    /// calls count it; the binding's futures do not, as a hand-written
    /// completion of an `i*` request does not.
    pub uncounted: bool,
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

impl<'a> Layout<'a> {
    /// Every block — a message is one — declared to hold `n` elements,
    /// where `n` is given.
    #[inline]
    pub fn each(n: Option<usize>) -> Self {
        Layout {
            counts: n.map_or(Counts::Any, Counts::Each),
            ..Layout::default()
        }
    }

    /// Block `j` declared to hold `counts[j]` elements at `displs[j]`.
    #[inline]
    pub fn placed(counts: &'a [usize], displs: &'a [usize]) -> Self {
        Layout {
            counts: Counts::Listed(counts),
            displs: Some(displs),
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
pub fn counted<T: Plain>(bytes: usize, want: Option<usize>) -> Result<usize> {
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

impl<T: Plain> Delivered<T> {
    /// A lone message: the vector behind it, taken back without a copy
    /// where this rank holds its only view, else the payload itself.
    pub fn lone(payload: Bytes) -> Self {
        reclaim_vec(payload).map_or_else(Delivered::Message, Delivered::Vec)
    }

    /// A broadcast's completion: one message, whole or in van de Geijn's
    /// pieces, that every rank of the tree holds a view of, so it is
    /// copied, never taken back. Without a payload, an empty vector.
    pub fn broadcast(done: Completion) -> Self {
        match done {
            Completion::Message(payload, _) => Delivered::Message(payload),
            Completion::Blocks(pieces) => Delivered::Pieces(pieces),
            Completion::Done => Delivered::Vec(Vec::new()),
        }
    }
}

impl<T: Plain, B: AsRef<[u8]>> Delivered<T, B> {
    /// Checks the delivery against `layout` and returns how many
    /// elements the result spans — the one place a receive is checked. A
    /// message a peer got wrong is an [`MpiError::Truncated`] or
    /// [`MpiError::InvalidLayout`] here, before any storage is touched.
    pub fn extent(&self, layout: &mut Layout<'_>) -> Result<usize> {
        let len = |piece: &B| piece.as_ref().len();
        match self {
            Delivered::Vec(v) => layout.check::<T>(once(as_bytes(v).len())),
            Delivered::Message(message) => layout.check::<T>(once(len(message))),
            Delivered::Pieces(pieces) => layout.check::<T>(once(pieces.iter().map(len).sum())),
            Delivered::Blocks(blocks) => layout.check::<T>(blocks.iter().map(len)),
            Delivered::Gap(n) => Ok(*n),
        }
    }

    /// Writes the delivery, checked to span `extent` elements, as the
    /// first `extent` elements of `buf`, which is given `len >= extent`
    /// elements: over the prefix when `buf` is long enough — the tail
    /// left as it was — else by extending the emptied buffer. A layout
    /// with gaps grows `buf` zero-filled first.
    pub fn write(self, buf: &mut Vec<T>, extent: usize, len: usize, displs: Option<&[usize]>) {
        let gaps = matches!(self, Delivered::Gap(_))
            || (displs.is_some() && matches!(self, Delivered::Blocks(_)));
        if gaps {
            buf.resize_with(len, zeroed);
            self.place(buf, extent, displs);
        } else if buf.len() < extent {
            buf.clear();
            buf.reserve_exact(extent);
            self.extend(buf);
        } else {
            self.place(buf, extent, None);
            buf.truncate(len);
        }
    }

    /// The delivery as a vector: the substrate's own where it built one,
    /// else one exactly sized allocation written once.
    pub fn into_vec(self, mut layout: Layout<'_>) -> Result<Vec<T>> {
        let extent = self.extent(&mut layout)?;
        let mut out = match self {
            Delivered::Vec(v) => return Ok(v),
            Delivered::Blocks(_) if layout.uncounted => Vec::with_capacity(extent),
            _ => vec_with_capacity(extent),
        };
        self.write(&mut out, extent, extent, layout.displs);
        Ok(out)
    }

    /// The delivery written into `dst`, which must hold its extent (else
    /// [`MpiError::Truncated`], `dst` untouched); what lies past the
    /// extent, or between displaced blocks, is left as it was.
    pub fn into_slice(self, dst: &mut [T], mut layout: Layout<'_>) -> Result<()> {
        let extent = self.extent(&mut layout)?;
        if extent > dst.len() {
            return Err(MpiError::Truncated {
                message_bytes: extent.saturating_mul(std::mem::size_of::<T>()),
                buffer_bytes: std::mem::size_of_val(dst),
            });
        }
        self.place(dst, extent, layout.displs);
        Ok(())
    }

    /// Copies the delivery into `dst`: block `j` to `displs[j]`, or
    /// everything back to back over `dst[..extent]`. Each block is
    /// released as soon as it is copied — it may be a view of a sender's
    /// buffer that the sender is about to take back.
    fn place(self, dst: &mut [T], extent: usize, displs: Option<&[usize]>) {
        match (self, displs) {
            (Delivered::Blocks(blocks), Some(displs)) => {
                for (block, &at) in blocks.into_iter().zip(displs) {
                    copy_bytes_into(block.as_ref(), &mut dst[at..]);
                }
            }
            (packed, _) => {
                let mut rest = as_bytes_mut(&mut dst[..extent]);
                packed.for_each_piece(|piece| {
                    let (head, tail) = std::mem::take(&mut rest).split_at_mut(piece.len());
                    copy_slice(piece, head);
                    rest = tail;
                });
            }
        }
    }

    /// Appends the delivery, back to back, to `buf` with one counted copy
    /// of each byte. Pieces need not split at element boundaries: an
    /// element that straddles two is gathered whole before it is
    /// appended.
    fn extend(self, buf: &mut Vec<T>) {
        let elem = std::mem::size_of::<T>().max(1);
        let mut split = Vec::new(); // the leading bytes of an element a piece boundary cut
        self.for_each_piece(|bytes| {
            let (head, bytes) = bytes.split_at(((elem - split.len()) % elem).min(bytes.len()));
            split.extend_from_slice(head);
            if split.len() == elem {
                extend_vec_from_bytes(buf, &split);
                split.clear();
            }
            let (whole, tail) = bytes.split_at(bytes.len() - bytes.len() % elem);
            extend_vec_from_bytes(buf, whole);
            split.extend_from_slice(tail);
        });
    }

    /// Hands `f` the delivery's bytes in order, one piece at a time,
    /// releasing each piece once `f` returns.
    fn for_each_piece(self, mut f: impl FnMut(&[u8])) {
        match self {
            Delivered::Vec(v) => f(as_bytes(&v)),
            Delivered::Message(message) => f(message.as_ref()),
            Delivered::Pieces(pieces) | Delivered::Blocks(pieces) => {
                pieces.into_iter().for_each(|piece| f(piece.as_ref()))
            }
            Delivered::Gap(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn blocks() -> Vec<Vec<u8>> {
        vec![vec![1u8, 0, 2, 0], vec![], vec![3u8, 0]]
    }

    fn truncated(message_bytes: usize, buffer_bytes: usize) -> MpiError {
        MpiError::Truncated {
            message_bytes,
            buffer_bytes,
        }
    }

    #[test]
    fn blocks_are_counted_joined_and_placed() {
        let mut counts = Vec::new();
        let layout = Layout {
            counts_out: Some(&mut counts),
            ..Layout::default()
        };
        let joined = Delivered::<u16, _>::Blocks(blocks()).into_vec(layout);
        assert_eq!((joined, counts), (Ok(vec![1, 2, 3]), vec![2, 0, 1]));
        let mut recv = [9u16; 5];
        let placed = Layout::placed(&[2, 0, 1], &[3, 0, 0]);
        Delivered::Blocks(blocks())
            .into_slice(&mut recv, placed)
            .unwrap();
        assert_eq!(recv, [3, 9, 9, 1, 2]);
        Delivered::Blocks(blocks())
            .into_slice(&mut recv, Layout::default())
            .unwrap();
        assert_eq!(
            recv,
            [1, 2, 3, 1, 2],
            "packed over the prefix, the tail kept"
        );
        // A declared count the block does not match, a block that is not
        // whole elements and a slice short of the extent are typed errors
        // that leave the storage untouched.
        let wrong = Layout::placed(&[2, 0, 2], &[0, 0, 2]);
        let err = Delivered::Blocks(blocks()).into_slice(&mut recv, wrong);
        assert_eq!(err, Err(truncated(2, 4)));
        let odd = Delivered::<u32, _>::Blocks(vec![vec![0u8; 6]]).into_vec(Layout::default());
        assert_eq!(odd, Err(truncated(6, 4)));
        let err = Delivered::Blocks(blocks()).into_slice(&mut recv[..2], Layout::default());
        assert_eq!(err, Err(truncated(6, 4)));
        let err = Delivered::Blocks(blocks()).into_slice(&mut recv, Layout::each(Some(2)));
        assert_eq!(err, Err(truncated(0, 4)));
        assert_eq!(recv, [1, 2, 3, 1, 2]);
    }

    /// Pieces cut anywhere — inside an element, at its edges, empty —
    /// join to the same elements in every storage shape, one counted
    /// copy of each byte; only the whole must be whole elements.
    #[test]
    fn pieces_cut_mid_element_join_in_every_storage_shape() {
        let want = [0x0102_0304_0506_0708u64, 9, u64::MAX];
        let bytes = as_bytes(&want);
        for (a, b) in [(1, 9), (8, 16), (3, 20), (0, 24), (12, 12)] {
            let pieces =
                || Delivered::<u64, _>::Pieces(vec![&bytes[..a], &bytes[a..b], &bytes[b..]]);
            let before = metrics::snapshot();
            assert_eq!(pieces().into_vec(Layout::default()).unwrap(), want);
            let mut slice = [7u64; 4];
            pieces()
                .into_slice(&mut slice, Layout::each(Some(3)))
                .unwrap();
            assert_eq!(slice, [want[0], want[1], want[2], 7], "cut at {a}, {b}");
            let mut grown = vec![7u64];
            pieces().write(&mut grown, 3, 3, None);
            assert_eq!((&grown[..], grown.capacity()), (&want[..], 3));
            assert_eq!(metrics::snapshot().since(&before).bytes_copied, 3 * 24);
        }
        let cut = Delivered::<u64, _>::Pieces(vec![vec![0u8; 5], vec![0u8; 6]]);
        assert_eq!(cut.into_vec(Layout::default()), Err(truncated(11, 8)));
    }

    #[test]
    fn a_lone_message_is_taken_back_and_a_broadcast_is_copied() {
        let status = crate::Status {
            source: 0,
            tag: 0,
            bytes: 8,
        };
        let payload = crate::plain::bytes_from_vec(vec![4u32, 5]);
        let ptr = payload.as_ptr();
        let taken = Delivered::<u32>::lone(payload).into_vec(Layout::default());
        let taken = taken.unwrap();
        assert_eq!(
            (taken.as_ptr().cast::<u8>(), &taken[..]),
            (ptr, &[4, 5][..])
        );
        let shared = crate::plain::bytes_from_vec(vec![6u32]);
        let message = Delivered::<u32>::lone(shared.clone());
        assert!(
            matches!(message, Delivered::Message(_)),
            "a shared payload stays a message"
        );
        assert_eq!(message.into_vec(Layout::each(Some(1))), Ok(vec![6]));
        // A broadcast is copied even where this rank holds the last view.
        let payload = crate::plain::bytes_from_vec(vec![4u32, 5]);
        let ptr = payload.as_ptr();
        let done = Completion::Message(payload, status);
        let copied = Delivered::<u32>::broadcast(done).into_vec(Layout::default());
        let copied = copied.unwrap();
        assert_eq!(&copied[..], [4, 5]);
        assert_ne!(copied.as_ptr().cast::<u8>(), ptr);
        let none = Delivered::<u32>::broadcast(Completion::Done);
        assert_eq!(none.into_vec(Layout::default()), Ok(Vec::new()));
    }
}
