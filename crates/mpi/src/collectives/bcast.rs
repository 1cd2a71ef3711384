//! Broadcast: the binomial tree's shape, and the blocking entry points
//! of the one broadcast plan (`Comm::bcast_plan`, whose engine is
//! [`BcastEngine`]).
//!
//! A **sized** call (`bcast_into`, `bcast_parts` with a size, the
//! binding's `bcast` with `recv_count`) gives every rank the payload
//! size, so every rank selects the row and runs it as it is. A
//! **self-sizing** call — `bcast_bytes`, `bcast_vec`, `bcast_parts`
//! without a size, every `ibcast` and `bcast_init`, the binding's
//! `bcast` without `recv_count` — lets the root select, and the others
//! learn its row from the wire: the tree's messages, byte for byte, or
//! van de Geijn's behind one tree pass of an 8-byte size announcement.

use bytes::Bytes;

use super::algos::bcast::BcastEngine;
use super::algos::table::{Site, Tuned};
use super::algos::BcastAlgo;
use super::nonblocking::{drive, drive_message, RoundEngine};
use super::send_internal;
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::lower::{Delivered, Layout};
use crate::plain::{bytes_from_slice, bytes_from_vec, copy_bytes_into};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

/// Broadcasts the root's `payload` down the binomial tree, selecting
/// nothing: the substrate's own broadcasts (context ids, the cost
/// model's snapshot at its sync point) run on it.
pub(crate) fn bcast_bytes_internal(
    comm: &Comm,
    payload: Option<Bytes>,
    root: Rank,
) -> Result<Bytes> {
    comm.check_rank(root)?;
    let tree = BcastEngine::tree(comm, comm.next_internal_tag(), root, None);
    drive_message(
        comm,
        &mut RoundEngine::new(tree),
        payload.unwrap_or_default(),
    )
}

/// This rank's position in the binomial tree rooted at `root`.
fn bcast_vrank(comm: &Comm, root: Rank) -> usize {
    (comm.rank() + comm.size() - root) % comm.size()
}

/// A non-root rank's parent in the binomial tree rooted at `root`: its
/// virtual rank with the lowest set bit cleared.
pub(crate) fn bcast_parent(comm: &Comm, root: Rank) -> Rank {
    let vrank = bcast_vrank(comm, root);
    debug_assert!(vrank != 0, "the root has no bcast parent");
    ((vrank & (vrank - 1)) + root) % comm.size()
}

/// This rank's children in the binomial tree rooted at `root`,
/// **largest subtree first** (`v + 2^k` by descending `k`) — the one
/// definition of the shape every tree collective walks. A fan-out that
/// posts its sends in this order has the deepest subtree working while
/// the sender still pays startups for the shallow ones: the last rank
/// is reached after `ceil(log2 p)` message times, not `~log2(p)^2 / 2`
/// startups. A fan-in (the reduce tree) receives the list reversed,
/// leaves first.
pub(crate) fn bcast_children(comm: &Comm, root: Rank) -> impl Iterator<Item = Rank> {
    let p = comm.size();
    vchildren(bcast_vrank(comm, root), p).map(move |v| (v + root) % p)
}

/// Virtual rank `v`'s children among `0..p`: `v + 2^k` for every `k`
/// below `v`'s lowest set bit (any `k` at the root) that stays inside,
/// by descending `k`. Child `k` roots `2^k` ranks (`p` may cut the
/// first one short) and is posted `n - k` startups in, so it is done
/// within `n` whatever `p` is.
fn vchildren(v: usize, p: usize) -> impl Iterator<Item = usize> {
    // `0.trailing_zeros()` is the word size: the root has every `k`.
    let n = v
        .trailing_zeros()
        .min((p - 1 - v).checked_ilog2().map_or(0, |k| k + 1));
    (0..n).rev().map(move |k| v + (1 << k))
}

/// Forwards `data` to this rank's children in the binomial tree rooted
/// at `root`. Shared by [`BcastEngine`] and the ordered allreduce's
/// rank 0, which folds the result it then sends down the tree.
pub(crate) fn bcast_forward(comm: &Comm, root: Rank, tag: Tag, data: &Bytes) -> Result<()> {
    bcast_children(comm, root).try_for_each(|child| send_internal(comm, child, tag, data.clone()))
}

/// The blocking driver of the broadcast plan. A self-sizing non-root
/// learns the root's row from the wire, so it names and observes the
/// row — [`Tuned`]'s second step — once the row has run; every other
/// rank's plan selects under `tuned`.
pub(crate) fn bcast_internal(
    comm: &Comm,
    payload: Option<Bytes>,
    size: Option<usize>,
    root: Rank,
) -> Result<Completion> {
    comm.check_rank(root)?;
    if size.is_some() || comm.rank() == root {
        return comm.bcast_plan(Site::BLOCKING, "bcast", payload, size, root, drive);
    }
    let step = Tuned::begin(comm, Site::BLOCKING)?;
    let done = comm.bcast_plan(Site::BLOCKING, "bcast", None, None, root, drive)?;
    let (row, len) = match &done {
        Completion::Blocks(chunks) => {
            let len = chunks.iter().map(Bytes::len).sum();
            (BcastAlgo::ScatterAllgather, len)
        }
        Completion::Message(payload, _) => (BcastAlgo::Binomial, payload.len()),
        Completion::Done => (BcastAlgo::Binomial, 0),
    };
    step.finish(row, len, || Ok(done))
}

/// Broadcasts a single plain value (used internally for context ids),
/// copied out of the payload the tree shares on every rank. A message
/// that is not one `T` is [`MpiError::Truncated`].
pub(crate) fn bcast_one_internal<T: Plain>(comm: &Comm, mut value: T, root: Rank) -> Result<T> {
    let payload = (comm.rank() == root).then(|| bytes_from_slice(std::slice::from_ref(&value)));
    let bytes = bcast_bytes_internal(comm, payload, root)?;
    let (message_bytes, buffer_bytes) = (bytes.len(), std::mem::size_of::<T>());
    if message_bytes != buffer_bytes {
        return Err(MpiError::Truncated {
            message_bytes,
            buffer_bytes,
        });
    }
    copy_bytes_into(&bytes, std::slice::from_mut(&mut value));
    Ok(value)
}

impl Comm {
    /// Broadcasts a raw payload only the root sizes, returning it on
    /// every rank. Self-sizing: the root selects — the binomial tree, or
    /// for a large payload van de Geijn's scatter + allgather — and the
    /// non-roots learn its pick from the wire. Zero-copy on the tree:
    /// forwarding clones a refcount, and the returned [`Bytes`] aliases
    /// the delivered message; a non-root joins van de Geijn's chunks
    /// with one copy.
    pub fn bcast_bytes(&self, payload: Option<Bytes>, root: Rank) -> Result<Bytes> {
        self.count_op("bcast");
        Ok(match bcast_internal(self, payload, None, root)? {
            Completion::Message(payload, _) => payload,
            done => bytes_from_vec(Delivered::<u8>::broadcast(done).into_vec(Layout::default())?),
        })
    }

    /// Broadcasts the root's buffer contents into every rank's buffer
    /// (mirrors `MPI_Bcast`). All ranks pass buffers of equal length —
    /// a sized broadcast, so every rank selects the row itself.
    pub fn bcast_into<T: Plain>(&self, buf: &mut [T], root: Rank) -> Result<()> {
        self.count_op("bcast");
        let size = std::mem::size_of_val(buf);
        let payload = (self.rank() == root).then(|| bytes_from_slice(buf));
        let done = bcast_internal(self, payload, Some(size), root)?;
        if self.rank() == root {
            return Ok(());
        }
        Delivered::broadcast(done).into_slice(buf, Layout::each(Some(buf.len())))
    }

    /// Byte-level broadcast that hands the delivery back as it came:
    /// the whole payload as [`Completion::Message`], or on a non-root
    /// van de Geijn's chunks in rank order as [`Completion::Blocks`] —
    /// pieces of one payload that need not split at element boundaries.
    /// With `size`, every rank passes the payload size (as `MPI_Bcast`'s
    /// count) and selects the row itself; without it the broadcast is
    /// self-sizing, like [`Comm::bcast_bytes`]. A root whose payload
    /// breaks `size` still broadcasts what it has — its peers must not
    /// be left waiting — and reports [`MpiError::InvalidLayout`]
    /// afterwards, while they see a payload of the wrong length.
    pub fn bcast_parts(
        &self,
        payload: Option<Bytes>,
        size: Option<usize>,
        root: Rank,
    ) -> Result<Completion> {
        self.count_op("bcast");
        let held = payload.as_ref().map(Bytes::len);
        let done = bcast_internal(self, payload, size, root)?;
        match (held, size) {
            (Some(held), Some(size)) if held != size => Err(MpiError::InvalidLayout(format!(
                "bcast: root payload holds {held} bytes but size says {size}"
            ))),
            _ => Ok(done),
        }
    }

    /// Broadcasts a vector from the root; non-root ranks receive a fresh
    /// vector of whatever length the root sent (a convenience the C API
    /// lacks). Self-sizing, like [`Comm::bcast_bytes`]: no rank but the
    /// root passes the length, and every row stays open to the root's
    /// pick.
    pub fn bcast_vec<T: Plain>(&self, data: Option<&[T]>, root: Rank) -> Result<Vec<T>> {
        self.count_op("bcast");
        let payload = data.filter(|_| self.rank() == root).map(bytes_from_slice);
        Delivered::broadcast(bcast_internal(self, payload, None, root)?).into_vec(Layout::default())
    }

    /// Broadcasts one plain value from the root.
    pub fn bcast_one<T: Plain>(&self, value: T, root: Rank) -> Result<T> {
        self.count_op("bcast");
        bcast_one_internal(self, value, root)
    }
}

#[cfg(test)]
mod tests {
    use super::{bcast_children, bcast_parent, vchildren};
    use crate::Universe;

    #[test]
    fn tree_shape_is_the_classic_binomial_tree_largest_subtree_first() {
        let children = |v, p| vchildren(v, p).collect::<Vec<_>>();
        assert_eq!(children(0, 8), [4, 2, 1]);
        assert_eq!(children(4, 8), [6, 5]);
        assert_eq!(children(6, 8), [7]);
        assert_eq!(children(7, 8), []);
        // Truncated at p = 5: vrank 4 roots {4} alone and still goes first.
        assert_eq!(children(0, 5), [4, 2, 1]);
        assert_eq!(children(2, 5), [3]);
        assert_eq!(children(4, 5), []);
        assert_eq!(children(0, 1), []);
    }

    /// The contract every tree collective inherits, for every size up
    /// to 33 and every root: the children lists partition the ranks
    /// minus the root, every rank's parent lists it, subtree sizes halve
    /// along each list (`2^k`, only the first may be cut short by `p`),
    /// and the fan-out's critical path — a rank's `j`-th send leaves
    /// after `j + 1` startups — is at most `ceil(log2 p)` startups (so
    /// the depth is, too).
    #[test]
    fn tree_shape_contract_for_every_size_and_root() {
        for p in 1..=33usize {
            // shape[rank][root] = (children, parent)
            let shape = Universe::run(p, |comm| {
                let at = |root| {
                    let parent = (comm.rank() != root).then(|| bcast_parent(&comm, root));
                    (bcast_children(&comm, root).collect::<Vec<_>>(), parent)
                };
                (0..p).map(at).collect::<Vec<_>>()
            });
            for root in 0..p {
                let kids = |r: usize| &shape[r][root].0;
                let mut listed = vec![0usize; p];
                // Children have larger virtual ranks: fold bottom-up.
                let (mut size, mut startups) = (vec![1usize; p], vec![0usize; p]);
                for r in (0..p).rev().map(|v| (v + root) % p) {
                    for (j, &c) in kids(r).iter().enumerate() {
                        listed[c] += 1;
                        assert_eq!(shape[c][root].1, Some(r), "p = {p}, root = {root}");
                        size[r] += size[c];
                        startups[r] = startups[r].max(j + 1 + startups[c]);
                    }
                    let sizes: Vec<usize> = kids(r).iter().map(|&c| size[c]).collect();
                    for (j, &s) in sizes.iter().enumerate() {
                        let full = 1 << (sizes.len() - 1 - j);
                        assert!(s == full || (j == 0 && s < full), "p = {p}: {sizes:?}");
                    }
                }
                assert!((0..p).all(|r| listed[r] == usize::from(r != root)));
                let log = p.next_power_of_two().trailing_zeros() as usize;
                assert_eq!(size[root], p);
                assert!(startups[root] <= log, "p = {p}: {} > {log}", startups[root]);
            }
        }
    }

    #[test]
    fn bcast_from_rank_zero() {
        Universe::run(8, |comm| {
            let mut buf = if comm.rank() == 0 {
                [1u64, 2, 3]
            } else {
                [0; 3]
            };
            comm.bcast_into(&mut buf, 0).unwrap();
            assert_eq!(buf, [1, 2, 3]);
        });
    }

    #[test]
    fn bcast_from_nonzero_root() {
        for root in 0..5 {
            Universe::run(5, move |comm| {
                let mut buf = if comm.rank() == root {
                    [root as u32 + 100]
                } else {
                    [0]
                };
                comm.bcast_into(&mut buf, root).unwrap();
                assert_eq!(buf, [root as u32 + 100]);
            });
        }
    }

    #[test]
    fn bcast_vec_carries_length() {
        Universe::run(4, |comm| {
            let data = vec![9u16; 17];
            let got = comm
                .bcast_vec(
                    if comm.rank() == 2 {
                        Some(&data[..])
                    } else {
                        None
                    },
                    2,
                )
                .unwrap();
            assert_eq!(got, data);
        });
    }

    #[test]
    fn bcast_one_value() {
        Universe::run(6, |comm| {
            let v = comm
                .bcast_one(if comm.rank() == 3 { 0xABCDu32 } else { 0 }, 3)
                .unwrap();
            assert_eq!(v, 0xABCD);
        });
    }

    #[test]
    fn bcast_empty_buffer() {
        Universe::run(3, |comm| {
            let mut buf: [u8; 0] = [];
            comm.bcast_into(&mut buf, 0).unwrap();
        });
    }

    #[test]
    fn bcast_invalid_root() {
        Universe::run(2, |comm| {
            let mut buf = [0u8; 1];
            assert!(comm.bcast_into(&mut buf, 5).is_err());
        });
    }

    #[test]
    fn bcast_length_mismatch_is_truncation() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut buf = [1u32, 2];
                comm.bcast_into(&mut buf, 0).unwrap();
            } else {
                let mut buf = [0u32; 1];
                let err = comm.bcast_into(&mut buf, 0).unwrap_err();
                assert!(matches!(err, crate::MpiError::Truncated { .. }));
            }
        });
    }

    #[test]
    fn bcast_vec_large_payload_joins_scatter_allgather() {
        // 512 KiB at p = 4 crosses `BCAST_SCATTER_MIN_BYTES`: the root's
        // announcement lets non-roots join van de Geijn without
        // supplying the length up front (no recv_count required).
        Universe::run(4, |comm| {
            let data: Vec<u64> = (0..65_536u64).map(|i| i.wrapping_mul(3) + 1).collect();
            let got = comm
                .bcast_vec(
                    if comm.rank() == 1 {
                        Some(&data[..])
                    } else {
                        None
                    },
                    1,
                )
                .unwrap();
            assert_eq!(got, data);
        });
    }

    #[test]
    fn bcast_vec_forced_scatter_allgather_via_announcement() {
        // A forced large-message algorithm engages on the self-sizing vec
        // path even for small payloads; non-roots follow the announcement.
        Universe::run(5, |comm| {
            comm.set_tuning(
                crate::collectives::CollTuning::default()
                    .bcast(crate::collectives::BcastAlgo::ScatterAllgather),
            );
            let data: Vec<u16> = (0..23u16).collect();
            let got = comm
                .bcast_vec(
                    if comm.rank() == 3 {
                        Some(&data[..])
                    } else {
                        None
                    },
                    3,
                )
                .unwrap();
            assert_eq!(got, data);
        });
    }

    #[test]
    fn bcast_vec_empty_payload() {
        // A zero-length payload always takes the tree: empty, no header.
        Universe::run(4, |comm| {
            let empty: [u32; 0] = [];
            let got: Vec<u32> = comm
                .bcast_vec(
                    if comm.rank() == 0 {
                        Some(&empty[..])
                    } else {
                        None
                    },
                    0,
                )
                .unwrap();
            assert!(got.is_empty());
        });
    }

    #[test]
    fn large_broadcast() {
        Universe::run(7, |comm| {
            let data: Vec<u64> = (0..10_000).collect();
            let got = comm
                .bcast_vec(
                    if comm.rank() == 0 {
                        Some(&data[..])
                    } else {
                        None
                    },
                    0,
                )
                .unwrap();
            assert_eq!(got.len(), 10_000);
            assert_eq!(got[9_999], 9_999);
        });
    }
}
