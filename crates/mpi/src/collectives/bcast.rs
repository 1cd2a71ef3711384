//! Broadcast: binomial tree, plus the size-dispatched large-message
//! algorithm for paths where every rank knows the payload size.

use bytes::Bytes;

use super::algos::bcast::ScatterAllgather;
use super::algos::table::{select, tuned, Call, Lifecycle, Site, Tuned};
use super::algos::{BcastAlgo, BcastParts};
use super::nonblocking::{drive_message, message_completion, Rounds};
use super::{root_without_data, send_internal};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::{
    as_bytes, as_bytes_mut, bytes_from_slice, bytes_from_vec, bytes_into_vec, bytes_to_vec,
    extend_vec_from_bytes,
};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

/// Broadcasts `payload` (significant at root) down a binomial tree over
/// virtual ranks `vrank = (rank - root) mod p` — the broadcast plan
/// `ibcast` / `bcast_init` start, driven on this stack; returns the
/// payload on every rank.
pub(crate) fn bcast_bytes_internal(
    comm: &Comm,
    payload: Option<Bytes>,
    root: Rank,
) -> Result<Bytes> {
    comm.bcast_plan("bcast", payload, root, drive_message)
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
/// at `root`. Shared by [`BinomialBcast`] and the ordered allreduce's
/// rank 0, which folds the result it then sends down the tree.
pub(crate) fn bcast_forward(comm: &Comm, root: Rank, tag: Tag, data: &Bytes) -> Result<()> {
    bcast_children(comm, root).try_for_each(|child| send_internal(comm, child, tag, data.clone()))
}

/// The binomial broadcast as a round description — the broadcast
/// plan's engine in every lifecycle: the root has no round — it
/// forwards and completes inside `start` — every other rank has one,
/// from its parent, and forwards on receipt. With `up` set a non-root
/// first contributes there: the non-root side of the ordered allreduce,
/// whose gather phase is that one send.
pub(crate) struct BinomialBcast {
    tag: Tag,
    root: Rank,
    parent: Option<Rank>,
    up: Option<(Rank, Tag)>,
    payload: Option<Bytes>,
}

impl BinomialBcast {
    pub(crate) fn new(comm: &Comm, tag: Tag, root: Rank, up: Option<(Rank, Tag)>) -> Self {
        BinomialBcast {
            tag,
            root,
            parent: (comm.rank() != root).then(|| bcast_parent(comm, root)),
            up,
            payload: None,
        }
    }
}

impl Rounds for BinomialBcast {
    fn seed(&mut self, _comm: &Comm, payload: Bytes) {
        self.payload = Some(payload);
    }

    fn rounds(&self) -> usize {
        usize::from(self.parent.is_some())
    }

    fn peer(&self, _comm: &Comm, _k: usize) -> (Rank, Tag) {
        (self.parent.expect("the root has no round"), self.tag)
    }

    fn post(&mut self, comm: &Comm, _k: usize) -> Result<()> {
        // A non-root's seed is its contribution there, or a placeholder.
        match (self.up, self.payload.take()) {
            (Some((dest, tag)), Some(own)) => send_internal(comm, dest, tag, own),
            _ => Ok(()),
        }
    }

    fn absorb(&mut self, _comm: &Comm, _k: usize, payload: Bytes) -> Result<()> {
        self.payload = Some(payload);
        Ok(())
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let payload = self.payload.take().expect("seeded or received");
        bcast_forward(comm, self.root, self.tag, &payload)?;
        Ok(message_completion(self.root, self.tag, payload))
    }
}

/// Sized broadcast: `size` (bytes) is known and identical on every rank
/// (as `MPI_Bcast`'s count is), which lets the tuning pick the
/// large-message algorithm. Returns the payload as [`BcastParts`].
pub(crate) fn bcast_parts_internal(
    comm: &Comm,
    payload: Option<Bytes>,
    size: usize,
    root: Rank,
) -> Result<BcastParts> {
    comm.check_rank(root)?;
    tuned(comm, Site::BLOCKING, Call::sized(size), |algo| match algo {
        BcastAlgo::Binomial => bcast_bytes_internal(comm, payload, root).map(BcastParts::Whole),
        BcastAlgo::ScatterAllgather => ScatterAllgather::run(comm, payload, size, root),
    })
}

/// Broadcasts a single plain value (used internally for context ids).
pub(crate) fn bcast_one_internal<T: Plain>(comm: &Comm, value: T, root: Rank) -> Result<T> {
    let payload = (comm.rank() == root).then(|| bytes_from_slice(std::slice::from_ref(&value)));
    let bytes = bcast_bytes_internal(comm, payload, root)?;
    let v: Vec<T> = bytes_into_vec(bytes);
    Ok(v[0])
}

impl Comm {
    /// Broadcasts a raw payload from the root down the binomial tree,
    /// returning the shared payload on every rank (zero-copy transport:
    /// forwarding clones a refcount, and the returned [`Bytes`] aliases
    /// the delivered message). The binding layer adopts the payload
    /// directly into the caller's buffer with a single copy.
    pub fn bcast_bytes(&self, payload: Option<Bytes>, root: Rank) -> Result<Bytes> {
        self.count_op("bcast");
        bcast_bytes_internal(self, payload, root)
    }

    /// Broadcasts the root's buffer contents into every rank's buffer
    /// (mirrors `MPI_Bcast`). All ranks must pass buffers of equal
    /// length — which is what lets the tuning switch to the
    /// large-message algorithm on this path.
    pub fn bcast_into<T: Plain>(&self, buf: &mut [T], root: Rank) -> Result<()> {
        self.count_op("bcast");
        let size = std::mem::size_of_val(buf);
        let payload = (self.rank() == root).then(|| bytes_from_slice(buf));
        let parts = bcast_parts_internal(self, payload, size, root)?;
        if self.rank() != root {
            parts.write_into(as_bytes_mut(buf))?;
        }
        Ok(())
    }

    /// Sized byte-level broadcast: every rank passes the payload size
    /// (so the tuning may pick the large-message algorithm, which the
    /// size-discovering [`Comm::bcast_bytes`] cannot). The root's
    /// payload length must equal `size`; a root that breaks this still
    /// broadcasts what it has — its peers must not be left waiting — and
    /// reports [`MpiError::InvalidLayout`] afterwards, while they see a
    /// payload of the wrong length.
    pub fn bcast_parts(
        &self,
        payload: Option<Bytes>,
        size: usize,
        root: Rank,
    ) -> Result<BcastParts> {
        self.count_op("bcast");
        let held = payload.as_ref().map_or(size, Bytes::len);
        let parts = bcast_parts_internal(self, payload, size, root)?;
        if held != size {
            return Err(MpiError::InvalidLayout(format!(
                "bcast: root payload holds {held} bytes but size says {size}"
            )));
        }
        Ok(parts)
    }

    /// Broadcasts a vector from the root; non-root ranks receive a fresh
    /// vector of whatever length the root sent (a convenience the C API
    /// lacks: the length travels with the message).
    ///
    /// Header-first sized protocol: the root prepends an 8-byte length
    /// header, so the sized tuning — including the large-message
    /// scatter+allgather algorithm — applies even though only the root
    /// knows the payload size up front. Under the binomial pick the
    /// header rides fused with the payload in a single message; under
    /// scatter+allgather an 8-byte header-only broadcast goes first and
    /// every rank then joins the chunked exchange. The root's choice is
    /// conveyed purely by message shape — non-roots never re-select.
    pub fn bcast_vec<T: Plain>(&self, data: Option<&[T]>, root: Rank) -> Result<Vec<T>> {
        self.count_op("bcast");
        self.check_rank(root)?;
        let step = Tuned::begin(self, Site::BLOCKING)?;
        if self.rank() == root {
            let Some(data) = data else {
                // Every non-root's first step is the one-tag header
                // receive; burn that tag so this rank stays aligned.
                self.next_internal_tag();
                return Err(root_without_data("bcast"));
            };
            let size = std::mem::size_of_val(data);
            // An empty payload always fuses: scatter+allgather needs
            // one (see its row), so the selection resolves to binomial.
            let algo = select(self, Lifecycle::Blocking, Call::sized(size));
            step.finish(algo, size, || match algo {
                BcastAlgo::Binomial => {
                    let mut fused: Vec<u8> = Vec::with_capacity(8 + size);
                    crate::metrics::record_alloc();
                    fused.extend_from_slice(&(size as u64).to_le_bytes());
                    extend_vec_from_bytes(&mut fused, as_bytes(data));
                    bcast_bytes_internal(self, Some(bytes_from_vec(fused)), root)?;
                    Ok(bytes_to_vec(as_bytes(data)))
                }
                BcastAlgo::ScatterAllgather => {
                    bcast_bytes_internal(self, Some(bytes_from_slice(&[size as u64])), root)?;
                    let payload = Some(bytes_from_slice(data));
                    let parts = ScatterAllgather::run(self, payload, size, root)?;
                    Ok(parts.into_vec())
                }
            })
        } else {
            let msg = bcast_bytes_internal(self, None, root)?;
            if msg.len() < 8 {
                return Err(MpiError::InvalidLayout(format!(
                    "bcast_vec: malformed size header ({} bytes)",
                    msg.len()
                )));
            }
            let size = u64::from_le_bytes(msg[..8].try_into().expect("8-byte header")) as usize;
            // The message's shape names the root's pick: header fused
            // with the payload is binomial, header only is
            // scatter+allgather, which this rank now joins.
            let algo = if msg.len() == 8 + size {
                BcastAlgo::Binomial
            } else if msg.len() == 8 {
                BcastAlgo::ScatterAllgather
            } else {
                return Err(MpiError::InvalidLayout(format!(
                    "bcast_vec: header says {size} bytes but message carries {}",
                    msg.len() - 8
                )));
            };
            step.finish(algo, size, || match algo {
                BcastAlgo::Binomial => Ok(bytes_to_vec(&msg[8..])),
                BcastAlgo::ScatterAllgather => {
                    Ok(ScatterAllgather::run(self, None, size, root)?.into_vec())
                }
            })
        }
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
        // 512 KiB at p = 4 crosses `bcast_scatter_min_bytes`: the
        // header-first protocol lets non-roots join van de Geijn without
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
    fn bcast_vec_forced_scatter_allgather_via_header() {
        // A forced large-message algorithm engages on the sized vec path
        // even for small payloads; non-roots follow the header-only shape.
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
        // Zero-length payloads always fuse into the binomial header.
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
