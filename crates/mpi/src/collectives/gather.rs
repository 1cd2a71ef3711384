//! Gather and gatherv (flat tree).

use bytes::Bytes;

use super::{block_counts, check_layout, concat_blocks, place_blocks_at, send_slice_internal};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::{Src, TagSel};
use crate::plain::as_bytes;
use crate::{Plain, Rank, Tag};

/// One gathered block at the root: a delivered payload, or the root's
/// own contribution — read in place from its send buffer, never copied
/// into a message.
pub enum GatherBlock<'a> {
    /// The root's own send buffer.
    Own(&'a [u8]),
    /// Another rank's delivered payload.
    Delivered(Bytes),
}

impl AsRef<[u8]> for GatherBlock<'_> {
    fn as_ref(&self) -> &[u8] {
        match self {
            GatherBlock::Own(bytes) => bytes,
            GatherBlock::Delivered(bytes) => bytes,
        }
    }
}

impl Comm {
    /// Gathers equal-sized contributions to the root, rank-ordered
    /// (mirrors `MPI_Gather`). `recv` is significant only at the root and
    /// must hold `p * send.len()` elements there.
    pub fn gather_into<T: Plain>(&self, send: &[T], recv: &mut [T], root: Rank) -> Result<()> {
        self.count_op("gather");
        let (n, need) = (send.len(), self.size() * send.len());
        let fits = |len: usize| {
            if len < need {
                return Err(MpiError::InvalidLayout(format!(
                    "gather: receive buffer holds {len} elements, need {need}"
                )));
            }
            Ok(())
        };
        gather_place(self, send, recv, root, fits, |src| (src * n, n))
    }

    /// Gathers variable-sized contributions to the root
    /// (mirrors `MPI_Gatherv`). `counts`/`displs` are significant at the
    /// root only.
    pub fn gatherv_into<T: Plain>(
        &self,
        send: &[T],
        recv: &mut [T],
        counts: &[usize],
        displs: &[usize],
        root: Rank,
    ) -> Result<()> {
        self.count_op("gatherv");
        let fits = |len: usize| {
            check_layout("gatherv", counts, displs, len, self.size())?;
            if send.len() != counts[root] {
                return Err(MpiError::InvalidLayout(format!(
                    "gatherv: root sends {} elements but counts[{root}] = {}",
                    send.len(),
                    counts[root]
                )));
            }
            Ok(())
        };
        gather_place(self, send, recv, root, fits, |src| {
            (displs[src], counts[src])
        })
    }

    /// Self-sizing `gatherv`: `Some(blocks)` by source rank at the root,
    /// `None` elsewhere; the block lengths are the receive counts (they
    /// travel with the messages). The root's own entry borrows `send`.
    pub fn gatherv_blocks<'a, T: Plain>(
        &self,
        send: &'a [T],
        root: Rank,
    ) -> Result<Option<Vec<GatherBlock<'a>>>> {
        self.count_op("gatherv");
        self.gather_blocks_uncounted(send, root)
    }

    /// [`gatherv_blocks`](Self::gatherv_blocks) counted as `gather`: the
    /// same exchange for callers that hold the equal-contribution
    /// contract and verify the block sizes themselves.
    pub fn gather_blocks<'a, T: Plain>(
        &self,
        send: &'a [T],
        root: Rank,
    ) -> Result<Option<Vec<GatherBlock<'a>>>> {
        self.count_op("gather");
        self.gather_blocks_uncounted(send, root)
    }

    fn gather_blocks_uncounted<'a, T: Plain>(
        &self,
        send: &'a [T],
        root: Rank,
    ) -> Result<Option<Vec<GatherBlock<'a>>>> {
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        if self.rank() == root {
            gather_blocks(self, tag, as_bytes(send)).map(Some)
        } else {
            send_slice_internal(self, root, tag, send)?;
            Ok(None)
        }
    }

    /// Gathers variable-sized contributions to the root, where only the
    /// root learns the counts (they travel with the messages). Returns
    /// `Some((data, counts))` at the root, `None` elsewhere.
    pub fn gatherv_vec<T: Plain>(
        &self,
        send: &[T],
        root: Rank,
    ) -> Result<Option<(Vec<T>, Vec<usize>)>> {
        self.count_op("gatherv");
        let Some(blocks) = self.gather_blocks_uncounted(send, root)? else {
            return Ok(None);
        };
        // Every block is written straight into the final buffer.
        let counts = block_counts::<T, _>(&blocks)?;
        Ok(Some((concat_blocks(blocks, &counts), counts)))
    }
}

/// The one receive loop behind every gather, root side: `own` in the
/// root's slot and a delivered payload per other rank, by source,
/// accepted in arrival order (the tag identifies the call, the
/// envelope's source the slot).
fn gather_blocks<'a>(comm: &Comm, tag: Tag, own: &'a [u8]) -> Result<Vec<GatherBlock<'a>>> {
    let p = comm.size();
    // Every slot starts as `own`; the p - 1 deliveries overwrite all
    // but the root's.
    let mut blocks: Vec<_> = (0..p).map(|_| GatherBlock::Own(own)).collect();
    for _ in 0..p - 1 {
        let env = comm.recv_envelope(Src::Any, TagSel::Is(tag))?;
        blocks[env.src] = GatherBlock::Delivered(env.payload);
    }
    Ok(blocks)
}

/// The counted gathers: non-roots send; the root validates its layout
/// against the receive buffer's length (`fits`), gathers, then verifies
/// and places every block — its own included — at `slot(source)` =
/// (displacement, count).
fn gather_place<T: Plain>(
    comm: &Comm,
    send: &[T],
    recv: &mut [T],
    root: Rank,
    fits: impl FnOnce(usize) -> Result<()>,
    slot: impl Fn(Rank) -> (usize, usize),
) -> Result<()> {
    comm.check_rank(root)?;
    let tag = comm.next_internal_tag();
    if comm.rank() != root {
        return send_slice_internal(comm, root, tag, send);
    }
    fits(recv.len())?;
    place_blocks_at(gather_blocks(comm, tag, as_bytes(send))?, recv, slot)
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn gather_rank_ordered() {
        Universe::run(4, |comm| {
            let mine = [comm.rank() as u32; 2];
            let mut all = vec![0u32; 8];
            comm.gather_into(&mine, &mut all, 0).unwrap();
            if comm.rank() == 0 {
                assert_eq!(all, vec![0, 0, 1, 1, 2, 2, 3, 3]);
            }
        });
    }

    #[test]
    fn gather_to_nonzero_root() {
        Universe::run(3, |comm| {
            let mine = [comm.rank() as u8];
            let mut all = vec![0u8; 3];
            comm.gather_into(&mine, &mut all, 2).unwrap();
            if comm.rank() == 2 {
                assert_eq!(all, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn gather_undersized_recv_errors() {
        Universe::run(2, |comm| {
            let mine = [1u32, 2];
            if comm.rank() == 0 {
                let mut small = vec![0u32; 3];
                assert!(comm.gather_into(&mine, &mut small, 0).is_err());
                // The peer's message stays queued; undelivered envelopes
                // are dropped with the universe.
            } else {
                let mut unused = vec![];
                comm.gather_into(&mine, &mut unused, 0).unwrap();
            }
        });
    }

    #[test]
    fn gatherv_variable_counts() {
        Universe::run(3, |comm| {
            let mine: Vec<u64> = (0..comm.rank() as u64 + 1).collect();
            let counts = [1, 2, 3];
            let displs = [0, 1, 3];
            let mut all = vec![0u64; 6];
            comm.gatherv_into(&mine, &mut all, &counts, &displs, 0)
                .unwrap();
            if comm.rank() == 0 {
                assert_eq!(all, vec![0, 0, 1, 0, 1, 2]);
            }
        });
    }

    #[test]
    fn gatherv_vec_discovers_counts() {
        Universe::run(4, |comm| {
            let mine: Vec<u16> = vec![comm.rank() as u16; comm.rank()];
            let out = comm.gatherv_vec(&mine, 1).unwrap();
            if comm.rank() == 1 {
                let (data, counts) = out.unwrap();
                assert_eq!(counts, vec![0, 1, 2, 3]);
                assert_eq!(data, vec![1, 2, 2, 3, 3, 3]);
            } else {
                assert!(out.is_none());
            }
        });
    }

    #[test]
    fn gatherv_empty_contributions() {
        Universe::run(3, |comm| {
            let out = comm.gatherv_vec::<u8>(&[], 0).unwrap();
            if comm.rank() == 0 {
                let (data, counts) = out.unwrap();
                assert!(data.is_empty());
                assert_eq!(counts, vec![0, 0, 0]);
            }
        });
    }
}
