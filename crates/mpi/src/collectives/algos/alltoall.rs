//! Bruck's algorithm for small-message all-to-all.
//!
//! The pairwise exchange sends `p-1` messages per rank; for small blocks
//! that cost is pure startup latency. Bruck routes every block through
//! `ceil(log2 p)` rounds instead: in round `k` each rank sends all
//! blocks whose (rotated) index has bit `k` set as **one** message to
//! rank `rank + 2^k`. A block destined `i` ranks ahead travels exactly
//! the set bits of `i`, so after the rounds plus a final inverse
//! rotation every block is home. Works for any `p` (not just powers of
//! two).
//!
//! A round's message is the parts it forwards — refcount views of the
//! send buffer or of earlier rounds' messages — never a repack, and the
//! receiver carves it back into blocks by refcount. Copy bill: `s`
//! (initial pack) `+ r` (final placement), the pairwise exchange's. The
//! trade is bandwidth for latency: every block crosses the wire once
//! per set bit of its distance (`~s/2` per round, `ceil(log2 p)`
//! rounds), which only pays off for small blocks — exactly when
//! [`CollTuning::alltoall_algo`] selects it.
//!
//! [`CollTuning::alltoall_algo`]: super::CollTuning::alltoall_algo

use bytes::Bytes;

use crate::collectives::nonblocking::Rounds;
use crate::collectives::send_internal;
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::Parts;
use crate::request::Completion;
use crate::{Rank, Tag};

/// One Bruck round: the peers and the (rotated) block indices exchanged.
struct BruckRound {
    /// Destination of this rank's round message.
    dest: Rank,
    /// Source of the round message this rank receives.
    src: Rank,
    /// Block indices (into the rotated block array) sent and replaced,
    /// in ascending order.
    indices: Vec<usize>,
}

/// The round plan for `rank` in a `p`-rank Bruck exchange
/// (`ceil(log2 p)` rounds).
fn bruck_rounds(rank: Rank, p: usize) -> Vec<BruckRound> {
    let mut rounds = Vec::new();
    let mut step = 1usize;
    while step < p {
        let indices: Vec<usize> = (1..p).filter(|i| i & step != 0).collect();
        rounds.push(BruckRound {
            dest: (rank + step) % p,
            src: (rank + p - step) % p,
            indices,
        });
        step <<= 1;
    }
    rounds
}

/// Initial rotation: `blocks[i]` = the caller's block destined to rank
/// `(rank + i) % p`, sliced out of one packed payload.
fn bruck_rotate(packed: &Bytes, rank: Rank, p: usize, block_bytes: usize) -> Vec<Bytes> {
    (0..p)
        .map(|i| {
            let dest = (rank + i) % p;
            packed.slice(dest * block_bytes..(dest + 1) * block_bytes)
        })
        .collect()
}

/// Carves a received round message back into the block array (refcount
/// slices, no copies).
fn bruck_unpack(
    blocks: &mut [Bytes],
    indices: &[usize],
    payload: &Parts,
    block_bytes: usize,
) -> Result<()> {
    if payload.len() != indices.len() * block_bytes {
        return Err(MpiError::Truncated {
            message_bytes: payload.len(),
            buffer_bytes: indices.len() * block_bytes,
        });
    }
    let mut parts = payload.cursor();
    for &i in indices {
        blocks[i] = parts.take(block_bytes);
    }
    Ok(())
}

/// After the rounds, the block received *from* rank `j` sits at rotated
/// index `(rank - j) mod p`.
#[inline]
fn bruck_source_index(rank: Rank, j: usize, p: usize) -> usize {
    (rank + p - j) % p
}

/// Bruck alltoall of `p` equal blocks, as the round description the
/// shared driver runs ([`Rounds`]): the blocking `alltoall` drives it to
/// completion on the stack, `ialltoall` resumes it on `test`/`wait`.
/// Seeded with the packed send buffer; completes with the delivered
/// blocks by source rank (refcount views of the round messages' parts).
pub(crate) struct BruckAlltoall {
    rounds: Vec<BruckRound>,
    /// One tag per round, allocated in the same order on every rank.
    tags: Vec<Tag>,
    blocks: Vec<Bytes>,
    block_bytes: usize,
}

impl BruckAlltoall {
    pub(crate) fn new(comm: &Comm) -> Self {
        let rounds = bruck_rounds(comm.rank(), comm.size());
        let tags = rounds.iter().map(|_| comm.next_internal_tag()).collect();
        BruckAlltoall {
            rounds,
            tags,
            blocks: Vec::new(),
            block_bytes: 0,
        }
    }
}

impl Rounds for BruckAlltoall {
    fn seed(&mut self, comm: &Comm, packed: Bytes) {
        let p = comm.size();
        self.block_bytes = packed.len() / p;
        self.blocks = bruck_rotate(&packed, comm.rank(), p, self.block_bytes);
    }

    fn rounds(&self) -> usize {
        self.rounds.len()
    }

    fn peer(&self, _comm: &Comm, k: usize) -> (Rank, Tag) {
        (self.rounds[k].src, self.tags[k])
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        // The round's blocks as parts, in index order.
        let blocks = self.rounds[k]
            .indices
            .iter()
            .map(|&i| self.blocks[i].clone());
        send_internal(comm, self.rounds[k].dest, self.tags[k], Parts::of(blocks))
    }

    fn absorb(&mut self, _comm: &Comm, k: usize, payload: Parts) -> Result<()> {
        bruck_unpack(
            &mut self.blocks,
            &self.rounds[k].indices,
            &payload,
            self.block_bytes,
        )
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let (p, rank) = (comm.size(), comm.rank());
        Ok(Completion::Blocks(
            (0..p)
                .map(|j| std::mem::take(&mut self.blocks[bruck_source_index(rank, j, p)]))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::nonblocking::{drive_blocks, RoundEngine};
    use crate::plain::bytes_from_slice;
    use crate::Universe;

    /// The blocking driver over the one definition.
    fn run_bruck<T: crate::Plain>(comm: &Comm, send: &[T]) -> Vec<Bytes> {
        let mut engine = RoundEngine::new(BruckAlltoall::new(comm));
        drive_blocks(comm, &mut engine, bytes_from_slice(send)).unwrap()
    }

    #[test]
    fn bruck_matches_pairwise_semantics() {
        for p in [2, 3, 4, 5, 7, 8] {
            for n in [1usize, 3] {
                Universe::run(p, move |comm| {
                    let rank = comm.rank();
                    let send: Vec<u32> =
                        (0..p * n).map(|i| rank as u32 * 1000 + i as u32).collect();
                    let recv: Vec<u32> = run_bruck(&comm, &send)
                        .iter()
                        .flat_map(|b| crate::plain::bytes_to_vec::<u32>(b))
                        .collect();
                    let expected: Vec<u32> = (0..p)
                        .flat_map(|src| {
                            (0..n).map(move |e| src as u32 * 1000 + (rank * n + e) as u32)
                        })
                        .collect();
                    assert_eq!(recv, expected, "p = {p}, n = {n}");
                });
            }
        }
    }

    #[test]
    fn bruck_zero_sized_blocks() {
        Universe::run(3, |comm| {
            let send: Vec<u64> = vec![];
            let blocks = run_bruck(&comm, &send);
            assert!(blocks.iter().all(|b| b.is_empty()));
        });
    }

    #[test]
    fn round_plan_has_log_rounds() {
        assert_eq!(bruck_rounds(0, 2).len(), 1);
        assert_eq!(bruck_rounds(0, 4).len(), 2);
        assert_eq!(bruck_rounds(0, 5).len(), 3);
        assert_eq!(bruck_rounds(0, 8).len(), 3);
        // Round k exchanges the indices with bit k set.
        let rounds = bruck_rounds(1, 5);
        assert_eq!(rounds[0].indices, vec![1, 3]);
        assert_eq!(rounds[1].indices, vec![2, 3]);
        assert_eq!(rounds[2].indices, vec![4]);
        assert_eq!(rounds[0].dest, 2);
        assert_eq!(rounds[0].src, 0);
    }
}
