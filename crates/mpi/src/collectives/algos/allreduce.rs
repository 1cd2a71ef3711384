//! Allreduce for commutative operations: recursive doubling and
//! Rabenseifner, written once as the round description ([`Rounds`])
//! the shared driver runs in every lifecycle.
//!
//! Both rows share their outer rounds over the largest power of two
//! `p2 <= p`: the `p - p2` highest ranks hand their vector to a low
//! partner, which folds it in first and sends a copy of the result back
//! last. In between, step `j` exchanges with a partner and folds —
//! recursive doubling the whole vector with `rank ^ 2^j`, Rabenseifner's
//! recursive-halving reduce-scatter the half of its working range it
//! gives up with `rank ^ (p2 >> (j + 1))`, until it holds chunk `rank`,
//! which a ring allgather over `p2 - 1` hops then circulates and each
//! rank assembles once.
//!
//! A fold writes only into a vector no peer reads. A vector given away
//! — a high rank's, or the copy doubling's first step sends when it is
//! not also the last — is folded into by its receiver. Otherwise the
//! accumulator travels as a refcount payload (Rabenseifner: slices of
//! one) and the fold writes a fresh vector, except doubling's last step,
//! which writes into the contribution once no peer reads it: an owned
//! one comes back as the result from `p2 = 4` on. Every rank
//! completes with one message only it holds, which [`reclaim_vec`]
//! takes back without a copy.

use std::ops::Range;

use bytes::Bytes;

use super::{fold_bytes_right, fold_payloads, AllreduceAlgo};
use crate::collectives::nonblocking::{message_completion, Rounds};
use crate::collectives::{block_counts, concat_blocks, send_internal};
use crate::comm::Comm;
use crate::error::Result;
use crate::op::ReduceOp;
use crate::plain::{bytes_from_vec, bytes_to_vec, reclaim_vec, whole_elements};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

/// A rank's part in the non-power-of-two fix-up: none, a low rank
/// with its high partner, or a high rank with its low partner.
#[derive(Clone, Copy)]
enum Fixup {
    None,
    Low(Rank),
    High(Rank),
}

/// Both `allreduce/*` rows (see the module doc).
pub(crate) struct Allreduce<T, O> {
    /// Rabenseifner's halving and ring, else recursive doubling.
    halving: bool,
    /// Fix-up, main-phase, ring and result tags (recursive doubling
    /// uses one for all).
    tags: [Tag; 4],
    op: O,
    p2: usize,
    fixup: Fixup,
    /// Elements of the vector, fixed at `seed`.
    n: usize,
    /// The working range, in chunks of `n / p2` elements: `acc` holds
    /// its elements.
    range: Range<usize>,
    /// The contribution, then each step's fold; a high rank's result.
    acc: Bytes,
    /// A vector of `n` elements no peer reads, for the last doubling
    /// step to fold into: the contribution, once read for the last time.
    spare: Option<Vec<T>>,
    /// The reduced chunks by index, filled by the ring (this rank's own
    /// is `acc` until `finish`).
    chunks: Vec<Bytes>,
}

impl<T: Plain, O: ReduceOp<T>> Allreduce<T, O> {
    pub(crate) fn new(comm: &Comm, op: O, algo: AllreduceAlgo) -> Self {
        let (p, rank) = (comm.size(), comm.rank());
        let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
        let fixup = match rank {
            r if r >= p2 => Fixup::High(r - p2),
            r if r + p2 < p => Fixup::Low(r + p2),
            _ => Fixup::None,
        };
        let halving = algo == AllreduceAlgo::Rabenseifner;
        let mut tags = [comm.next_internal_tag(); 4];
        if halving {
            tags[1..].fill_with(|| comm.next_internal_tag());
        }
        Allreduce {
            halving,
            tags,
            op,
            p2,
            fixup,
            n: 0,
            range: 0..p2,
            acc: Bytes::new(),
            spare: None,
            chunks: Vec::new(),
        }
    }

    /// Main-phase steps: log2 p2.
    fn steps(&self) -> usize {
        self.p2.trailing_zeros() as usize
    }

    /// Step `j`'s partner, and what of the working range this rank keeps
    /// and gives: both the whole range when doubling.
    fn halves(&self, rank: Rank, j: usize) -> (Rank, Range<usize>, Range<usize>) {
        let Range { start, end } = self.range;
        if !self.halving {
            return (rank ^ (1 << j), start..end, start..end);
        }
        let (mask, mid) = (self.p2 >> (j + 1), start + (end - start) / 2);
        let (lo, hi) = (start..mid, mid..end);
        let (keep, give) = if rank & mask == 0 { (lo, hi) } else { (hi, lo) };
        (rank ^ mask, keep, give)
    }

    /// Chunks `[lo, hi)` as a byte range of `acc` (chunk `i` starts at
    /// element `n·i / p2` on every rank).
    fn in_acc(&self, chunks: Range<usize>) -> Range<usize> {
        let at = |i: usize| self.n * i / self.p2 - self.n * self.range.start / self.p2;
        at(chunks.start) * std::mem::size_of::<T>()..at(chunks.end) * std::mem::size_of::<T>()
    }

    /// Where round `k` of a low rank falls: the fold-in (`None`), step
    /// `Ok(j)` or ring hop `Err(h)`.
    fn phase(&self, k: usize) -> Option<std::result::Result<usize, usize>> {
        let j = k.checked_sub(usize::from(matches!(self.fixup, Fixup::Low(_))))?;
        Some(j.checked_sub(self.steps()).map_or(Ok(j), Err))
    }

    /// Whether doubling's first step sends a copy its partner folds into:
    /// not at `p2 = 2`, where that step is also the last, which folds
    /// into the spare (or a fresh vector) anyway.
    fn gives_copy(&self) -> bool {
        !self.halving && self.steps() > 1
    }

    /// A copy of an accumulator to give away (a malformed payload travels as it
    /// is, for the receiving fold to reject).
    fn moved_copy(acc: &Bytes) -> Bytes {
        match whole_elements::<T>(acc.len()) {
            Ok(_) => bytes_from_vec(bytes_to_vec::<T>(acc)),
            Err(_) => acc.clone(),
        }
    }

    /// Folds `acc` into a vector given away to this rank (into a fresh
    /// one if a peer still reads it). The old `acc`, read for the last
    /// time, becomes doubling's spare if no peer reads it either.
    fn fold_into_received(&mut self, theirs: Bytes) -> Result<()> {
        let mine = std::mem::take(&mut self.acc);
        let folded = match reclaim_vec::<T>(theirs) {
            Ok(mut theirs) => {
                fold_bytes_right(&mut theirs, &mine, &self.op)?;
                theirs
            }
            Err(theirs) => fold_payloads(&mine, &theirs, &self.op, None)?,
        };
        self.acc = bytes_from_vec(folded);
        if !self.halving && self.spare.is_none() {
            self.spare = reclaim_vec(mine).ok();
        }
        Ok(())
    }
}

impl<T: Plain, O: ReduceOp<T>> Rounds for Allreduce<T, O> {
    fn seed(&mut self, _comm: &Comm, payload: Bytes) {
        self.n = payload.len() / std::mem::size_of::<T>().max(1);
        self.range = 0..self.p2;
        self.acc = payload;
        if self.halving {
            self.chunks = vec![Bytes::new(); self.p2];
        }
    }

    fn rounds(&self) -> usize {
        let ring = if self.halving { self.p2 - 1 } else { 0 };
        match self.fixup {
            Fixup::High(_) => 1,
            Fixup::Low(_) => 1 + self.steps() + ring,
            Fixup::None => self.steps() + ring,
        }
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        let [fixup_tag, step_tag, ring_tag, result_tag] = self.tags;
        match (self.fixup, self.phase(k)) {
            (Fixup::High(low), _) => (low, result_tag),
            (Fixup::Low(high), None) => (high, fixup_tag),
            (_, Some(Ok(j))) => (self.halves(comm.rank(), j).0, step_tag),
            _ => ((comm.rank() + self.p2 - 1) % self.p2, ring_tag),
        }
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let [fixup_tag, step_tag, ring_tag, _] = self.tags;
        let rank = comm.rank();
        match (self.fixup, self.phase(k)) {
            (Fixup::High(low), _) => {
                send_internal(comm, low, fixup_tag, std::mem::take(&mut self.acc))
            }
            (_, None) => Ok(()),
            (_, Some(Ok(j))) => {
                let (partner, _, give) = self.halves(rank, j);
                let msg = match j {
                    0 if self.gives_copy() => Self::moved_copy(&self.acc),
                    _ => self.acc.slice(self.in_acc(give)),
                };
                send_internal(comm, partner, step_tag, msg)
            }
            (_, Some(Err(hop))) => {
                // Hop `h` forwards the chunk that arrived on hop `h - 1`
                // (on hop 0, this rank's own).
                let origin = (rank + self.p2 - hop) % self.p2;
                let chunk = if origin == rank {
                    self.acc.clone()
                } else {
                    self.chunks[origin].clone()
                };
                send_internal(comm, (rank + 1) % self.p2, ring_tag, chunk)
            }
        }
    }

    fn absorb(&mut self, comm: &Comm, k: usize, theirs: Bytes) -> Result<()> {
        let rank = comm.rank();
        match (self.fixup, self.phase(k)) {
            (Fixup::High(_), _) => self.acc = theirs,
            (_, Some(Err(hop))) => self.chunks[(rank + self.p2 - 1 - hop) % self.p2] = theirs,
            (_, None) => self.fold_into_received(theirs)?,
            (_, Some(Ok(0))) if self.gives_copy() => self.fold_into_received(theirs)?,
            (_, Some(Ok(j))) => {
                let keep = self.halves(rank, j).1;
                let last = !self.halving && j + 1 == self.steps();
                let into = if last { self.spare.take() } else { None };
                let mine = &self.acc[self.in_acc(keep.clone())];
                let folded = fold_payloads(mine, &theirs, &self.op, into)?;
                (self.acc, self.range) = (bytes_from_vec(folded), keep);
            }
        }
        Ok(())
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let (rank, result_tag) = (comm.rank(), self.tags[3]);
        let mut result = std::mem::take(&mut self.acc);
        self.spare = None;
        if let Fixup::High(low) = self.fixup {
            return Ok(message_completion(low, result_tag, result));
        }
        if self.halving {
            self.chunks[rank] = result;
            let chunks = std::mem::take(&mut self.chunks);
            let counts = block_counts::<T, _>(&chunks)?;
            result = bytes_from_vec(concat_blocks::<T, _>(chunks, &counts));
        }
        if let Fixup::Low(high) = self.fixup {
            send_internal(comm, high, result_tag, Self::moved_copy(&result))?;
        }
        Ok(message_completion(rank, result_tag, result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::nonblocking::{drive, RoundEngine};
    use crate::op::Sum;
    use crate::plain::bytes_from_slice;
    use crate::Universe;

    /// Both rows agree with the oracle on every communicator size,
    /// including non-powers-of-two and vectors shorter than p, and
    /// complete with one message a caller reads through `into_vec`.
    #[test]
    fn both_rows_match_the_oracle_for_all_sizes() {
        for p in 1..=9 {
            for n in [1usize, 2, 3, 7, 64] {
                Universe::run(p, move |comm| {
                    let mine: Vec<u64> = (0..n as u64)
                        .map(|i| comm.rank() as u64 * 100 + i)
                        .collect();
                    let expected: Vec<u64> = (0..n as u64)
                        .map(|i| (0..p as u64).map(|r| r * 100 + i).sum())
                        .collect();
                    let flat =
                        |done: Completion| -> Vec<u64> { done.into_vec().expect("one message").0 };
                    for algo in [
                        AllreduceAlgo::RecursiveDoubling,
                        AllreduceAlgo::Rabenseifner,
                    ] {
                        let rows = Allreduce::<u64, _>::new(&comm, Sum, algo);
                        let done =
                            drive(&comm, &mut RoundEngine::new(rows), bytes_from_slice(&mine));
                        assert_eq!(flat(done.unwrap()), expected, "{algo:?}, p = {p}, n = {n}");
                    }
                });
            }
        }
    }
}
