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
//! gives up with `rank ^ (p2 >> (j + 1))`, until it holds chunk `rank`.
//! The allgather phase is chosen per cycle by the allgather's own
//! static rule on the mean chunk `s / p2`
//! ([`phase_doubles`](super::table::phase_doubles)). Within the ceiling it is
//! the reverse of the halving: `log2 p2` recursive-doubling rounds with
//! `rank ^ 2^k`, each group of chunks forwarded as the parts of one
//! message ([`RecursiveDoubling::chunks`]). Above it, it is one eager
//! exchange: each rank posts its chunk to the other `p2 - 1` at once,
//! as refcount clones in the pairwise rotation `rank + 1, rank + 2, …`,
//! and receives each chunk straight from its origin in the order that
//! rotation delivers them — `p2 - 1` receives in one round on the
//! critical path, not `p2 - 1` dependent hops. Either way the chunks
//! are assembled once.
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

use super::allgather::RecursiveDoubling;
use super::table::phase_doubles;
use super::{fold_bytes_right, fold_payloads, AllreduceAlgo};
use crate::collectives::nonblocking::{message_completion, Rounds};
use crate::collectives::{fan_out, send_internal};
use crate::comm::Comm;
use crate::error::Result;
use crate::lower::{Delivered, Layout};
use crate::message::Parts;
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
    /// Rabenseifner's halving and allgather, else recursive doubling.
    halving: bool,
    /// Fix-up, main-phase, allgather and result tags (recursive
    /// doubling uses one for all).
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
    /// The eager allgather's reduced chunks by index (this rank's own
    /// is `acc` until `finish`).
    chunks: Vec<Bytes>,
    /// The doubling allgather phase, when this cycle's chunk is within
    /// the ceiling (chosen at `seed`; until the first, `all_peers`
    /// names the eager phase's sources, every rank).
    doubling: Option<RecursiveDoubling>,
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
            doubling: None,
        }
    }

    /// Main-phase steps: log2 p2.
    fn steps(&self) -> usize {
        self.p2.trailing_zeros() as usize
    }

    /// The allgather phase's receives.
    fn gather_rounds(&self) -> usize {
        match &self.doubling {
            _ if !self.halving => 0,
            None => self.p2 - 1,
            Some(_) => self.steps(),
        }
    }

    /// The allgather phase for this cycle's `n` elements: recursive
    /// doubling over chunk `i`'s `n·i / p2`-aligned bytes when the mean
    /// chunk is within the ceiling, else the eager exchange.
    fn plan_gather(&mut self) {
        let (n, p2, elem) = (self.n, self.p2, std::mem::size_of::<T>());
        let doubles = phase_doubles(p2, n * elem);
        self.chunks = if doubles {
            Vec::new()
        } else {
            vec![Bytes::new(); p2]
        };
        self.doubling = doubles.then(|| {
            let bytes = (0..p2).map(|i| (n * (i + 1) / p2 - n * i / p2) * elem);
            RecursiveDoubling::chunks(self.tags[2], bytes.collect())
        });
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
    /// `Ok(j)` or the allgather's `h`-th receive `Err(h)`.
    fn phase(&self, k: usize) -> Option<std::result::Result<usize, usize>> {
        let j = k.checked_sub(usize::from(matches!(self.fixup, Fixup::Low(_))))?;
        Some(j.checked_sub(self.steps()).map_or(Ok(j), Err))
    }

    /// The origin of the chunk the eager allgather's `h`-th receive
    /// takes: that of `rank - 1 - h`, whose rotation reaches this rank
    /// with its `h`-th send.
    fn origin(&self, rank: Rank, h: usize) -> Rank {
        (rank + self.p2 - 1 - h) % self.p2
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
            self.plan_gather();
        }
    }

    fn rounds(&self) -> usize {
        let gather = self.gather_rounds();
        match self.fixup {
            Fixup::High(_) => 1,
            Fixup::Low(_) => 1 + self.steps() + gather,
            Fixup::None => self.steps() + gather,
        }
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        let [fixup_tag, step_tag, gather_tag, result_tag] = self.tags;
        match (self.fixup, self.phase(k)) {
            (Fixup::High(low), _) => (low, result_tag),
            (Fixup::Low(high), None) => (high, fixup_tag),
            (_, Some(Ok(j))) => (self.halves(comm.rank(), j).0, step_tag),
            (_, Some(Err(h))) => match &self.doubling {
                None => (self.origin(comm.rank(), h), gather_tag),
                Some(rd) => rd.peer(comm, h),
            },
            (Fixup::None, None) => unreachable!("only a low rank has a fold-in round"),
        }
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let [fixup_tag, step_tag, gather_tag, _] = self.tags;
        let rank = comm.rank();
        match (self.fixup, self.phase(k)) {
            (Fixup::High(low), _) => {
                send_internal(comm, low, fixup_tag, std::mem::take(&mut self.acc))
            }
            (_, None) => Ok(()),
            (_, Some(Err(h))) => match &mut self.doubling {
                None if h == 0 => fan_out(comm, self.p2, gather_tag, &self.acc),
                None => Ok(()),
                Some(rd) => {
                    if h == 0 {
                        rd.seed(comm, self.acc.clone());
                    }
                    rd.post(comm, h)
                }
            },
            (_, Some(Ok(j))) => {
                let (partner, _, give) = self.halves(rank, j);
                let msg = match j {
                    0 if self.gives_copy() => Self::moved_copy(&self.acc),
                    _ => self.acc.slice(self.in_acc(give)),
                };
                send_internal(comm, partner, step_tag, msg)
            }
        }
    }

    fn absorb(&mut self, comm: &Comm, k: usize, theirs: Parts) -> Result<()> {
        let rank = comm.rank();
        match (self.fixup, self.phase(k)) {
            (Fixup::High(_), _) => self.acc = theirs.into_bytes(),
            (_, Some(Err(h))) => {
                let origin = self.origin(rank, h);
                match &mut self.doubling {
                    None => self.chunks[origin] = theirs.into_bytes(),
                    Some(rd) => rd.absorb(comm, h, theirs)?,
                }
            }
            (_, None) => self.fold_into_received(theirs.into_bytes())?,
            (_, Some(Ok(0))) if self.gives_copy() => {
                self.fold_into_received(theirs.into_bytes())?
            }
            (_, Some(Ok(j))) => {
                let keep = self.halves(rank, j).1;
                let last = !self.halving && j + 1 == self.steps();
                let into = if last { self.spare.take() } else { None };
                let mine = &self.acc[self.in_acc(keep.clone())];
                let folded = fold_payloads(mine, &theirs.into_bytes(), &self.op, into)?;
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
            let chunks = match &mut self.doubling {
                None => {
                    self.chunks[rank] = result;
                    std::mem::take(&mut self.chunks)
                }
                Some(rd) => rd.gathered()?,
            };
            result = bytes_from_vec(Delivered::<T>::Blocks(chunks).into_vec(Layout::default())?);
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
    use crate::{CollTuning, Universe};

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

    /// Rabenseifner's allgather phase either way — a chunk within the
    /// ceiling doubles, a larger one takes the eager exchange — at p = 4
    /// and 8, in every lifecycle: blocking, `iallreduce` and two cycles
    /// of one `allreduce_init`.
    #[test]
    fn rabenseifner_gathers_in_either_phase_in_every_lifecycle() {
        const CEILING: usize = super::super::ALLGATHER_MAX_BYTES;
        for p in [4usize, 8] {
            Universe::run(p, move |comm| {
                let rab = AllreduceAlgo::Rabenseifner;
                comm.set_tuning(CollTuning::default().allreduce(rab));
                // Chunks of exactly the ceiling, then one element more.
                let fit = CEILING * p / 8;
                for n in [fit, fit + p] {
                    let rank = comm.rank() as u64;
                    let mine: Vec<u64> = (0..n as u64).map(|i| rank * 1000 + i).collect();
                    let expected: Vec<u64> = (0..n as u64)
                        .map(|i| (0..p as u64).map(|r| r * 1000 + i).sum())
                        .collect();
                    let doubling = 8 * n / p <= CEILING;
                    let mut engine = Allreduce::<u64, _>::new(&comm, Sum, rab);
                    engine.seed(&comm, bytes_from_slice(&mine));
                    let at = format!("p = {p}, n = {n}, doubling: {doubling}");
                    assert_eq!(engine.doubling.is_some(), doubling, "{at}");
                    let flat = |done: Completion| -> Vec<u64> { done.into_vec().unwrap().0 };
                    assert_eq!(comm.allreduce_vec(&mine, Sum).unwrap(), expected, "{at}");
                    let req = comm.iallreduce(&mine, Sum).unwrap();
                    assert_eq!(flat(req.wait().unwrap()), expected, "{at}, iallreduce");
                    let mut plan = comm.allreduce_init(&mine, Sum).unwrap();
                    for cycle in 0..2 {
                        plan.start().unwrap();
                        let got = flat(plan.wait().unwrap());
                        assert_eq!(got, expected, "{at}, allreduce_init cycle {cycle}");
                    }
                }
            });
        }
    }
}
