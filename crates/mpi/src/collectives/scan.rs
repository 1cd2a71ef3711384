//! Inclusive and exclusive prefix reductions by rank-order-preserving
//! recursive doubling. Entering round `k` a rank holds the fold over
//! ranks `rank - 2^k + 1 ..= rank` (clipped at 0); it sends that to
//! `rank + 2^k` and folds what arrives from `rank - 2^k` on its *left*,
//! so the running prefix stays a contiguous rank range in rank order —
//! correct for non-commutative operations — and covers `0 ..= rank`
//! after `ceil(log2 (rank + 1))` receives: `ceil(log2 p)` message times
//! on the critical path.
//!
//! Written once, as the round description ([`Rounds`]) the shared
//! driver runs. Folds read the delivered payload in place; a rank
//! copies only the prefixes it serializes (at most `ceil(log2 p)`, `s`
//! bytes each) and the seed of a result (`copy_accounting` pins both).

use std::borrow::Cow;

use bytes::Bytes;

use super::algos::fold_bytes_to_vec;
use super::nonblocking::{drive, RoundEngine, Rounds};
use super::{send_internal, send_slice_internal};
use crate::comm::Comm;
use crate::error::Result;
use crate::op::ReduceOp;
use crate::plain::{bytes_from_cow, bytes_from_slice, bytes_into_vec};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

struct DoublingScan<'a, T: Plain, O: ReduceOp<T>> {
    tag: Tag,
    op: O,
    /// Rounds `k` with `2^k <= rank`: those with a left partner.
    rounds: usize,
    /// The running inclusive prefix — what every round sends, and the
    /// result of `scan`. The caller's buffer until the first fold; an
    /// owned one is folded in place.
    incl: Cow<'a, [T]>,
    /// `exscan`: the fold of everything received so far.
    excl: Option<Vec<T>>,
    exclusive: bool,
}

impl<'a, T: Plain, O: ReduceOp<T>> DoublingScan<'a, T, O> {
    fn run(comm: &Comm, send: Cow<'a, [T]>, op: O, exclusive: bool) -> Result<Self> {
        let mut engine = RoundEngine::new(DoublingScan {
            tag: comm.next_internal_tag(),
            op,
            rounds: (usize::BITS - comm.rank().leading_zeros()) as usize,
            incl: send,
            excl: None,
            exclusive,
        });
        drive(comm, &mut engine, Bytes::new())?;
        Ok(engine.algo)
    }
}

/// Round `k`'s right partner, if the communicator has one.
fn right(comm: &Comm, k: usize) -> Option<Rank> {
    Some(comm.rank() + (1 << k)).filter(|&to| to < comm.size())
}

impl<T: Plain, O: ReduceOp<T>> Rounds for DoublingScan<'_, T, O> {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        (comm.rank() - (1 << k), self.tag)
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        match right(comm, k) {
            Some(to) => send_slice_internal(comm, to, self.tag, &self.incl),
            None => Ok(()),
        }
    }

    fn absorb(&mut self, comm: &Comm, k: usize, theirs: Bytes) -> Result<()> {
        // `exscan` only ever sends the inclusive prefix: it stays
        // current while a later round still has someone to send it to.
        if !self.exclusive || right(comm, k + 1).is_some() {
            let incl = std::mem::take(&mut self.incl);
            self.incl = fold_bytes_to_vec(&theirs, incl, &self.op)?.into();
        }
        if self.exclusive {
            self.excl = Some(match self.excl.take() {
                Some(excl) => fold_bytes_to_vec(&theirs, excl.into(), &self.op)?,
                None => bytes_into_vec(theirs),
            });
        }
        Ok(())
    }

    /// The rounds past this rank's last receive all send the finished
    /// prefix: one payload, serialized once (`exscan` moves it out).
    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let mut later = (self.rounds..).map_while(|k| right(comm, k)).peekable();
        if later.peek().is_some() {
            let payload = if self.exclusive {
                bytes_from_cow(std::mem::take(&mut self.incl))
            } else {
                bytes_from_slice(&self.incl)
            };
            later.try_for_each(|to| send_internal(comm, to, self.tag, payload.clone()))?;
        }
        Ok(Completion::Done)
    }
}

impl Comm {
    /// Inclusive prefix reduction (mirrors `MPI_Scan`): rank `r` receives
    /// the elementwise reduction over ranks `0..=r`. Rank order is always
    /// preserved, so non-commutative operations are safe; the operation
    /// must be associative (partial prefixes are combined). The
    /// accumulator moves out (no zero-fill, no receive-buffer copy).
    /// `send` is a borrowed slice or an owned `Vec<T>`; an owned
    /// contribution is consumed and folded in place — the result is the
    /// moved-in allocation — where a borrowed one folds into a fresh
    /// vector.
    pub fn scan_vec<'a, T: Plain, O: ReduceOp<T>>(
        &self,
        send: impl Into<Cow<'a, [T]>>,
        op: O,
    ) -> Result<Vec<T>> {
        self.count_op("scan");
        let done = DoublingScan::run(self, send.into(), op, false)?;
        if let Cow::Borrowed(own) = done.incl {
            // Rank 0: its prefix is its contribution.
            crate::metrics::record_copy(std::mem::size_of_val(own));
        }
        Ok(done.incl.into_owned())
    }

    /// Exclusive prefix reduction (mirrors `MPI_Exscan`): rank `r > 0`
    /// receives the reduction over ranks `0..r`; rank 0 receives `None`
    /// (its value is undefined in MPI). An owned `send` is consumed: it
    /// seeds the running prefix this rank sends on (folded in place,
    /// and moved into the transport once final), where a borrowed one
    /// is serialized or folded into a fresh vector.
    pub fn exscan_vec<'a, T: Plain, O: ReduceOp<T>>(
        &self,
        send: impl Into<Cow<'a, [T]>>,
        op: O,
    ) -> Result<Option<Vec<T>>> {
        self.count_op("exscan");
        Ok(DoublingScan::run(self, send.into(), op, true)?.excl)
    }
}

#[cfg(test)]
mod tests {
    use crate::op::Sum;
    use crate::{non_commutative, Universe};

    #[test]
    fn scan_running_sums() {
        Universe::run(5, |comm| {
            let mine = [comm.rank() as u64 + 1];
            let out = comm.scan_vec(&mine, Sum).unwrap();
            let r = comm.rank() as u64 + 1;
            assert_eq!(out, [r * (r + 1) / 2]);
        });
    }

    #[test]
    fn scan_preserves_order() {
        Universe::run(4, |comm| {
            // Decimal concatenation of positive integers (`ilog10`
            // rejects 0): non-commutative, associative.
            let op = non_commutative(|a: &u64, b: &u64| a * 10u64.pow(b.ilog10() + 1) + b);
            let mine = [comm.rank() as u64 + 1];
            let out = comm.scan_vec(&mine, op).unwrap();
            let expected = (1..=comm.rank() as u64 + 1).fold(0, |acc, d| acc * 10 + d);
            assert_eq!(out, [expected]);
        });
    }

    #[test]
    fn exscan_shifted_prefix() {
        Universe::run(4, |comm| {
            let mine = [comm.rank() as u32 + 1];
            let pre = comm.exscan_vec(&mine, Sum).unwrap();
            match comm.rank() {
                0 => assert!(pre.is_none()),
                r => {
                    let r = r as u32;
                    assert_eq!(pre.unwrap(), vec![r * (r + 1) / 2]);
                }
            }
        });
    }

    #[test]
    fn scan_elementwise() {
        Universe::run(3, |comm| {
            let mine = [1u32, comm.rank() as u32];
            let out = comm.scan_vec(&mine, Sum).unwrap();
            assert_eq!(out[0], comm.rank() as u32 + 1);
            let r = comm.rank() as u32;
            assert_eq!(out[1], r * (r + 1) / 2);
        });
    }

    #[test]
    fn scan_single_rank() {
        Universe::run(1, |comm| {
            assert_eq!(comm.scan_vec(&[9u8], Sum).unwrap(), [9]);
            assert!(comm.exscan_vec(&[9u8], Sum).unwrap().is_none());
        });
    }
}
