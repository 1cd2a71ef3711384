//! Reduce and allreduce.
//!
//! Commutative operations run the algorithm the communicator's
//! [`CollTuning`](super::algos::CollTuning) selects among the `reduce/*`
//! and `allreduce/*` rows of [`algos::table`](super::algos::table).
//! Non-commutative operations fall back to the `reduce/flat_gather` row
//! (+ broadcast), whose fold preserves strict rank order for any `p`.

use std::borrow::Cow;

use bytes::Bytes;

use super::algos::reduce::TreeReduce;
use super::algos::table::{tuned, Call, Site};
use super::algos::ReduceAlgo;
use super::nonblocking::{drive, fold_ordered, Finish, RoundEngine};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::op::ReduceOp;
use crate::plain::bytes_from_cow;
use crate::{Plain, Rank};

/// The one definition behind every allreduce entry point: the allreduce
/// plan `iallreduce` and `allreduce_init` start, driven on this stack.
/// `send` is the rank's contribution as the caller holds it: an owned
/// vector enters the transport as is — and, under recursive doubling,
/// comes back holding the result — a borrowed slice is serialized
/// once.
pub(crate) fn allreduce_internal<T: Plain, O: ReduceOp<T>>(
    comm: &Comm,
    send: Cow<'_, [T]>,
    op: O,
) -> Result<Vec<T>> {
    if comm.size() == 1 {
        return Ok(send.into_owned());
    }
    let own = bytes_from_cow(send);
    comm.allreduce_plan(Site::BLOCKING, "allreduce", own, op, |comm, engine, own| {
        let done = drive(comm, engine, own)?;
        Ok(done.into_vec().expect("the reduced vector").0)
    })
}

/// Flat reduction to `root`, the `reduce/flat_gather` row: the flat
/// gather driven on the stack (every other rank's contribution goes to
/// the wire, an owned one unserialized), then the root folds what it
/// collected strictly in rank order — safe for non-commutative
/// operations — into an accumulator that stays typed.
fn flat_reduce<T: Plain, O: ReduceOp<T>>(
    comm: &Comm,
    what: &'static str,
    send: Cow<'_, [T]>,
    op: &O,
    root: Rank,
) -> Result<Option<Vec<T>>> {
    let mut engine = comm.gather_flat(what, comm.next_internal_tag(), root, Finish::Blocks);
    let blocks = drive(comm, &mut engine, bytes_from_cow(send))?.into_blocks();
    blocks.map(|b| fold_ordered(what, b, op)).transpose()
}

impl Comm {
    /// Elementwise reduction to the root (mirrors `MPI_Reduce`). `recv` is
    /// significant at the root only and must match `send` in length there.
    pub fn reduce_into<T: Plain, O: ReduceOp<T>>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: O,
        root: Rank,
    ) -> Result<()> {
        if let Some(folded) = self.reduce_vec(send, op, root)? {
            if recv.len() != folded.len() {
                return Err(MpiError::InvalidLayout(format!(
                    "reduce: receive buffer holds {} elements, need {}",
                    recv.len(),
                    folded.len()
                )));
            }
            crate::plain::copy_slice(&folded, recv);
        }
        Ok(())
    }

    /// Elementwise reduction to the root, whose accumulator moves out:
    /// `Some(folded)` at the root, `None` elsewhere (no receive-buffer
    /// copy). `send` is a borrowed slice or an owned `Vec<T>`; an owned
    /// contribution is consumed — it becomes the accumulator, or the
    /// wire payload of a rank that folds nothing — where a borrowed one
    /// is copied.
    pub fn reduce_vec<'a, T: Plain, O: ReduceOp<T>>(
        &self,
        send: impl Into<Cow<'a, [T]>>,
        op: O,
        root: Rank,
    ) -> Result<Option<Vec<T>>> {
        self.count_op("reduce");
        self.check_rank(root)?;

        let send = send.into();
        let bytes = std::mem::size_of_val(&*send);
        let call = Call::reduction(bytes, op.is_commutative());
        tuned(self, Site::BLOCKING, call, |algo| match algo {
            ReduceAlgo::FlatGather => flat_reduce(self, "reduce", send, &op, root),
            ReduceAlgo::BinomialTree => {
                // The tree `ireduce` resumes, driven to completion; the
                // root's accumulator stays typed and moves out.
                let tag = self.next_internal_tag();
                let tree = TreeReduce::new(self, tag, send, op, root, false);
                let mut engine = RoundEngine::new(tree);
                drive(self, &mut engine, Bytes::new())?;
                Ok(engine.algo.acc)
            }
        })
    }

    /// Elementwise reduction to all ranks (mirrors `MPI_Allreduce`).
    pub fn allreduce_into<T: Plain, O: ReduceOp<T>>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: O,
    ) -> Result<()> {
        self.count_op("allreduce");
        if send.len() != recv.len() {
            return Err(MpiError::InvalidLayout(format!(
                "allreduce: send has {} elements, recv has {}",
                send.len(),
                recv.len()
            )));
        }
        let out = allreduce_internal(self, send.into(), op)?;
        crate::plain::copy_slice(&out, recv);
        Ok(())
    }

    /// Elementwise reduction to all ranks; the result is materialized
    /// once (no receive-buffer copy). `send` is a borrowed slice or an
    /// owned `Vec<T>`: an owned contribution is consumed — it enters the
    /// transport without a copy — where a borrowed one is serialized
    /// once.
    pub fn allreduce_vec<'a, T: Plain, O: ReduceOp<T>>(
        &self,
        send: impl Into<Cow<'a, [T]>>,
        op: O,
    ) -> Result<Vec<T>> {
        self.count_op("allreduce");
        allreduce_internal(self, send.into(), op)
    }

    /// Reduces a single value to all ranks.
    pub fn allreduce_one<T: Plain, O: ReduceOp<T>>(&self, value: T, op: O) -> Result<T> {
        self.count_op("allreduce");
        let out = allreduce_internal(self, std::slice::from_ref(&value).into(), op)?;
        Ok(out[0])
    }
}

#[cfg(test)]
mod tests {
    use crate::op::{Max, Min, Sum};
    use crate::{non_commutative, Universe};

    #[test]
    fn allreduce_sum() {
        for p in [1, 2, 3, 4, 5, 7, 8] {
            Universe::run(p, move |comm| {
                let total = comm.allreduce_one(comm.rank() as u64 + 1, Sum).unwrap();
                let expected = (p * (p + 1) / 2) as u64;
                assert_eq!(total, expected, "p = {p}");
            });
        }
    }

    #[test]
    fn allreduce_elementwise_min_max() {
        Universe::run(4, |comm| {
            let r = comm.rank() as i64;
            let mine = [r, -r];
            let mut lo = [0i64; 2];
            let mut hi = [0i64; 2];
            comm.allreduce_into(&mine, &mut lo, Min).unwrap();
            comm.allreduce_into(&mine, &mut hi, Max).unwrap();
            assert_eq!(lo, [0, -3]);
            assert_eq!(hi, [3, 0]);
        });
    }

    #[test]
    fn allreduce_closure_op() {
        Universe::run(3, |comm| {
            let prod = comm
                .allreduce_one(comm.rank() as u64 + 2, |a: &u64, b: &u64| a * b)
                .unwrap();
            assert_eq!(prod, 2 * 3 * 4);
        });
    }

    #[test]
    fn allreduce_non_commutative_preserves_order() {
        // String-like concatenation encoded as digit mixing:
        // f(a, b) = a * 10 + b is associative-ish over this domain for a
        // left fold; rank order 0..p must be preserved exactly.
        for p in [2, 3, 5] {
            Universe::run(p, move |comm| {
                let op = non_commutative(|a: &u64, b: &u64| a * 10 + b);
                let out = comm.allreduce_one(comm.rank() as u64 + 1, op).unwrap();
                let expected =
                    (1..=p as u64).fold(0, |acc, d| if acc == 0 { d } else { acc * 10 + d });
                assert_eq!(out, expected, "p = {p}");
            });
        }
    }

    #[test]
    fn reduce_to_each_root() {
        for root in 0..4 {
            Universe::run(4, move |comm| {
                let mine = [comm.rank() as u32, 1];
                let mut out = [0u32; 2];
                comm.reduce_into(&mine, &mut out, Sum, root).unwrap();
                if comm.rank() == root {
                    assert_eq!(out, [1 + 2 + 3, 4]);
                }
            });
        }
    }

    #[test]
    fn reduce_non_commutative() {
        Universe::run(4, |comm| {
            let op = non_commutative(|a: &u64, b: &u64| a * 10 + b);
            let mine = [comm.rank() as u64];
            let mut out = [0u64];
            comm.reduce_into(&mine, &mut out, op, 1).unwrap();
            if comm.rank() == 1 {
                assert_eq!(out[0], 123); // 0,1,2,3 folded left-to-right
            }
        });
    }

    #[test]
    fn allreduce_length_mismatch_errors() {
        Universe::run(1, |comm| {
            let mut out = [0u8; 2];
            assert!(comm.allreduce_into(&[1u8], &mut out, Sum).is_err());
        });
    }

    #[test]
    fn allreduce_float_sum() {
        Universe::run(6, |comm| {
            let s = comm.allreduce_one(0.5f64, Sum).unwrap();
            assert!((s - 3.0).abs() < 1e-12);
        });
    }
}
