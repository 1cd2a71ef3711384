//! Reproducible reduction plugin (§V-C, Fig. 13).
//!
//! IEEE 754 addition is not associative, so the result of a parallel sum
//! usually depends on the number of ranks — a reproducibility hazard for
//! scientific code. This plugin evaluates the reduction along a **fixed
//! binary tree over global element indices** (Fig. 13), independent of
//! how the elements are distributed: running with 1, 3 or 64 ranks gives
//! the bit-identical result, while still reducing in parallel with only a
//! few messages (binary-tree scheme of Villa et al. / Stelz).
//!
//! Tree shape: a range of length `len` splits after
//! `next_power_of_two(len) / 2` elements, i.e. the left child is the
//! largest complete power-of-two subtree (for 7 elements: `(4, (2, 1))`,
//! exactly the tree in Fig. 13).

use kmp_mpi::op::ReduceOp;
use kmp_mpi::{MpiError, Plain, Rank, Result, Tag};

use crate::communicator::Communicator;

/// Tag reserved for reproducible-reduce partials.
pub const REPRO_REDUCE_TAG: Tag = 0x7A5C_0002;

/// Reproducible reduction as a communicator extension.
pub trait ReproducibleReduce {
    /// Reduces the distributed array (this rank holds `local`, the
    /// global layout is contiguous blocks in rank order) to a single
    /// value with a distribution-independent evaluation order. Every rank
    /// receives the result. An array empty on every rank has no value:
    /// every rank returns [`MpiError::InvalidLayout`].
    ///
    /// The operation must be associative for the result to be meaningful;
    /// it need **not** be commutative, and for floating-point addition
    /// the evaluation order — and hence the rounding — is fixed.
    fn reproducible_reduce<T: Plain, O: ReduceOp<T>>(&self, local: &[T], op: O) -> Result<T>;
}

impl ReproducibleReduce for Communicator {
    fn reproducible_reduce<T: Plain, O: ReduceOp<T>>(&self, local: &[T], op: O) -> Result<T> {
        // Establish the global layout: block starts per rank.
        let counts: Vec<usize> = self.raw().allgather_vec(&[local.len()])?;
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0usize;
        for &c in &counts {
            starts.push(acc);
            acc += c;
        }
        starts.push(acc);
        let n = acc;
        // `n` is the allgathered total, the same on every rank: all of
        // them return here, and none is left waiting in the tree.
        if n == 0 {
            return Err(MpiError::InvalidLayout(
                "reproducible_reduce: no rank holds an element".into(),
            ));
        }

        let ctx = TreeCtx {
            comm: self,
            starts: &starts,
            my_start: starts[self.rank()],
            my_end: starts[self.rank() + 1],
            local,
            op: &op,
        };
        let root_value = ctx.reduce_range(0, n)?;

        // The tree root lands on the owner of element 0; share it.
        let owner0 = ctx.owner(0);
        let result = self
            .raw()
            .bcast_one(root_value.unwrap_or_else(kmp_mpi::plain::zeroed), owner0)?;
        Ok(result)
    }
}

struct TreeCtx<'a, T, O> {
    comm: &'a Communicator,
    starts: &'a [usize],
    my_start: usize,
    my_end: usize,
    local: &'a [T],
    op: &'a O,
}

impl<'a, T: Plain, O: ReduceOp<T>> TreeCtx<'a, T, O> {
    /// Rank owning global element `i`.
    fn owner(&self, i: usize) -> Rank {
        // starts is sorted; the owner is the last rank whose start <= i.
        // Empty blocks make several ranks share a start; partition_point
        // finds the first start > i, and we step back over empty blocks.
        let mut r = self.starts.partition_point(|&s| s <= i) - 1;
        // Skip empty blocks (start == end) backwards-compatible: the
        // owner must actually contain i.
        while self.starts[r + 1] <= i {
            r += 1;
        }
        r
    }

    /// Deterministic fold of a fully-local range along the fixed tree,
    /// implemented as the classic binary-counter stack (same bracketing
    /// as the recursion, O(len) time, O(log len) space).
    fn fold_local(&self, lo: usize, hi: usize) -> T {
        let slice = &self.local[lo - self.my_start..hi - self.my_start];
        // Stack of (subtree_size, value); merging equal sizes yields the
        // power-of-two subtrees, and the final right-to-left collapse
        // reproduces the `(big, (smaller, ...))` bracketing.
        let mut stack: Vec<(usize, T)> = Vec::with_capacity(64);
        for &x in slice {
            let mut size = 1usize;
            let mut val = x;
            while let Some(&(top_size, top_val)) = stack.last() {
                if top_size != size {
                    break;
                }
                stack.pop();
                val = self.op.apply(&top_val, &val);
                size *= 2;
            }
            stack.push((size, val));
        }
        let (_, mut acc) = stack.pop().expect("non-empty range");
        while let Some((_, v)) = stack.pop() {
            acc = self.op.apply(&v, &acc);
        }
        acc
    }

    /// Reduces global range `[lo, hi)`; returns `Some(value)` on the rank
    /// owning `lo`, `None` elsewhere.
    fn reduce_range(&self, lo: usize, hi: usize) -> Result<Option<T>> {
        // Ranks with no stake in this range do nothing.
        let overlaps = self.my_start < hi && self.my_end > lo;
        if !overlaps {
            return Ok(None);
        }
        // Fully local: deterministic tree fold without communication.
        if lo >= self.my_start && hi <= self.my_end {
            return Ok(Some(self.fold_local(lo, hi)));
        }

        let len = hi - lo;
        let half = (len.next_power_of_two()) / 2;
        let mid = lo + half;
        let left = self.reduce_range(lo, mid)?;
        let right = self.reduce_range(mid, hi)?;

        let owner_lo = self.owner(lo);
        let owner_mid = self.owner(mid);
        let me = self.comm.rank();

        if owner_lo == owner_mid {
            if me == owner_lo {
                let l = left.expect("owner of lo holds the left result");
                let r = right.expect("owner of mid holds the right result");
                return Ok(Some(self.op.apply(&l, &r)));
            }
            return Ok(None);
        }

        if me == owner_mid {
            let r = right.expect("owner of mid holds the right result");
            self.comm.raw().send_one(r, owner_lo, REPRO_REDUCE_TAG)?;
            return Ok(None);
        }
        if me == owner_lo {
            let l = left.expect("owner of lo holds the left result");
            let (r, _) = self.comm.raw().recv_one::<T>(owner_mid, REPRO_REDUCE_TAG)?;
            return Ok(Some(self.op.apply(&l, &r)));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use kmp_mpi::Universe;
    use rand::prelude::*;

    /// Reference: the same fixed tree, computed sequentially.
    fn tree_fold(values: &[f64]) -> f64 {
        fn rec(v: &[f64]) -> f64 {
            if v.len() == 1 {
                return v[0];
            }
            let half = v.len().next_power_of_two() / 2;
            rec(&v[..half]) + rec(&v[half..])
        }
        rec(values)
    }

    fn adversarial_values(n: usize, seed: u64) -> Vec<f64> {
        // Mixed magnitudes make float addition order-sensitive.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mag = rng.random_range(-12..12);
                rng.random::<f64>() * 10f64.powi(mag) * if rng.random() { 1.0 } else { -1.0 }
            })
            .collect()
    }

    fn distribute(values: &[f64], p: usize, skew: bool) -> Vec<Vec<f64>> {
        // Either balanced blocks or heavily skewed ones.
        let n = values.len();
        let mut blocks = Vec::new();
        let mut start = 0;
        for r in 0..p {
            let len = if skew {
                if r == 0 {
                    n - (p - 1).min(n)
                } else {
                    usize::from(start < n)
                }
            } else {
                n / p + usize::from(r < n % p)
            };
            blocks.push(values[start..start + len].to_vec());
            start += len;
        }
        assert_eq!(start, n);
        blocks
    }

    #[test]
    fn bit_identical_across_rank_counts() {
        let values = adversarial_values(257, 7);
        let reference = tree_fold(&values);
        for p in [1usize, 2, 3, 4, 5, 8] {
            let blocks = distribute(&values, p, false);
            let results = Universe::run(p, |comm| {
                let comm = Communicator::new(comm);
                comm.reproducible_reduce(&blocks[comm.rank()], ops::Sum)
                    .unwrap()
            });
            for r in results {
                assert_eq!(
                    r.to_bits(),
                    reference.to_bits(),
                    "result must be bit-identical for p = {p}"
                );
            }
        }
    }

    #[test]
    fn bit_identical_under_skewed_distribution() {
        let values = adversarial_values(100, 13);
        let reference = tree_fold(&values);
        let blocks = distribute(&values, 4, true);
        let results = Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            comm.reproducible_reduce(&blocks[comm.rank()], ops::Sum)
                .unwrap()
        });
        for r in results {
            assert_eq!(r.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn plain_allreduce_may_differ_but_repro_does_not() {
        // Demonstrates the problem being solved: naive reductions change
        // with p; the reproducible one does not.
        let values = adversarial_values(64, 3);
        let reference = tree_fold(&values);
        for p in [2usize, 4] {
            let blocks = distribute(&values, p, false);
            let repro = Universe::run(p, |comm| {
                let comm = Communicator::new(comm);
                comm.reproducible_reduce(&blocks[comm.rank()], ops::Sum)
                    .unwrap()
            });
            assert!(repro.iter().all(|r| r.to_bits() == reference.to_bits()));
        }
    }

    #[test]
    fn works_with_integer_ops() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let local: Vec<u64> = vec![comm.rank() as u64 + 1; 4];
            let total = comm.reproducible_reduce(&local, ops::Sum).unwrap();
            assert_eq!(total, 4 * (1 + 2 + 3));
        });
    }

    /// Nothing anywhere is a typed error on every rank, not a panic,
    /// and the communicator stays usable.
    #[test]
    fn empty_on_every_rank_is_an_error_everywhere() {
        for p in [1usize, 4] {
            Universe::run(p, |comm| {
                let comm = Communicator::new(comm);
                let err = comm
                    .reproducible_reduce::<f64, _>(&[], ops::Sum)
                    .unwrap_err();
                assert!(matches!(err, MpiError::InvalidLayout(_)), "{err:?}");
                let total = comm.reproducible_reduce(&[1u64], ops::Sum).unwrap();
                assert_eq!(total, p as u64);
            });
        }
    }

    #[test]
    fn empty_block_on_some_ranks() {
        let results = Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let local: Vec<f64> = if comm.rank() == 1 {
                vec![]
            } else {
                vec![1.5, 2.5]
            };
            comm.reproducible_reduce(&local, ops::Sum).unwrap()
        });
        for r in results {
            assert_eq!(r, 8.0);
        }
    }

    #[test]
    fn seven_elements_match_fig13_tree() {
        // Fig. 13: 7 elements on 3 ranks (3, 2, 2).
        let values: Vec<f64> = vec![1e16, 1.0, -1e16, 2.0, 3.0, -2.0, 0.5];
        let reference = tree_fold(&values);
        let blocks: [Vec<f64>; 3] = [vec![1e16, 1.0, -1e16], vec![2.0, 3.0], vec![-2.0, 0.5]];
        let results = Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            comm.reproducible_reduce(&blocks[comm.rank()], ops::Sum)
                .unwrap()
        });
        for r in results {
            assert_eq!(r.to_bits(), reference.to_bits());
        }
    }
}
