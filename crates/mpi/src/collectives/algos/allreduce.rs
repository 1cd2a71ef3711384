//! Allreduce algorithms: recursive doubling and Rabenseifner.
//!
//! Both handle non-power-of-two communicators with the standard fixup:
//! the `extra = p - p2` highest ranks fold their vector into a partner
//! in the low half before the main phase and receive the finished
//! result afterwards.

use std::borrow::Cow;

use bytes::Bytes;

use super::table::{tuned, Call, Site};
use super::{fold_bytes_right, AllreduceAlgo};
use crate::collectives::{recv_internal, send_internal, send_slice_internal};
use crate::comm::Comm;
use crate::error::Result;
use crate::op::ReduceOp;
use crate::plain::{bytes_from_cow, bytes_from_slice, bytes_into_vec, extend_vec_from_bytes};
use crate::Plain;

/// Largest power of two `<= p`.
fn pow2_below(p: usize) -> usize {
    p.next_power_of_two() >> usize::from(!p.is_power_of_two())
}

/// Recursive doubling with in-place folds: log2 p rounds, each
/// serializing the full vector once (`s` copied per round); the received
/// payload folds into the accumulator without materializing. The
/// contribution becomes the accumulator — and, in the low half, the
/// result: moved if owned, copied once if borrowed.
pub(crate) fn recursive_doubling<T: Plain, O: ReduceOp<T>>(
    comm: &Comm,
    send: Cow<'_, [T]>,
    op: &O,
) -> Result<Vec<T>> {
    let p = comm.size();
    let rank = comm.rank();
    let tag = comm.next_internal_tag();
    let p2 = pow2_below(p);
    let extra = p - p2;
    let mut acc = send.into_owned();

    // Fold the `extra` highest ranks into the low half.
    if rank >= p2 {
        send_slice_internal(comm, rank - p2, tag, &acc)?;
    } else if rank + p2 < p {
        let theirs = recv_internal(comm, rank + p2, tag)?;
        fold_bytes_right(&mut acc, &theirs, op)?;
    }

    // Recursive doubling among ranks < p2.
    if rank < p2 {
        let mut mask = 1usize;
        while mask < p2 {
            let partner = rank ^ mask;
            send_slice_internal(comm, partner, tag, &acc)?;
            let theirs = recv_internal(comm, partner, tag)?;
            fold_bytes_right(&mut acc, &theirs, op)?;
            mask <<= 1;
        }
    }

    // Return results to the folded-in ranks.
    if rank < extra {
        send_slice_internal(comm, rank + p2, tag, &acc)?;
    } else if rank >= p2 {
        acc = bytes_into_vec(recv_internal(comm, rank - p2, tag)?);
    }
    Ok(acc)
}

/// Chunk boundary `i` (in elements) when splitting `n` elements into
/// `parts` near-equal chunks. Every rank computes the same split.
#[inline]
fn chunk_bound(n: usize, parts: usize, i: usize) -> usize {
    n * i / parts
}

/// Rabenseifner's algorithm: recursive-halving reduce-scatter (each
/// round serializes half of the shrinking working range and folds the
/// received half in place), then a ring allgather of the reduced
/// chunks (refcount forwarding). Total copy bill per rank:
/// `s·(1 - 1/p2)` (reduce-scatter sends) `+ s/p2` (own chunk pack)
/// `+ s` (result assembly) ≈ **2s**, versus `s·log2 p` for recursive
/// doubling.
pub(crate) fn rabenseifner<T: Plain, O: ReduceOp<T>>(
    comm: &Comm,
    send: Cow<'_, [T]>,
    op: &O,
) -> Result<Vec<T>> {
    let p = comm.size();
    let rank = comm.rank();
    let n = send.len();
    let p2 = pow2_below(p);
    let extra = p - p2;
    let fixup_tag = comm.next_internal_tag();
    let rs_tag = comm.next_internal_tag();
    let ring_tag = comm.next_internal_tag();
    let result_tag = comm.next_internal_tag();

    // Non-power-of-two fixup: the high ranks contribute and then wait
    // for the finished result.
    if rank >= p2 {
        send_internal(comm, rank - p2, fixup_tag, bytes_from_cow(send))?;
        return Ok(bytes_into_vec(recv_internal(comm, rank - p2, result_tag)?));
    }
    let mut acc = send.into_owned();
    if rank + p2 < p {
        let theirs = recv_internal(comm, rank + p2, fixup_tag)?;
        fold_bytes_right(&mut acc, &theirs, op)?;
    }

    // Recursive-halving reduce-scatter over the p2 low ranks: the
    // working range [lo, hi) (in chunks) halves every round; after
    // log2 p2 rounds rank v owns exactly chunk v.
    let (mut lo, mut hi) = (0usize, p2);
    let mut mask = p2 >> 1;
    while mask > 0 {
        let partner = rank ^ mask;
        let mid = lo + (hi - lo) / 2;
        let (keep, give) = if rank & mask == 0 {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        let give_elems = &acc[chunk_bound(n, p2, give.0)..chunk_bound(n, p2, give.1)];
        send_internal(comm, partner, rs_tag, bytes_from_slice(give_elems))?;
        let theirs = recv_internal(comm, partner, rs_tag)?;
        fold_bytes_right(
            &mut acc[chunk_bound(n, p2, keep.0)..chunk_bound(n, p2, keep.1)],
            &theirs,
            op,
        )?;
        (lo, hi) = keep;
        mask >>= 1;
    }
    debug_assert_eq!((lo, hi), (rank, rank + 1));

    // Ring allgather of the reduced chunks among the p2 low ranks:
    // chunks travel as shared payloads (forwarding clones a refcount).
    let own_chunk = bytes_from_slice(&acc[chunk_bound(n, p2, rank)..chunk_bound(n, p2, rank + 1)]);
    let mut chunks: Vec<Option<Bytes>> = (0..p2).map(|_| None).collect();
    chunks[rank] = Some(own_chunk);
    if p2 > 1 {
        let right = (rank + 1) % p2;
        let left = (rank + p2 - 1) % p2;
        for step in 0..p2 - 1 {
            let outgoing_origin = (rank + p2 - step) % p2;
            let outgoing = chunks[outgoing_origin]
                .clone()
                .expect("chunk arrived in a previous step");
            send_internal(comm, right, ring_tag, outgoing)?;
            let incoming_origin = (rank + p2 - 1 - step) % p2;
            chunks[incoming_origin] = Some(recv_internal(comm, left, ring_tag)?);
        }
    }

    // Assemble the result in chunk order (one copy of `r` total).
    let mut result: Vec<T> = Vec::with_capacity(n);
    crate::metrics::record_alloc();
    for chunk in &chunks {
        extend_vec_from_bytes(
            &mut result,
            chunk.as_ref().expect("ring delivered all chunks"),
        );
    }

    // Hand the finished result to the folded-in high rank, if any.
    if rank < extra {
        send_slice_internal(comm, rank + p2, result_tag, &result)?;
    }
    Ok(result)
}

/// Dispatches a commutative allreduce by the communicator's tuning
/// (model-driven when warm; see [`super::model`]).
pub(crate) fn dispatch<T: Plain, O: ReduceOp<T>>(
    comm: &Comm,
    send: Cow<'_, [T]>,
    op: &O,
) -> Result<Vec<T>> {
    let call = Call::sized(std::mem::size_of_val(&*send));
    tuned(comm, Site::BLOCKING, call, |algo| match algo {
        AllreduceAlgo::RecursiveDoubling => recursive_doubling(comm, send, op),
        AllreduceAlgo::Rabenseifner => rabenseifner(comm, send, op),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;
    use crate::Universe;

    /// Rabenseifner must agree with the oracle on every communicator
    /// size, including non-powers-of-two and vectors shorter than p.
    #[test]
    fn rabenseifner_matches_oracle_for_all_sizes() {
        for p in [1, 2, 3, 4, 5, 6, 7, 8, 9] {
            for n in [1usize, 2, 3, 7, 64] {
                Universe::run(p, move |comm| {
                    let mine: Vec<u64> = (0..n as u64)
                        .map(|i| comm.rank() as u64 * 100 + i)
                        .collect();
                    let out = rabenseifner(&comm, mine.into(), &Sum).unwrap();
                    let expected: Vec<u64> = (0..n as u64)
                        .map(|i| (0..p as u64).map(|r| r * 100 + i).sum())
                        .collect();
                    assert_eq!(out, expected, "p = {p}, n = {n}");
                });
            }
        }
    }

    #[test]
    fn recursive_doubling_matches_oracle() {
        for p in [1, 2, 3, 5, 8] {
            Universe::run(p, move |comm| {
                let mine = [comm.rank() as u64 + 1, 2];
                let out = recursive_doubling(&comm, (&mine).into(), &Sum).unwrap();
                assert_eq!(out, vec![(p * (p + 1) / 2) as u64, 2 * p as u64]);
            });
        }
    }
}
