//! Collective operations.
//!
//! Every collective is implemented **on top of the point-to-point layer**
//! with its textbook algorithm (Sanders et al., "Sequential and Parallel
//! Algorithms and Data Structures"):
//!
//! With `s` = bytes this rank sends, `r` = bytes of its final result and
//! `b` = bytes of one alltoall block, the copies-per-rank column states
//! the payload bytes memcpy'd by that rank on the shared-`Bytes`
//! datapath (forwarding a received payload is a refcount clone, never a
//! re-serialization, and in-place folds over delivered payloads are
//! compute, not copies; see [`crate::metrics`]).
//!
//! The hot collectives — `allreduce`, `bcast`, `allgather` (and the
//! counted `allgatherv`), `alltoall`, `reduce`, the neighborhood
//! exchanges — are **tunable**: a
//! per-communicator [`CollTuning`] policy selects the algorithm at call
//! time, by default switching at size thresholds chosen so the default
//! is never slower under the cluster cost model than the former
//! single-algorithm behaviour. Their menu — algorithm, startups, copy
//! bill, needs, static `Auto` rule, lifecycles — is declared and
//! documented once, in [`algos::table`]. The remaining collectives run
//! one algorithm:
//!
//! | operation        | algorithm                              | startups (per rank) | copies per rank      |
//! |------------------|----------------------------------------|---------------------|----------------------|
//! | `barrier`        | dissemination                          | ceil(log2 p)        | 0                    |
//! | `gather/scatter` | flat tree (linear at root)             | 1 (root: p-1)       | root: s + r; other: s + r |
//! | `alltoall(v/w)`  | the `alltoall/pairwise` row: one message per peer, pack-once + slice | p-1 | s + r      |
//! | `scan/exscan`    | rank-ordered recursive doubling, in-place folds | <= ceil(log2 p) | <= s·ceil(log2 p) + s |
//!
//! Every non-reducing collective is bounded by `s + r` (+ Bruck's
//! deliberate repack trade): each payload byte is serialized once at its
//! origin and materialized once at each destination, independent of hop
//! count or child count. The reductions' former `O(s log p)`
//! materialization bill is gone: combining steps fold the delivered
//! payload into the accumulator in place.
//!
//! Every irregular exchange (`alltoallv`, `allgatherv`, `gatherv`,
//! `neighbor_alltoallv`, `neighbor_allgatherv`) comes in two forms over
//! **one** exchange. The self-sizing
//! `*_blocks` form returns the delivered payloads; messages carry their
//! own length, so the block lengths *are* the receive counts
//! ([`block_counts`]) and no count collective precedes the payload. The
//! counted `*_into` form is the same exchange followed by
//! verify-and-place ([`place_blocks`]): a block that disagrees with its
//! declared count reports [`MpiError::Truncated`] after the exchange has
//! completed, leaving no message of the call queued. `allgatherv` is the
//! one exception to "same exchange": its counted form selects an
//! `allgather/*` row by the counts' total, and its log-round rows carve
//! every block to its count. Its self-sizing form runs those rows too,
//! from `p = 4` whatever the sizes: their rounds carry each block's
//! length and the blocks small enough to ride along.
//!
//! The equal-block collectives follow the same split, so that a caller
//! building its own result writes every received byte once:
//! [`Comm::allgather_blocks`], [`Comm::alltoall_blocks`] (pairwise and
//! Bruck alike end in per-source slices) and [`Comm::gather_blocks`]
//! return the delivered payloads under the usual algorithm selection,
//! and `allgather_into` / `alltoall_into` / `gather_into` are that
//! exchange plus a placement straight into `recv`. The reductions end in
//! an owned accumulator, which the `*_vec` forms (`allreduce_vec`,
//! `reduce_vec`, `scan_vec`, `exscan_vec`) move out.
//!
//! The third axis is the lifecycle. Every algorithm is defined exactly
//! once, as one of the two resumable engines of
//! `collectives/nonblocking.rs`: a `Rounds` description under the one
//! round loop (the dissemination barrier, both `allreduce` rows,
//! recursive-doubling and Bruck `allgather`, Bruck `alltoall`, the
//! binomial and van de Geijn broadcasts, the binomial `reduce` tree,
//! the doubling `scan` / `exscan`) or the flat `Exchange` (every eager
//! one: ring, pairwise, flat gather + fold, scatter, both neighborhood
//! rows). Every operation with more than one lifecycle builds its
//! engine in **one plan** — its internal tags, then its rank-local
//! checks, its row, its engine — that the lifecycles drive differently:
//! the blocking call drives the engine to completion on its stack, `i*`
//! boxes it into a [`Request`](crate::Request) that `test`/`wait`
//! resume, `*_init` builds it once and restarts it every cycle — and
//! one static `Auto` rule picks the row for all three. The blocking
//! `gather*`, `reduce` and `scan` keep short bodies of their own (the
//! first read the root's buffer in place, the others keep a typed
//! accumulator).
//!
//! The table's `Auto` rules are the *static* policy — the warm-up
//! fallback. With [`CollTuning::self_tuning`] enabled, `Auto` is
//! instead driven by the communicator's **measured cost model**
//! ([`algos::model`]): an online per-class alpha-beta estimator fed by
//! wall-clock measurements of the calls that actually ran, folded on
//! rank 0 and published to all ranks on an epoch cadence so matching
//! calls keep selecting identically. The model is inherited on
//! `dup`/`split`, resettable ([`Comm::reset_model`]), frozen into
//! persistent plans at `*_init`, and never overrides `Select::Force`.
//! Decision counters are exposed per rank via [`Comm::tuning_stats`]
//! and, whole-run, `RankStats::tuning` in a `RunReport`.
//!
//! This matters for the reproduction: the paper's §V-A compares all-to-all
//! strategies whose distinguishing property is *how many messages* they
//! send; building collectives from p2p makes those counts real (and
//! chargeable by the virtual clock) rather than hidden inside an opaque
//! vendor implementation.
//!
//! The internal (`*_internal`) functions do not bump the PMPI-style call
//! counters; the public `Comm` methods count exactly one operation per
//! user-visible call, so binding tests can assert which MPI operations a
//! KaMPIng call expands to.

pub mod algos;
mod allgather;
mod alltoall;
mod barrier;
mod bcast;
mod gather;
pub mod neighborhood;
pub(crate) mod nonblocking;
mod reduce;
mod scan;
mod scatter;

pub use algos::{
    AlgoClass, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, BcastParts, ClassEstimate,
    ClassStat, CollTuning, ModelConfig, ModelSnapshot, NeighborhoodAlgo, ReduceAlgo, Select,
    TuningStats,
};
pub(crate) use allgather::allgather_internal;
pub(crate) use alltoall::alltoallv_internal;
pub(crate) use bcast::{
    bcast_bytes_internal, bcast_children, bcast_forward, bcast_one_internal, bcast_parent,
};
pub use gather::GatherBlock;
pub(crate) use reduce::allreduce_internal;

use std::ops::Range;

use bytes::Bytes;

use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::{
    bytes_from_slice, copy_bytes_into, extend_vec_from_bytes, vec_with_capacity, whole_elements,
};
use crate::{Plain, Rank, Tag};

/// Sends raw bytes on an internal (negative) tag. Passing a clone of an
/// already-shared payload costs a refcount bump, not a copy.
#[inline]
pub(crate) fn send_internal(comm: &Comm, dest: Rank, tag: Tag, payload: Bytes) -> Result<()> {
    comm.deliver_bytes(dest, tag, payload, None)
}

/// Sends `payload[range]` to each `(destination, range)`: refcount
/// slices, so a packed payload is scattered without a copy.
pub(crate) fn send_slices(
    comm: &Comm,
    tag: Tag,
    payload: &Bytes,
    parts: impl IntoIterator<Item = (Rank, Range<usize>)>,
) -> Result<()> {
    let mut parts = parts.into_iter();
    parts.try_for_each(|(dest, range)| send_internal(comm, dest, tag, payload.slice(range)))
}

/// Sends a typed slice on an internal tag (one counted copy into the
/// transport).
#[inline]
pub(crate) fn send_slice_internal<T: Plain>(
    comm: &Comm,
    dest: Rank,
    tag: Tag,
    data: &[T],
) -> Result<()> {
    send_internal(comm, dest, tag, bytes_from_slice(data))
}

/// Validates a counts/displacements layout against a buffer length.
pub(crate) fn check_layout(
    what: &str,
    counts: &[usize],
    displs: &[usize],
    buf_len: usize,
    comm_size: usize,
) -> Result<()> {
    if counts.len() != comm_size {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: counts has {} entries for communicator of size {comm_size}",
            counts.len()
        )));
    }
    if displs.len() != comm_size {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: displs has {} entries for communicator of size {comm_size}",
            displs.len()
        )));
    }
    for r in 0..comm_size {
        let end = displs[r].checked_add(counts[r]).ok_or_else(|| {
            MpiError::InvalidLayout(format!("{what}: displacement overflow at rank {r}"))
        })?;
        if end > buf_len {
            return Err(MpiError::InvalidLayout(format!(
                "{what}: rank {r} block [{}..{end}) exceeds buffer length {buf_len}",
                displs[r]
            )));
        }
    }
    Ok(())
}

/// The byte range of each peer's block in a send buffer (`counts` /
/// `displs` in elements of `T`, already validated).
pub(crate) fn byte_ranges<T>(counts: &[usize], displs: &[usize]) -> Vec<Range<usize>> {
    let elem = std::mem::size_of::<T>();
    let range = |(&d, &c): (&usize, &usize)| d * elem..(d + c) * elem;
    displs.iter().zip(counts).map(range).collect()
}

/// The one send-layout check of the packed exchanges (`iscatterv`,
/// `ialltoallv`, `alltoallv_init` and their neighborhood forms, whose
/// blocks lie back to back in peer order): `counts` must have one entry
/// per peer and sum to the buffer length `len`, both in units of `unit`
/// bytes. Returns the byte range each peer's block occupies. The check
/// is rank-local, so callers take the operation's tag first — an
/// erroring rank must stay tag-aligned with peers whose layouts are
/// fine.
pub(crate) fn packed_ranges(
    what: &str,
    counts: &[usize],
    unit: usize,
    len: usize,
    peers: usize,
) -> Result<Vec<Range<usize>>> {
    if counts.len() != peers {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: counts has {} entries for {peers} peers",
            counts.len()
        )));
    }
    let total = counts.iter().try_fold(0usize, |acc, &c| acc.checked_add(c));
    if total != Some(len) {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: send buffer holds {len} but counts sum to {}",
            total.map_or("more than usize::MAX".to_string(), |t| t.to_string())
        )));
    }
    let mut offset = 0usize;
    Ok(counts
        .iter()
        .map(|&c| {
            let range = offset * unit..(offset + c) * unit;
            offset += c;
            range
        })
        .collect())
}

/// The error of a rooted collective whose root passed no data. Returned
/// only after the operation's internal tags are taken, so the erroring
/// root stays tag-aligned with its peers.
pub(crate) fn root_without_data(what: &str) -> MpiError {
    MpiError::InvalidLayout(format!("{what}: the root must supply data"))
}

/// Computes exclusive-prefix-sum displacements from counts
/// (the ubiquitous `std::exclusive_scan` pattern of Fig. 2).
pub fn displacements_from_counts(counts: &[usize]) -> Vec<usize> {
    let mut displs = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in counts {
        displs.push(acc);
        acc += c;
    }
    displs
}

/// Element counts of delivered blocks: `counts[j]` whole `T`s arrived in
/// `blocks[j]`. This is how an exchange with receive counts omitted
/// learns them — the messages are self-describing, so no count exchange
/// precedes the payload. A block that does not divide into elements
/// reports [`MpiError::Truncated`].
pub fn block_counts<T: Plain, B: AsRef<[u8]>>(blocks: &[B]) -> Result<Vec<usize>> {
    blocks
        .iter()
        .map(|b| whole_elements::<T>(b.as_ref().len()))
        .collect()
}

/// Concatenates delivered blocks, in order, into one exactly-sized
/// vector: one allocation, every byte copied once, no zero-fill, and
/// each block released as soon as it is copied. `counts` must be
/// [`block_counts`] of `blocks`.
pub fn concat_blocks<T: Plain, B: AsRef<[u8]>>(blocks: Vec<B>, counts: &[usize]) -> Vec<T> {
    let mut data = vec_with_capacity(counts.iter().sum());
    for block in blocks {
        extend_vec_from_bytes(&mut data, block.as_ref());
    }
    data
}

/// Verify-and-place, the receive half of every counted exchange: block
/// `j` is copied to `recv[displs[j]..][..counts[j]]` and released. A
/// block whose size differs from its declared count reports
/// [`MpiError::Truncated`] — after the exchange has completed, so no
/// message of the call is left queued.
///
/// # Panics
///
/// Panics if the layout does not fit `recv` or has fewer entries than
/// there are blocks; callers validate it first.
pub fn place_blocks<T: Plain, B: AsRef<[u8]>>(
    blocks: Vec<B>,
    recv: &mut [T],
    counts: &[usize],
    displs: &[usize],
) -> Result<()> {
    place_blocks_at(blocks, recv, |j| (displs[j], counts[j]))
}

/// [`place_blocks`] over a computed layout: `slot(j)` is block `j`'s
/// (displacement, count), so a regular layout needs no vectors.
pub(crate) fn place_blocks_at<T: Plain, B: AsRef<[u8]>>(
    blocks: Vec<B>,
    recv: &mut [T],
    slot: impl Fn(usize) -> (usize, usize),
) -> Result<()> {
    for (j, block) in blocks.into_iter().enumerate() {
        let (at, count) = slot(j);
        let dst = &mut recv[at..at + count];
        if block.as_ref().len() != std::mem::size_of_val(dst) {
            return Err(MpiError::Truncated {
                message_bytes: block.as_ref().len(),
                buffer_bytes: std::mem::size_of_val(dst),
            });
        }
        copy_bytes_into(block.as_ref(), dst);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_counted_concatenated_and_placed() {
        let blocks = vec![vec![1u8, 0, 2, 0], vec![], vec![3u8, 0]];
        let counts = block_counts::<u16, _>(&blocks).unwrap();
        assert_eq!(counts, vec![2, 0, 1]);
        assert_eq!(concat_blocks::<u16, _>(blocks.clone(), &counts), [1, 2, 3]);
        let mut recv = [9u16; 5];
        place_blocks(blocks.clone(), &mut recv, &counts, &[3, 0, 0]).unwrap();
        assert_eq!(recv, [3, 9, 9, 1, 2]);
        // A declared count the block does not match, and a block that is
        // not whole elements, are typed errors.
        let err = place_blocks(blocks, &mut recv, &[2, 0, 2], &[0, 0, 2]).unwrap_err();
        assert_eq!(
            err,
            MpiError::Truncated {
                message_bytes: 2,
                buffer_bytes: 4
            }
        );
        assert!(matches!(
            block_counts::<u32, _>(&[vec![0u8; 6]]),
            Err(MpiError::Truncated {
                message_bytes: 6,
                buffer_bytes: 4
            })
        ));
    }

    #[test]
    fn displacement_computation() {
        assert_eq!(displacements_from_counts(&[3, 1, 0, 2]), vec![0, 3, 4, 4]);
        assert_eq!(displacements_from_counts(&[]), Vec::<usize>::new());
    }

    #[test]
    fn layout_validation() {
        assert!(check_layout("t", &[1, 2], &[0, 1], 3, 2).is_ok());
        // counts length mismatch
        assert!(check_layout("t", &[1], &[0, 1], 3, 2).is_err());
        // displs length mismatch
        assert!(check_layout("t", &[1, 2], &[0], 3, 2).is_err());
        // out of bounds
        assert!(check_layout("t", &[1, 3], &[0, 1], 3, 2).is_err());
    }

    #[test]
    fn layout_overflow_detected() {
        assert!(check_layout("t", &[2], &[usize::MAX], 3, 1).is_err());
    }
}
