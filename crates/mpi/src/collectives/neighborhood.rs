//! Neighborhood collectives: sparse `O(degree)` exchange over a
//! declared topology (MPI-3 `MPI_Neighbor_allgather(v)` /
//! `MPI_Neighbor_alltoall(v)` and their nonblocking / persistent
//! variants).
//!
//! A topology-blind sparse exchange runs a dense `alltoallv` with
//! zeroed counts for the ranks it has nothing for — still posting `p-1`
//! envelopes and occupying `p-1` matching-engine slots per rank per
//! round. The collectives here post exactly `out_degree` sends and
//! `in_degree` receives along the frozen edge lists of a
//! [`Neighborhood`] communicator; the
//! per-round envelope saving is algorithmic and shows up directly in
//! [`MailboxStats::envelopes_posted`](crate::MailboxStats) (pinned by
//! tests below and by `sparse_exchange_posts_degree_envelopes_on_chord_rings`
//! in `crates/mpi/tests/substrate_props.rs`; the `neighborhood` probe of the
//! `floors` bench times the exchange). See the
//! [`topology`](crate::topology) module doc for the degree-vs-p cost
//! model.
//!
//! Every form — blocking, `ineighbor_*`, `neighbor_*_init` — is one
//! plan (`sparse_plan`): the flat `Exchange` engine of
//! `collectives/nonblocking.rs` along the declared edges, handed to the
//! blocking driver (`drive_blocks`, under one `neighborhood/sparse`
//! span), the `i*` driver or the persistent one. One message per
//! out-edge is the only schedule: no tuning slot selects among
//! others, and the exchange is no row of
//! [`algos::table`](super::algos::table). Its zero-copy discipline is
//! the dense collectives': each call packs (or adopts) its payload once,
//! per-destination fan-out is a refcount clone or `Bytes::slice`, and
//! received blocks materialize once at their destination — `s + r`
//! copied bytes per rank, independent of degree.
//!
//! All exchanges on one communicator share a per-call internal tag;
//! messages between a `(source, destination)` pair form a FIFO stream,
//! so duplicate neighbors (legal, e.g. a periodic cartesian dimension
//! of extent 2) resolve by arrival order — the engine fills duplicate
//! slots strictly first-declared-first.

use std::borrow::Cow;
use std::ops::Range;

use bytes::Bytes;

use super::nonblocking::{drive_blocks, CollEngine, Exchange, Finish, Post};
use super::{byte_ranges, packed_ranges};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::lower::{Delivered, Layout};
use crate::persistent::PersistentRequest;
use crate::plain::{as_bytes, bytes_from_cow};
use crate::request::Request;
use crate::topology::Neighborhood;
use crate::trace;
use crate::{Plain, Tag};

/// The sparse exchange as an engine, in every lifecycle: `start` fans
/// the payload out along the frozen out-edge list — `payload[ranges[k]]`
/// to `destinations()[k]`, or with `None` the whole payload to each (an
/// allgather's refcount clones) — and one block per in-neighbor comes
/// back, [`Completion::Blocks`](crate::request::Completion::Blocks) in
/// declaration order.
fn sparse<N: Neighborhood + ?Sized>(
    n: &N,
    what: &'static str,
    tag: Tag,
    ranges: Option<Vec<Range<usize>>>,
) -> Exchange<'static> {
    let dests = n.destinations();
    let post = match ranges {
        Some(ranges) => Post::Sliced {
            parts: dests.iter().copied().zip(ranges).collect(),
            keep: 0..0,
        },
        None => Post::Whole(dests.to_vec()),
    };
    let edges = (n.sources().to_vec(), None);
    Exchange::new(what, tag, post, edges, Finish::Blocks)
}

/// How a call's payload splits into one block per out-neighbor, in
/// elements.
enum Blocks<'a> {
    /// The whole payload to each (an allgather's refcount clones).
    Whole,
    /// `counts[k]` elements for `destinations()[k]`, back to back.
    Packed(&'a [usize]),
    /// `counts[k]` elements at `displs[k]` for `destinations()[k]`.
    Placed(&'a [usize], &'a [usize]),
}

/// The plan of every form: the call counted and its tag taken under
/// `what`, the layout of `data` checked (rank-local, so after the tag:
/// an erroring rank stays tag-aligned with its peers), the op-named
/// trace instant over the local out-degree, and the [`sparse`] engine
/// with this call's payload — adopted when owned — handed to the
/// caller's driver.
fn sparse_plan<'c, N: Neighborhood + ?Sized, T: Plain, R>(
    n: &'c N,
    what: &'static str,
    data: Cow<'_, [T]>,
    blocks: Blocks<'_>,
    run: impl FnOnce(&'c Comm, Box<dyn CollEngine>, Bytes) -> Result<R>,
) -> Result<R> {
    let comm = n.comm();
    comm.count_op(what);
    let tag = comm.next_internal_tag();
    let degree = n.destinations().len();
    let ranges = match blocks {
        Blocks::Whole => None,
        Blocks::Packed(counts) => {
            let elem = std::mem::size_of::<T>();
            Some(packed_ranges(what, counts, elem, data.len(), degree)?)
        }
        Blocks::Placed(counts, displs) => {
            check_neighbor_layout(what, "destination", counts, displs, data.len(), degree)?;
            Some(byte_ranges::<T>(counts, displs))
        }
    };
    let bytes = std::mem::size_of_val(&*data) as u64;
    trace::instant(trace::cat::COLL, what, bytes, degree as u64);
    let engine = sparse(n, what, tag, ranges);
    run(comm, Box::new(engine), bytes_from_cow(data))
}

/// The blocking driver of [`sparse_plan`]: the engine run to completion
/// under one span, named `<collective>/<algorithm>` like the barrier's.
fn blocking(comm: &Comm, engine: Box<dyn CollEngine>, payload: Bytes) -> Result<Vec<Bytes>> {
    let (bytes, p) = (payload.len() as u64, comm.size() as u64);
    let _sp = trace::span(trace::cat::COLL, "neighborhood/sparse", bytes, p);
    drive_blocks(comm, engine, payload)
}

/// Validates a per-neighbor counts/displacements layout.
fn check_neighbor_layout(
    what: &str,
    role: &str,
    counts: &[usize],
    displs: &[usize],
    buf_len: usize,
    degree: usize,
) -> Result<()> {
    if counts.len() != degree || displs.len() != degree {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: {} counts / {} displs for {degree} {role} neighbors",
            counts.len(),
            displs.len()
        )));
    }
    for k in 0..degree {
        let end = displs[k].checked_add(counts[k]).ok_or_else(|| {
            MpiError::InvalidLayout(format!("{what}: displacement overflow at {role} {k}"))
        })?;
        if end > buf_len {
            return Err(MpiError::InvalidLayout(format!(
                "{what}: {role} {k} block [{}..{end}) exceeds buffer length {buf_len}",
                displs[k]
            )));
        }
    }
    Ok(())
}

/// The neighborhood collectives, blanket-implemented for every
/// [`Neighborhood`] communicator
/// ([`CartComm`](crate::topology::CartComm),
/// [`DistGraphComm`](crate::topology::DistGraphComm)).
///
/// Block order is always *declaration order*: send block `k` goes to
/// `destinations()[k]`, received block `j` came from `sources()[j]`.
pub trait NeighborhoodColl: Neighborhood {
    /// Sends `data` to every out-neighbor and returns one received
    /// vector per in-neighbor (mirrors `MPI_Neighbor_allgather`; blocks
    /// may differ in size, so this is also the `v` variant). `s + r`
    /// copied bytes: one serialization regardless of out-degree.
    fn neighbor_allgather_vecs<T: Plain>(&self, data: &[T]) -> Result<Vec<Vec<T>>> {
        let data = Cow::Borrowed(data);
        let blocks = sparse_plan(self, "neighbor_allgather", data, Blocks::Whole, blocking)?;
        let block = |b| Delivered::Message(b).into_vec(Layout::default());
        blocks.into_iter().map(block).collect()
    }

    /// Self-sizing `neighbor_allgatherv`: one delivered block per
    /// in-neighbor in declaration order. The block lengths *are* the
    /// receive counts — no count travels ahead of the payload.
    fn neighbor_allgatherv_blocks<T: Plain>(&self, data: &[T]) -> Result<Vec<Bytes>> {
        let data = Cow::Borrowed(data);
        sparse_plan(self, "neighbor_allgatherv", data, Blocks::Whole, blocking)
    }

    /// Counted [`neighbor_allgatherv_blocks`](Self::neighbor_allgatherv_blocks)
    /// into a caller-owned buffer (mirrors `MPI_Neighbor_allgatherv`):
    /// the block from `sources()[j]` lands at
    /// `recv[recv_displs[j]..][..recv_counts[j]]`. A block that differs
    /// from its declared count reports [`MpiError::Truncated`], as in
    /// the dense collectives (it used to be `InvalidLayout`), once the
    /// exchange has completed.
    fn neighbor_allgatherv_into<T: Plain>(
        &self,
        data: &[T],
        recv: &mut [T],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<()> {
        // The layout check is rank-local: exchange first, so a rank
        // whose layout is wrong stays tag-aligned with — and sends its
        // block to — the peers whose layouts are fine.
        let blocks = self.neighbor_allgatherv_blocks(data)?;
        let degree = self.sources().len();
        check_neighbor_layout(
            "neighbor_allgatherv",
            "source",
            recv_counts,
            recv_displs,
            recv.len(),
            degree,
        )?;
        Delivered::Blocks(blocks).into_slice(recv, Layout::placed(recv_counts, recv_displs))
    }

    /// Sends `sends[k]` to `destinations()[k]` and returns one received
    /// vector per in-neighbor (mirrors `MPI_Neighbor_alltoall`;
    /// variable block sizes make it the `v` variant too).
    fn neighbor_alltoall_vecs<T: Plain>(&self, sends: &[Vec<T>]) -> Result<Vec<Vec<T>>> {
        // Pack once, slice a refcount per neighbor.
        let counts: Vec<usize> = sends.iter().map(Vec::len).collect();
        let blocks = sends.iter().map(|v| as_bytes(v)).collect();
        let packed = Delivered::<T, _>::Blocks(blocks).into_vec(Layout::default())?;
        let counts = Blocks::Packed(&counts);
        let blocks = sparse_plan(self, "neighbor_alltoall", packed.into(), counts, blocking)?;
        let block = |b| Delivered::Message(b).into_vec(Layout::default());
        blocks.into_iter().map(block).collect()
    }

    /// Self-sizing `neighbor_alltoallv`: sends
    /// `send[send_displs[k]..][..send_counts[k]]` to `destinations()[k]`
    /// and returns one delivered block per in-neighbor in declaration
    /// order; the block lengths *are* the receive counts. Packs `send`
    /// once and slices a refcount per neighbor.
    fn neighbor_alltoallv_blocks<T: Plain>(
        &self,
        send: &[T],
        send_counts: &[usize],
        send_displs: &[usize],
    ) -> Result<Vec<Bytes>> {
        let blocks = Blocks::Placed(send_counts, send_displs);
        sparse_plan(self, "neighbor_alltoallv", send.into(), blocks, blocking)
    }

    /// Counted [`neighbor_alltoallv_blocks`](Self::neighbor_alltoallv_blocks)
    /// into caller-owned buffers (mirrors `MPI_Neighbor_alltoallv`):
    /// the block from `sources()[j]` lands at
    /// `recv[recv_displs[j]..][..recv_counts[j]]`. A count mismatch is
    /// [`MpiError::Truncated`] (formerly `InvalidLayout`), see
    /// [`neighbor_allgatherv_into`](Self::neighbor_allgatherv_into).
    #[allow(clippy::too_many_arguments)]
    fn neighbor_alltoallv_into<T: Plain>(
        &self,
        send: &[T],
        send_counts: &[usize],
        send_displs: &[usize],
        recv: &mut [T],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<()> {
        // Exchange first (see neighbor_allgatherv_into).
        let blocks = self.neighbor_alltoallv_blocks(send, send_counts, send_displs)?;
        let degree = self.sources().len();
        check_neighbor_layout(
            "neighbor_alltoallv",
            "source",
            recv_counts,
            recv_displs,
            recv.len(),
            degree,
        )?;
        Delivered::Blocks(blocks).into_slice(recv, Layout::placed(recv_counts, recv_displs))
    }

    /// Nonblocking [`neighbor_allgather_vecs`](Self::neighbor_allgather_vecs):
    /// all `out_degree` sends are posted eagerly before the call
    /// returns; the [`Request`] completes with [`Completion::Blocks`](crate::request::Completion::Blocks),
    /// one block per in-neighbor in declaration order. Parks in mixed
    /// [`RequestSet`](crate::RequestSet)s through the engine's
    /// `sources()` hook like every other `i*` collective.
    fn ineighbor_allgatherv<'c, T: Plain>(&'c self, data: &[T]) -> Result<Request<'c>> {
        let (data, run) = (Cow::Borrowed(data), Comm::icoll);
        sparse_plan(self, "ineighbor_allgather", data, Blocks::Whole, run)
    }

    /// Nonblocking counted neighborhood exchange: `data` holds the
    /// per-destination blocks contiguously in declaration order,
    /// `counts[k]` elements for `destinations()[k]`. Packs once, slices
    /// a refcount per neighbor; completes with [`Completion::Blocks`](crate::request::Completion::Blocks)
    /// in source declaration order.
    fn ineighbor_alltoallv<'c, T: Plain>(
        &'c self,
        data: &[T],
        counts: &[usize],
    ) -> Result<Request<'c>> {
        let (data, counts) = (Cow::Borrowed(data), Blocks::Packed(counts));
        sparse_plan(self, "ineighbor_alltoallv", data, counts, Comm::icoll)
    }

    /// Persistent [`ineighbor_allgatherv`](Self::ineighbor_allgatherv)
    /// (the `MPI_Neighbor_allgather_init` shape): the edge schedule,
    /// internal tag, receive engine, and one standing wake-only
    /// registration per in-edge are frozen here; a stencil's steady
    /// state is `start`/`wait` only — zero per-cycle setup, pinned by
    /// the flat `notify_registrations` counter.
    fn neighbor_allgatherv_init<'c, T: Plain>(
        &'c self,
        data: &[T],
    ) -> Result<PersistentRequest<'c>> {
        let (data, run) = (Cow::Borrowed(data), Comm::persistent_coll);
        sparse_plan(self, "neighbor_allgather_init", data, Blocks::Whole, run)
    }

    /// Persistent [`ineighbor_alltoallv`](Self::ineighbor_alltoallv)
    /// (the `MPI_Neighbor_alltoallv_init` shape). The per-destination
    /// counts — and the byte ranges sliced out of the packed payload —
    /// are frozen at init;
    /// [`set_payload`](PersistentRequest::set_payload) enforces the
    /// frozen total.
    fn neighbor_alltoallv_init<'c, T: Plain>(
        &'c self,
        data: &[T],
        counts: &[usize],
    ) -> Result<PersistentRequest<'c>> {
        let (run, counts) = (Comm::persistent_coll, Blocks::Packed(counts));
        sparse_plan(self, "neighbor_alltoallv_init", data.into(), counts, run)
    }
}

impl<N: Neighborhood + ?Sized> NeighborhoodColl for N {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::bytes_to_vec;
    use crate::{RequestSet, Universe};

    /// The headline claim, pinned by the envelope meter: K rounds on a
    /// directed ring (in-degree 1) grow `envelopes_posted` by exactly
    /// K per rank, where a dense exchange would grow it by K·p.
    #[test]
    fn sparse_exchange_posts_degree_envelopes() {
        // Mid-run counter snapshots race with run-ahead peers (a barrier
        // only fences messages *to* this rank, not a fast left neighbor
        // already pushing round payloads), so measure differentially:
        // run the same deterministic program twice, reading each rank's
        // counter at closure end — by then every envelope ever destined
        // to it has been pushed — and subtract a zero-round baseline.
        fn ring_envelopes(rounds: usize) -> Vec<u64> {
            Universe::run(8, move |comm| {
                let p = comm.size();
                let right = (comm.rank() + 1) % p;
                let left = (comm.rank() + p - 1) % p;
                let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
                for _ in 0..rounds {
                    g.neighbor_alltoall_vecs(&[vec![comm.rank() as u32]])
                        .unwrap();
                }
                comm.mailbox_stats().envelopes_posted
            })
        }
        let (base, run) = (ring_envelopes(0), ring_envelopes(5));
        for (rank, (b, r)) in base.iter().zip(&run).enumerate() {
            assert_eq!(r - b, 5, "rank {rank}");
        }
    }

    /// Duplicate neighbors (periodic extent-2 dimension) resolve by
    /// FIFO declaration order.
    #[test]
    fn duplicate_neighbors_fill_in_declaration_order() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            // Both directions of an extent-2 periodic ring: the same
            // peer appears twice.
            let g = comm
                .create_dist_graph_adjacent(&[peer, peer], &[peer, peer])
                .unwrap();
            let sends = vec![
                vec![10u32 + comm.rank() as u32],
                vec![20 + comm.rank() as u32],
            ];
            let got = g.neighbor_alltoall_vecs(&sends).unwrap();
            // FIFO: first declared slot gets the first message.
            assert_eq!(got, vec![vec![10 + peer as u32], vec![20 + peer as u32]]);
        });
    }

    #[test]
    fn allgatherv_into_with_counts() {
        Universe::run(4, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm
                .create_dist_graph_adjacent(&[left, right], &[left, right])
                .unwrap();
            // Every rank contributes rank+1 elements.
            let data: Vec<u64> = vec![comm.rank() as u64; comm.rank() + 1];
            let counts = [left + 1, right + 1];
            let displs = [0, left + 1];
            let mut recv = vec![u64::MAX; left + 1 + right + 1];
            g.neighbor_allgatherv_into(&data, &mut recv, &counts, &displs)
                .unwrap();
            let mut expected = vec![left as u64; left + 1];
            expected.extend(vec![right as u64; right + 1]);
            assert_eq!(recv, expected);

            // Wrong counts surface as a typed error on the receiver —
            // after the exchange, so no peer is left waiting.
            let bad = g.neighbor_allgatherv_into(&data, &mut recv, &[1, 1], &[0, 1]);
            assert!(matches!(bad, Err(MpiError::Truncated { .. })));
        });
    }

    /// `i*` engines park in mixed RequestSets: a neighborhood gather
    /// and a point-to-point receive complete under one `wait_all`.
    #[test]
    fn ineighbor_parks_in_mixed_request_set() {
        Universe::run(4, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            // P2p traffic rides the parent communicator, neighborhood
            // traffic the topology's private dup — no interference.
            comm.send(&[comm.rank() as u32 + 100], right, 3).unwrap();
            let mut set = RequestSet::new();
            set.push(g.ineighbor_allgatherv(&[comm.rank() as u32]).unwrap());
            set.push(comm.irecv(left, 3));
            let mut done = set.wait_all().unwrap();
            assert_eq!(done.len(), 2);
            let (v, st) = done.pop().unwrap().into_vec::<u32>().unwrap();
            assert_eq!(v, vec![left as u32 + 100]);
            assert_eq!(st.source, left);
            let blocks = done.pop().unwrap().into_blocks().unwrap();
            assert_eq!(bytes_to_vec::<u32>(&blocks[0]), vec![left as u32]);
        });
    }

    #[test]
    fn ineighbor_alltoallv_slices_packed_payload() {
        Universe::run(3, |comm| {
            let p = comm.size();
            let others: Vec<usize> = (0..p).filter(|&r| r != comm.rank()).collect();
            let g = comm.create_dist_graph_adjacent(&others, &others).unwrap();
            // k+1 elements for the k-th destination, packed contiguously.
            let counts: Vec<usize> = (0..others.len()).map(|k| k + 1).collect();
            let data: Vec<u32> = (0..others.len())
                .flat_map(|k| vec![comm.rank() as u32 * 100 + k as u32; k + 1])
                .collect();
            let blocks = g
                .ineighbor_alltoallv(&data, &counts)
                .unwrap()
                .wait()
                .unwrap()
                .into_blocks()
                .unwrap();
            for (j, &s) in g.sources().iter().enumerate() {
                // Which position are we in s's destination list?
                let k = (0..p)
                    .filter(|&r| r != s)
                    .position(|r| r == comm.rank())
                    .unwrap();
                assert_eq!(
                    bytes_to_vec::<u32>(&blocks[j]),
                    vec![s as u32 * 100 + k as u32; k + 1]
                );
            }
        });
    }

    /// Persistent neighbor exchange: frozen plan, fresh payloads, and —
    /// the PR 7 invariant carried over — zero waiter registrations in
    /// the steady state.
    #[test]
    fn persistent_neighbor_alltoallv_cycles() {
        Universe::run(4, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm
                .create_dist_graph_adjacent(&[left, right], &[left, right])
                .unwrap();
            let mut req = g.neighbor_alltoallv_init(&[0u32, 0], &[1, 1]).unwrap();
            // Warm-up cycle, then pin the steady state.
            req.start().unwrap();
            req.wait().unwrap();
            comm.barrier().unwrap();
            let before = comm.mailbox_stats().notify_registrations;
            for cycle in 1..=10u32 {
                req.set_data(&[
                    comm.rank() as u32 + 1000 * cycle,
                    comm.rank() as u32 + 2000 * cycle,
                ])
                .unwrap();
                req.start().unwrap();
                let blocks = req.wait().unwrap().into_blocks().unwrap();
                // left sent us its block for its *right* neighbor
                // (position 1 in its packed payload), right its block
                // for its left (position 0).
                assert_eq!(
                    bytes_to_vec::<u32>(&blocks[0]),
                    vec![left as u32 + 2000 * cycle]
                );
                assert_eq!(
                    bytes_to_vec::<u32>(&blocks[1]),
                    vec![right as u32 + 1000 * cycle]
                );
            }
            assert_eq!(
                comm.mailbox_stats().notify_registrations,
                before,
                "steady-state cycles must not touch the posted queue"
            );
            assert_eq!(req.cycles(), 11);
        });
    }

    #[test]
    fn persistent_neighbor_allgatherv_cycles() {
        Universe::run(3, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            let mut req = g.neighbor_allgatherv_init(&[0u64]).unwrap();
            for cycle in 0..4u64 {
                req.set_data(&[comm.rank() as u64 + 10 * cycle]).unwrap();
                req.start().unwrap();
                let blocks = req.wait().unwrap().into_blocks().unwrap();
                assert_eq!(blocks.len(), 1);
                assert_eq!(
                    bytes_to_vec::<u64>(&blocks[0]),
                    vec![left as u64 + 10 * cycle]
                );
            }
        });
    }

    #[test]
    fn persistent_frozen_counts_enforced() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            let g = comm.create_dist_graph_adjacent(&[peer], &[peer]).unwrap();
            let mut req = g.neighbor_alltoallv_init(&[1u32, 2], &[2]).unwrap();
            assert!(matches!(
                req.set_data(&[1u32]).unwrap_err(),
                MpiError::InvalidLayout(_)
            ));
            req.start().unwrap();
            let blocks = req.wait().unwrap().into_blocks().unwrap();
            assert_eq!(bytes_to_vec::<u32>(&blocks[0]), vec![1, 2]);
        });
    }

    /// A payload that breaks the frozen total is reported under the
    /// name of the plan that froze it (both used to say "persistent
    /// alltoallv").
    #[test]
    fn frozen_total_error_names_the_plan() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            let g = comm.create_dist_graph_adjacent(&[peer], &[peer]).unwrap();
            let mut sparse = g.neighbor_alltoallv_init(&[1u32, 2], &[2]).unwrap();
            let mut dense = comm.alltoallv_init(&[1u32, 2], &[1, 1]).unwrap();
            for (plan, name) in [
                (&mut sparse, "neighbor_alltoallv_init"),
                (&mut dense, "alltoallv_init"),
            ] {
                match plan.set_data(&[1u32]).unwrap_err() {
                    MpiError::InvalidLayout(text) => {
                        assert!(text.starts_with(&format!("{name}: payload holds 4 bytes")))
                    }
                    other => panic!("{name}: {other:?}"),
                }
            }
        });
    }

    /// The zero-copy bill, pinned (PR 2/3 discipline): one serialization
    /// per call regardless of out-degree, one materialization per
    /// received block — `s + r`, never `s·degree`.
    #[test]
    fn copy_bill_is_s_plus_r_independent_of_degree() {
        Universe::run(4, |comm| {
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            // Two out-edges, two in-edges.
            let g = comm
                .create_dist_graph_adjacent(&[left, right], &[left, right])
                .unwrap();
            comm.barrier().unwrap();
            let data = vec![7u64; 100]; // s = 800 bytes
            let before = crate::metrics::snapshot();
            let got = g.neighbor_allgather_vecs(&data).unwrap();
            let delta = crate::metrics::snapshot().since(&before);
            assert_eq!(got.len(), 2);
            // s = 800 serialized once (fan-out to 2 dests is refcount
            // clones), r = 2 * 800 materialized once each.
            assert_eq!(delta.bytes_copied, 800 + 1600);
        });
    }

    #[test]
    fn empty_neighborhood_completes_immediately() {
        Universe::run(2, |comm| {
            let g = comm.create_dist_graph_adjacent(&[], &[]).unwrap();
            assert!(g.neighbor_allgather_vecs(&[1u8]).unwrap().is_empty());
            let c = g.ineighbor_allgatherv(&[1u8]).unwrap().wait().unwrap();
            assert!(c.into_blocks().unwrap().is_empty());
        });
    }
}
