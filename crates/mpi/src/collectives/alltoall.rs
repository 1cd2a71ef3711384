//! Alltoall, alltoallv and a byte-level alltoallw.
//!
//! The v/w exchanges run the `alltoall/pairwise` row of
//! [`algos::table`](super::algos::table); the equal-block `alltoall`
//! selects among the `alltoall/*` rows. Either way this file drives the
//! row's engine on the stack — for `alltoall` and the packed
//! `alltoallv_blocks_bytes`, the plan their `i*` / `*_init` twins start
//! (`Comm::alltoall_plan`, `Comm::alltoallv_plan`).

use std::ops::Range;

use bytes::Bytes;

use super::algos::table::Site;
use super::nonblocking::drive_blocks;
use super::{byte_ranges, check_layout, place_blocks, place_blocks_at};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::bytes_from_slice;
use crate::Plain;

impl Comm {
    /// Personalized all-to-all of equal-sized blocks (mirrors
    /// `MPI_Alltoall`): block `i` of `send` goes to rank `i`; block `j` of
    /// `recv` comes from rank `j`. The tuning selects pairwise exchange
    /// (`p-1` messages per rank, sent even when a block is empty — the
    /// dense-exchange behaviour the sparse/grid plugins of §V-A improve
    /// on) or Bruck (`ceil(log2 p)` packed messages) for small blocks.
    pub fn alltoall_into<T: Plain>(&self, send: &[T], recv: &mut [T]) -> Result<()> {
        if recv.len() < send.len() {
            self.count_op("alltoall");
            return Err(MpiError::InvalidLayout(format!(
                "alltoall: receive buffer holds {} elements, need {}",
                recv.len(),
                send.len()
            )));
        }
        let n = send.len() / self.size();
        place_blocks_at(self.alltoall_blocks(send)?, recv, |src| (src * n, n))
    }

    /// The exchange of [`alltoall_into`](Self::alltoall_into) as
    /// delivered blocks by source rank, under the same algorithm
    /// selection: what a caller that builds its own result needs.
    pub fn alltoall_blocks<T: Plain>(&self, send: &[T]) -> Result<Vec<Bytes>> {
        self.count_op("alltoall");
        self.alltoall_plan(Site::BLOCKING, "alltoall", send, drive_blocks)
    }

    /// Personalized all-to-all with per-destination counts and
    /// displacements (mirrors `MPI_Alltoallv`).
    pub fn alltoallv_into<T: Plain>(
        &self,
        send: &[T],
        send_counts: &[usize],
        send_displs: &[usize],
        recv: &mut [T],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<()> {
        self.count_op("alltoallv");
        alltoallv_internal(
            self,
            send,
            send_counts,
            send_displs,
            recv,
            recv_counts,
            recv_displs,
        )
    }

    /// Self-sizing `alltoallv`: the send side of
    /// [`alltoallv_into`](Self::alltoallv_into) with no receive counts at
    /// all. Returns the delivered blocks by source rank; their lengths
    /// *are* the receive counts
    /// ([`block_counts`](super::block_counts)), read off the messages
    /// instead of a preceding count `alltoall`.
    pub fn alltoallv_blocks<T: Plain>(
        &self,
        send: &[T],
        send_counts: &[usize],
        send_displs: &[usize],
    ) -> Result<Vec<Bytes>> {
        self.count_op("alltoallv");
        let p = self.size();
        check_layout("alltoallv(send)", send_counts, send_displs, send.len(), p)?;
        let ranges = byte_ranges::<T>(send_counts, send_displs);
        exchange(self, bytes_from_slice(send), ranges)
    }

    /// Byte-level [`alltoallv_blocks`](Self::alltoallv_blocks) over an
    /// adopted payload: `packed` holds the per-peer blocks contiguously
    /// in rank order, `byte_counts[r]` bytes each — exactly, as for
    /// [`ialltoallv_bytes`](Self::ialltoallv_bytes): a payload longer
    /// than its counts is [`MpiError::InvalidLayout`] — and is scattered
    /// by refcount slicing, not one copy on the send side.
    pub fn alltoallv_blocks_bytes(
        &self,
        packed: Bytes,
        byte_counts: &[usize],
    ) -> Result<Vec<Bytes>> {
        self.count_op("alltoallv");
        self.alltoallv_plan("alltoallv", packed, byte_counts, drive_blocks)
    }

    /// Byte-level alltoallw: counts and displacements are in bytes, so
    /// each destination may receive a differently-typed payload.
    ///
    /// `MPI_Alltoallw` takes a *derived datatype per peer*; real
    /// implementations construct, commit and free `p` datatypes and
    /// cannot apply the optimized fixed-type exchange algorithms — the
    /// reason MPL's datatype-routed v-collectives are slow (§II of the
    /// paper, Ghosh et al.). The virtual clock charges one extra message
    /// startup per peer for this datatype management, so the cost shape
    /// is reproduced; with the cost model disabled the charge is zero.
    pub fn alltoallw_bytes(
        &self,
        send: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv: &mut [u8],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> Result<()> {
        self.count_op("alltoallw");
        let datatype_overhead = self.size() as u64 * self.clock.borrow().model().alpha_ns;
        self.clock.borrow_mut().add_ns(datatype_overhead);
        alltoallv_internal(
            self,
            send,
            send_counts,
            send_displs,
            recv,
            recv_counts,
            recv_displs,
        )
    }
}

/// The counted exchange: [`exchange`] + verify-and-place.
pub(crate) fn alltoallv_internal<T: Plain>(
    comm: &Comm,
    send: &[T],
    send_counts: &[usize],
    send_displs: &[usize],
    recv: &mut [T],
    recv_counts: &[usize],
    recv_displs: &[usize],
) -> Result<()> {
    let (p, rank) = (comm.size(), comm.rank());
    check_layout("alltoallv(send)", send_counts, send_displs, send.len(), p)?;
    check_layout("alltoallv(recv)", recv_counts, recv_displs, recv.len(), p)?;
    // Checked before anything is sent: a rank that disagrees with
    // itself must not leave its peers waiting.
    if send_counts[rank] != recv_counts[rank] {
        return Err(MpiError::InvalidLayout(format!(
            "alltoallv: self block sends {} elements but expects {}",
            send_counts[rank], recv_counts[rank]
        )));
    }
    let ranges = byte_ranges::<T>(send_counts, send_displs);
    let blocks = exchange(comm, bytes_from_slice(send), ranges)?;
    place_blocks(blocks, recv, recv_counts, recv_displs)
}

/// The exchange behind the displaced `alltoallv` forms (the packed one
/// is `Comm::alltoallv_plan`'s): `packed` is the
/// whole send buffer as one shared payload, `packed[ranges[r]]` goes to
/// rank `r` — one serialization pass total instead of one allocation +
/// copy per peer, the own block included. A message is sent for every
/// peer, zero-sized blocks too (dense-exchange semantics). Returns the
/// delivered blocks by source rank.
fn exchange(comm: &Comm, packed: Bytes, ranges: Vec<Range<usize>>) -> Result<Vec<Bytes>> {
    let mut engine = comm.alltoallv_flat("alltoallv", comm.next_internal_tag(), &ranges);
    drive_blocks(comm, &mut engine, packed)
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn alltoall_transpose() {
        Universe::run(4, |comm| {
            // send[i] = rank * 10 + i; after the exchange, recv[j] = j * 10 + rank.
            let send: Vec<u32> = (0..4).map(|i| comm.rank() as u32 * 10 + i).collect();
            let mut recv = vec![0u32; 4];
            comm.alltoall_into(&send, &mut recv).unwrap();
            let expected: Vec<u32> = (0..4).map(|j| j * 10 + comm.rank() as u32).collect();
            assert_eq!(recv, expected);
        });
    }

    #[test]
    fn alltoall_multi_element_blocks() {
        Universe::run(3, |comm| {
            let r = comm.rank() as u64;
            let send: Vec<u64> = (0..6).map(|i| r * 100 + i).collect(); // 2 per peer
            let mut recv = vec![0u64; 6];
            comm.alltoall_into(&send, &mut recv).unwrap();
            for j in 0..3u64 {
                assert_eq!(recv[(j * 2) as usize], j * 100 + r * 2);
                assert_eq!(recv[(j * 2 + 1) as usize], j * 100 + r * 2 + 1);
            }
        });
    }

    #[test]
    fn alltoallv_asymmetric() {
        // Rank r sends r+1 copies of its rank to every peer.
        Universe::run(3, |comm| {
            let r = comm.rank();
            let send: Vec<u8> = vec![r as u8; 3 * (r + 1)];
            let send_counts = vec![r + 1; 3];
            let send_displs: Vec<usize> = (0..3).map(|i| i * (r + 1)).collect();
            let recv_counts = vec![1usize, 2, 3];
            let recv_displs = vec![0usize, 1, 3];
            let mut recv = vec![0u8; 6];
            comm.alltoallv_into(
                &send,
                &send_counts,
                &send_displs,
                &mut recv,
                &recv_counts,
                &recv_displs,
            )
            .unwrap();
            assert_eq!(recv, vec![0, 1, 1, 2, 2, 2]);
        });
    }

    #[test]
    fn alltoallv_zero_blocks() {
        // Only rank 0 sends anything, and only to rank 1.
        Universe::run(3, |comm| {
            let (send, send_counts): (Vec<u32>, Vec<usize>) = if comm.rank() == 0 {
                (vec![7, 8], vec![0, 2, 0])
            } else {
                (vec![], vec![0, 0, 0])
            };
            let send_displs = vec![0usize, 0, send_counts[1]];
            let recv_counts: Vec<usize> = if comm.rank() == 1 {
                vec![2, 0, 0]
            } else {
                vec![0, 0, 0]
            };
            let recv_displs = vec![0usize; 3];
            let mut recv = vec![0u32; 2];
            comm.alltoallv_into(
                &send,
                &send_counts,
                &send_displs,
                &mut recv,
                &recv_counts,
                &recv_displs,
            )
            .unwrap();
            if comm.rank() == 1 {
                assert_eq!(recv, vec![7, 8]);
            }
        });
    }

    #[test]
    fn alltoallw_bytes_roundtrip() {
        Universe::run(2, |comm| {
            let send: Vec<u8> = vec![comm.rank() as u8; 4];
            let counts = vec![2usize, 2];
            let displs = vec![0usize, 2];
            let mut recv = vec![0u8; 4];
            comm.alltoallw_bytes(&send, &counts, &displs, &mut recv, &counts, &displs)
                .unwrap();
            assert_eq!(recv, vec![0, 0, 1, 1]);
        });
    }

    #[test]
    fn alltoall_single_rank() {
        Universe::run(1, |comm| {
            let send = vec![5u16, 6];
            let mut recv = vec![0u16; 2];
            comm.alltoall_into(&send, &mut recv).unwrap();
            assert_eq!(recv, vec![5, 6]);
        });
    }
}
