//! Allgather and allgatherv.
//!
//! Both are tunable — the `allgather/*` rows of
//! [`algos::table`](super::algos::table) are the menu — and every form
//! drives the one allgather plan (`Comm::allgather_plan`) on its stack.
//! The latency rows carve their packed rounds by a block layout every
//! rank agrees on: equal blocks select by the contribution, a counted
//! `allgatherv` (`allgatherv_into`, or `allgatherv_blocks` given byte
//! counts) by the total of its counts. The self-sizing `allgatherv`
//! forms, whose sizes no rank knows up front, run the `allgather/ring`
//! row.

use bytes::Bytes;

use super::algos::allgather::BlockSizes;
use super::algos::table::Site;
use super::nonblocking::{check_divisible, drive_blocks};
use super::{block_counts, check_layout, concat_blocks, place_blocks, place_blocks_at};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::{bytes_from_slice, copy_bytes_into};
use crate::Plain;

/// Equal-block primitive with algorithm selection: every rank
/// contributes the same number of bytes (the `MPI_Allgather` contract),
/// so all ranks resolve the same row from the shared tuning and the
/// agreed block size. The plan `iallgather` starts, driven here.
pub(crate) fn allgather_blocks_tuned(comm: &Comm, own: Bytes) -> Result<Vec<Bytes>> {
    comm.allgather_plan(Site::BLOCKING, BlockSizes::Equal, own, drive_blocks)
}

/// Allgather of equal-size contributions; returns the concatenation
/// in rank order. Used internally (e.g. by `split`) without counting.
pub(crate) fn allgather_internal<T: Plain>(comm: &Comm, send: &[T]) -> Result<Vec<T>> {
    let blocks = allgather_blocks_tuned(comm, bytes_from_slice(send))?;
    let counts = block_counts::<T, _>(&blocks)?;
    Ok(concat_blocks(blocks, &counts))
}

impl Comm {
    /// Gathers equal-sized contributions from all ranks to all ranks,
    /// rank-ordered (mirrors `MPI_Allgather`). `recv` must hold
    /// `p * send.len()` elements; every delivered block is verified and
    /// copied straight to its slot.
    pub fn allgather_into<T: Plain>(&self, send: &[T], recv: &mut [T]) -> Result<()> {
        self.count_op("allgather");
        let p = self.size();
        let n = send.len();
        if recv.len() < p * n {
            return Err(MpiError::InvalidLayout(format!(
                "allgather: receive buffer holds {} elements, need {}",
                recv.len(),
                p * n
            )));
        }
        let blocks = allgather_blocks_tuned(self, bytes_from_slice(send))?;
        place_blocks_at(blocks, recv, |origin| (origin * n, n))
    }

    /// Gathers equal-sized contributions into a fresh vector.
    pub fn allgather_vec<T: Plain>(&self, send: &[T]) -> Result<Vec<T>> {
        self.count_op("allgather");
        allgather_internal(self, send)
    }

    /// The equal-block exchange of `allgather` as delivered blocks, by
    /// origin rank, over an adopted payload (an owned send buffer moves
    /// in without a copy). Every rank must contribute the same number of
    /// bytes; the algorithm is selected as for
    /// [`allgather_vec`](Self::allgather_vec).
    pub fn allgather_blocks(&self, own: Bytes) -> Result<Vec<Bytes>> {
        self.count_op("allgather");
        allgather_blocks_tuned(self, own)
    }

    /// In-place allgather mirroring the `MPI_IN_PLACE` idiom of Fig. 2:
    /// `buf` holds `p` blocks of `buf.len() / p` elements; each rank's own
    /// block is read from position `rank` and every block is filled on
    /// return.
    pub fn allgather_in_place<T: Plain>(&self, buf: &mut [T]) -> Result<()> {
        self.count_op("allgather");
        let p = self.size();
        check_divisible("allgather in place", buf.len(), p)?;
        let n = buf.len() / p;
        let own = &buf[self.rank() * n..(self.rank() + 1) * n];
        let blocks = allgather_blocks_tuned(self, bytes_from_slice(own))?;
        for (origin, bytes) in blocks.iter().enumerate() {
            if origin == self.rank() {
                continue; // own block is already in place
            }
            let dst = &mut buf[origin * n..(origin + 1) * n];
            if bytes.len() != std::mem::size_of_val(dst) {
                return Err(MpiError::Truncated {
                    message_bytes: bytes.len(),
                    buffer_bytes: std::mem::size_of_val(dst),
                });
            }
            copy_bytes_into(bytes, dst);
        }
        Ok(())
    }

    /// Gathers variable-sized contributions from all ranks to all ranks
    /// (mirrors `MPI_Allgatherv`). All ranks must pass identical
    /// `counts`/`displs`: their total selects the row as
    /// `MPI_Allgatherv`'s `tot_bytes` does in MPICH — recursive doubling
    /// or Bruck at or below the allgather ceilings of [`CollTuning`],
    /// the eager fan-out above them.
    ///
    /// [`CollTuning`]: crate::CollTuning
    pub fn allgatherv_into<T: Plain>(
        &self,
        send: &[T],
        recv: &mut [T],
        counts: &[usize],
        displs: &[usize],
    ) -> Result<()> {
        self.count_op("allgatherv");
        allgatherv_internal(self, send, recv, counts, displs)
    }

    /// `allgatherv` over an adopted payload: returns every rank's block
    /// by origin rank.
    ///
    /// Without `byte_counts` it is self-sizing: the block lengths *are*
    /// the receive counts ([`block_counts`]) — read off the messages,
    /// where Fig. 2 spends a separate `allgather` to learn them — and it
    /// runs the eager fan-out. With them (the bytes of every rank's
    /// block, identical on every rank) it is scheduled like
    /// [`allgatherv_into`](Self::allgatherv_into), and every block is
    /// carved to its count.
    pub fn allgatherv_blocks(
        &self,
        own: Bytes,
        byte_counts: Option<&[usize]>,
    ) -> Result<Vec<Bytes>> {
        self.count_op("allgatherv");
        match byte_counts {
            Some(counts) => allgatherv_counted(self, own, counts),
            None => drive_blocks(self, &mut self.allgather_flat(), own),
        }
    }
}

/// The counted allgatherv: the counted exchange, then each rank's block
/// verified and placed at its displacement exactly once.
pub(crate) fn allgatherv_internal<T: Plain>(
    comm: &Comm,
    send: &[T],
    recv: &mut [T],
    counts: &[usize],
    displs: &[usize],
) -> Result<()> {
    check_layout("allgatherv", counts, displs, recv.len(), comm.size())?;
    let elem = std::mem::size_of::<T>();
    let byte_counts: Vec<usize> = counts.iter().map(|&c| c * elem).collect();
    let blocks = allgatherv_counted(comm, bytes_from_slice(send), &byte_counts)?;
    place_blocks(blocks, recv, counts, displs)
}

/// The allgather plan over agreed byte counts. This rank's own block is
/// checked against its count like every delivered block — after the
/// exchange, as [`MpiError::Truncated`] — so a rank that disagrees with
/// itself leaves no peer waiting; its peers find the mismatch in the
/// block it sent.
fn allgatherv_counted(comm: &Comm, own: Bytes, byte_counts: &[usize]) -> Result<Vec<Bytes>> {
    let (p, rank, sent) = (comm.size(), comm.rank(), own.len());
    if byte_counts.len() != p {
        return Err(MpiError::InvalidLayout(format!(
            "allgatherv: {} counts for a communicator of size {p}",
            byte_counts.len()
        )));
    }
    // The total selects the row; the engines sum its parts.
    if (byte_counts.iter())
        .try_fold(0usize, |total, &c| total.checked_add(c))
        .is_none()
    {
        return Err(MpiError::InvalidLayout(
            "allgatherv: the counts sum past usize::MAX".into(),
        ));
    }
    let sizes = BlockSizes::Counted(byte_counts);
    let blocks = comm.allgather_plan(Site::BLOCKING, sizes, own, drive_blocks);
    if sent != byte_counts[rank] {
        return Err(MpiError::Truncated {
            message_bytes: sent,
            buffer_bytes: byte_counts[rank],
        });
    }
    blocks
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn allgather_concatenates_in_rank_order() {
        Universe::run(5, |comm| {
            let mine = [comm.rank() as u64 * 10, comm.rank() as u64 * 10 + 1];
            let all = comm.allgather_vec(&mine).unwrap();
            let expected: Vec<u64> = (0..5).flat_map(|r| [r * 10, r * 10 + 1]).collect();
            assert_eq!(all, expected);
        });
    }

    #[test]
    fn allgather_into_buffer() {
        Universe::run(3, |comm| {
            let mine = [comm.rank() as u8];
            let mut all = [0u8; 3];
            comm.allgather_into(&mine, &mut all).unwrap();
            assert_eq!(all, [0, 1, 2]);
        });
    }

    #[test]
    fn allgather_in_place_fig2_idiom() {
        Universe::run(4, |comm| {
            let mut counts = vec![0usize; 4];
            counts[comm.rank()] = comm.rank() + 100;
            comm.allgather_in_place(&mut counts).unwrap();
            assert_eq!(counts, vec![100, 101, 102, 103]);
        });
    }

    #[test]
    fn allgather_single_rank() {
        Universe::run(1, |comm| {
            let all = comm.allgather_vec(&[42u32]).unwrap();
            assert_eq!(all, vec![42]);
        });
    }

    #[test]
    fn allgatherv_variable_blocks() {
        Universe::run(4, |comm| {
            let mine: Vec<u32> = vec![comm.rank() as u32; comm.rank() + 1];
            let counts = [1usize, 2, 3, 4];
            let displs = [0usize, 1, 3, 6];
            let mut recv = vec![u32::MAX; 10];
            comm.allgatherv_into(&mine, &mut recv, &counts, &displs)
                .unwrap();
            assert_eq!(recv, vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
        });
    }

    #[test]
    fn allgatherv_with_gaps() {
        // Displacements may leave gaps; untouched entries must survive.
        Universe::run(2, |comm| {
            let mine = vec![comm.rank() as u16 + 1];
            let counts = [1usize, 1];
            let displs = [0usize, 2];
            let mut recv = vec![99u16; 3];
            comm.allgatherv_into(&mine, &mut recv, &counts, &displs)
                .unwrap();
            assert_eq!(recv, vec![1, 99, 2]);
        });
    }

    #[test]
    fn allgatherv_wrong_count_errors() {
        Universe::run(2, |comm| {
            // counts say rank 0 sends 2 but it sends 1: rank 0 reports
            // its own mismatch, rank 1 the short block it received, and
            // neither waits on the other.
            let counts = [2usize, 1];
            let displs = [0usize, 2];
            let mut recv = vec![0u8; 3];
            assert!(comm
                .allgatherv_into(&[1u8], &mut recv, &counts, &displs)
                .is_err());
            let all = comm.allgather_vec(&[comm.rank() as u8]).unwrap();
            assert_eq!(all, [0, 1]);
        });
    }

    #[test]
    fn counts_that_cannot_be_summed_are_refused_before_the_exchange() {
        Universe::run(2, |comm| {
            let own = crate::bytes_from_vec(vec![1u8]);
            let err = comm.allgatherv_blocks(own, Some(&[usize::MAX, 1]));
            assert!(matches!(err, Err(crate::MpiError::InvalidLayout(_))));
            let all = comm.allgather_vec(&[comm.rank() as u8]).unwrap();
            assert_eq!(all, [0, 1]);
        });
    }

    #[test]
    fn recursive_doubling_matches_ring() {
        use crate::{AllgatherAlgo, CollTuning};
        for p in [1, 2, 4, 8, 16] {
            Universe::run(p, move |comm| {
                let mine: Vec<u64> = (0..3).map(|i| comm.rank() as u64 * 100 + i).collect();
                comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Ring));
                let ring = comm.allgather_vec(&mine).unwrap();
                comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::RecursiveDoubling));
                let rd = comm.allgather_vec(&mine).unwrap();
                assert_eq!(ring, rd, "p = {p}");
            });
        }
    }

    #[test]
    fn recursive_doubling_in_place_and_auto() {
        use crate::{AllgatherAlgo, CollTuning};
        Universe::run(8, |comm| {
            comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::RecursiveDoubling));
            let mut counts = vec![0usize; 8];
            counts[comm.rank()] = comm.rank() + 100;
            comm.allgather_in_place(&mut counts).unwrap();
            assert_eq!(counts, (100..108).collect::<Vec<_>>());
            // Auto picks RD below the threshold on this power-of-two
            // communicator; the result is identical either way.
            comm.set_tuning(CollTuning::default());
            let all = comm.allgather_vec(&[comm.rank() as u32]).unwrap();
            assert_eq!(all, (0..8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn bruck_matches_ring_on_any_p() {
        use crate::{AllgatherAlgo, CollTuning};
        for p in [1, 2, 3, 5, 6, 7, 8, 11, 16] {
            Universe::run(p, move |comm| {
                let mine: Vec<u64> = (0..3).map(|i| comm.rank() as u64 * 100 + i).collect();
                comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Ring));
                let ring = comm.allgather_vec(&mine).unwrap();
                comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Bruck));
                let bruck = comm.allgather_vec(&mine).unwrap();
                assert_eq!(ring, bruck, "p = {p}");
            });
        }
    }

    #[test]
    fn bruck_in_place_and_auto_on_non_power_of_two() {
        use crate::{AllgatherAlgo, CollTuning};
        Universe::run(6, |comm| {
            comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Bruck));
            let mut counts = vec![0usize; 6];
            counts[comm.rank()] = comm.rank() + 100;
            comm.allgather_in_place(&mut counts).unwrap();
            assert_eq!(counts, (100..106).collect::<Vec<_>>());
            // Auto picks Bruck below the threshold on this
            // non-power-of-two communicator; identical result.
            comm.set_tuning(CollTuning::default());
            let all = comm.allgather_vec(&[comm.rank() as u32]).unwrap();
            assert_eq!(all, (0..6).collect::<Vec<_>>());
        });
    }

    #[test]
    fn forced_rd_on_non_power_of_two_falls_back() {
        use crate::{AllgatherAlgo, CollTuning};
        Universe::run(5, |comm| {
            comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::RecursiveDoubling));
            let all = comm.allgather_vec(&[comm.rank() as u16 * 2]).unwrap();
            assert_eq!(all, vec![0, 2, 4, 6, 8]);
        });
    }

    #[test]
    fn allgather_empty_contribution() {
        Universe::run(3, |comm| {
            let all = comm.allgather_vec::<u64>(&[]).unwrap();
            assert!(all.is_empty());
        });
    }
}
