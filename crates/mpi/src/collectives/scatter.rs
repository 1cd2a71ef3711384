//! Scatter and scatterv (flat tree, pack-once at the root).
//!
//! Every form — the four blocking calls here and `iscatter(v)` — is the
//! one scatter plan ([`Comm::scatter_plan`]) under its lifecycle's
//! driver: the root serializes its send buffer into **one** shared
//! payload and the flat `Exchange` carves per-destination blocks out of
//! it by refcount slicing — one copy and one allocation total, instead
//! of one of each per peer. The blocking forms drive it on their stack
//! and place the one block they get, the root's own included, through
//! one checked placement ([`place_message`]): a block that does not
//! fit the receive buffer is [`MpiError::Truncated`] on that rank.

use std::ops::Range;

use super::nonblocking::{check_divisible, drive_message, equal_ranges};
use super::{byte_ranges, check_layout, root_without_data};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::p2p::place_message;
use crate::plain::bytes_into_vec;
use crate::{Plain, Rank};

/// The root layout of the equal-block scatters (`scatter_vec`,
/// `iscatter`): the whole buffer, split into `p` equal blocks.
pub(super) fn equal_blocks<'s, T: Plain>(
    what: &str,
    p: usize,
    send: Option<&'s [T]>,
) -> Result<(&'s [T], Vec<Range<usize>>)> {
    let data = send.ok_or_else(|| root_without_data(what))?;
    check_divisible(what, data.len(), p)?;
    Ok((data, equal_ranges(p, std::mem::size_of_val(data) / p)))
}

/// The root layout of `scatterv_*`: `counts[r]` elements at `displs[r]`.
fn displaced_blocks<'s, T: Plain>(
    p: usize,
    send: Option<(&'s [T], &[usize], &[usize])>,
) -> Result<(&'s [T], Vec<Range<usize>>)> {
    let (data, counts, displs) = send.ok_or_else(|| root_without_data("scatterv"))?;
    check_layout("scatterv", counts, displs, data.len(), p)?;
    Ok((data, byte_ranges::<T>(counts, displs)))
}

impl Comm {
    /// Scatters equal-sized blocks of the root's buffer to all ranks
    /// (mirrors `MPI_Scatter`). `send` is significant at the root only and
    /// must hold `p * recv.len()` elements there.
    pub fn scatter_into<T: Plain>(&self, send: &[T], recv: &mut [T], root: Rank) -> Result<()> {
        self.count_op("scatter");
        let (p, n, bytes) = (self.size(), recv.len(), std::mem::size_of_val(recv));
        let layout = || {
            if send.len() < p * n {
                return Err(MpiError::InvalidLayout(format!(
                    "scatter: send buffer holds {} elements, need {}",
                    send.len(),
                    p * n
                )));
            }
            Ok((&send[..p * n], equal_ranges(p, bytes)))
        };
        let block = self.scatter_plan("scatter", root, layout, drive_message)?;
        if place_message(&block, recv)? != n {
            return Err(MpiError::Truncated {
                message_bytes: block.len(),
                buffer_bytes: bytes,
            });
        }
        Ok(())
    }

    /// Scatters variable-sized blocks described by `counts`/`displs`
    /// (significant at the root) to all ranks (mirrors `MPI_Scatterv`).
    pub fn scatterv_into<T: Plain>(
        &self,
        send: &[T],
        counts: &[usize],
        displs: &[usize],
        recv: &mut [T],
        root: Rank,
    ) -> Result<()> {
        self.count_op("scatterv");
        let layout = || displaced_blocks(self.size(), Some((send, counts, displs)));
        let block = self.scatter_plan("scatterv", root, layout, drive_message)?;
        place_message(&block, recv).map(drop)
    }

    /// Scatters equal-sized blocks, returning each rank's block as a
    /// fresh vector; the block length travels with the message, so
    /// non-root ranks need not know it in advance.
    pub fn scatter_vec<T: Plain>(&self, send: Option<&[T]>, root: Rank) -> Result<Vec<T>> {
        self.count_op("scatter");
        let layout = || equal_blocks("scatter", self.size(), send);
        let block = self.scatter_plan("scatter", root, layout, drive_message)?;
        Ok(bytes_into_vec(block))
    }

    /// Scatters variable-sized blocks, returning each rank's block as a
    /// fresh vector (the length travels with the message).
    pub fn scatterv_vec<T: Plain>(
        &self,
        send: Option<(&[T], &[usize], &[usize])>,
        root: Rank,
    ) -> Result<Vec<T>> {
        self.count_op("scatterv");
        let layout = || displaced_blocks(self.size(), send);
        let block = self.scatter_plan("scatterv", root, layout, drive_message)?;
        Ok(bytes_into_vec(block))
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn scatter_equal_blocks() {
        Universe::run(4, |comm| {
            let send: Vec<u32> = if comm.rank() == 0 {
                (0..8).collect()
            } else {
                vec![]
            };
            let mut mine = [0u32; 2];
            comm.scatter_into(&send, &mut mine, 0).unwrap();
            assert_eq!(mine, [2 * comm.rank() as u32, 2 * comm.rank() as u32 + 1]);
        });
    }

    #[test]
    fn scatter_from_nonzero_root() {
        Universe::run(3, |comm| {
            let send: Vec<u8> = if comm.rank() == 1 {
                vec![10, 20, 30]
            } else {
                vec![]
            };
            let mut mine = [0u8; 1];
            comm.scatter_into(&send, &mut mine, 1).unwrap();
            assert_eq!(mine[0], 10 * (comm.rank() as u8 + 1));
        });
    }

    #[test]
    fn scatterv_variable_blocks() {
        Universe::run(3, |comm| {
            let send: Vec<u64> = if comm.rank() == 0 {
                (0..6).collect()
            } else {
                vec![]
            };
            let counts = [3, 1, 2];
            let displs = [0, 3, 4];
            let got = comm
                .scatterv_vec(
                    (comm.rank() == 0).then_some((&send[..], &counts[..], &displs[..])),
                    0,
                )
                .unwrap();
            match comm.rank() {
                0 => assert_eq!(got, vec![0, 1, 2]),
                1 => assert_eq!(got, vec![3]),
                2 => assert_eq!(got, vec![4, 5]),
                _ => unreachable!(),
            }
        });
    }

    #[test]
    fn scatterv_into_prefix() {
        Universe::run(2, |comm| {
            let send: Vec<u16> = if comm.rank() == 0 {
                vec![7, 8, 9]
            } else {
                vec![]
            };
            let counts = [1, 2];
            let displs = [0, 1];
            let mut buf = [0u16; 4];
            comm.scatterv_into(&send, &counts, &displs, &mut buf, 0)
                .unwrap();
            if comm.rank() == 0 {
                assert_eq!(buf[0], 7);
            } else {
                assert_eq!(&buf[..2], &[8, 9]);
            }
        });
    }

    #[test]
    fn scatter_undersized_send_errors() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let send = vec![1u32; 3];
                let mut mine = [0u32; 2];
                assert!(comm.scatter_into(&send, &mut mine, 0).is_err());
            }
            // rank 1 does not participate: the empty block the erroring
            // root still sends it stays queued.
        });
    }

    /// A non-root whose receive buffer is shorter than its block gets
    /// `Truncated` (both forms used to panic there); the root is served,
    /// and the communicator is clean for the next collective.
    #[test]
    fn undersized_receive_buffer_is_truncated_not_a_panic() {
        use crate::op::Sum;
        use crate::MpiError;
        for p in [2usize, 3] {
            Universe::run(p, move |comm| {
                let root = p - 1;
                let send: Vec<u32> = (0..2 * p as u32).collect();
                let truncated = |r: crate::Result<()>| {
                    let want = MpiError::Truncated {
                        message_bytes: 8,
                        buffer_bytes: 4,
                    };
                    let want = if comm.rank() == root {
                        Ok(())
                    } else {
                        Err(want)
                    };
                    assert_eq!(r, want, "p = {p}");
                };
                // The root receives its full block; every other rank
                // holds room for one element of its two.
                let n = if comm.rank() == root { 2 } else { 1 };
                truncated(comm.scatter_into(&send, &mut vec![0u32; n], root));
                let (counts, displs) = (vec![2; p], (0..p).map(|r| 2 * r).collect::<Vec<_>>());
                let mut recv = vec![0u32; n];
                truncated(comm.scatterv_into(&send, &counts, &displs, &mut recv, root));
                assert_eq!(comm.allreduce_one(1u64, Sum).unwrap(), p as u64);
            });
        }
    }
}
