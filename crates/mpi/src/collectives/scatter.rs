//! Scatter and scatterv (flat tree, pack-once at the root).
//!
//! The root serializes its send buffer into **one** shared payload and
//! carves per-destination blocks out of it by refcount slicing — one
//! copy and one allocation total, instead of one of each per peer.

use bytes::Bytes;

use super::{check_layout, recv_internal, root_without_data, send_slices};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::{bytes_from_slice, bytes_into_vec, copy_bytes_into, copy_slice};
use crate::{Plain, Rank};

/// Packs `send` once and sends `counts[r]`-element blocks at
/// `displs[r]` to every rank except the root — the slice-and-send of the
/// `iscatter` engine; returns the root's own block as a shared slice.
fn scatter_blocks<T: Plain>(
    comm: &Comm,
    tag: crate::Tag,
    send: &[T],
    counts: &[usize],
    displs: &[usize],
    root: Rank,
) -> Result<Bytes> {
    let elem = std::mem::size_of::<T>();
    let packed = bytes_from_slice(send);
    let block = |r: usize| displs[r] * elem..(displs[r] + counts[r]) * elem;
    let others = (0..comm.size()).filter(|&r| r != root);
    send_slices(comm, tag, &packed, others.map(|r| (r, block(r))))?;
    Ok(packed.slice(block(root)))
}

impl Comm {
    /// Scatters equal-sized blocks of the root's buffer to all ranks
    /// (mirrors `MPI_Scatter`). `send` is significant at the root only and
    /// must hold `p * recv.len()` elements there.
    pub fn scatter_into<T: Plain>(&self, send: &[T], recv: &mut [T], root: Rank) -> Result<()> {
        self.count_op("scatter");
        let p = self.size();
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        let n = recv.len();
        if self.rank() == root {
            if send.len() < p * n {
                return Err(MpiError::InvalidLayout(format!(
                    "scatter: send buffer holds {} elements, need {}",
                    send.len(),
                    p * n
                )));
            }
            let counts = vec![n; p];
            let displs: Vec<usize> = (0..p).map(|r| r * n).collect();
            scatter_blocks(self, tag, &send[..p * n], &counts, &displs, root)?;
            copy_slice(&send[root * n..(root + 1) * n], recv);
            Ok(())
        } else {
            let bytes = recv_internal(self, root, tag)?;
            let written = copy_bytes_into(&bytes, recv);
            if written != n {
                return Err(MpiError::Truncated {
                    message_bytes: bytes.len(),
                    buffer_bytes: std::mem::size_of_val(recv),
                });
            }
            Ok(())
        }
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
        let p = self.size();
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        if self.rank() == root {
            check_layout("scatterv", counts, displs, send.len(), p)?;
            scatter_blocks(self, tag, send, counts, displs, root)?;
            let own = &send[displs[root]..displs[root] + counts[root]];
            if recv.len() < own.len() {
                return Err(MpiError::Truncated {
                    message_bytes: std::mem::size_of_val(own),
                    buffer_bytes: std::mem::size_of_val(recv),
                });
            }
            copy_slice(own, &mut recv[..own.len()]);
            Ok(())
        } else {
            let bytes = recv_internal(self, root, tag)?;
            copy_bytes_into(&bytes, recv);
            Ok(())
        }
    }

    /// Scatters equal-sized blocks, returning each rank's block as a
    /// fresh vector; the block length travels with the message, so
    /// non-root ranks need not know it in advance.
    pub fn scatter_vec<T: Plain>(&self, send: Option<&[T]>, root: Rank) -> Result<Vec<T>> {
        self.count_op("scatter");
        let p = self.size();
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        if self.rank() == root {
            let data = send.ok_or_else(|| root_without_data("scatter"))?;
            if !data.len().is_multiple_of(p) {
                return Err(MpiError::InvalidLayout(format!(
                    "scatter: send length {} not divisible by {p}",
                    data.len()
                )));
            }
            let n = data.len() / p;
            let counts = vec![n; p];
            let displs: Vec<usize> = (0..p).map(|r| r * n).collect();
            let own = scatter_blocks(self, tag, data, &counts, &displs, root)?;
            Ok(bytes_into_vec(own))
        } else {
            let bytes = recv_internal(self, root, tag)?;
            Ok(bytes_into_vec(bytes))
        }
    }

    /// Scatters variable-sized blocks, returning each rank's block as a
    /// fresh vector (the length travels with the message).
    pub fn scatterv_vec<T: Plain>(
        &self,
        send: Option<(&[T], &[usize], &[usize])>,
        root: Rank,
    ) -> Result<Vec<T>> {
        self.count_op("scatterv");
        let p = self.size();
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        if self.rank() == root {
            let (data, counts, displs) = send.ok_or_else(|| root_without_data("scatterv"))?;
            check_layout("scatterv", counts, displs, data.len(), p)?;
            let own = scatter_blocks(self, tag, data, counts, displs, root)?;
            Ok(bytes_into_vec(own))
        } else {
            let bytes = recv_internal(self, root, tag)?;
            Ok(bytes_into_vec(bytes))
        }
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
            // rank 1 does not participate: root errors before sending.
        });
    }
}
