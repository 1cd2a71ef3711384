//! Inclusive and exclusive prefix reductions (linear chain) on the
//! shared-`Bytes` datapath: the upstream prefix is folded straight from
//! the delivered payload (no per-hop `Vec` materialization), and the
//! forwarded prefix moves into the transport without a copy.

use std::borrow::Cow;

use super::algos::{fold_bytes_map, fold_bytes_to_vec};
use super::{recv_internal, send_internal, send_slice_internal};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::op::ReduceOp;
use crate::plain::{bytes_from_cow, bytes_from_vec, bytes_into_vec};
use crate::Plain;

impl Comm {
    /// Inclusive prefix reduction (mirrors `MPI_Scan`): rank `r` receives
    /// the elementwise reduction over ranks `0..=r`. Rank order is always
    /// preserved, so non-commutative operations are safe.
    pub fn scan_into<T: Plain, O: ReduceOp<T>>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: O,
    ) -> Result<()> {
        self.count_op("scan");
        if send.len() != recv.len() {
            return Err(MpiError::InvalidLayout(format!(
                "scan: send has {} elements, recv has {}",
                send.len(),
                recv.len()
            )));
        }
        let rank = self.rank();
        let p = self.size();
        let tag = self.next_internal_tag();
        if rank > 0 {
            // Fold the delivered prefix directly into the result buffer.
            let prefix = recv_internal(self, rank - 1, tag)?;
            fold_bytes_map(&prefix, send, recv, &op)?;
        } else {
            crate::plain::copy_slice(send, recv);
        }
        if rank + 1 < p {
            send_slice_internal(self, rank + 1, tag, recv)?;
        }
        Ok(())
    }

    /// Inclusive prefix reduction: the fold of the delivered prefix with
    /// `send` *is* the result (no zero-fill, no receive-buffer copy).
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
        let send = send.into();
        let rank = self.rank();
        let tag = self.next_internal_tag();
        let acc = if rank > 0 {
            fold_bytes_to_vec(&recv_internal(self, rank - 1, tag)?, send, &op)?
        } else {
            if let Cow::Borrowed(s) = send {
                crate::metrics::record_copy(std::mem::size_of_val(s));
            }
            send.into_owned()
        };
        if rank + 1 < self.size() {
            send_slice_internal(self, rank + 1, tag, &acc)?;
        }
        Ok(acc)
    }

    /// Exclusive prefix reduction (mirrors `MPI_Exscan`): rank `r > 0`
    /// receives the reduction over ranks `0..r`; rank 0 receives `None`
    /// (its value is undefined in MPI). An owned `send` is consumed: it
    /// is what this rank forwards (rank 0: as is; elsewhere: folded in
    /// place), where a borrowed one is serialized or folded into a fresh
    /// vector.
    pub fn exscan_vec<'a, T: Plain, O: ReduceOp<T>>(
        &self,
        send: impl Into<Cow<'a, [T]>>,
        op: O,
    ) -> Result<Option<Vec<T>>> {
        self.count_op("exscan");
        let send = send.into();
        let rank = self.rank();
        let p = self.size();
        let tag = self.next_internal_tag();
        let prefix_bytes = if rank > 0 {
            Some(recv_internal(self, rank - 1, tag)?)
        } else {
            None
        };
        if rank + 1 < p {
            // Forward the inclusive prefix over 0..=rank. Middle ranks'
            // fold output moves into the transport (no serialization
            // copy); rank 0 forwards its own data: one counted
            // serialization if it is borrowed, none if it is owned.
            let payload = match &prefix_bytes {
                Some(pre) => bytes_from_vec(fold_bytes_to_vec(pre, send, &op)?),
                None => bytes_from_cow(send),
            };
            send_internal(self, rank + 1, tag, payload)?;
        }
        // Materialize the returned prefix once (zero-copy for unique
        // byte-shaped payloads).
        Ok(prefix_bytes.map(bytes_into_vec))
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
            let mut out = [0u64];
            comm.scan_into(&mine, &mut out, Sum).unwrap();
            let r = comm.rank() as u64 + 1;
            assert_eq!(out[0], r * (r + 1) / 2);
        });
    }

    #[test]
    fn scan_preserves_order() {
        Universe::run(4, |comm| {
            let op = non_commutative(|a: &u64, b: &u64| a * 10 + b);
            let mine = [comm.rank() as u64 + 1];
            let mut out = [0u64];
            comm.scan_into(&mine, &mut out, op).unwrap();
            let expected = (1..=comm.rank() as u64 + 1).fold(0, |acc, d| acc * 10 + d);
            assert_eq!(out[0], expected);
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
            let mut out = [0u32; 2];
            comm.scan_into(&mine, &mut out, Sum).unwrap();
            assert_eq!(out[0], comm.rank() as u32 + 1);
            let r = comm.rank() as u32;
            assert_eq!(out[1], r * (r + 1) / 2);
        });
    }

    #[test]
    fn scan_single_rank() {
        Universe::run(1, |comm| {
            let mut out = [0u8];
            comm.scan_into(&[9u8], &mut out, Sum).unwrap();
            assert_eq!(out[0], 9);
            assert!(comm.exscan_vec(&[9u8], Sum).unwrap().is_none());
        });
    }
}
