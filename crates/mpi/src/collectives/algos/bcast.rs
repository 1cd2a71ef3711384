//! Large-message broadcast: scatter + allgather (van de Geijn).
//!
//! The root splits the payload into `p` near-equal chunks (byte
//! granularity, so any element size works), sends chunk `i` to rank `i`,
//! and all ranks allgather the chunks (the `allgather/ring` row of
//! [`table`](super::table)). Wire volume is
//! `~2s·(p-1)/p` on the critical path instead of the binomial tree's
//! `s·log2 p`, which wins for large payloads; chunks are shared
//! [`Bytes`], so forwarding stays refcount cloning and the per-rank copy
//! bill is identical to the binomial tree (root `s`, non-root `r`).

use bytes::Bytes;

use crate::collectives::nonblocking::drive_blocks;
use crate::collectives::{recv_internal, root_without_data, send_internal};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::element_count;
use crate::{Plain, Rank};

/// The delivery of a sized broadcast: either the whole payload (binomial
/// tree, or the root's own buffer) or the rank-ordered chunks of the
/// scatter+allgather algorithm. Both shapes write into the caller's
/// buffer with one copy of `r` total.
#[derive(Debug)]
pub enum BcastParts {
    /// The payload in one piece.
    Whole(Bytes),
    /// The payload split into rank-ordered chunks (chunk `i` covers
    /// bytes `[i*len/p, (i+1)*len/p)` of the payload).
    Chunks(Vec<Bytes>),
}

impl BcastParts {
    /// Total payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            BcastParts::Whole(b) => b.len(),
            BcastParts::Chunks(c) => c.iter().map(|b| b.len()).sum(),
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload as a sequence of byte parts.
    fn parts(&self) -> &[Bytes] {
        match self {
            BcastParts::Whole(b) => std::slice::from_ref(b),
            BcastParts::Chunks(c) => c.as_slice(),
        }
    }

    /// Writes the payload into `dst` (one counted copy of `r`).
    pub fn write_into(&self, dst: &mut [u8]) -> Result<()> {
        if self.len() != dst.len() {
            return Err(MpiError::Truncated {
                message_bytes: self.len(),
                buffer_bytes: dst.len(),
            });
        }
        let mut offset = 0usize;
        for part in self.parts() {
            crate::plain::copy_slice(part, &mut dst[offset..offset + part.len()]);
            offset += part.len();
        }
        Ok(())
    }

    /// Materializes the payload as a typed vector (at most one copy;
    /// zero for a unique `Vec<u8>`-backed whole payload).
    ///
    /// # Panics
    ///
    /// Panics if the total length is not a multiple of the element size.
    pub fn into_vec<T: Plain>(self) -> Vec<T> {
        match self {
            BcastParts::Whole(b) => crate::plain::bytes_into_vec(b),
            BcastParts::Chunks(chunks) => {
                let total = chunks.iter().map(|b| b.len()).sum::<usize>();
                let n = element_count::<T>(total);
                assert!(
                    std::mem::size_of::<T>() == 0 || total == n * std::mem::size_of::<T>(),
                    "byte length {total} is not a multiple of element size {}",
                    std::mem::size_of::<T>()
                );
                crate::metrics::record_alloc();
                let mut out = Vec::<T>::with_capacity(n);
                let mut offset = 0usize;
                for chunk in &chunks {
                    crate::metrics::record_copy(chunk.len());
                    // SAFETY: total capacity reserved above; chunks are
                    // written back to back and `T: Plain` accepts any
                    // bytes.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            chunk.as_ptr(),
                            out.as_mut_ptr().cast::<u8>().add(offset),
                            chunk.len(),
                        );
                    }
                    offset += chunk.len();
                }
                // SAFETY: all `total` bytes initialized above.
                unsafe { out.set_len(n) };
                out
            }
        }
    }
}

/// Chunk boundary `i` in bytes for a `len`-byte payload over `p` ranks.
#[inline]
fn chunk_bound(len: usize, p: usize, i: usize) -> usize {
    len * i / p
}

/// Van de Geijn broadcast. `size` must be identical on every rank (the
/// caller's contract: it comes from a buffer length all ranks agree on,
/// like `MPI_Bcast`'s count). The root returns its own payload whole;
/// non-roots return the gathered chunks. A root whose payload is not
/// `size` bytes long splits what it has; every rank still completes the
/// exchange, and the non-roots then report [`MpiError::Truncated`].
pub(crate) fn scatter_allgather(
    comm: &Comm,
    payload: Option<Bytes>,
    size: usize,
    root: Rank,
) -> Result<BcastParts> {
    let p = comm.size();
    let rank = comm.rank();
    let scatter_tag = comm.next_internal_tag();

    if rank == root {
        let Some(payload) = payload else {
            // The peers go on to the allgather; stay tag-aligned with them.
            comm.next_internal_tag();
            return Err(root_without_data("bcast"));
        };
        let chunk = |r: usize| {
            payload.slice(chunk_bound(payload.len(), p, r)..chunk_bound(payload.len(), p, r + 1))
        };
        for r in (0..p).filter(|&r| r != root) {
            send_internal(comm, r, scatter_tag, chunk(r))?;
        }
        // The allgather circulates chunks the root already has: take
        // part, drop them, return the original payload untouched.
        drive_blocks(comm, &mut comm.allgather_flat(), chunk(rank))?;
        return Ok(BcastParts::Whole(payload));
    }
    let chunk = recv_internal(comm, root, scatter_tag)?;
    let received = chunk.len();
    // Communicate first, fail alone after: a rank that left before the
    // allgather would strand its peers in it.
    let blocks = drive_blocks(comm, &mut comm.allgather_flat(), chunk)?;
    let expected = chunk_bound(size, p, rank + 1) - chunk_bound(size, p, rank);
    if received != expected {
        return Err(MpiError::Truncated {
            message_bytes: received,
            buffer_bytes: expected,
        });
    }
    Ok(BcastParts::Chunks(blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::bytes_from_slice;
    use crate::Universe;

    #[test]
    fn scatter_allgather_delivers_everywhere() {
        for p in [2, 3, 4, 5, 8] {
            for root in [0, p - 1] {
                Universe::run(p, move |comm| {
                    let data: Vec<u8> = (0..1031u32).map(|i| (i % 251) as u8).collect();
                    let payload = (comm.rank() == root).then(|| bytes_from_slice(&data));
                    let parts = scatter_allgather(&comm, payload, data.len(), root).unwrap();
                    let got: Vec<u8> = parts.into_vec();
                    assert_eq!(got, data, "p = {p}, root = {root}");
                });
            }
        }
    }

    #[test]
    fn parts_write_into_checks_length() {
        let parts = BcastParts::Whole(bytes_from_slice(&[1u8, 2, 3]));
        let mut small = [0u8; 2];
        assert!(parts.write_into(&mut small).is_err());
        let mut exact = [0u8; 3];
        parts.write_into(&mut exact).unwrap();
        assert_eq!(exact, [1, 2, 3]);
    }

    #[test]
    fn chunked_parts_reassemble_typed() {
        // Chunk boundaries deliberately misaligned with the element
        // size: 3 u64 over 4 parts splits at bytes 6/12/18.
        let data = [7u64, 8, 9];
        let bytes = bytes_from_slice(&data);
        let chunks: Vec<Bytes> = (0..4)
            .map(|i| bytes.slice(chunk_bound(24, 4, i)..chunk_bound(24, 4, i + 1)))
            .collect();
        let parts = BcastParts::Chunks(chunks);
        assert_eq!(parts.len(), 24);
        let back: Vec<u64> = parts.into_vec();
        assert_eq!(back, vec![7, 8, 9]);
    }
}
