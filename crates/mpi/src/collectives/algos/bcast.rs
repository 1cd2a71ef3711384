//! Large-message broadcast: scatter + allgather (van de Geijn).
//!
//! The root splits the payload into `p` near-equal chunks (byte
//! granularity, so any element size works) and sends chunk `i` to rank
//! `i`; every rank then posts its chunk to all others at once, as the
//! `allgather/ring` row of [`table`](super::table) does. Wire volume is
//! `~2s·(p-1)/p` on the critical path instead of the binomial tree's
//! `s·log2 p`, which wins for large payloads; chunks are shared
//! [`Bytes`], so the copy bill is the binomial tree's (root `s`,
//! non-root `r`).

use bytes::Bytes;

use crate::collectives::nonblocking::{drive, message_completion, RoundEngine, Rounds};
use crate::collectives::{root_without_data, send_internal};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::{vec_with_capacity, whole_elements};
use crate::request::Completion;
use crate::{Plain, Rank, Tag};

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
        self.parts().iter().map(Bytes::len).sum()
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
        let total = self.len();
        match self {
            BcastParts::Whole(b) => crate::plain::bytes_into_vec(b),
            BcastParts::Chunks(chunks) => {
                let n = whole_elements::<T>(total).expect("a whole number of elements");
                let mut out = vec_with_capacity::<T>(n);
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

/// Van de Geijn's broadcast of `size` bytes (agreed on every rank). A
/// non-root's round 0 receives its chunk from the root and posts it to
/// everyone; later rounds collect the others' in rank order. The root
/// skips round 0: it posts the scatter and its own chunk, then drains
/// what it already has, and returns its payload whole. A root payload
/// of the wrong size is split as it is; the non-roots report
/// [`MpiError::Truncated`] after the exchange.
pub(crate) struct ScatterAllgather {
    root: Rank,
    size: usize,
    /// Scatter and allgather tags.
    tags: [Tag; 2],
    /// `p - 1` at the root, `p` elsewhere.
    rounds: usize,
    /// The root's payload; elsewhere the chunks by rank.
    parts: Vec<Bytes>,
}

impl ScatterAllgather {
    pub(crate) fn run(
        comm: &Comm,
        payload: Option<Bytes>,
        size: usize,
        root: Rank,
    ) -> Result<BcastParts> {
        let tags = [comm.next_internal_tag(), comm.next_internal_tag()];
        if comm.rank() == root && payload.is_none() {
            return Err(root_without_data("bcast"));
        }
        let mut engine = RoundEngine::new(ScatterAllgather {
            root,
            size,
            tags,
            rounds: comm.size() - usize::from(comm.rank() == root),
            parts: Vec::new(),
        });
        let done = drive(comm, &mut engine, payload.unwrap_or_default())?;
        Ok(match done {
            Completion::Blocks(chunks) => BcastParts::Chunks(chunks),
            root => BcastParts::Whole(root.into_bytes().expect("the root's payload").0),
        })
    }

    /// Round `k` as a non-root counts it.
    fn round(&self, comm: &Comm, k: usize) -> usize {
        k + usize::from(comm.rank() == self.root)
    }

    /// Posts `chunk` to every other rank, in the pairwise rotation.
    fn fan_out(&self, comm: &Comm, chunk: &Bytes) -> Result<()> {
        let (p, rank) = (comm.size(), comm.rank());
        (1..p).try_for_each(|i| send_internal(comm, (rank + i) % p, self.tags[1], chunk.clone()))
    }
}

impl Rounds for ScatterAllgather {
    fn seed(&mut self, comm: &Comm, payload: Bytes) {
        self.parts = if comm.rank() == self.root {
            vec![payload]
        } else {
            vec![Bytes::new(); comm.size()]
        };
    }

    fn rounds(&self) -> usize {
        self.rounds
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        match self.round(comm, k) {
            0 => (self.root, self.tags[0]),
            k => (k - 1 + usize::from(k > comm.rank()), self.tags[1]),
        }
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let (p, rank) = (comm.size(), comm.rank());
        if self.round(comm, k) != 1 {
            return Ok(());
        }
        if rank != self.root {
            return self.fan_out(comm, &self.parts[rank]);
        }
        let payload = &self.parts[0];
        let bound = |r: usize| payload.len() * r / p;
        let chunk = |r: usize| payload.slice(bound(r)..bound(r + 1));
        for r in (0..p).filter(|&r| r != rank) {
            send_internal(comm, r, self.tags[0], chunk(r))?;
        }
        self.fan_out(comm, &chunk(rank))
    }

    fn absorb(&mut self, comm: &Comm, k: usize, chunk: Bytes) -> Result<()> {
        // The root's rounds return chunks it already has; a non-root's
        // round 0 brings its own.
        let rank = comm.rank();
        if rank != self.root {
            let from = if k == 0 { rank } else { self.peer(comm, k).0 };
            self.parts[from] = chunk;
        }
        Ok(())
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let (p, rank) = (comm.size(), comm.rank());
        let mut parts = std::mem::take(&mut self.parts);
        if rank == self.root {
            return Ok(message_completion(rank, self.tags[0], parts.remove(0)));
        }
        // Communicate first, fail alone after: a rank that left before
        // the allgather would strand its peers in it.
        let expected = self.size * (rank + 1) / p - self.size * rank / p;
        let received = parts[rank].len();
        if received != expected {
            return Err(MpiError::Truncated {
                message_bytes: received,
                buffer_bytes: expected,
            });
        }
        Ok(Completion::Blocks(parts))
    }
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
                    let parts = ScatterAllgather::run(&comm, payload, data.len(), root).unwrap();
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
            .map(|i| bytes.slice(24 * i / 4..24 * (i + 1) / 4))
            .collect();
        let parts = BcastParts::Chunks(chunks);
        assert_eq!(parts.len(), 24);
        let back: Vec<u64> = parts.into_vec();
        assert_eq!(back, vec![7, 8, 9]);
    }
}
