//! Two-dimensional grid all-to-all plugin (§V-A).
//!
//! A dense `alltoallv` costs `p-1` message startups per rank. Organizing
//! the `p` ranks in a virtual `r x c` grid (Kalé et al.) and routing each
//! message in two hops — first within the sender's *row* to the column of
//! the destination, then within that *column* to the destination — costs
//! only `(c-1) + (r-1) = O(sqrt p)` startups at twice the communication
//! volume: a hardware-agnostic latency reduction with asymptotic
//! guarantees.
//!
//! `p` is factored exactly into `r x c` with `r` the largest divisor
//! `<= sqrt(p)` (powers of two — the benchmark configuration — give
//! near-square grids; primes degenerate to `1 x p`, i.e. direct
//! exchange).

use std::ops::Range;

use bytes::Bytes;
use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::lower::{Delivered, Layout};
use kmp_mpi::plain::{
    as_bytes, bytes_from_vec, bytes_to_vec, extend_vec_from_bytes, vec_with_capacity,
    whole_elements,
};
use kmp_mpi::{MpiError, Plain, Rank, Result};

use crate::communicator::Communicator;

/// Grid all-to-all as a communicator extension.
pub trait GridAlltoall {
    /// Builds the 2D grid overlay (two communicator splits). Reuse the
    /// returned [`GridCommunicator`] across exchanges.
    fn make_grid(&self) -> Result<GridCommunicator>;
}

impl GridAlltoall for Communicator {
    fn make_grid(&self) -> Result<GridCommunicator> {
        let p = self.size();
        let (r, c) = factor_grid(p);
        let row = self.rank() / c;
        let col = self.rank() % c;
        let row_comm = self
            .split(Some(row as u64), col as i64)?
            .expect("all ranks participate in the row split");
        let col_comm = self
            .split(Some(col as u64), row as i64)?
            .expect("all ranks participate in the column split");
        debug_assert_eq!(row_comm.rank(), col);
        debug_assert_eq!(col_comm.rank(), row);
        Ok(GridCommunicator {
            row_comm,
            col_comm,
            rows: r,
            cols: c,
            rank: self.rank(),
            p,
        })
    }
}

/// Factors `p` into `(rows, cols)` with `rows` the largest divisor not
/// exceeding `sqrt(p)`.
pub fn factor_grid(p: usize) -> (usize, usize) {
    let mut best = 1;
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    (best, p / best)
}

/// The grid overlay: a row communicator, a column communicator, and the
/// routing metadata.
pub struct GridCommunicator {
    row_comm: Communicator,
    col_comm: Communicator,
    rows: usize,
    cols: usize,
    rank: Rank,
    p: usize,
}

/// Per-block routing header: final destination, origin, payload bytes
/// (three `u64` words).
const HEADER_BYTES: usize = 3 * 8;

/// One routed block inside a delivered hop buffer, viewed in place.
struct Record<'a> {
    dest: Rank,
    origin: Rank,
    payload: &'a [u8],
    /// The buffer the record was delivered in, and the record's bytes
    /// in it, header and payload.
    buffer: &'a Bytes,
    span: Range<usize>,
}

impl Record<'_> {
    /// The whole record as a refcount view of its buffer: what the
    /// column hop forwards.
    fn view(&self) -> Bytes {
        self.buffer.slice(self.span.clone())
    }
}

/// Parses the records of delivered hop buffers in place — no allocation
/// per block. A buffer that ends inside a record reports
/// [`MpiError::Truncated`].
fn records(blocks: &[Bytes]) -> Result<Vec<Record<'_>>> {
    let mut out = Vec::new();
    for block in blocks {
        let mut at = 0;
        while at < block.len() {
            let rest = &block[at..];
            let truncated = MpiError::Truncated {
                message_bytes: rest.len(),
                buffer_bytes: HEADER_BYTES,
            };
            let Some((header, body)) = rest.split_at_checked(HEADER_BYTES) else {
                return Err(truncated);
            };
            let word = |i: usize| {
                u64::from_ne_bytes(header[8 * i..8 * i + 8].try_into().expect("eight bytes"))
                    as usize
            };
            let Some(payload) = body.get(..word(2)) else {
                return Err(truncated);
            };
            let end = at + HEADER_BYTES + payload.len();
            out.push(Record {
                dest: word(0),
                origin: word(1),
                payload,
                buffer: block,
                span: at..end,
            });
            at = end;
        }
    }
    Ok(out)
}

/// Packs the row hop's `(bucket, header, payload)` items, sorted by
/// bucket, into one exactly pre-sized buffer (each byte copied once);
/// returns it with the byte count per bucket.
fn pack_hop(buckets: usize, items: &[(usize, &[u8], &[u8])]) -> (Bytes, Vec<usize>) {
    let mut counts = vec![0usize; buckets];
    for &(bucket, header, payload) in items {
        counts[bucket] += header.len() + payload.len();
    }
    let mut buf: Vec<u8> = vec_with_capacity(counts.iter().sum());
    for &(_, header, payload) in items {
        extend_vec_from_bytes(&mut buf, header);
        extend_vec_from_bytes(&mut buf, payload);
    }
    (bytes_from_vec(buf), counts)
}

impl GridCommunicator {
    /// Grid dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Routes the send blocks over both hops and returns the column
    /// hop's delivered pieces. The row hop packs once into an adopted
    /// buffer; the column hop forwards each record it delivered, as a
    /// refcount view, in one message per destination row. Each hop is
    /// one self-sizing block exchange — `(c-1) + (r-1)` startups in
    /// total, no count exchange ahead of either — so a payload byte is
    /// copied once on the way (the pack).
    fn route<T: Plain>(&self, send: &[T], counts: &[usize]) -> Result<Vec<Bytes>> {
        assert_eq!(counts.len(), self.p, "one send count per rank");
        let displs = displacements_from_counts(counts);

        // Hop 1 (row exchange): bucket per destination *column* — a
        // column-major walk over the grid visits the buckets in order.
        let dests: Vec<Rank> = (0..self.cols)
            .flat_map(|c| (0..self.rows).map(move |r| r * self.cols + c))
            .filter(|&d| counts[d] > 0)
            .collect();
        let elem = std::mem::size_of::<T>();
        let headers: Vec<[u64; 3]> = (dests.iter())
            .map(|&d| [d, self.rank, counts[d] * elem].map(|w| w as u64))
            .collect();
        let items: Vec<_> = (dests.iter().zip(&headers))
            .map(|(&d, header)| {
                let block = &send[displs[d]..displs[d] + counts[d]];
                (d % self.cols, as_bytes(&header[..]), as_bytes(block))
            })
            .collect();
        let (row_data, row_counts) = pack_hop(self.cols, &items);
        let from_row = (self.row_comm.raw()).alltoallv_blocks_bytes(row_data, &row_counts)?;

        // Hop 2 (column exchange): each record, in delivery order, is
        // one part of its destination *row*'s message.
        let mut parts = vec![Vec::new(); self.rows];
        for r in records(&from_row)? {
            parts[r.dest / self.cols].push(r.view());
        }
        (self.col_comm.raw()).alltoallv_parts(parts)
    }

    /// The records delivered to this rank, origin-sorted, each checked
    /// to hold whole `T`s.
    fn delivered<'a, T: Plain>(&self, from_col: &'a [Bytes]) -> Result<Vec<Record<'a>>> {
        let mut records = records(from_col)?;
        for r in &records {
            debug_assert_eq!(r.dest, self.rank, "block routed to the wrong rank");
            whole_elements::<T>(r.payload.len())?;
        }
        records.sort_by_key(|r| r.origin);
        Ok(records)
    }

    /// Personalized all-to-all routed over the grid: semantics of
    /// `alltoallv((send_buf(data), send_counts(counts)))`, but with
    /// `O(sqrt p)` message startups per rank. Returns the received
    /// `(origin, data)` pairs sorted by origin.
    pub fn alltoallv_sparse<T: Plain>(
        &self,
        send: &[T],
        counts: &[usize],
    ) -> Result<Vec<(Rank, Vec<T>)>> {
        let from_col = self.route(send, counts)?;
        let records = self.delivered::<T>(&from_col)?;
        Ok((records.iter())
            .map(|r| (r.origin, bytes_to_vec(r.payload)))
            .collect())
    }

    /// Like [`GridCommunicator::alltoallv_sparse`], but returns only the
    /// concatenated data (origin-sorted) — a drop-in for the dense
    /// `alltoallv` in exchange loops. Unpacks straight into one exactly
    /// pre-sized vector: two copies per payload byte end to end (the row
    /// hop's pack and the unpack).
    pub fn alltoallv<T: Plain>(&self, send: &[T], counts: &[usize]) -> Result<Vec<T>> {
        let from_col = self.route(send, counts)?;
        let records = self.delivered::<T>(&from_col)?;
        let blocks = records.iter().map(|r| r.payload).collect();
        Delivered::<T, &[u8]>::Blocks(blocks).into_vec(Layout::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmp_mpi::Universe;

    #[test]
    fn factoring() {
        assert_eq!(factor_grid(1), (1, 1));
        assert_eq!(factor_grid(4), (2, 2));
        assert_eq!(factor_grid(8), (2, 4));
        assert_eq!(factor_grid(16), (4, 4));
        assert_eq!(factor_grid(12), (3, 4));
        assert_eq!(factor_grid(7), (1, 7)); // prime: degenerate grid
        assert_eq!(factor_grid(36), (6, 6));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matches_dense_alltoallv() {
        for p in [1usize, 2, 4, 6, 8, 9] {
            Universe::run(p, move |comm| {
                let comm = Communicator::new(comm);
                let grid = comm.make_grid().unwrap();
                // Rank r sends (r+d) to destination d, d elements.
                let mut send: Vec<u64> = Vec::new();
                let mut counts = vec![0usize; p];
                for d in 0..p {
                    counts[d] = d % 3;
                    for _ in 0..counts[d] {
                        send.push((comm.rank() + d) as u64);
                    }
                }
                let got = grid.alltoallv_sparse(&send, &counts).unwrap();
                // Expected: from each origin o, (o + my_rank) repeated my_rank%3 times.
                let expect_count = comm.rank() % 3;
                for (o, data) in &got {
                    assert_eq!(data.len(), expect_count);
                    assert!(data.iter().all(|&v| v == (o + comm.rank()) as u64));
                }
                let expected_origins: Vec<usize> = if expect_count == 0 {
                    vec![]
                } else {
                    (0..p).collect()
                };
                let origins: Vec<usize> = got.iter().map(|(o, _)| *o).collect();
                assert_eq!(origins, expected_origins, "p = {p}");
            });
        }
    }

    #[test]
    fn startup_count_is_grid_dimension() {
        // On a 4x4 grid, each exchange costs 2 sub-alltoallvs over size-4
        // communicators instead of one over size 16.
        Universe::run(16, |comm| {
            let comm = Communicator::new(comm);
            let grid = comm.make_grid().unwrap();
            assert_eq!(grid.dims(), (4, 4));
            let before = comm.call_counts();
            let counts = vec![1usize; 16];
            let send: Vec<u32> = (0..16).map(|d| d as u32).collect();
            let _ = grid.alltoallv(&send, &counts).unwrap();
            let delta = comm.call_counts().since(&before);
            // Two alltoallv calls (row + column), each in a size-4 comm.
            assert_eq!(delta.get("alltoallv"), 2);
        });
    }

    #[test]
    fn empty_messages() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let grid = comm.make_grid().unwrap();
            let got = grid.alltoallv::<u64>(&[], &[0; 4]).unwrap();
            assert!(got.is_empty());
        });
    }

    #[test]
    fn reuse_across_rounds() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let grid = comm.make_grid().unwrap();
            for round in 0..3u64 {
                let mut counts = vec![0usize; 4];
                counts[(comm.rank() + 1) % 4] = 1;
                let send = vec![round * 100 + comm.rank() as u64];
                let got = grid.alltoallv_sparse(&send, &counts).unwrap();
                assert_eq!(got.len(), 1);
                let left = (comm.rank() + 3) % 4;
                assert_eq!(got[0], (left, vec![round * 100 + left as u64]));
            }
        });
    }
}
