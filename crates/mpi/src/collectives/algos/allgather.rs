//! Latency-regime allgathers: recursive doubling (power-of-two
//! communicators) and Bruck (any communicator size).
//!
//! **Recursive doubling:** round `k` pairs each rank with `rank ^ 2^k`;
//! the pair exchanges the `2^k` origin blocks each side has accumulated
//! so far, so after `log2 p` rounds every rank holds all `p` blocks.
//! Compared to the ring this trades `p-1` startups for `log2 p` at the
//! same total volume — but rounds past the first must *pack* their
//! block group into one contiguous message (`s·(p-2)` bytes memcpy'd
//! per rank), which is why the `Auto` selection keeps it to small
//! contributions (see
//! [`CollTuning::allgather_rd_max_bytes`](super::CollTuning)).
//!
//! **Bruck:** the same `ceil(log2 p)` startup count without the
//! power-of-two restriction. Every rank keeps its accumulated blocks
//! rotated so its *own* block sits first; round `k` sends the first
//! `min(2^k, p - 2^k)` blocks to rank `rank - 2^k` and appends the same
//! count received from rank `rank + 2^k`. After the rounds, local index
//! `i` holds the block that originated at rank `(rank + i) mod p` — one
//! index rotation puts everything in rank order. Rounds sending a
//! single block forward it as a refcount clone; multi-block rounds pack
//! (`s·(p - 1 - #single-block rounds)` memcpy'd per rank, e.g. `2s` at
//! `p = 5`), so like recursive doubling it is gated to the latency
//! regime ([`CollTuning::allgather_bruck_max_bytes`](super::CollTuning)).
//!
//! In both algorithms incoming groups are carved into per-origin blocks
//! by refcount slicing, copy-free, along one agreed byte [`Layout`]:
//! `[s; p]` for an equal-block `allgather`, the counts of a counted
//! `allgatherv`. So one engine serves both; a counted call packs the
//! bytes of the blocks its groups hold.
//!
//! A group of a length the layout does not predict (unequal
//! contributions, counts that disagree) does not abort the schedule:
//! the engine posts every later round — its partners wait on them —
//! and reports the error from `finish`.
//!
//! Each algorithm is written once, as the round description
//! ([`Rounds`]) the shared driver runs: the blocking `allgather`
//! drives it to completion on the stack, `iallgather` resumes it on
//! `test`/`wait`.

use bytes::Bytes;

use crate::collectives::nonblocking::Rounds;
use crate::collectives::send_internal;
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::plain::{bytes_from_vec, extend_vec_from_bytes};
use crate::request::Completion;
use crate::{Rank, Tag};

/// One tag per round, allocated in the same order on every rank.
fn round_tags(comm: &Comm, rounds: u32) -> Vec<Tag> {
    (0..rounds).map(|_| comm.next_internal_tag()).collect()
}

/// The message carrying a block group: a single block travels as a
/// refcount clone, several are packed in order into one buffer (the
/// counted copy both algorithms trade for their startup win).
fn group_message(group: &[Bytes]) -> Bytes {
    if let [block] = group {
        return block.clone();
    }
    let mut packed: Vec<u8> = Vec::with_capacity(group.iter().map(Bytes::len).sum());
    for block in group {
        extend_vec_from_bytes(&mut packed, block);
    }
    bytes_from_vec(packed)
}

/// What every rank knows of an allgather's block sizes, in bytes: what
/// its plan selects the row on.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockSizes<'a> {
    /// Every rank contributes as much as this one (`MPI_Allgather`).
    Equal,
    /// The agreed bytes of each origin's block, one entry per rank (a
    /// counted `allgatherv`).
    Counted(&'a [usize]),
    /// Nothing: each block's length travels with it (the self-sizing
    /// `allgatherv`s), so only the ring serves.
    Unknown,
}

/// The agreed bytes of every origin's block, which both engines carve
/// received groups by, and the cycle's first layout error.
struct Layout {
    bytes: Vec<usize>,
    /// `[s; p]`, `s` re-read from each cycle's own contribution (the
    /// `MPI_Allgather` contract: every rank contributes as much).
    equal: bool,
    /// A group of a length the layout did not predict.
    failed: Option<MpiError>,
}

impl Layout {
    /// Equal blocks for `None`, else the agreed bytes of each origin's
    /// block (one entry per rank).
    fn new(p: usize, counts: Option<Vec<usize>>) -> Self {
        Layout {
            equal: counts.is_none(),
            bytes: counts.unwrap_or_else(|| vec![0; p]),
            failed: None,
        }
    }

    fn seed(&mut self, own: &Bytes) {
        if self.equal {
            self.bytes.fill(own.len());
        }
        self.failed = None;
    }

    /// Carves `incoming`, round `k`'s group of the blocks of `origins`,
    /// into per-origin refcount sub-views handed to `put` in order. A
    /// group of any other length means the ranks disagree on the layout
    /// (MPI's contract for both calls): the first such group is
    /// recorded, and the rounds go on with the whole group as its first
    /// origin's block. What this rank forwards then still holds every
    /// byte it received, so a partner that agrees with the group's true
    /// sizes carves it right and one that does not finds a mismatch —
    /// never a short group that happens to fit.
    fn carve(
        &mut self,
        what: &str,
        k: usize,
        incoming: &Bytes,
        origins: impl Iterator<Item = Rank> + Clone,
        mut put: impl FnMut(Rank, Bytes),
    ) {
        let expected: usize = origins.clone().map(|o| self.bytes[o]).sum();
        if incoming.len() != expected {
            let got = incoming.len();
            self.failed.get_or_insert_with(|| {
                MpiError::InvalidLayout(format!(
                    "allgather ({what}): round {k} delivered {got} bytes, expected {expected} \
                     — unequal contributions, or counts that differ across ranks?"
                ))
            });
            let mut whole = Some(incoming.clone());
            origins.for_each(|o| put(o, whole.take().unwrap_or_default()));
            return;
        }
        let mut at = 0;
        for o in origins {
            put(o, incoming.slice(at..at + self.bytes[o]));
            at += self.bytes[o];
        }
    }

    /// The cycle's layout error, once every round has been posted.
    fn finish(&mut self) -> Result<()> {
        self.failed.take().map_or(Ok(()), Err)
    }
}

/// Recursive-doubling allgather: round `k` exchanges the accumulated
/// `2^k`-block group with `rank ^ 2^k`. Requires `comm.size()` to be a
/// power of two (the selection engine guarantees this); completes with
/// one block per origin rank.
pub(crate) struct RecursiveDoubling {
    tags: Vec<Tag>,
    /// By origin rank; empty until that origin's group arrived.
    blocks: Vec<Bytes>,
    layout: Layout,
}

impl RecursiveDoubling {
    /// Over the agreed bytes per origin, `None` for equal blocks.
    pub(crate) fn new(comm: &Comm, counts: Option<Vec<usize>>) -> Self {
        let p = comm.size();
        debug_assert!(p.is_power_of_two(), "selection gates RD to power-of-two p");
        RecursiveDoubling {
            tags: round_tags(comm, p.trailing_zeros()),
            blocks: vec![Bytes::new(); p],
            layout: Layout::new(p, counts),
        }
    }

    /// Round `k`'s partner, and the first origin of the `2^k`-aligned
    /// group that `rank` has accumulated before that round.
    fn group(rank: Rank, k: usize) -> (Rank, usize, usize) {
        let group = 1usize << k;
        (rank ^ group, rank & !(group - 1), group)
    }
}

impl Rounds for RecursiveDoubling {
    fn seed(&mut self, comm: &Comm, own: Bytes) {
        self.layout.seed(&own);
        self.blocks[comm.rank()] = own;
    }

    fn rounds(&self) -> usize {
        self.tags.len()
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        (Self::group(comm.rank(), k).0, self.tags[k])
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let (partner, base, group) = Self::group(comm.rank(), k);
        let outgoing = group_message(&self.blocks[base..base + group]);
        send_internal(comm, partner, self.tags[k], outgoing)
    }

    fn absorb(&mut self, comm: &Comm, k: usize, incoming: Bytes) -> Result<()> {
        let (partner, _, group) = Self::group(comm.rank(), k);
        let base = Self::group(partner, k).1;
        let origins = base..base + group;
        let put = |o: Rank, b| self.blocks[o] = b;
        self.layout
            .carve("recursive doubling", k, &incoming, origins, put);
        Ok(())
    }

    fn finish(&mut self, _comm: &Comm) -> Result<Completion> {
        let blocks = self.blocks.iter_mut().map(std::mem::take).collect();
        self.layout.finish()?;
        Ok(Completion::Blocks(blocks))
    }
}

/// Bruck allgather (any `p`): local index `i` accumulates the block of
/// origin `(rank + i) % p`; round `k` sends the first `min(2^k, p -
/// 2^k)` accumulated blocks to `rank - 2^k` and appends the same count
/// from `rank + 2^k`. Completion rotates back into rank order.
pub(crate) struct BruckAllgather {
    tags: Vec<Tag>,
    local: Vec<Bytes>,
    layout: Layout,
}

impl BruckAllgather {
    /// Over the agreed bytes per origin, `None` for equal blocks.
    pub(crate) fn new(comm: &Comm, counts: Option<Vec<usize>>) -> Self {
        let p = comm.size();
        BruckAllgather {
            tags: round_tags(comm, p.next_power_of_two().trailing_zeros()),
            local: Vec::with_capacity(p),
            layout: Layout::new(p, counts),
        }
    }

    /// Round `k`'s distance and the number of blocks it moves.
    fn step(p: usize, k: usize) -> (usize, usize) {
        let step = 1usize << k;
        (step, step.min(p - step))
    }
}

impl Rounds for BruckAllgather {
    fn seed(&mut self, _comm: &Comm, own: Bytes) {
        self.layout.seed(&own);
        self.local.clear();
        self.local.push(own);
    }

    fn rounds(&self) -> usize {
        self.tags.len()
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        ((comm.rank() + (1usize << k)) % comm.size(), self.tags[k])
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let p = comm.size();
        let (step, cnt) = Self::step(p, k);
        let dest = (comm.rank() + p - step) % p;
        send_internal(comm, dest, self.tags[k], group_message(&self.local[..cnt]))
    }

    fn absorb(&mut self, comm: &Comm, k: usize, incoming: Bytes) -> Result<()> {
        let (p, rank) = (comm.size(), comm.rank());
        let (step, cnt) = Self::step(p, k);
        // The sender's first `cnt` blocks: origins `rank + step + i`.
        let origins = (0..cnt).map(move |i| (rank + step + i) % p);
        let put = |_, b| self.local.push(b);
        self.layout.carve("Bruck", k, &incoming, origins, put);
        Ok(())
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let (p, rank) = (comm.size(), comm.rank());
        debug_assert_eq!(self.local.len(), p, "Bruck rounds deliver every block");
        self.layout.finish()?;
        // Inverse rotation: origin `o`'s block sits at local index
        // `(o - rank) mod p`.
        Ok(Completion::Blocks(
            (0..p)
                .map(|origin| self.local[(origin + p - rank) % p].clone())
                .collect(),
        ))
    }
}
