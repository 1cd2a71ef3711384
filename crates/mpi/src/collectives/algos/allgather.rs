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
//! by refcount slicing, copy-free, along one byte [`Layout`]. An agreed
//! layout is `[s; p]` for an equal-block `allgather` and the counts of
//! a counted `allgatherv`; a counted call packs the bytes of the blocks
//! its groups hold. The self-sizing `allgatherv` *learns* its layout in
//! the rounds: round 0's message is the bare own block, so its length
//! is the message's, and every later message leads with one `u64`
//! length per origin of its group. A block rides in the rounds iff `p`
//! times its length is within the row's ceiling — the counted call's
//! total rule, applied per origin, so every rank decides alike from the
//! lengths it learns. A larger block travels in the rounds as its
//! length only: its origin sends it straight to every rank but its
//! round-0 partner when the cycle starts, on round 0's tag, and each
//! rank receives those blocks once its rounds are done.
//!
//! A group of a length the layout does not predict (unequal
//! contributions, counts that disagree, a header that disagrees with
//! its payload) does not abort the schedule: the engine posts every
//! later round — its partners wait on them — and reports the error from
//! `finish`. A learning rank that failed sends its later rounds empty,
//! so whoever they reach fails too, and it waits for no direct block:
//! every length it would wait on may be wrong.
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

/// Bytes of one block length in a learned group's header.
const LEN: usize = std::mem::size_of::<u64>();

/// What every rank knows of an allgather's block sizes, in bytes: what
/// its plan selects the row on.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockSizes<'a> {
    /// Every rank contributes as much as this one (`MPI_Allgather`).
    Equal,
    /// The agreed bytes of each origin's block, one entry per rank (a
    /// counted `allgatherv`).
    Counted(&'a [usize]),
    /// Nothing but its own (the self-sizing `allgatherv`s): the
    /// latency rows learn the others' lengths in their rounds.
    Learned,
}

/// How a [`Layout`] knows each origin's bytes.
#[derive(Clone, Copy)]
enum Kind {
    /// `[s; p]`, `s` re-read from each cycle's own contribution (the
    /// `MPI_Allgather` contract: every rank contributes as much).
    Equal,
    /// The agreed counts.
    Counted,
    /// Read off this cycle's messages; a block rides in the rounds iff
    /// `p · len <= ceiling`, the row's ceiling.
    Learned { ceiling: usize },
}

/// The bytes of every origin's block, which both engines carve received
/// groups by, and the cycle's first layout error.
struct Layout {
    bytes: Vec<usize>,
    kind: Kind,
    /// Learned: the origins whose blocks arrive straight from them once
    /// the rounds are done, in receive order.
    direct: Vec<Rank>,
    /// A group of a length the layout did not predict.
    failed: Option<MpiError>,
}

impl Layout {
    /// `sizes` on `p` ranks, under the row's `ceiling`.
    fn new(p: usize, sizes: BlockSizes<'_>, ceiling: usize) -> Self {
        let (bytes, kind) = match sizes {
            BlockSizes::Equal => (vec![0; p], Kind::Equal),
            BlockSizes::Counted(counts) => (counts.to_vec(), Kind::Counted),
            BlockSizes::Learned => (vec![0; p], Kind::Learned { ceiling }),
        };
        Layout {
            bytes,
            kind,
            direct: Vec::new(),
            failed: None,
        }
    }

    fn seed(&mut self, rank: Rank, own: &Bytes) {
        match self.kind {
            Kind::Equal => self.bytes.fill(own.len()),
            Kind::Counted => {}
            Kind::Learned { .. } => self.bytes[rank] = own.len(),
        }
        self.direct.clear();
        self.failed = None;
    }

    fn learned(&self) -> bool {
        matches!(self.kind, Kind::Learned { .. })
    }

    /// Whether a block of `len` bytes rides in the rounds' messages.
    fn inline(&self, len: usize) -> bool {
        match self.kind {
            Kind::Learned { ceiling } => {
                (len.checked_mul(self.bytes.len())).is_some_and(|total| total <= ceiling)
            }
            Kind::Equal | Kind::Counted => true,
        }
    }

    /// Round `k`'s message of the blocks of `origins`, held in `blocks`:
    /// [`group_message`], except that a learned group past round 0
    /// leads with its lengths and packs only its inline blocks — or,
    /// once this rank has failed, is empty.
    fn message(&self, k: usize, origins: impl Iterator<Item = Rank>, blocks: &[Bytes]) -> Bytes {
        if !self.learned() || k == 0 {
            return group_message(blocks);
        }
        if self.failed.is_some() {
            return Bytes::new();
        }
        let lens: Vec<usize> = origins.map(|o| self.bytes[o]).collect();
        let body: usize = lens.iter().filter(|&&len| self.inline(len)).sum();
        let mut packed: Vec<u8> = Vec::with_capacity(LEN * lens.len() + body);
        for &len in &lens {
            packed.extend_from_slice(&(len as u64).to_le_bytes());
        }
        for (block, &len) in blocks.iter().zip(&lens) {
            if self.inline(len) {
                extend_vec_from_bytes(&mut packed, block);
            }
        }
        bytes_from_vec(packed)
    }

    /// Carves `incoming`, round `k`'s group of the blocks of `origins`,
    /// into per-origin refcount sub-views handed to `put` in order (an
    /// empty one for a block that travels direct). A group of any other
    /// length means the ranks disagree on the layout (MPI's contract for
    /// both agreed calls): the first such group is recorded, and the
    /// rounds go on with the whole group as its first origin's block.
    /// What this rank forwards then still holds every byte it received,
    /// so a partner that agrees with the group's true sizes carves it
    /// right and one that does not finds a mismatch — never a short
    /// group that happens to fit.
    fn carve(
        &mut self,
        what: &str,
        k: usize,
        incoming: &Bytes,
        origins: impl Iterator<Item = Rank> + Clone,
        mut put: impl FnMut(Rank, Bytes),
    ) {
        if let Kind::Learned { .. } = self.kind {
            return self.learn(what, k, incoming, origins, put);
        }
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

    /// [`carve`](Self::carve) for a learned layout: round 0 delivers one
    /// bare block, every later round its group's lengths, then its
    /// inline blocks. A group whose lengths disagree with its payload
    /// fails this rank, and its origins get empty blocks.
    fn learn(
        &mut self,
        what: &str,
        k: usize,
        incoming: &Bytes,
        origins: impl Iterator<Item = Rank> + Clone,
        mut put: impl FnMut(Rank, Bytes),
    ) {
        if k == 0 {
            for o in origins {
                self.bytes[o] = incoming.len();
                put(o, incoming.clone());
            }
            return;
        }
        let lens = match self.header(incoming, origins.clone().count()) {
            Ok(lens) => lens,
            Err(detail) => {
                self.failed.get_or_insert_with(|| {
                    MpiError::InvalidLayout(format!("allgatherv ({what}): round {k} {detail}"))
                });
                origins.for_each(|o| put(o, Bytes::new()));
                return;
            }
        };
        let mut at = LEN * lens.len();
        for (o, len) in origins.zip(lens) {
            self.bytes[o] = len;
            if self.inline(len) {
                put(o, incoming.slice(at..at + len));
                at += len;
            } else {
                put(o, Bytes::new());
            }
        }
    }

    /// The `n` lengths a learned group leads with, checked against the
    /// inline bytes that follow them.
    fn header(&self, incoming: &Bytes, n: usize) -> std::result::Result<Vec<usize>, String> {
        let (got, head) = (incoming.len(), LEN * n);
        if got < head {
            return Err(format!(
                "delivered {got} bytes, too few for the lengths of its {n} blocks"
            ));
        }
        let lens: Vec<usize> = (incoming[..head].chunks_exact(LEN))
            .map(|len| u64::from_le_bytes(len.try_into().expect("LEN bytes")))
            .map(|len| usize::try_from(len).unwrap_or(usize::MAX))
            .collect();
        // Each inline length is at most `ceiling / p`: the sum fits.
        let body: usize = lens.iter().filter(|&&len| self.inline(len)).sum();
        if got - head != body {
            return Err(format!(
                "carries {} block bytes, but its header announces {body}",
                got - head
            ));
        }
        Ok(lens)
    }

    /// Learned, when the cycle starts: a block too large to ride in the
    /// rounds goes from its origin straight to every rank but itself and
    /// `partner`, which has it from round 0 — in rotation order, on
    /// round 0's `tag`, after round 0's own message.
    fn send_direct(&self, comm: &Comm, tag: Tag, own: &Bytes, partner: Rank) -> Result<()> {
        let (p, rank) = (comm.size(), comm.rank());
        if !self.learned() || self.inline(own.len()) {
            return Ok(());
        }
        let mut dests = (1..p).map(|d| (rank + d) % p).filter(|&d| d != partner);
        dests.try_for_each(|dest| send_internal(comm, dest, tag, own.clone()))
    }

    /// Learned, once the rounds are absorbed: the origins whose blocks
    /// arrive direct — every one too large to ride, but the one round 0
    /// delivered (from `bare`), in the order they were sent (origin
    /// `o` serves `o + 1` first). None once this rank has failed.
    fn plan_direct(&mut self, rank: Rank, bare: Rank) {
        let p = self.bytes.len();
        if !self.learned() || self.failed.is_some() {
            return;
        }
        let origins = (1..p).map(|d| (rank + p - d) % p);
        let large = origins.filter(|&o| o != bare && !self.inline(self.bytes[o]));
        self.direct = large.collect();
    }

    /// Direct round `j`'s block, from `self.direct[j]`: its length must
    /// be the one the rounds announced.
    fn direct_block(&mut self, what: &str, j: usize, block: Bytes) -> (Rank, Bytes) {
        let origin = self.direct[j];
        let (got, expected) = (block.len(), self.bytes[origin]);
        if got != expected {
            self.failed.get_or_insert_with(|| {
                MpiError::InvalidLayout(format!(
                    "allgatherv ({what}): rank {origin} sent {got} bytes direct, \
                     its length in the rounds was {expected}"
                ))
            });
        }
        (origin, block)
    }

    /// Every `(source, tag)` a cycle over `tags` may receive on, given
    /// each round's `peer`: a learned cycle receives on round 0's tag
    /// from every other rank, whose direct block rides it too.
    fn all_peers(
        &self,
        comm: &Comm,
        tags: &[Tag],
        peer: impl Fn(usize) -> (Rank, Tag),
        out: &mut Vec<(Rank, Tag)>,
    ) {
        let (p, rank) = (comm.size(), comm.rank());
        if !self.learned() {
            return out.extend((0..tags.len()).map(peer));
        }
        out.extend((1..p).map(|d| ((rank + d) % p, tags[0])));
        out.extend((1..tags.len()).map(peer));
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
    pub(crate) fn new(comm: &Comm, sizes: BlockSizes<'_>) -> Self {
        let p = comm.size();
        debug_assert!(p.is_power_of_two(), "selection gates RD to power-of-two p");
        let ceiling = comm.tuning().allgather_rd_max_bytes;
        RecursiveDoubling {
            tags: round_tags(comm, p.trailing_zeros()),
            blocks: vec![Bytes::new(); p],
            layout: Layout::new(p, sizes, ceiling),
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
        self.layout.seed(comm.rank(), &own);
        self.blocks[comm.rank()] = own;
    }

    fn rounds(&self) -> usize {
        self.tags.len() + self.layout.direct.len()
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        match k.checked_sub(self.tags.len()) {
            None => (Self::group(comm.rank(), k).0, self.tags[k]),
            Some(j) => (self.layout.direct[j], self.tags[0]),
        }
    }

    fn all_peers(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        let peer = |k| self.peer(comm, k);
        self.layout.all_peers(comm, &self.tags, peer, out);
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let Some(&tag) = self.tags.get(k) else {
            return Ok(()); // a direct block: its origin sent it at round 0
        };
        let (partner, base, group) = Self::group(comm.rank(), k);
        let blocks = &self.blocks[base..base + group];
        let outgoing = self.layout.message(k, base..base + group, blocks);
        send_internal(comm, partner, tag, outgoing)?;
        if k == 0 {
            let own = &self.blocks[comm.rank()];
            self.layout.send_direct(comm, tag, own, partner)?;
        }
        Ok(())
    }

    fn absorb(&mut self, comm: &Comm, k: usize, incoming: Bytes) -> Result<()> {
        let what = "recursive doubling";
        if let Some(j) = k.checked_sub(self.tags.len()) {
            let (origin, block) = self.layout.direct_block(what, j, incoming);
            self.blocks[origin] = block;
            return Ok(());
        }
        let (partner, _, group) = Self::group(comm.rank(), k);
        let base = Self::group(partner, k).1;
        let origins = base..base + group;
        let put = |o: Rank, b| self.blocks[o] = b;
        self.layout.carve(what, k, &incoming, origins, put);
        if k + 1 == self.tags.len() {
            self.layout.plan_direct(comm.rank(), comm.rank() ^ 1);
        }
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
    pub(crate) fn new(comm: &Comm, sizes: BlockSizes<'_>) -> Self {
        let p = comm.size();
        let ceiling = comm.tuning().allgather_bruck_max_bytes;
        BruckAllgather {
            tags: round_tags(comm, p.next_power_of_two().trailing_zeros()),
            local: Vec::with_capacity(p),
            layout: Layout::new(p, sizes, ceiling),
        }
    }

    /// Round `k`'s distance and the number of blocks it moves.
    fn step(p: usize, k: usize) -> (usize, usize) {
        let step = 1usize << k;
        (step, step.min(p - step))
    }
}

impl Rounds for BruckAllgather {
    fn seed(&mut self, comm: &Comm, own: Bytes) {
        self.layout.seed(comm.rank(), &own);
        self.local.clear();
        self.local.push(own);
    }

    fn rounds(&self) -> usize {
        self.tags.len() + self.layout.direct.len()
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        match k.checked_sub(self.tags.len()) {
            None => ((comm.rank() + (1usize << k)) % comm.size(), self.tags[k]),
            Some(j) => (self.layout.direct[j], self.tags[0]),
        }
    }

    fn all_peers(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        let peer = |k| self.peer(comm, k);
        self.layout.all_peers(comm, &self.tags, peer, out);
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let Some(&tag) = self.tags.get(k) else {
            return Ok(()); // a direct block: its origin sent it at round 0
        };
        let (p, rank) = (comm.size(), comm.rank());
        let (step, cnt) = Self::step(p, k);
        let dest = (rank + p - step) % p;
        let origins = (0..cnt).map(|i| (rank + i) % p);
        let outgoing = self.layout.message(k, origins, &self.local[..cnt]);
        send_internal(comm, dest, tag, outgoing)?;
        if k == 0 {
            self.layout.send_direct(comm, tag, &self.local[0], dest)?;
        }
        Ok(())
    }

    fn absorb(&mut self, comm: &Comm, k: usize, incoming: Bytes) -> Result<()> {
        let (p, rank) = (comm.size(), comm.rank());
        if let Some(j) = k.checked_sub(self.tags.len()) {
            let (origin, block) = self.layout.direct_block("Bruck", j, incoming);
            self.local[(origin + p - rank) % p] = block;
            return Ok(());
        }
        let (step, cnt) = Self::step(p, k);
        // The sender's first `cnt` blocks: origins `rank + step + i`.
        let origins = (0..cnt).map(move |i| (rank + step + i) % p);
        let put = |_, b| self.local.push(b);
        self.layout.carve("Bruck", k, &incoming, origins, put);
        if k + 1 == self.tags.len() {
            self.layout.plan_direct(rank, (rank + 1) % p);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Round 1 of a learned exchange at p = 4 under a 64-byte ceiling
    /// (inline iff `len <= 16`): the group of origins 2 and 3, lengths
    /// 3 (inline) and 100 (direct), then the 3 inline bytes.
    fn group() -> Vec<u8> {
        let mut msg: Vec<u8> = [3u64, 100].iter().flat_map(|l| l.to_le_bytes()).collect();
        msg.extend([7, 8, 9]);
        msg
    }

    fn carve(msg: Vec<u8>) -> (Layout, Vec<(Rank, Bytes)>) {
        let mut layout = Layout::new(4, BlockSizes::Learned, 64);
        layout.seed(0, &Bytes::from(vec![1u8]));
        let mut got = Vec::new();
        let incoming = Bytes::from(msg);
        layout.carve("test", 1, &incoming, [2, 3].into_iter(), |o, b| {
            got.push((o, b))
        });
        (layout, got)
    }

    #[test]
    fn a_learned_group_is_carved_by_its_header() {
        let (mut layout, got) = carve(group());
        let want = [(2, Bytes::from(vec![7u8, 8, 9])), (3, Bytes::new())];
        assert_eq!(got, want);
        // Origin 3 arrives direct; origin 1 sent rank 0 its block bare.
        layout.plan_direct(0, 1);
        assert_eq!(layout.direct, [3]);
        assert!(layout.finish().is_ok());
    }

    /// A group whose header disagrees with its payload — cut inside the
    /// header or the body, empty, or carrying bytes its header does not
    /// announce — fails the rank with a typed error, hands its origins
    /// empty blocks, and leaves no direct block to wait for.
    #[test]
    fn a_header_that_disagrees_with_its_payload_is_a_typed_error() {
        let whole = group();
        let cuts = [
            whole[..5].to_vec(),
            whole[..whole.len() - 1].to_vec(),
            Vec::new(),
            [whole.as_slice(), &[0]].concat(),
        ];
        for msg in cuts {
            let len = msg.len();
            let (mut layout, got) = carve(msg);
            assert_eq!(got, [(2, Bytes::new()), (3, Bytes::new())], "{len} bytes");
            layout.plan_direct(0, 1);
            assert!(layout.direct.is_empty(), "{len} bytes");
            let failed = layout.finish();
            assert!(
                matches!(failed, Err(MpiError::InvalidLayout(_))),
                "{len} bytes"
            );
        }
    }
}
