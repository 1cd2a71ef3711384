//! The broadcast plan's engine: both `bcast/*` rows in one `Rounds`
//! description, driven by every lifecycle.
//!
//! Van de Geijn's scatter + allgather: the root splits the payload into
//! `p` near-equal chunks (byte granularity, so any element size works)
//! and sends chunk `i` to rank `i`; every rank then posts its chunk to
//! all others at once, as the `allgather/ring` row of
//! [`table`](super::table) does. Wire volume is `~2s·(p-1)/p` on the
//! critical path instead of the binomial tree's `s·log2 p`, which wins
//! for large payloads; chunks are shared [`Bytes`], so the copy bill is
//! the tree's (root `s`, non-root `r`).
//!
//! Where only the root knows the size (a self-sizing call), it names
//! its row in each non-root's first message from its tree parent: the
//! tree's payload on the tree tag, or on the scatter tag an 8-byte
//! announcement of the size, which the non-root forwards down the tree
//! before it joins the exchange. The root announces before it scatters,
//! so its children find their chunk behind the announcement on the same
//! stream.

use bytes::Bytes;

use super::table::{frozen_pick, Call};
use super::{BcastAlgo, CollTuning};
use crate::collectives::nonblocking::{message_completion, recv_first, recv_one, Rounds};
use crate::collectives::{bcast_forward, bcast_parent, fan_out, send_internal};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::Parts;
use crate::plain::bytes_from_vec;
use crate::request::Completion;
use crate::{Rank, Tag};

/// How a rank knows a broadcast cycle's row.
#[derive(Clone, Copy)]
pub(crate) enum Rule {
    /// Selected at the call: by every rank of a sized call, by the root
    /// of a self-sizing `bcast*` or `ibcast`.
    Picked(BcastAlgo),
    /// The static rule under the tuning frozen at `bcast_init`, applied
    /// by the root to each cycle's size.
    Frozen(CollTuning),
    /// From the wire: a self-sizing call's non-root.
    Learned,
}

/// The binomial tree or van de Geijn, as [`Rule`] says (see the module
/// doc). A tree's non-root has one round, from its parent; van de
/// Geijn's receives its chunk from the root, then the others' in rank
/// order, and completes with them ([`Completion::Blocks`], pieces of
/// one payload), while its root drains the chunks it already has and
/// completes with its payload, as the tree's ranks do. A chunk that
/// does not fit the size — a root payload of another size than a sized
/// call's non-roots were given, a message cut short — is
/// [`MpiError::Truncated`] on the rank holding it, and an announcement
/// that is not a size [`MpiError::InvalidLayout`], reported once the
/// exchange is done.
pub(crate) struct BcastEngine {
    root: Rank,
    parent: Option<Rank>,
    /// Tree, scatter (which the announcement shares) and allgather tags.
    tags: [Tag; 3],
    rule: Rule,
    /// Only the root knows the size: van de Geijn announces it.
    announced: bool,
    /// Van de Geijn's rounds: `p - 1` at the root, `p` elsewhere.
    exchange: usize,
    /// This cycle's row, once picked or learned.
    row: Option<BcastAlgo>,
    /// The payload's size at a non-root: agreed, or announced.
    size: usize,
    /// The payload; a van de Geijn non-root's chunks by rank.
    parts: Vec<Bytes>,
    /// This cycle's announcement, forwarded as it came.
    announcement: Bytes,
    damaged: Option<MpiError>,
    /// Where a tree's non-root first sends its seed: the non-root side
    /// of the ordered allreduce, whose gather phase is that one send.
    up: Option<(Rank, Tag)>,
}

/// Where chunk `r` of a `total`-byte payload split over `p` ranks
/// begins. `total` may be a peer's announcement: the product is formed
/// wide, and the quotient is at most `total`.
fn bound(total: usize, p: usize, r: usize) -> usize {
    (total as u128 * r as u128 / p as u128) as usize
}

impl BcastEngine {
    /// The engine on `tags` for a payload of `size` bytes, `None` where
    /// only the root knows it.
    pub(crate) fn new(
        comm: &Comm,
        tags: [Tag; 3],
        root: Rank,
        size: Option<usize>,
        rule: Rule,
    ) -> Self {
        let is_root = comm.rank() == root;
        BcastEngine {
            root,
            parent: (!is_root).then(|| bcast_parent(comm, root)),
            tags,
            rule,
            announced: size.is_none(),
            exchange: comm.size() - usize::from(is_root),
            row: None,
            size: size.unwrap_or(0),
            parts: Vec::new(),
            announcement: Bytes::new(),
            damaged: None,
            up: None,
        }
    }

    /// The binomial tree alone, on `tag`, selecting nothing: the
    /// substrate's own broadcasts, and the ordered allreduce's (whose
    /// non-roots first contribute to `up`).
    pub(crate) fn tree(comm: &Comm, tag: Tag, root: Rank, up: Option<(Rank, Tag)>) -> Self {
        let rule = Rule::Picked(BcastAlgo::Binomial);
        let tree = BcastEngine::new(comm, [tag; 3], root, Some(0), rule);
        BcastEngine { up, ..tree }
    }

    /// Rounds ahead of the row's own: the receive that learns it.
    fn learning(&self) -> usize {
        usize::from(matches!(self.rule, Rule::Learned))
    }

    fn vdg(&self) -> bool {
        self.row == Some(BcastAlgo::ScatterAllgather)
    }

    /// Van de Geijn's step at round `k`, as a non-root counts it: step 0
    /// receives its chunk, step `j > 0` rank `j - 1`'s (itself skipped).
    fn step(&self, comm: &Comm, k: usize) -> usize {
        k + usize::from(comm.rank() == self.root) - self.learning()
    }

    /// Takes in the announcement: the size every chunk is checked
    /// against. One that is not a size still goes down the tree as it
    /// came, and the rank still joins the exchange, so no peer is left
    /// waiting.
    fn learn(&mut self, comm: &Comm, announcement: Bytes) {
        self.parts = vec![Bytes::new(); comm.size()];
        let size = <[u8; 8]>::try_from(&announcement[..]).map(u64::from_le_bytes);
        match size.ok().and_then(|size| usize::try_from(size).ok()) {
            Some(size) => self.size = size,
            None => {
                let len = announcement.len();
                let err = format!("bcast: a size announcement of {len} bytes, not 8");
                self.damaged = Some(MpiError::InvalidLayout(err));
            }
        }
        self.announcement = announcement;
    }
}

impl Rounds for BcastEngine {
    fn seed(&mut self, comm: &Comm, payload: Bytes) {
        let (p, size) = (comm.size(), payload.len());
        self.row = match self.rule {
            Rule::Picked(algo) => Some(algo),
            Rule::Frozen(tuning) => Some(frozen_pick(&tuning, p, &Call::sized(size))),
            Rule::Learned => None,
        };
        self.damaged = None;
        if self.vdg() && self.announced {
            self.announcement = bytes_from_vec((size as u64).to_le_bytes().to_vec());
        }
        self.parts = match self.vdg() && self.parent.is_some() {
            true => vec![Bytes::new(); p],
            false => vec![payload],
        };
    }

    fn rounds(&self) -> usize {
        match self.row {
            Some(BcastAlgo::ScatterAllgather) => self.learning() + self.exchange,
            Some(BcastAlgo::Binomial) => usize::from(self.parent.is_some()),
            None => 1,
        }
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        if !self.vdg() || k < self.learning() {
            return (
                self.parent.expect("the root has no tree round"),
                self.tags[0],
            );
        }
        match self.step(comm, k) {
            0 => (self.root, self.tags[1]),
            j => (j - 1 + usize::from(j > comm.rank()), self.tags[2]),
        }
    }

    fn receive(&mut self, comm: &Comm, k: usize, block: bool) -> Result<Option<Parts>> {
        let (src, tag) = self.peer(comm, k);
        if k >= self.learning() {
            return recv_one(comm, src, tag, block);
        }
        let first = recv_first(comm, src, [tag, self.tags[1]], block)?;
        Ok(first.map(|(stream, message)| {
            self.row = Some([BcastAlgo::Binomial, BcastAlgo::ScatterAllgather][stream]);
            message
        }))
    }

    fn waits_on(&self, comm: &Comm, k: usize, out: &mut Vec<(Rank, Tag)>) {
        let (src, tag) = self.peer(comm, k);
        out.push((src, tag));
        if k < self.learning() {
            out.push((src, self.tags[1]));
        }
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        if !self.vdg() || k < self.learning() {
            return match self.up {
                Some((dest, tag)) => {
                    send_internal(comm, dest, tag, std::mem::take(&mut self.parts[0]))
                }
                None => Ok(()),
            };
        }
        if k == self.learning() && self.announced {
            bcast_forward(comm, self.root, self.tags[1], &self.announcement)?;
        }
        let (p, rank) = (comm.size(), comm.rank());
        if self.step(comm, k) != 1 {
            return Ok(());
        }
        if rank != self.root {
            return fan_out(comm, p, self.tags[2], &self.parts[rank]);
        }
        let payload = &self.parts[0];
        let chunk = |r| payload.slice(bound(payload.len(), p, r)..bound(payload.len(), p, r + 1));
        for r in (0..p).filter(|&r| r != rank) {
            send_internal(comm, r, self.tags[1], chunk(r))?;
        }
        fan_out(comm, p, self.tags[2], &chunk(rank))
    }

    fn absorb(&mut self, comm: &Comm, k: usize, payload: Parts) -> Result<()> {
        let payload = payload.into_bytes();
        if !self.vdg() {
            self.parts[0] = payload;
            return Ok(());
        }
        if k < self.learning() {
            self.learn(comm, payload);
            return Ok(());
        }
        // The root's rounds return chunks it split from its own payload.
        let (p, rank) = (comm.size(), comm.rank());
        let from = match self.step(comm, k) {
            0 => rank,
            _ => self.peer(comm, k).0,
        };
        let total = if rank == self.root {
            self.parts[0].len()
        } else {
            self.size
        };
        let expected = bound(total, p, from + 1) - bound(total, p, from);
        if payload.len() != expected && self.damaged.is_none() {
            let message_bytes = payload.len();
            self.damaged = Some(MpiError::Truncated {
                message_bytes,
                buffer_bytes: expected,
            });
        }
        if rank != self.root {
            self.parts[from] = payload;
        }
        Ok(())
    }

    fn finish(&mut self, comm: &Comm) -> Result<Completion> {
        let mut parts = std::mem::take(&mut self.parts);
        if !self.vdg() {
            let payload = parts.swap_remove(0);
            bcast_forward(comm, self.root, self.tags[0], &payload)?;
            return Ok(message_completion(self.root, self.tags[0], payload));
        }
        // Communicate first, fail after: a rank that left before the
        // allgather would strand its peers in it.
        if let Some(err) = self.damaged.take() {
            return Err(err);
        }
        Ok(match comm.rank() == self.root {
            true => message_completion(self.root, self.tags[1], parts.swap_remove(0)),
            false => Completion::Blocks(parts),
        })
    }

    fn all_peers(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        // Either row's sources: a non-root's parent on both of its
        // streams, the root's scatter, and every rank's allgather.
        let rank = comm.rank();
        if let Some(parent) = self.parent {
            out.extend([(parent, self.tags[0]), (parent, self.tags[1])]);
            if parent != self.root {
                out.push((self.root, self.tags[1]));
            }
        }
        out.extend(
            (0..comm.size())
                .filter(|&r| r != rank)
                .map(|r| (r, self.tags[2])),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::nonblocking::{drive, RoundEngine};
    use crate::plain::bytes_from_slice;
    use crate::Universe;

    /// Van de Geijn driven on this stack, every rank passing `size`.
    fn run(comm: &Comm, payload: Option<Bytes>, size: usize, root: Rank) -> Result<Completion> {
        let tags = [(); 3].map(|()| comm.next_internal_tag());
        let rule = Rule::Picked(BcastAlgo::ScatterAllgather);
        let engine = BcastEngine::new(comm, tags, root, Some(size), rule);
        drive(
            comm,
            &mut RoundEngine::new(engine),
            payload.unwrap_or_default(),
        )
    }

    fn joined(done: Completion) -> Vec<u8> {
        done.into_blocks()
            .unwrap()
            .iter()
            .flat_map(|b| b.to_vec())
            .collect()
    }

    #[test]
    fn scatter_allgather_delivers_everywhere() {
        for p in [2, 3, 4, 5, 8] {
            for root in [0, p - 1] {
                Universe::run(p, move |comm| {
                    let data: Vec<u8> = (0..1031u32).map(|i| (i % 251) as u8).collect();
                    let payload = (comm.rank() == root).then(|| bytes_from_slice(&data));
                    let done = run(&comm, payload, data.len(), root).unwrap();
                    assert_eq!(joined(done), data, "p = {p}, root = {root}");
                });
            }
        }
    }

    /// A root payload shorter than the size the non-roots were given is
    /// split as it is: every non-root holds short chunks and reports
    /// them after the exchange, while the root's own chunks come back
    /// as it split them.
    #[test]
    fn chunks_of_the_wrong_length_are_truncation_on_the_ranks_holding_them() {
        Universe::run(4, |comm| {
            let payload = (comm.rank() == 0).then(|| bytes_from_slice(&[7u8; 40]));
            let done = run(&comm, payload, 48, 0);
            match comm.rank() {
                0 => assert_eq!(joined(done.unwrap()), [7; 40]),
                _ => assert!(matches!(done, Err(MpiError::Truncated { .. })), "{done:?}"),
            }
        });
    }
}
