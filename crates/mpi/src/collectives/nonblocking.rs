//! Non-blocking collectives: resumable state machines behind [`Request`]
//! — and the one definition of every round-structured and every flat
//! algorithm.
//!
//! A collective here is a [`CollEngine`]: `start` posts everything that
//! depends on no receive, `advance` drains receives (posting each later
//! round's sends as the round before it completes). The three
//! lifecycles are three drivers of that one machine:
//!
//! ```text
//!   blocking   build, start, advance(block = true)                [drive]
//!   i*         build, start, box into a Request; test/wait advance it
//!   *_init     build once; every PersistentRequest::start calls start
//! ```
//!
//! **One plan per operation, three drivers.** What a call builds is
//! decided once per operation, by its plan — a `Comm::*_plan` method
//! (`bcast`, `scatter`, `allgather`, `alltoall`, packed `alltoallv`,
//! `allreduce`; the neighborhood module's `sparse_plan`): it takes the
//! operation's internal tag(s), runs the rank-local checks *after*
//! them, selects the row under [`tuned`] — one static `Auto` rule for
//! all three lifecycles — where the operation is tunable, and hands
//! the built engine plus this call's payload to the caller's driver —
//! [`drive`] for a blocking call, [`Comm::icoll`] for `i*`,
//! `Comm::persistent_coll` for `*_init`. A check therefore fails the
//! same way, at the same point of the tag sequence, in every
//! lifecycle, and an erroring rank stays tag-aligned with peers whose
//! part was fine. Only `gather*`, `reduce` and `scan` keep blocking
//! bodies of their own: the first read the root's buffer in place and
//! accept arrivals in any order, the others keep a typed accumulator
//! that a `Bytes` completion would copy. They still drive the same
//! engines.
//!
//! Each `i*` collective allocates its internal tag(s) at call time (so
//! ranks must start non-blocking collectives in the same order, the MPI
//! rule) and posts every send it can *eagerly* (the substrate transport
//! is eager, so sends never block). `Request::test` advances the machine
//! without blocking; `Request::wait` drives it to completion — MPI's
//! progress-on-call semantics. Communication therefore genuinely
//! overlaps local compute: all outgoing traffic is in flight from the
//! moment the call returns, and incoming traffic is drained whenever the
//! caller polls.
//!
//! Every payload is serialized at most once at its origin and
//! materialized once per destination; forwarding and fan-out are
//! refcount clones, and the `*_bytes` entry points adopt owned buffers
//! with **zero** call-time copies. Which algorithm an operation runs,
//! its startups and its copy bill are the rows of
//! [`algos::table`](super::algos::table) (the tunable operations select
//! among them) and of the [`collectives`](super) module table. There are
//! two engines:
//!
//! - **rounds** — [`RoundEngine`], the one round loop over a [`Rounds`]
//!   description (index arithmetic only, in [`super::algos`],
//!   [`super::barrier`], `bcast.rs` and `scan.rs`): every other row of
//!   the table, the dissemination barrier, the doubling `scan` /
//!   `exscan`, and the binomial broadcast — zero rounds at the root,
//!   one everywhere else;
//! - **flat exchange** — [`Exchange`]: everything this rank sends is
//!   posted at `start` (nothing, the whole payload, or frozen slices of
//!   it, to a frozen destination list), one message per entry of a
//!   frozen source list is collected, and the completion is `Done`, the
//!   one message, the blocks, or their rank-ordered fold. Gather,
//!   scatter, `allgather/ring`, `alltoall/pairwise`,
//!   `reduce/flat_gather` and both neighborhood rows are this engine.
//!
//! So an `i*` or a `*_init` runs the schedule its blocking twin runs.
//! With [`CollTuning::self_tuning`](super::algos::CollTuning::self_tuning)
//! enabled, the warm measured cost model may override the static pick
//! of an initiation, after charging every serialized round one extra
//! startup for lost overlap (the overlap bias of
//! [`ModelConfig::overlap_alpha_pct`](super::algos::ModelConfig)).
//! Selection at initiation reads only the last *published* model
//! snapshot — it never synchronizes, because a non-blocking initiation
//! must complete locally (MPI's local-completion rule).
//!
//! Completion payloads: single-result operations complete with
//! [`Completion::Message`]; per-rank-block operations (`igatherv`,
//! `iallgatherv`, `ialltoallv`) complete with [`Completion::Blocks`]
//! holding one [`Bytes`] per rank in rank order — the binding layer
//! derives receive counts from the block lengths without any extra
//! count exchange.

use std::ops::{DerefMut, Range};

use bytes::Bytes;

use super::algos::allgather::{BlockSizes, BruckAllgather, RecursiveDoubling};
use super::algos::allreduce::Allreduce;
use super::algos::alltoall::BruckAlltoall;
use super::algos::reduce::TreeReduce;
use super::algos::table::{tuned, Call, Site};
use super::algos::{fold_bytes_right, AllgatherAlgo, AlltoallAlgo, ReduceAlgo};
use super::bcast::BinomialBcast;
use super::scatter::equal_blocks;
use super::{bcast_forward, packed_ranges, root_without_data, send_internal, send_slices};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::{Src, Status, TagSel};
use crate::op::ReduceOp;
use crate::plain::{bytes_from_slice, bytes_from_vec, bytes_into_vec};
use crate::request::{Completion, Request};
use crate::{Plain, Rank, Tag};

/// A resumable collective: the only definition of its algorithm, driven
/// by all three lifecycles (see the module doc).
pub(crate) trait CollEngine {
    /// Begins one cycle with this cycle's contribution (empty where the
    /// rank contributes nothing): initialises the receive state, reusing
    /// whatever storage the previous cycle left, and posts everything
    /// that depends on no receive — a flat fan-out, round 0 of a
    /// log-round algorithm, a leaf's send to its parent. Tags, peers and
    /// slice ranges were frozen when the engine was built.
    fn start(&mut self, comm: &Comm, payload: Bytes) -> Result<()>;

    /// `advance(block = false)` makes as much progress as possible
    /// without blocking; `advance(block = true)` runs to completion.
    /// Returns `Some` exactly once per cycle.
    fn advance(&mut self, comm: &Comm, block: bool) -> Result<Option<Completion>>;

    /// The registration hook of the completion subsystem
    /// ([`crate::completion`]): appends the `(source rank, tag)` pairs
    /// whose arrival could let `advance` make progress *right now*.
    /// Reporting none means the engine is not blocked on any receive
    /// (about to complete) and must not be parked on.
    fn sources(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>);

    /// The full, frozen set of `(source rank, tag)` pairs this engine
    /// can ever receive from across a cycle (unlike [`Self::sources`],
    /// which reports only the *currently* blocking ones). Persistent
    /// init registers a standing waiter on each, once.
    fn all_sources(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>);

    /// Whether `payload` fits what was frozen at build time; a
    /// persistent request asks before accepting a new cycle's payload.
    fn check_payload(&self, _payload: &Bytes) -> Result<()> {
        Ok(())
    }
}

/// One receive attempt from `src` on `tag`: blocking when `block` is
/// set, otherwise a single poll that still surfaces peer failure and
/// revocation. The one receive primitive every engine drives. Both
/// sides route through the matching engine ([`crate::mailbox`]): the
/// poll is an O(1) `(source, tag)` index hit and the blocking wait a
/// targeted per-waiter wakeup, so drain loops stay cheap even when
/// other collectives' traffic is piled up at the rank.
pub(crate) fn recv_one(comm: &Comm, src: Rank, tag: Tag, block: bool) -> Result<Option<Bytes>> {
    // Every collective engine phase funnels through here, so a planned
    // crash can land inside any algorithm round (e.g. mid-Bruck).
    crate::fault::point("coll/phase");
    if block {
        let env = comm.recv_envelope(Src::Rank(src), TagSel::Is(tag))?;
        return Ok(Some(env.payload));
    }
    match comm.try_recv_envelope(Src::Rank(src), TagSel::Is(tag)) {
        Some(env) => Ok(Some(env.payload)),
        None => match comm.wait_interrupted(Src::Rank(src)) {
            Some(err) => Err(err),
            None => Ok(None),
        },
    }
}

pub(crate) fn message_completion(source: Rank, tag: Tag, payload: Bytes) -> Completion {
    let status = Status {
        source,
        tag,
        bytes: payload.len(),
    };
    Completion::Message(payload, status)
}

// ---------------------------------------------------------------------------
// The round driver
// ---------------------------------------------------------------------------

/// A round-structured algorithm reduced to its index arithmetic: round
/// `k` posts sends that depend only on rounds `< k`, then receives one
/// message from `peer(k)` and absorbs it. [`RoundEngine`] supplies the
/// loop, the resumption state and both source sets.
pub(crate) trait Rounds {
    /// Installs this cycle's contribution, back at "nothing received".
    /// The default is for algorithms that take none here: the barrier,
    /// and the reduce tree, whose typed contribution is fixed when it is
    /// built.
    fn seed(&mut self, _comm: &Comm, _payload: Bytes) {}
    /// Number of receive rounds (fixed once built).
    fn rounds(&self) -> usize;
    /// Whom round `k` receives from, and on which tag.
    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag);
    /// Posts round `k`'s sends; called once rounds `< k` are absorbed.
    fn post(&mut self, comm: &Comm, k: usize) -> Result<()>;
    /// Takes in round `k`'s message.
    fn absorb(&mut self, comm: &Comm, k: usize, payload: Bytes) -> Result<()>;
    /// Runs once every round is absorbed: closing sends and the result.
    fn finish(&mut self, comm: &Comm) -> Result<Completion>;
}

/// The one round loop: drives any [`Rounds`] description as a
/// [`CollEngine`].
pub(crate) struct RoundEngine<A> {
    pub(crate) algo: A,
    /// The round whose receive is outstanding.
    round: usize,
    /// An algorithm with no round to wait for finishes inside `start`,
    /// so that its closing sends (a tree leaf's block towards its
    /// parent) leave at the call like every other eager send.
    done: Option<Completion>,
}

impl<A: Rounds> RoundEngine<A> {
    pub(crate) fn new(algo: A) -> Self {
        RoundEngine {
            algo,
            round: 0,
            done: None,
        }
    }
}

impl<A: Rounds> CollEngine for RoundEngine<A> {
    fn start(&mut self, comm: &Comm, payload: Bytes) -> Result<()> {
        self.algo.seed(comm, payload);
        self.round = 0;
        if self.algo.rounds() == 0 {
            self.done = Some(self.algo.finish(comm)?);
            return Ok(());
        }
        self.algo.post(comm, 0)
    }

    fn advance(&mut self, comm: &Comm, block: bool) -> Result<Option<Completion>> {
        if let Some(done) = self.done.take() {
            return Ok(Some(done));
        }
        while self.round < self.algo.rounds() {
            let (src, tag) = self.algo.peer(comm, self.round);
            let Some(payload) = recv_one(comm, src, tag, block)? else {
                return Ok(None);
            };
            self.algo.absorb(comm, self.round, payload)?;
            self.round += 1;
            if self.round < self.algo.rounds() {
                self.algo.post(comm, self.round)?;
            }
        }
        self.algo.finish(comm).map(Some)
    }

    fn sources(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        // Rounds are received strictly in order, so the current round's
        // peer is the one source whose arrival unblocks the engine.
        if self.round < self.algo.rounds() {
            out.push(self.algo.peer(comm, self.round));
        }
    }

    fn all_sources(&self, comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        out.extend((0..self.algo.rounds()).map(|k| self.algo.peer(comm, k)));
    }
}

/// The blocking driver: the engine — `&mut` one on the caller's stack,
/// or a plan's boxed one — is driven straight to completion, with no
/// [`Request`] and no async trace span. A caller that lends its engine
/// keeps it, for results it holds typed.
pub(crate) fn drive<E: CollEngine + ?Sized>(
    comm: &Comm,
    mut engine: impl DerefMut<Target = E>,
    payload: Bytes,
) -> Result<Completion> {
    engine.start(comm, payload)?;
    let done = engine.advance(comm, true)?;
    Ok(done.expect("a blocking advance completes the collective"))
}

/// [`drive`] for the engines that complete with one block per source.
pub(crate) fn drive_blocks<E: CollEngine + ?Sized>(
    comm: &Comm,
    engine: impl DerefMut<Target = E>,
    payload: Bytes,
) -> Result<Vec<Bytes>> {
    let blocks = drive(comm, engine, payload)?.into_blocks();
    Ok(blocks.expect("the engine completes with blocks"))
}

/// [`drive`] for the engines that complete with one message.
pub(crate) fn drive_message<E: CollEngine + ?Sized>(
    comm: &Comm,
    engine: impl DerefMut<Target = E>,
    payload: Bytes,
) -> Result<Bytes> {
    let message = drive(comm, engine, payload)?.into_bytes();
    Ok(message.expect("the engine completes with a message").0)
}

// ---------------------------------------------------------------------------
// The flat exchange
// ---------------------------------------------------------------------------

/// What an [`Exchange`] posts at `start`, to destinations frozen when it
/// was built.
pub(crate) enum Post {
    /// Nothing: a root that only collects.
    Nothing,
    /// The whole payload to every destination (refcount clones).
    Whole(Vec<Rank>),
    /// `payload[range]` to each destination ([`send_slices`]); `keep`
    /// stays in this rank's own slot.
    Sliced {
        parts: Vec<(Rank, Range<usize>)>,
        keep: Range<usize>,
    },
}

/// What an [`Exchange`] completes with once every slot is filled.
pub(crate) enum Finish<'o> {
    /// [`Completion::Done`]: a rank whose whole part is its sends.
    Done,
    /// The one collected block, as [`Completion::Message`].
    Message,
    /// [`Completion::Blocks`] in source-list order.
    Blocks,
    /// The blocks folded ([`ordered_fold`]), the result sent down the
    /// binomial tree on `bcast` first when this is rank 0 of an
    /// allreduce. `FnMut`, so a persistent plan reuses it every cycle.
    Fold {
        fold: Box<dyn FnMut(Vec<Bytes>) -> Result<Bytes> + 'o>,
        bcast: Option<Tag>,
    },
}

/// The one flat, eager engine: `start` posts everything this rank sends
/// ([`Post`]), `advance` collects one message per entry of a frozen
/// source list and completes as [`Finish`] says. Every flat collective
/// in every lifecycle is one of these: gather, scatter, the flat
/// allgather / alltoall(v) / reduce (+ broadcast) and the neighborhood
/// exchanges. `'o` bounds the operation a fold holds (`'static` but
/// for a blocking allreduce).
pub(crate) struct Exchange<'o> {
    /// Names the operation in rank-local errors.
    what: &'static str,
    tag: Tag,
    post: Post,
    /// `blocks[i]` comes from `sources[i]`. Slots fill strictly in
    /// order, in every lifecycle: the receives complete — and are
    /// charged to the virtual clock — in one sequence whichever driver
    /// runs, and duplicate sources (legal on a neighborhood) take their
    /// FIFO `(source, tag)` stream in declaration order.
    sources: Vec<Rank>,
    /// The slot that is this rank itself: filled at `start` with what
    /// [`Post`] keeps, never received. Without one, a self-edge travels
    /// through the mailbox like every other edge.
    own: Option<usize>,
    /// Reused across cycles (no allocation in a persistent steady
    /// state).
    blocks: Vec<Option<Bytes>>,
    finish: Finish<'o>,
}

impl<'o> Exchange<'o> {
    pub(crate) fn new(
        what: &'static str,
        tag: Tag,
        post: Post,
        (sources, own): (Vec<Rank>, Option<usize>),
        finish: Finish<'o>,
    ) -> Self {
        let blocks = vec![None; sources.len()];
        Exchange {
            what,
            tag,
            post,
            sources,
            own,
            blocks,
            finish,
        }
    }
}

/// One slot per rank, this rank's own among them.
fn every_rank(comm: &Comm) -> (Vec<Rank>, Option<usize>) {
    ((0..comm.size()).collect(), Some(comm.rank()))
}

/// Every other rank in the pairwise rotation `rank + 1, rank + 2, …`:
/// no two ranks open on the same destination.
fn rotation(comm: &Comm) -> impl Iterator<Item = Rank> {
    let (p, rank) = (comm.size(), comm.rank());
    (1..p).map(move |step| (rank + step) % p)
}

/// The packed payload's `ranges[r]` to every other rank `r`, this
/// rank's own range kept.
fn sliced_by_rank(comm: &Comm, ranges: &[Range<usize>]) -> Post {
    Post::Sliced {
        parts: rotation(comm).map(|r| (r, ranges[r].clone())).collect(),
        keep: ranges[comm.rank()].clone(),
    }
}

impl CollEngine for Exchange<'_> {
    fn start(&mut self, comm: &Comm, payload: Bytes) -> Result<()> {
        let keep = match &self.post {
            Post::Nothing => payload,
            Post::Whole(dests) => {
                for &dest in dests {
                    send_internal(comm, dest, self.tag, payload.clone())?;
                }
                payload
            }
            Post::Sliced { parts, keep } => {
                send_slices(comm, self.tag, &payload, parts.iter().cloned())?;
                payload.slice(keep.clone())
            }
        };
        self.blocks.fill(None);
        if let Some(slot) = self.own {
            self.blocks[slot] = Some(keep);
        }
        Ok(())
    }

    fn advance(&mut self, comm: &Comm, block: bool) -> Result<Option<Completion>> {
        for (slot, &src) in self.blocks.iter_mut().zip(&self.sources) {
            if slot.is_none() {
                match recv_one(comm, src, self.tag, block)? {
                    Some(payload) => *slot = Some(payload),
                    None => return Ok(None),
                }
            }
        }
        let mut blocks = self.blocks.iter_mut().map(|b| b.take().expect("filled"));
        Ok(Some(match &mut self.finish {
            Finish::Done => Completion::Done,
            Finish::Message => {
                let block = blocks.next().expect("one source");
                message_completion(self.sources[0], self.tag, block)
            }
            Finish::Blocks => Completion::Blocks(blocks.collect()),
            Finish::Fold { fold, bcast } => {
                let folded = fold(blocks.collect())?;
                if let Some(bcast_tag) = *bcast {
                    bcast_forward(comm, comm.rank(), bcast_tag, &folded)?;
                }
                message_completion(comm.rank(), bcast.unwrap_or(self.tag), folded)
            }
        }))
    }

    fn sources(&self, _comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        // Only the first empty slot can fill next.
        if let Some(i) = self.blocks.iter().position(Option::is_none) {
            out.push((self.sources[i], self.tag));
        }
    }

    fn all_sources(&self, _comm: &Comm, out: &mut Vec<(Rank, Tag)>) {
        let received = (0..self.sources.len()).filter(|&i| Some(i) != self.own);
        out.extend(received.map(|i| (self.sources[i], self.tag)));
    }

    fn check_payload(&self, payload: &Bytes) -> Result<()> {
        let Post::Sliced { parts, keep } = &self.post else {
            return Ok(());
        };
        // The slices lie back to back: the furthest end is their sum.
        let total = parts.iter().map(|(_, r)| r.end).fold(keep.end, usize::max);
        if payload.len() != total {
            return Err(MpiError::InvalidLayout(format!(
                "{}: payload holds {} bytes but the frozen counts sum to {total} bytes",
                self.what,
                payload.len()
            )));
        }
        Ok(())
    }
}

/// Folds one block per rank strictly in rank order — correct for
/// non-commutative operations by construction. `what` names the
/// operation when a block has the wrong length.
pub(crate) fn fold_ordered<T: Plain, O: ReduceOp<T>>(
    what: &str,
    blocks: Vec<Bytes>,
    op: &O,
) -> Result<Vec<T>> {
    // Rank 0's block materializes the accumulator; every other block
    // folds in place from the delivered bytes.
    let mut iter = blocks.into_iter();
    let first = iter.next().expect("at least one block");
    let mut acc: Vec<T> = bytes_into_vec(first);
    for (r, block) in iter.enumerate() {
        if block.len() != std::mem::size_of_val(acc.as_slice()) {
            return Err(MpiError::InvalidLayout(format!(
                "{what}: rank {} contributed {} payload bytes, expected {}",
                r + 1,
                block.len(),
                std::mem::size_of_val(acc.as_slice())
            )));
        }
        fold_bytes_right(&mut acc, &block, op)?;
    }
    Ok(acc)
}

/// [`fold_ordered`] as a [`Finish::Fold`]: the result moves into the
/// completion payload without a serialization copy.
fn ordered_fold<'o, T: Plain, O: ReduceOp<T> + 'o>(
    what: &'static str,
    op: O,
) -> Box<dyn FnMut(Vec<Bytes>) -> Result<Bytes> + 'o> {
    Box::new(move |blocks| fold_ordered::<T, O>(what, blocks, &op).map(bytes_from_vec))
}

// ---------------------------------------------------------------------------
// Plans — one per operation, shared by its blocking, `i*` and `*_init`
// forms (see the module doc) — the engine builders they use, and the
// `i*` entry points. Every plan takes its internal tag(s) first and runs
// its rank-local checks after, so an erroring rank stays tag-aligned
// with its peers in every lifecycle.
// ---------------------------------------------------------------------------

/// `p` equal blocks of `block` bytes, back to back in rank order.
pub(crate) fn equal_ranges(p: usize, block: usize) -> Vec<Range<usize>> {
    (0..p).map(|r| r * block..(r + 1) * block).collect()
}

/// The rank-local check of the equal-block collectives: a buffer of
/// `len` elements must split into `p` equal blocks.
pub(crate) fn check_divisible(what: &str, len: usize, p: usize) -> Result<()> {
    if !len.is_multiple_of(p) {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: buffer length {len} not divisible by {p}"
        )));
    }
    Ok(())
}

impl Comm {
    /// The `i*` driver: `start` the engine, hand it out as a
    /// [`Request`].
    pub(crate) fn icoll(
        &self,
        mut engine: Box<dyn CollEngine>,
        payload: Bytes,
    ) -> Result<Request<'_>> {
        engine.start(self, payload)?;
        Ok(Request::collective(self, engine))
    }

    /// The broadcast plan (`bcast*`, `ibcast`, `bcast_init`): the
    /// binomial tree from `root`, over the root's payload.
    pub(crate) fn bcast_plan<'c, R>(
        &'c self,
        what: &str,
        payload: Option<Bytes>,
        root: Rank,
        run: impl FnOnce(&'c Comm, Box<dyn CollEngine>, Bytes) -> Result<R>,
    ) -> Result<R> {
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        if self.rank() == root && payload.is_none() {
            return Err(root_without_data(what));
        }
        let tree = RoundEngine::new(BinomialBcast::new(self, tag, root, None));
        run(self, Box::new(tree), payload.unwrap_or_default())
    }

    /// The scatter plan (`scatter*`, `iscatter(v)`): `layout` runs at
    /// the root only, once the tag is taken, and names the buffer to
    /// pack and each rank's byte range in it. Every rank completes with
    /// the one block it has from the root. A layout error is the root's
    /// alone: it still serves every peer an empty block, so none is left
    /// waiting, and returns the error once its driver has run.
    pub(crate) fn scatter_plan<'c, 's, T: Plain, R>(
        &'c self,
        what: &'static str,
        root: Rank,
        layout: impl FnOnce() -> Result<(&'s [T], Vec<Range<usize>>)>,
        run: impl FnOnce(&'c Comm, Box<dyn CollEngine>, Bytes) -> Result<R>,
    ) -> Result<R> {
        // `check_rank` is symmetric (every rank sees the same root), so
        // erroring before the tag is fine there.
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        let (post, own, packed, failed) = if self.rank() == root {
            let ((data, ranges), failed) = match layout() {
                Ok(layout) => (layout, None),
                Err(e) => ((&[][..], vec![0..0; self.size()]), Some(e)),
            };
            // Pack once, slice per destination (refcount clones).
            let post = sliced_by_rank(self, &ranges);
            (post, Some(0), bytes_from_slice(data), failed)
        } else {
            (Post::Nothing, None, Bytes::new(), None)
        };
        let engine = Exchange::new(what, tag, post, (vec![root], own), Finish::Message);
        let done = run(self, Box::new(engine), packed);
        failed.map_or(done, Err)
    }

    /// Flat allgather, the `allgather/ring` row in every lifecycle: own
    /// block to every peer, one block back from each (`allgather(v)`,
    /// `iallgather(v)`, `allgather_init`).
    pub(crate) fn allgather_flat(&self) -> Exchange<'static> {
        let tag = self.next_internal_tag();
        let post = Post::Whole(rotation(self).collect());
        Exchange::new("allgather", tag, post, every_rank(self), Finish::Blocks)
    }

    /// The allgather plan (`allgather*`, `iallgather`, `allgather_init`,
    /// the counted `allgatherv`, `allgatherv_init`): the `allgather/*`
    /// row selected at `site` for `sizes` — by the contribution for
    /// equal blocks, by the agreed total for counted ones, and the ring
    /// where no rank knows the sizes.
    pub(crate) fn allgather_plan<'c, R>(
        &'c self,
        site: Site,
        sizes: BlockSizes<'_>,
        own: Bytes,
        run: impl FnOnce(&'c Comm, Box<dyn CollEngine>, Bytes) -> Result<R>,
    ) -> Result<R> {
        let (call, counts) = match sizes {
            BlockSizes::Equal => (Call::sized(own.len()), None),
            BlockSizes::Counted(counts) => (Call::counted(counts.iter().sum()), Some(counts)),
            BlockSizes::Unknown => (Call::irregular(own.len()), None),
        };
        let layout = || counts.map(<[usize]>::to_vec);
        tuned(self, site, call, |algo| {
            let engine: Box<dyn CollEngine> = match algo {
                AllgatherAlgo::Ring => Box::new(self.allgather_flat()),
                AllgatherAlgo::RecursiveDoubling => {
                    Box::new(RoundEngine::new(RecursiveDoubling::new(self, layout())))
                }
                AllgatherAlgo::Bruck => {
                    Box::new(RoundEngine::new(BruckAllgather::new(self, layout())))
                }
            };
            run(self, engine, own)
        })
    }

    /// The equal-block alltoall plan (`alltoall*`, `ialltoall`): the
    /// `alltoall/*` row selected at `site` and its tags, then the
    /// rank-local check that `send` splits into `p` blocks.
    pub(crate) fn alltoall_plan<'c, T: Plain, R>(
        &'c self,
        site: Site,
        what: &'static str,
        send: &[T],
        run: impl FnOnce(&'c Comm, Box<dyn CollEngine>, Bytes) -> Result<R>,
    ) -> Result<R> {
        let p = self.size();
        let block = send.len() / p * std::mem::size_of::<T>();
        tuned(self, site, Call::sized(block), |algo| {
            let engine: Box<dyn CollEngine> = match algo {
                AlltoallAlgo::Bruck => Box::new(RoundEngine::new(BruckAlltoall::new(self))),
                AlltoallAlgo::Pairwise => {
                    let tag = self.next_internal_tag();
                    Box::new(self.alltoallv_flat(what, tag, &equal_ranges(p, block)))
                }
            };
            check_divisible(what, send.len(), p)?;
            run(self, engine, bytes_from_slice(send))
        })
    }

    /// The packed alltoallv plan (`alltoallv_blocks_bytes`,
    /// `ialltoallv`, `alltoallv_init`), with one layout rule: `packed`
    /// holds the per-peer blocks back to back in rank order,
    /// `byte_counts[r]` bytes each, and nothing else ([`packed_ranges`]).
    pub(crate) fn alltoallv_plan<'c, R>(
        &'c self,
        what: &'static str,
        packed: Bytes,
        byte_counts: &[usize],
        run: impl FnOnce(&'c Comm, Box<dyn CollEngine>, Bytes) -> Result<R>,
    ) -> Result<R> {
        let tag = self.next_internal_tag();
        let ranges = packed_ranges(what, byte_counts, 1, packed.len(), self.size())?;
        let engine = self.alltoallv_flat(what, tag, &ranges);
        run(self, Box::new(engine), packed)
    }

    /// Flat pairwise alltoallv, the `alltoall/pairwise` row in every
    /// lifecycle: the payload's byte range `ranges[r]` goes to rank `r`
    /// (`alltoall(v)`, `ialltoall(v)`, `alltoallv_init`). The caller
    /// takes `tag` before it checks its layout.
    pub(crate) fn alltoallv_flat(
        &self,
        what: &'static str,
        tag: Tag,
        ranges: &[Range<usize>],
    ) -> Exchange<'static> {
        let post = sliced_by_rank(self, ranges);
        Exchange::new(what, tag, post, every_rank(self), Finish::Blocks)
    }

    /// Flat gather to `root` on `tag`: one send everywhere else, one
    /// block per rank collected at the root, which completes as
    /// `at_root` says — with the blocks (`igather(v)`, the blocking flat
    /// `reduce`) or their rank-ordered fold, the `reduce/flat_gather` row
    /// of `ireduce` and of the ordered allreduce.
    pub(crate) fn gather_flat<'o>(
        &self,
        what: &'static str,
        tag: Tag,
        root: Rank,
        at_root: Finish<'o>,
    ) -> Exchange<'o> {
        if self.rank() == root {
            Exchange::new(what, tag, Post::Nothing, every_rank(self), at_root)
        } else {
            let post = Post::Whole(vec![root]);
            Exchange::new(what, tag, post, (Vec::new(), None), Finish::Done)
        }
    }

    /// The allreduce plan (`allreduce*`, `iallreduce`,
    /// `allreduce_init`): a commutative operation runs the
    /// `allreduce/*` row selected at `site`; a non-commutative one keeps
    /// strict rank order — the flat gather to rank 0, its ordered fold,
    /// and a binomial broadcast of the result — and selects nothing.
    /// `'o` bounds the operation: `'static` but for a blocking call,
    /// which drives the engine before it returns.
    pub(crate) fn allreduce_plan<'c, 'o, T: Plain, O: ReduceOp<T> + 'o, R>(
        &'c self,
        site: Site,
        what: &'static str,
        own: Bytes,
        op: O,
        run: impl FnOnce(&'c Comm, Box<dyn CollEngine + 'o>, Bytes) -> Result<R>,
    ) -> Result<R> {
        if op.is_commutative() {
            return tuned(self, site, Call::sized(own.len()), |algo| {
                let engine = RoundEngine::new(Allreduce::<T, O>::new(self, op, algo));
                run(self, Box::new(engine), own)
            });
        }
        let (gather_tag, bcast_tag) = (self.next_internal_tag(), self.next_internal_tag());
        let engine: Box<dyn CollEngine + 'o> = if self.rank() == 0 {
            let (fold, bcast) = (ordered_fold::<T, O>(what, op), Some(bcast_tag));
            Box::new(self.gather_flat(what, gather_tag, 0, Finish::Fold { fold, bcast }))
        } else {
            let tree = BinomialBcast::new(self, bcast_tag, 0, Some((0, gather_tag)));
            Box::new(RoundEngine::new(tree))
        };
        run(self, engine, own)
    }

    /// Starts a non-blocking broadcast (mirrors `MPI_Ibcast`). The root
    /// passes `Some(data)`; completion yields the payload on every rank
    /// ([`Completion::Message`]).
    pub fn ibcast<T: Plain>(&self, data: Option<&[T]>, root: Rank) -> Result<Request<'_>> {
        let payload = data.filter(|_| self.rank() == root).map(bytes_from_slice);
        self.ibcast_bytes(payload, root)
    }

    /// Byte-level [`Comm::ibcast`]: the root's payload enters the
    /// transport as-is (zero-copy for adopted vectors; forwarding down
    /// the tree clones refcounts).
    pub fn ibcast_bytes(&self, payload: Option<Bytes>, root: Rank) -> Result<Request<'_>> {
        self.count_op("ibcast");
        self.bcast_plan("ibcast", payload, root, Comm::icoll)
    }

    /// Starts a non-blocking gather of per-rank blocks to `root` (mirrors
    /// `MPI_Igatherv`; blocks may differ in size). The root completes
    /// with [`Completion::Blocks`] in rank order, other ranks with
    /// [`Completion::Done`].
    pub fn igatherv<T: Plain>(&self, send: &[T], root: Rank) -> Result<Request<'_>> {
        self.count_op("igatherv");
        self.igather_impl(send, root)
    }

    /// Equal-block flavour of [`Comm::igatherv`] (mirrors `MPI_Igather`);
    /// the substrate does not enforce equal block lengths.
    pub fn igather<T: Plain>(&self, send: &[T], root: Rank) -> Result<Request<'_>> {
        self.count_op("igather");
        self.igather_impl(send, root)
    }

    fn igather_impl<T: Plain>(&self, send: &[T], root: Rank) -> Result<Request<'_>> {
        self.check_rank(root)?;
        let tag = self.next_internal_tag();
        let engine = self.gather_flat("igather", tag, root, Finish::Blocks);
        self.icoll(Box::new(engine), bytes_from_slice(send))
    }

    /// Starts a non-blocking scatter of variable-size blocks from `root`
    /// (mirrors `MPI_Iscatterv`): the root passes the packed buffer and
    /// per-rank counts. Every rank completes with its own block
    /// ([`Completion::Message`]).
    pub fn iscatterv<T: Plain>(
        &self,
        send: Option<(&[T], &[usize])>,
        root: Rank,
    ) -> Result<Request<'_>> {
        self.count_op("iscatterv");
        let layout = || {
            let (data, counts) = send.ok_or_else(|| root_without_data("iscatterv"))?;
            let elem = std::mem::size_of::<T>();
            let ranges = packed_ranges("iscatterv", counts, elem, data.len(), self.size())?;
            Ok((data, ranges))
        };
        self.scatter_plan("iscatterv", root, layout, Comm::icoll)
    }

    /// Equal-block flavour of [`Comm::iscatterv`] (mirrors
    /// `MPI_Iscatter`): the root's buffer splits into `p` equal blocks.
    pub fn iscatter<T: Plain>(&self, send: Option<&[T]>, root: Rank) -> Result<Request<'_>> {
        self.count_op("iscatter");
        let layout = || equal_blocks("iscatter", self.size(), send);
        self.scatter_plan("iscatter", root, layout, Comm::icoll)
    }

    /// Starts a non-blocking allgather of variable-size blocks (mirrors
    /// `MPI_Iallgatherv`). No counts are needed: every rank's block is
    /// posted eagerly and the lengths travel with the messages.
    /// Completion yields [`Completion::Blocks`] in rank order.
    pub fn iallgatherv<T: Plain>(&self, send: &[T]) -> Result<Request<'_>> {
        self.iallgatherv_bytes(bytes_from_slice(send))
    }

    /// Byte-level [`Comm::iallgatherv`]: the payload is posted to every
    /// peer as a refcount clone — an adopted owned buffer enters the
    /// transport without any copy.
    pub fn iallgatherv_bytes(&self, own: Bytes) -> Result<Request<'_>> {
        self.count_op("iallgatherv");
        self.icoll(Box::new(self.allgather_flat()), own)
    }

    /// Equal-block flavour of [`Comm::iallgatherv`] (mirrors
    /// `MPI_Iallgather`). The equal-block contract is what admits the
    /// round-structured engines: the model-driven `Auto` (or a forced
    /// tuning) may run resumable recursive doubling (power-of-two `p`)
    /// or Bruck instead of the flat dissemination — unequal
    /// contributions surface as [`MpiError::InvalidLayout`] there.
    pub fn iallgather<T: Plain>(&self, send: &[T]) -> Result<Request<'_>> {
        self.iallgather_bytes(bytes_from_slice(send))
    }

    /// Byte-level [`Comm::iallgather`].
    pub fn iallgather_bytes(&self, own: Bytes) -> Result<Request<'_>> {
        self.count_op("iallgather");
        self.allgather_plan(Site::IMMEDIATE, BlockSizes::Equal, own, Comm::icoll)
    }

    /// Starts a non-blocking personalized all-to-all with per-destination
    /// counts (mirrors `MPI_Ialltoallv`). Only the *send* layout is
    /// needed; receive counts are discovered from the incoming block
    /// lengths. Completion yields [`Completion::Blocks`]: one block per
    /// source rank.
    pub fn ialltoallv<T: Plain>(&self, send: &[T], counts: &[usize]) -> Result<Request<'_>> {
        let elem = std::mem::size_of::<T>();
        let byte_counts: Vec<usize> = counts.iter().map(|&c| c * elem).collect();
        self.ialltoallv_bytes(bytes_from_slice(send), &byte_counts)
    }

    /// Byte-level [`Comm::ialltoallv`]: `packed` holds the per-peer
    /// blocks contiguously in rank order, `byte_counts[r]` bytes each;
    /// blocks are carved out by refcount slicing, so an adopted owned
    /// buffer is scattered to all peers without a single copy.
    pub fn ialltoallv_bytes(&self, packed: Bytes, byte_counts: &[usize]) -> Result<Request<'_>> {
        self.count_op("ialltoallv");
        self.alltoallv_plan("ialltoallv", packed, byte_counts, Comm::icoll)
    }

    /// Equal-block flavour of [`Comm::ialltoallv`] (mirrors
    /// `MPI_Ialltoall`). Forcing
    /// [`AlltoallAlgo::Bruck`](super::algos::AlltoallAlgo) in the tuning
    /// switches to the resumable Bruck engine (`ceil(log2 p)` packed
    /// rounds instead of `p-1` eager sends).
    pub fn ialltoall<T: Plain>(&self, send: &[T]) -> Result<Request<'_>> {
        self.count_op("ialltoall");
        self.alltoall_plan(Site::IMMEDIATE, "ialltoall", send, Comm::icoll)
    }

    /// Starts a non-blocking reduction to `root` (mirrors `MPI_Ireduce`).
    /// The default is the flat gather + strictly rank-ordered in-place
    /// fold, so non-commutative operations are safe; forcing
    /// [`ReduceAlgo::BinomialTree`](super::algos::ReduceAlgo) in the
    /// tuning runs the resumable binomial-tree engine instead
    /// (commutative operations only — the flat fold remains the fallback
    /// otherwise). The root completes with the folded vector; other
    /// ranks with [`Completion::Done`].
    pub fn ireduce<T: Plain, O: ReduceOp<T> + 'static>(
        &self,
        send: &[T],
        op: O,
        root: Rank,
    ) -> Result<Request<'_>> {
        self.count_op("ireduce");
        self.check_rank(root)?;
        let call = Call::reduction(std::mem::size_of_val(send), op.is_commutative());
        tuned(self, Site::IMMEDIATE, call, |algo| {
            let tag = self.next_internal_tag();
            match algo {
                ReduceAlgo::BinomialTree => {
                    let tree = TreeReduce::new(self, tag, send.into(), op, root, true);
                    self.icoll(Box::new(RoundEngine::new(tree)), Bytes::new())
                }
                ReduceAlgo::FlatGather => {
                    let fold = ordered_fold::<T, O>("ireduce", op);
                    let finish = Finish::Fold { fold, bcast: None };
                    let engine = self.gather_flat("ireduce", tag, root, finish);
                    self.icoll(Box::new(engine), bytes_from_slice(send))
                }
            }
        })
    }

    /// Starts a non-blocking all-reduce (mirrors `MPI_Iallreduce`): the
    /// allreduce plan the blocking call drives — a commutative operation
    /// runs the `allreduce` row its size selects, a non-commutative one
    /// the ordered flat gather + broadcast. Every rank completes with the
    /// reduced vector, one [`Completion::Message`] that
    /// [`Completion::into_vec`] takes back without a copy.
    pub fn iallreduce<T: Plain, O: ReduceOp<T> + 'static>(
        &self,
        send: &[T],
        op: O,
    ) -> Result<Request<'_>> {
        self.iallreduce_bytes(bytes_from_slice(send), op)
    }

    /// Byte-level [`Comm::iallreduce`]: the contribution enters the
    /// transport as-is (zero-copy for adopted owned buffers) and is
    /// copied at most once, as recursive doubling's first message. `own`
    /// must encode a `[T]` slice.
    pub fn iallreduce_bytes<T: Plain, O: ReduceOp<T> + 'static>(
        &self,
        own: Bytes,
        op: O,
    ) -> Result<Request<'_>> {
        self.count_op("iallreduce");
        self.allreduce_plan(Site::IMMEDIATE, "iallreduce", own, op, Comm::icoll)
    }
}

#[cfg(test)]
mod tests {
    use crate::op::Sum;
    use crate::request::TestOutcome;
    use crate::{non_commutative, Universe};

    /// Polls a request to completion via `test` — used only by tests
    /// that deliberately exercise the polling path; everything else
    /// completes through the event-driven `wait()`.
    fn poll_to_completion(mut req: crate::Request<'_>) -> crate::request::Completion {
        loop {
            match req.test().unwrap() {
                TestOutcome::Ready(c) => return c,
                TestOutcome::Pending(r) => {
                    req = r;
                    std::thread::yield_now();
                }
            }
        }
    }

    #[test]
    fn ibcast_delivers_everywhere() {
        for p in [1, 2, 3, 5, 8] {
            Universe::run(p, |comm| {
                let data = vec![42u64, 43, 44];
                let req = comm
                    .ibcast(
                        if comm.rank() == 0 {
                            Some(&data[..])
                        } else {
                            None
                        },
                        0,
                    )
                    .unwrap();
                let (got, st) = req.wait().unwrap().into_vec::<u64>().unwrap();
                assert_eq!(got, data);
                assert_eq!(st.source, 0);
            });
        }
    }

    #[test]
    fn ibcast_nonzero_root_via_polling() {
        Universe::run(4, |comm| {
            let data = vec![7u32; 5];
            let req = comm
                .ibcast(
                    if comm.rank() == 2 {
                        Some(&data[..])
                    } else {
                        None
                    },
                    2,
                )
                .unwrap();
            let (got, _) = poll_to_completion(req).into_vec::<u32>().unwrap();
            assert_eq!(got, data);
        });
    }

    #[test]
    fn igatherv_collects_variable_blocks() {
        Universe::run(4, |comm| {
            let mine = vec![comm.rank() as u16; comm.rank() + 1];
            let req = comm.igatherv(&mine, 1).unwrap();
            let c = req.wait().unwrap();
            if comm.rank() == 1 {
                let blocks = c.into_blocks().unwrap();
                assert_eq!(blocks.len(), 4);
                for (r, b) in blocks.iter().enumerate() {
                    let v: Vec<u16> = crate::plain::bytes_to_vec(b);
                    assert_eq!(v, vec![r as u16; r + 1]);
                }
            } else {
                assert!(c.into_blocks().is_none());
            }
        });
    }

    #[test]
    fn iscatterv_distributes_blocks() {
        Universe::run(3, |comm| {
            let send: Vec<u32> = vec![10, 20, 20, 30, 30, 30];
            let counts = [1usize, 2, 3];
            let req = comm
                .iscatterv(
                    if comm.rank() == 0 {
                        Some((&send[..], &counts[..]))
                    } else {
                        None
                    },
                    0,
                )
                .unwrap();
            let (got, _) = req.wait().unwrap().into_vec::<u32>().unwrap();
            let expected = vec![(comm.rank() as u32 + 1) * 10; comm.rank() + 1];
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn iscatter_equal_blocks() {
        Universe::run(4, |comm| {
            let send: Vec<u8> = (0..8).collect();
            let req = comm
                .iscatter(
                    if comm.rank() == 0 {
                        Some(&send[..])
                    } else {
                        None
                    },
                    0,
                )
                .unwrap();
            let (got, _) = req.wait().unwrap().into_vec::<u8>().unwrap();
            assert_eq!(got, vec![comm.rank() as u8 * 2, comm.rank() as u8 * 2 + 1]);
        });
    }

    #[test]
    fn iallgatherv_concatenates_in_rank_order() {
        for p in [1, 2, 3, 5] {
            Universe::run(p, |comm| {
                let mine = vec![comm.rank() as u64; comm.rank() + 1];
                let req = comm.iallgatherv(&mine).unwrap();
                let blocks = req.wait().unwrap().into_blocks().unwrap();
                let mut all = Vec::new();
                for b in &blocks {
                    all.extend(crate::plain::bytes_to_vec::<u64>(b));
                }
                let expected: Vec<u64> = (0..p as u64)
                    .flat_map(|r| std::iter::repeat_n(r, r as usize + 1))
                    .collect();
                assert_eq!(all, expected);
            });
        }
    }

    #[test]
    fn ialltoallv_routes_blocks() {
        Universe::run(3, |comm| {
            // Rank r sends one element `r * 10 + dest` to each dest.
            let send: Vec<u32> = (0..3).map(|d| comm.rank() as u32 * 10 + d).collect();
            let counts = vec![1usize; 3];
            let req = comm.ialltoallv(&send, &counts).unwrap();
            let blocks = req.wait().unwrap().into_blocks().unwrap();
            for (src, b) in blocks.iter().enumerate() {
                let v: Vec<u32> = crate::plain::bytes_to_vec(b);
                assert_eq!(v, vec![src as u32 * 10 + comm.rank() as u32]);
            }
        });
    }

    #[test]
    fn ireduce_folds_at_root() {
        Universe::run(4, |comm| {
            let mine = [comm.rank() as u64 + 1, 1];
            let req = comm.ireduce(&mine, Sum, 2).unwrap();
            let c = req.wait().unwrap();
            if comm.rank() == 2 {
                let (got, _) = c.into_vec::<u64>().unwrap();
                assert_eq!(got, vec![10, 4]);
            }
        });
    }

    #[test]
    fn ireduce_non_commutative_rank_order() {
        Universe::run(4, |comm| {
            let op = non_commutative(|a: &u64, b: &u64| a * 10 + b);
            let req = comm.ireduce(&[comm.rank() as u64], op, 0).unwrap();
            let c = req.wait().unwrap();
            if comm.rank() == 0 {
                let (got, _) = c.into_vec::<u64>().unwrap();
                assert_eq!(got, vec![123]);
            }
        });
    }

    #[test]
    fn iallreduce_sums_everywhere() {
        for p in [1, 2, 3, 5, 8] {
            Universe::run(p, move |comm| {
                let req = comm.iallreduce(&[comm.rank() as u64 + 1], Sum).unwrap();
                let (got, _) = req.wait().unwrap().into_vec::<u64>().unwrap();
                assert_eq!(got, vec![(p * (p + 1) / 2) as u64], "p = {p}");
            });
        }
    }

    /// A contribution of the wrong length is the ordered fold's error,
    /// named after the call that failed (every one used to say
    /// "ireduce"; `algo_equivalence` covers `reduce` and `ireduce`).
    #[test]
    fn fold_errors_name_the_operation() {
        use crate::MpiError;
        Universe::run(3, |comm| {
            let mine = vec![1u64; 1 + comm.rank() / 2];
            let op = || non_commutative(|a: &u64, b: &u64| a + b);
            let req = comm.iallreduce(&mine, op()).unwrap();
            let mut plan = comm.allreduce_init(&mine, op()).unwrap();
            plan.start().unwrap();
            // Ranks 1 and 2 only contribute: the result can never reach
            // them, and dropping the pending operation is their way out.
            if comm.rank() == 0 {
                for (done, call) in [(req.wait(), "iallreduce"), (plan.wait(), "allreduce_init")] {
                    match done {
                        Err(MpiError::InvalidLayout(text)) => {
                            assert!(text.starts_with(&format!("{call}: rank 2")), "{text}")
                        }
                        other => panic!("{call}: {:?}", other.map(drop)),
                    }
                }
            }
        });
    }

    #[test]
    fn iallreduce_overlaps_with_local_work() {
        Universe::run(4, |comm| {
            let req = comm.iallreduce(&[1u32], Sum).unwrap();
            // Local work while the reduction is in flight.
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            let (got, _) = req.wait().unwrap().into_vec::<u32>().unwrap();
            assert_eq!(got, vec![4]);
        });
    }

    #[test]
    fn two_icollectives_in_flight_complete_in_any_order() {
        Universe::run(3, |comm| {
            // Same creation order on every rank (the MPI rule); the
            // *completions* may be observed in either order.
            let r1 = comm.iallgatherv(&[comm.rank() as u32]).unwrap();
            let r2 = comm.iallreduce(&[1u64], Sum).unwrap();
            let (sum, _) = r2.wait().unwrap().into_vec::<u64>().unwrap();
            let blocks = r1.wait().unwrap().into_blocks().unwrap();
            assert_eq!(sum, vec![3]);
            assert_eq!(blocks.len(), 3);
        });
    }

    #[test]
    fn icollectives_interoperate_with_request_set() {
        Universe::run(3, |comm| {
            let mut set = crate::RequestSet::new();
            set.push(comm.iallreduce(&[comm.rank() as u64], Sum).unwrap());
            set.push(comm.ibarrier().unwrap());
            let done = set.wait_all().unwrap();
            assert_eq!(done.len(), 2);
            let (sum, _) = done.into_iter().next().unwrap().into_vec::<u64>().unwrap();
            assert_eq!(sum, vec![3]);
        });
    }

    #[test]
    fn ialltoallv_layout_errors() {
        Universe::run(2, |comm| {
            // counts sum != buffer length
            assert!(comm.ialltoallv(&[1u8, 2, 3], &[1, 1]).is_err());
            // counts length != p
            assert!(comm.ialltoallv(&[1u8], &[1]).is_err());
            // keep the peer in sync for the valid follow-up call
            let req = comm
                .ialltoallv(&[comm.rank() as u8, comm.rank() as u8], &[1, 1])
                .unwrap();
            req.wait().unwrap();
        });
    }

    #[test]
    fn rank_local_error_keeps_tag_counters_aligned() {
        use crate::MpiError;
        Universe::run(3, |comm| {
            // The *next* collective must still line up on every rank —
            // this hangs (mismatched internal tags) if an erroring rank
            // skipped a tag allocation its peers made.
            let still_aligned = || {
                let req = comm.iallreduce(&[1u64], Sum).unwrap();
                let (sum, _) = req.wait().unwrap().into_vec::<u64>().unwrap();
                assert_eq!(sum, vec![3]);
            };
            // Root-local failure: only rank 0 can see that 7 elements do
            // not split into 3 equal blocks; ranks 1 and 2 post their
            // receive and allocate a tag for the operation.
            if comm.rank() == 0 {
                assert!(comm.iscatter(Some(&[1u8; 7][..]), 0).is_err());
            } else {
                // The root still serves every peer: an empty block.
                let done = comm.iscatter::<u8>(None, 0).unwrap().wait().unwrap();
                assert_eq!(done.into_vec::<u8>().unwrap().0, Vec::<u8>::new());
            }
            still_aligned();
            // A root that passes no data is a typed error, not a panic,
            // in every lifecycle — reported after the operation's tag is
            // taken.
            let no_data = |r: Result<(), MpiError>| {
                assert!(matches!(r, Err(MpiError::InvalidLayout(_))), "{r:?}");
            };
            if comm.rank() == 0 {
                no_data(comm.ibcast::<u8>(None, 0).map(drop));
            } else {
                let _pending = comm.ibcast::<u8>(None, 0).unwrap();
            }
            still_aligned();
            if comm.rank() == 0 {
                no_data(comm.bcast_init::<u8>(None, 0).map(drop));
            } else {
                let _plan = comm.bcast_init::<u8>(None, 0).unwrap();
            }
            still_aligned();
            // Blocking forms: the peers burn the operation's one tag
            // with the non-blocking twin (a blocking broadcast would
            // wait for the root forever).
            if comm.rank() == 0 {
                no_data(comm.bcast_vec::<u8>(None, 0).map(drop));
                no_data(comm.bcast_bytes(None, 0).map(drop));
                no_data(comm.scatter_vec::<u8>(None, 0).map(drop));
                no_data(comm.iscatterv::<u8>(None, 0).map(drop));
            } else {
                let _pending = comm.ibcast::<u8>(None, 0).unwrap();
                let _pending = comm.ibcast::<u8>(None, 0).unwrap();
                let _pending = comm.iscatter::<u8>(None, 0).unwrap();
                let _pending = comm.iscatterv::<u8>(None, 0).unwrap();
            }
            still_aligned();
        });
    }

    #[test]
    fn forced_bruck_ialltoall_matches_pairwise() {
        use crate::collectives::{AlltoallAlgo, CollTuning};
        for p in [2, 3, 4, 5, 8] {
            Universe::run(p, move |comm| {
                let send: Vec<u32> = (0..p as u32).map(|d| comm.rank() as u32 * 10 + d).collect();
                let pairwise = comm.ialltoall(&send).unwrap();
                let expected = pairwise.wait().unwrap().into_blocks().unwrap();
                comm.set_tuning(CollTuning::default().alltoall(AlltoallAlgo::Bruck));
                let bruck = comm.ialltoall(&send).unwrap();
                let got = bruck.wait().unwrap().into_blocks().unwrap();
                for (a, b) in expected.iter().zip(&got) {
                    assert_eq!(&a[..], &b[..], "p = {p}");
                }
            });
        }
    }

    #[test]
    fn forced_tree_ireduce_and_iallreduce_match_flat() {
        use crate::collectives::{CollTuning, ReduceAlgo};
        for p in [1, 2, 3, 5, 8] {
            Universe::run(p, move |comm| {
                let mine = [comm.rank() as u64 + 1, 7];
                let flat = comm.ireduce(&mine, Sum, 0).unwrap().wait().unwrap();
                comm.set_tuning(CollTuning::default().reduce(ReduceAlgo::BinomialTree));
                let tree = comm.ireduce(&mine, Sum, 0).unwrap().wait().unwrap();
                if comm.rank() == 0 {
                    assert_eq!(
                        flat.into_vec::<u64>().unwrap().0,
                        tree.into_vec::<u64>().unwrap().0,
                        "p = {p}"
                    );
                }
                let req = comm.iallreduce(&mine, Sum).unwrap();
                let (got, _) = req.wait().unwrap().into_vec::<u64>().unwrap();
                let total = (p * (p + 1) / 2) as u64;
                assert_eq!(got, vec![total, 7 * p as u64], "p = {p}");
            });
        }
    }

    #[test]
    fn forced_tree_iallreduce_overlaps_and_interoperates() {
        use crate::collectives::{CollTuning, ReduceAlgo};
        Universe::run(4, |comm| {
            comm.set_tuning(CollTuning::default().reduce(ReduceAlgo::BinomialTree));
            let req = comm.iallreduce(&[1u32], Sum).unwrap();
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            let (got, _) = req.wait().unwrap().into_vec::<u32>().unwrap();
            assert_eq!(got, vec![4]);
            // Non-commutative ops silently keep the rank-ordered flat
            // fold even under the forced tree.
            let op = non_commutative(|a: &u64, b: &u64| a * 10 + b);
            let req = comm.ireduce(&[comm.rank() as u64], op, 0).unwrap();
            let c = req.wait().unwrap();
            if comm.rank() == 0 {
                let (got, _) = c.into_vec::<u64>().unwrap();
                assert_eq!(got, vec![123]);
            }
        });
    }

    #[test]
    fn forced_rd_and_bruck_iallgather_match_flat() {
        use crate::collectives::{AllgatherAlgo, CollTuning};
        for p in [2, 3, 4, 5, 8] {
            Universe::run(p, move |comm| {
                let send: Vec<u32> = vec![comm.rank() as u32 * 7 + 1, comm.rank() as u32];
                let expected = comm
                    .iallgather(&send)
                    .unwrap()
                    .wait()
                    .unwrap()
                    .into_blocks()
                    .unwrap();
                for algo in [AllgatherAlgo::RecursiveDoubling, AllgatherAlgo::Bruck] {
                    // Forced RD resolves to the flat path off powers of
                    // two, mirroring the blocking selection.
                    comm.set_tuning(CollTuning::default().allgather(algo));
                    let got = comm
                        .iallgather(&send)
                        .unwrap()
                        .wait()
                        .unwrap()
                        .into_blocks()
                        .unwrap();
                    for (a, b) in expected.iter().zip(&got) {
                        assert_eq!(&a[..], &b[..], "p = {p}, {algo:?}");
                    }
                }
            });
        }
    }

    #[test]
    fn forced_iallgather_engines_overlap_with_local_work() {
        use crate::collectives::{AllgatherAlgo, CollTuning};
        Universe::run(4, |comm| {
            comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Bruck));
            let req = comm.iallgather(&[comm.rank() as u64]).unwrap();
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            let blocks = req.wait().unwrap().into_blocks().unwrap();
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(crate::plain::bytes_to_vec::<u64>(b), vec![r as u64]);
            }
        });
    }

    #[test]
    fn iallgatherv_empty_contributions() {
        Universe::run(3, |comm| {
            let mine: Vec<u64> = if comm.rank() == 1 { vec![5] } else { vec![] };
            let req = comm.iallgatherv(&mine).unwrap();
            let blocks = req.wait().unwrap().into_blocks().unwrap();
            let total: usize = blocks.iter().map(|b| b.len()).sum();
            assert_eq!(total, std::mem::size_of::<u64>());
        });
    }
}
