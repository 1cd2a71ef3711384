//! Communicators.
//!
//! A [`Comm`] is a rank's handle to one communication context: it knows
//! the rank's position in the group, translates communicator ranks to
//! world ranks, owns the rank's virtual clock (shared between all handles
//! of the same rank), and provides the internal envelope-level transport
//! primitives that the point-to-point and collective operations build on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::clock::Clock;
use crate::collectives::algos::model::{ModelSnapshot, ModelState, TuningStats};
use crate::collectives::CollTuning;
use crate::counter::CallCounts;
use crate::error::{MpiError, Result};
use crate::fault;
use crate::message::{AckSlot, Envelope, Parts, Src, Status, TagSel};
use crate::trace;
use crate::universe::WorldState;
use crate::{Rank, Tag};

/// How many internal tags there are: `-1` down to `-(i32::MAX - 1)`,
/// handed out in turn and then again from `-1`.
const INTERNAL_TAGS: u64 = i32::MAX as u64 - 1;

/// A rank's handle to a communicator.
pub struct Comm {
    pub(crate) world: Arc<WorldState>,
    /// Maps communicator rank -> world rank.
    pub(crate) group: Arc<Vec<Rank>>,
    /// This rank's position in `group`.
    pub(crate) rank: Rank,
    /// Context id separating message streams of different communicators.
    pub(crate) context: u64,
    /// Virtual clock, shared by every `Comm` handle of this rank.
    pub(crate) clock: Rc<RefCell<Clock>>,
    /// Sequence number for internal (collective) tags.
    coll_seq: Cell<u64>,
    /// Sequence number for ULFM agreement instances. Kept separate from
    /// `coll_seq` on purpose: a collective allocates internal tags
    /// incrementally, so a mid-collective failure can leave survivors
    /// with *diverged* tag counters (a rank erroring in an early phase
    /// allocated fewer than one erroring later). Agreements are keyed
    /// per agree/shrink *call*, which the ULFM contract does keep
    /// collective — aligned across survivors whatever the crash point.
    agree_seq: Cell<i32>,
    /// Collective algorithm tuning policy (see [`crate::collectives::algos`]).
    tuning: Cell<CollTuning>,
    /// Online cost-model state (snapshot + pending observations + call
    /// sequence; see [`crate::collectives::algos::model`]). Inert
    /// unless the tuning's [`ModelConfig::drive`] is on.
    ///
    /// [`ModelConfig::drive`]: crate::collectives::algos::model::ModelConfig::drive
    model: RefCell<ModelState>,
}

impl Comm {
    /// Creates the world communicator handle for `rank`. Called by the
    /// universe when spawning ranks.
    pub(crate) fn world(world: Arc<WorldState>, rank: Rank) -> Self {
        let size = world.size();
        let cost = world.cost;
        Comm {
            world,
            group: Arc::new((0..size).collect()),
            rank,
            context: 0,
            clock: Rc::new(RefCell::new(Clock::new(cost))),
            coll_seq: Cell::new(0),
            agree_seq: Cell::new(0),
            tuning: Cell::new(CollTuning::default()),
            model: RefCell::new(ModelState::default()),
        }
    }

    pub(crate) fn derived(&self, group: Arc<Vec<Rank>>, rank: Rank, context: u64) -> Self {
        Comm {
            world: Arc::clone(&self.world),
            group,
            rank,
            context,
            clock: Rc::clone(&self.clock),
            coll_seq: Cell::new(0),
            agree_seq: Cell::new(0),
            // Derived communicators inherit the parent's tuning, like
            // MPI info hints — and the parent's published model
            // snapshot (identical across ranks at a matched dup/split,
            // so the child starts symmetric and warm).
            tuning: Cell::new(self.tuning.get()),
            model: RefCell::new(ModelState::inherit(&self.model.borrow())),
        }
    }

    /// This rank's rank within the communicator.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// True on rank 0 (a common convenience, cf. `comm.is_root()`).
    #[inline]
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// This rank's world rank.
    #[inline]
    pub fn world_rank(&self) -> Rank {
        self.group[self.rank]
    }

    /// Translates a communicator rank to a world rank.
    pub fn translate_to_world(&self, comm_rank: Rank) -> Result<Rank> {
        self.group
            .get(comm_rank)
            .copied()
            .ok_or(MpiError::InvalidRank {
                rank: comm_rank,
                comm_size: self.group.len(),
            })
    }

    /// The communicator's context id (unique per universe).
    #[inline]
    pub fn context_id(&self) -> u64 {
        self.context
    }

    // ----- clock ---------------------------------------------------------

    /// Current virtual time of this rank, in nanoseconds.
    pub fn clock_now_ns(&self) -> u64 {
        self.clock.borrow().now_ns()
    }

    /// Manually advances this rank's virtual clock.
    pub fn clock_add_ns(&self, ns: u64) {
        self.clock.borrow_mut().add_ns(ns);
    }

    /// Resets this rank's virtual clock to zero.
    pub fn clock_reset(&self) {
        self.clock.borrow_mut().reset();
    }

    // ----- collective tuning ---------------------------------------------

    /// The communicator's collective tuning policy.
    #[inline]
    pub fn tuning(&self) -> CollTuning {
        self.tuning.get()
    }

    /// Replaces the communicator's collective tuning policy. All ranks
    /// must use the same tuning for matching calls — the policy is part
    /// of the wire protocol, like an MPI info hint.
    pub fn set_tuning(&self, tuning: CollTuning) {
        self.tuning.set(tuning);
    }

    /// Temporarily overrides the tuning for the duration of the guard
    /// (used by the binding layer's `tuning(...)` named parameter).
    /// `None` is a no-op guard.
    pub fn tuning_guard(&self, tuning: Option<CollTuning>) -> TuningGuard<'_> {
        let prev = tuning.map(|t| self.tuning.replace(t));
        TuningGuard { comm: self, prev }
    }

    /// The communicator's current published cost-model snapshot
    /// (per-algorithm `(alpha, beta)` estimates; see
    /// [`crate::collectives::algos::model`]). Identical on every rank
    /// between two sync points.
    pub fn model_snapshot(&self) -> ModelSnapshot {
        self.model.borrow().snapshot()
    }

    /// Resets the communicator's cost model to cold (snapshot, pending
    /// observations and the sync sequence). Like tuning changes, this
    /// must be performed symmetrically — at the same point of the call
    /// sequence on every rank — or ranks will disagree on selections.
    pub fn reset_model(&self) {
        self.model.borrow_mut().reset();
    }

    /// Snapshot of this rank's tuning diagnostics (selection counts,
    /// model observations, published estimates). Whole-run per-rank
    /// values are available without in-closure snapshotting via
    /// [`crate::Universe::run_report`].
    pub fn tuning_stats(&self) -> TuningStats {
        crate::collectives::algos::model::stats_snapshot()
    }

    #[inline]
    pub(crate) fn model_state_mut(&self) -> std::cell::RefMut<'_, ModelState> {
        self.model.borrow_mut()
    }

    // ----- call counting (PMPI substitute) -------------------------------

    /// Snapshot of this rank's per-operation call counts.
    pub fn call_counts(&self) -> CallCounts {
        self.world.counters[self.world_rank()].lock().clone()
    }

    /// Snapshot of this rank's payload copy counters (convenience
    /// mirror of [`crate::metrics::snapshot`]; per-rank totals of a
    /// whole run are available without any in-closure snapshotting via
    /// [`crate::Universe::run_report`]).
    pub fn copy_stats(&self) -> crate::metrics::CopyStats {
        crate::metrics::snapshot()
    }

    /// Snapshot of this rank's matching-engine diagnostics: current and
    /// high-water unexpected-queue depth (how far senders ran ahead of
    /// this rank's receives) and the number of targeted deliveries.
    /// Whole-run per-rank values are available without in-closure
    /// snapshotting via [`crate::Universe::run_report`].
    pub fn mailbox_stats(&self) -> crate::mailbox::MailboxStats {
        self.world.mailboxes[self.world_rank()].stats()
    }

    #[inline]
    pub(crate) fn count_op(&self, name: &'static str) {
        self.world.counters[self.world_rank()].lock().inc(name);
    }

    /// This rank's matching engine (the completion subsystem parks on
    /// it).
    #[inline]
    pub(crate) fn mailbox(&self) -> &crate::mailbox::Mailbox {
        &self.world.mailboxes[self.world_rank()]
    }

    // ----- internal transport --------------------------------------------

    /// Validates a user-facing destination/source rank.
    pub(crate) fn check_rank(&self, rank: Rank) -> Result<Rank> {
        self.translate_to_world(rank)
    }

    /// Validates a user-supplied tag (must be non-negative).
    pub(crate) fn check_tag(&self, tag: Tag) -> Result<Tag> {
        if tag < 0 {
            return Err(MpiError::InvalidTag { tag });
        }
        Ok(tag)
    }

    /// Allocates an internal tag for one collective call. Internal tags
    /// are negative and therefore invisible to wildcard receives.
    pub(crate) fn next_internal_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        -1 - ((seq % INTERNAL_TAGS) as i32)
    }

    /// The internal tag [`next_internal_tag`](Self::next_internal_tag)
    /// returns `k` calls after it returned `tag`: a collective that
    /// allocates consecutive tags can keep the first alone.
    pub(crate) fn internal_tag_after(tag: Tag, k: usize) -> Tag {
        let seq = (-1 - i64::from(tag)) as u64;
        -1 - ((seq + k as u64 % INTERNAL_TAGS) % INTERNAL_TAGS) as i32
    }

    /// Next agreement-instance number on this communicator (see the
    /// `agree_seq` field for why this is not `next_internal_tag`).
    pub(crate) fn next_agree_seq(&self) -> i32 {
        let seq = self.agree_seq.get();
        self.agree_seq.set(seq.wrapping_add(1));
        seq
    }

    /// Core send: stamps the virtual clock, wraps the payload in an
    /// envelope and pushes it to the destination mailbox. Sending to a
    /// failed rank succeeds (as a buffered MPI send may). A payload in
    /// [`Parts`] is one message — one startup, its total bytes — whose
    /// parts travel as the refcount views they are.
    pub(crate) fn deliver_bytes(
        &self,
        dest: Rank,
        tag: Tag,
        payload: impl Into<Parts>,
        ack: Option<Arc<AckSlot>>,
    ) -> Result<()> {
        let dest_world = self.translate_to_world(dest)?;
        if self.world.is_revoked(self.context) {
            return Err(MpiError::Revoked);
        }
        let payload: Parts = payload.into();
        let bytes = payload.len();
        let _sp = trace::span(trace::cat::SEND, "send", dest as u64, bytes as u64);
        let arrival_ns = self.clock.borrow_mut().on_send(bytes);
        let (payload, more) = payload.split();
        let env = Envelope {
            src: self.rank,
            src_world: self.world_rank(),
            context: self.context,
            tag,
            payload,
            more,
            arrival_ns,
            ack,
        };
        // The message-fault interception boundary: a planned rule may
        // drop, delay, or duplicate the envelope here.
        fault::deliver(&self.world, dest_world, env, |e| {
            self.world.mailboxes[dest_world].push(e)
        });
        Ok(())
    }

    /// Interruption predicate for blocking waits on this communicator:
    /// revocation always aborts; waiting on a specific failed source (or on
    /// a wildcard when every peer has failed) reports `ProcessFailed`.
    pub(crate) fn wait_interrupted(&self, src: Src) -> Option<MpiError> {
        if self.world.is_revoked(self.context) {
            return Some(MpiError::Revoked);
        }
        match src {
            Src::Rank(r) => {
                let w = self.group.get(r).copied()?;
                self.world
                    .is_failed(w)
                    .then_some(MpiError::ProcessFailed { world_rank: w })
            }
            Src::Any => {
                let mut failed_peer = None;
                for (cr, &w) in self.group.iter().enumerate() {
                    if cr == self.rank {
                        continue;
                    }
                    if !self.world.is_failed(w) {
                        return None;
                    }
                    failed_peer = Some(w);
                }
                failed_peer.map(|w| MpiError::ProcessFailed { world_rank: w })
            }
        }
    }

    /// Core blocking receive at envelope level.
    pub(crate) fn recv_envelope(&self, src: Src, tag: TagSel) -> Result<Envelope> {
        let _sp = trace::span(trace::cat::RECV, "recv", src_code(src), 0);
        let mb = &self.world.mailboxes[self.world_rank()];
        let env = mb.wait_match(self.context, src, tag, || self.wait_interrupted(src))?;
        self.complete_envelope(&env);
        Ok(env)
    }

    /// [`Comm::recv_envelope`] over two streams of `src`: the envelope
    /// on `tags[0]`, or `None` once one on `tags[1]` is queued (see
    /// [`Mailbox::wait_match_or_queued`](crate::mailbox::Mailbox::wait_match_or_queued)).
    pub(crate) fn recv_envelope_or_queued(
        &self,
        src: Rank,
        tags: [Tag; 2],
    ) -> Result<Option<Envelope>> {
        let from = Src::Rank(src);
        let _sp = trace::span(trace::cat::RECV, "recv", src_code(from), 0);
        let mb = &self.world.mailboxes[self.world_rank()];
        let tags = tags.map(TagSel::Is);
        let env =
            mb.wait_match_or_queued(self.context, from, tags, || self.wait_interrupted(from))?;
        if let Some(env) = &env {
            self.complete_envelope(env);
        }
        Ok(env)
    }

    /// Core non-blocking receive at envelope level.
    pub(crate) fn try_recv_envelope(&self, src: Src, tag: TagSel) -> Option<Envelope> {
        let mb = &self.world.mailboxes[self.world_rank()];
        let env = mb.try_match(self.context, src, tag)?;
        self.complete_envelope(&env);
        Some(env)
    }

    fn complete_envelope(&self, env: &Envelope) {
        self.clock.borrow_mut().on_recv_complete(env.arrival_ns);
        if let Some(ack) = &env.ack {
            ack.complete();
        }
    }

    /// Blocking probe at envelope level (does not consume the message).
    pub(crate) fn peek_envelope(&self, src: Src, tag: TagSel) -> Result<Status> {
        let _sp = trace::span(trace::cat::RECV, "probe", src_code(src), 0);
        let mb = &self.world.mailboxes[self.world_rank()];
        mb.wait_peek(self.context, src, tag, || self.wait_interrupted(src))
    }

    /// Non-blocking probe at envelope level.
    pub(crate) fn try_peek_envelope(&self, src: Src, tag: TagSel) -> Option<Status> {
        let mb = &self.world.mailboxes[self.world_rank()];
        mb.try_peek(self.context, src, tag)
    }

    // ----- communicator management ---------------------------------------

    /// Duplicates the communicator: same group, fresh context
    /// (mirrors `MPI_Comm_dup`).
    pub fn dup(&self) -> Result<Comm> {
        self.count_op("comm_dup");
        // Rank 0 allocates the context id and broadcasts it so all members
        // agree.
        let base = if self.rank == 0 {
            self.world.alloc_contexts(1)
        } else {
            0
        };
        let base = crate::collectives::bcast_one_internal(self, base, 0)?;
        Ok(self.derived(Arc::clone(&self.group), self.rank, base))
    }

    /// Splits the communicator by `color`; ranks passing the same color
    /// form a new communicator, ordered by `(key, rank)`. Passing `None`
    /// as color (mirroring `MPI_UNDEFINED`) yields no communicator.
    pub fn split(&self, color: Option<u64>, key: i64) -> Result<Option<Comm>> {
        self.count_op("comm_split");
        const UNDEF: u64 = u64::MAX;
        let mine = [color.unwrap_or(UNDEF), key as u64];
        let all = crate::collectives::allgather_internal(self, &mine)?;

        // Distinct defined colors in sorted order; every rank computes the
        // same list, so the context offsets agree.
        let mut colors: Vec<u64> = all
            .chunks_exact(2)
            .map(|c| c[0])
            .filter(|&c| c != UNDEF)
            .collect();
        colors.sort_unstable();
        colors.dedup();

        let base = if self.rank == 0 {
            self.world.alloc_contexts(colors.len() as u64)
        } else {
            0
        };
        let base = crate::collectives::bcast_one_internal(self, base, 0)?;

        let Some(my_color) = color else {
            return Ok(None);
        };
        let color_index = colors
            .binary_search(&my_color)
            .expect("own color must be present") as u64;

        // Members of my color, ordered by (key, old rank).
        let mut members: Vec<(i64, Rank)> = all
            .chunks_exact(2)
            .enumerate()
            .filter(|(_, c)| c[0] == my_color)
            .map(|(r, c)| (c[1] as i64, r))
            .collect();
        members.sort_unstable();

        let group: Vec<Rank> = members.iter().map(|&(_, r)| self.group[r]).collect();
        let new_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("calling rank must be in its own color group");

        Ok(Some(self.derived(
            Arc::new(group),
            new_rank,
            base + color_index,
        )))
    }

    /// Collectively frees a derived communicator (mirrors
    /// `MPI_Comm_free`), reclaiming its per-context shard from this
    /// rank's matching engine — the PR 4 leak fix: dup/split-heavy
    /// loops that free their communicators hold `shard_count` flat.
    ///
    /// All members must call `free`; it synchronizes with a barrier, so
    /// every in-flight message on the context is consumed before any
    /// rank drops its shard (the dissemination barrier only completes
    /// at a rank once all messages addressed to it have been received).
    /// Pending operations on the communicator must be completed first,
    /// as with `MPI_Comm_free`. The world communicator cannot be freed.
    pub fn free(self) -> Result<()> {
        self.count_op("comm_free");
        if self.context == 0 {
            return Err(MpiError::InvalidLayout(
                "the world communicator cannot be freed".into(),
            ));
        }
        self.barrier()?;
        self.mailbox().remove_shard(self.context);
        Ok(())
    }
}

/// Trace encoding of a receive selector: the peer rank, or `u64::MAX`
/// for `ANY_SOURCE`.
fn src_code(src: Src) -> u64 {
    match src {
        Src::Rank(r) => r as u64,
        Src::Any => u64::MAX,
    }
}

/// Restores a communicator's previous tuning when dropped (see
/// [`Comm::tuning_guard`]).
pub struct TuningGuard<'a> {
    comm: &'a Comm,
    prev: Option<CollTuning>,
}

impl Drop for TuningGuard<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            self.comm.tuning.set(prev);
        }
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("context", &self.context)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn rank_and_size() {
        Universe::run(3, |comm| {
            assert_eq!(comm.size(), 3);
            assert!(comm.rank() < 3);
            assert_eq!(comm.world_rank(), comm.rank());
            assert_eq!(comm.is_root(), comm.rank() == 0);
        });
    }

    /// Local compute is charged only through `clock_add_ns`; the charge
    /// reaches a receiver through the arrival time of the next message.
    #[test]
    fn charged_compute_delays_the_receiver() {
        let model = crate::CostModel {
            alpha_ns: 100,
            beta_ns_per_byte: 0.0,
            recv_overhead_ns: 10,
        };
        let config = crate::Config::new(2).cost(model);
        let times: Vec<u64> = Universe::run_with(config, |comm| {
            if comm.rank() == 0 {
                comm.clock_add_ns(1_000);
                comm.send(&[1u8], 1, 0).unwrap();
            } else {
                comm.recv_vec::<u8>(0, 0).unwrap();
            }
            comm.clock_now_ns()
        })
        .into_iter()
        .map(|o| o.unwrap())
        .collect();
        assert_eq!(times, vec![1_100, 1_110]);
    }

    #[test]
    fn translate_out_of_range() {
        Universe::run(2, |comm| {
            assert!(comm.translate_to_world(1).is_ok());
            assert!(matches!(
                comm.translate_to_world(2),
                Err(MpiError::InvalidRank {
                    rank: 2,
                    comm_size: 2
                })
            ));
        });
    }

    #[test]
    fn internal_tags_are_negative_and_distinct() {
        Universe::run(1, |comm| {
            let a = comm.next_internal_tag();
            let b = comm.next_internal_tag();
            assert!(a < 0 && b < 0);
            assert_ne!(a, b);
        });
    }

    #[test]
    fn user_tag_validation() {
        Universe::run(1, |comm| {
            assert!(comm.check_tag(0).is_ok());
            assert!(comm.check_tag(123).is_ok());
            assert!(matches!(
                comm.check_tag(-1),
                Err(MpiError::InvalidTag { tag: -1 })
            ));
        });
    }

    #[test]
    fn dup_creates_distinct_context() {
        Universe::run(3, |comm| {
            let dup = comm.dup().unwrap();
            assert_ne!(dup.context_id(), comm.context_id());
            assert_eq!(dup.rank(), comm.rank());
            assert_eq!(dup.size(), comm.size());
        });
    }

    #[test]
    fn split_into_even_and_odd() {
        Universe::run(5, |comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm
                .split(Some(color), comm.rank() as i64)
                .unwrap()
                .unwrap();
            let expected_size = if color == 0 { 3 } else { 2 };
            assert_eq!(sub.size(), expected_size);
            assert_eq!(sub.rank(), comm.rank() / 2);
            assert_eq!(sub.world_rank(), comm.rank());
        });
    }

    #[test]
    fn split_with_undefined_color() {
        Universe::run(4, |comm| {
            let color = if comm.rank() == 0 { None } else { Some(0u64) };
            let sub = comm.split(color, 0).unwrap();
            if comm.rank() == 0 {
                assert!(sub.is_none());
            } else {
                let sub = sub.unwrap();
                assert_eq!(sub.size(), 3);
                assert_eq!(sub.rank(), comm.rank() - 1);
            }
        });
    }

    #[test]
    fn split_reverse_key_order() {
        Universe::run(4, |comm| {
            // All same color, keys reversed: new ranks are the old reversed.
            let sub = comm.split(Some(0), -(comm.rank() as i64)).unwrap().unwrap();
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
        });
    }

    #[test]
    fn nested_split_contexts_are_unique() {
        Universe::run(4, |comm| {
            let a = comm
                .split(Some((comm.rank() % 2) as u64), 0)
                .unwrap()
                .unwrap();
            let b = comm.dup().unwrap();
            let ids = [comm.context_id(), a.context_id(), b.context_id()];
            let mut dedup = ids.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(
                dedup.len(),
                3,
                "contexts must be pairwise distinct: {ids:?}"
            );
        });
    }
}
