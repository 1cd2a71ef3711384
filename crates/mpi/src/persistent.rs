//! Persistent operations (MPI-4 `MPI_Send_init` / `MPI_Recv_init` /
//! `MPI_Bcast_init` / …): freeze the plan once, amortize every piece of
//! per-call setup across the steady state.
//!
//! A regular non-blocking operation pays its full setup bill on every
//! call: envelope resolution, internal-tag allocation, algorithm
//! selection, engine construction, and — for every blocking wait — a
//! fresh waiter registration per pending source. In iterative codes
//! (halo exchanges, solver loops) the *shape* of the communication
//! never changes between iterations; only the payload bytes do. The
//! persistent API does all shape-dependent work exactly once, at
//! `*_init` time, and leaves the hot loop with nothing but the
//! per-cycle data movement:
//!
//! - the destination/source **envelope** is resolved and validated at
//!   init,
//! - internal **tags** are allocated once (cross-rank aligned, because
//!   `*_init` is called collectively in the same order on every rank)
//!   and reused by every cycle,
//! - the collective **algorithm is selected once** and its engine built
//!   once, by the same plan the blocking and `i*` forms run on every
//!   call; each cycle only calls the engine's `start`
//!   (`CollEngine::start` in `crate::collectives::nonblocking`), which
//!   re-arms the receive state in place and posts the cycle's sends,
//!   instead of re-constructing it,
//! - a **standing, wake-only registration** is installed in the
//!   completion subsystem for every source the plan can ever block on
//!   (the registration kinds and the park they feed are
//!   [`crate::completion`]'s) — the steady-state `start` → `wait` cycle
//!   performs **zero** waiter (de)registrations, pinned by the
//!   `notify_registrations` counter in
//!   [`MailboxStats`](crate::MailboxStats).
//!
//! # Request lifecycle
//!
//! A persistent request adds a fourth lifecycle to the request zoo
//! (see [`crate::request`] for the one-shot diagram):
//!
//! ```text
//!   *_init            start()             completion observed
//!  ───────> [inactive] ──────> [started] ─────────────────────┐
//!               ^                  │ wait()/test()            │
//!               │                  v                          │
//!               │            [complete] ── result returned ───┤
//!               └──────────────── restartable <───────────────┘
//!                    (start() again; plan unchanged)
//! ```
//!
//! `start` on an already-started request is an error
//! ([`MpiError::RequestActive`]) — cycles never overlap, which is what
//! keeps the frozen internal tags unambiguous: every cycle's messages
//! travel on the same `(source, tag)` streams, per-stream FIFO keeps
//! cycles in order, and a fixed number of messages per cycle per stream
//! keeps them aligned. `start` on a revoked communicator is poisoned
//! with [`MpiError::Revoked`] before any message moves.
//!
//! # The plan is the engine
//!
//! A persistent collective holds nothing but the engine its `i*` twin
//! would have built for one call — tags, peers and slice ranges frozen
//! inside it — plus the payload of the next cycle. `start` hands that
//! payload to the engine's `start`; `wait`/`test` advance it. There is
//! no separate description of a plan's sends: what a cycle posts is
//! what the engine posts.
//!
//! Persistent collectives freeze the flat, eager engines:
//! binomial-tree broadcast, flat-gather + ordered-fold allreduce, and
//! eager pairwise alltoallv/allgather. The per-call
//! [`CollTuning`](crate::CollTuning) consultation that regular
//! collectives perform is exactly one of the costs `*_init` is meant to
//! hoist out of the loop.

use std::sync::Arc;

use bytes::Bytes;

use crate::collectives::algos::allgather::BlockSizes;
use crate::collectives::algos::table::{tuned, Call, Site};
use crate::collectives::algos::{AlltoallAlgo, BcastAlgo};
use crate::collectives::nonblocking::CollEngine;
use crate::comm::Comm;
use crate::completion::Waiter;
use crate::error::{MpiError, Result};
use crate::message::{Src, Status, TagSel};
use crate::plain::bytes_from_slice;
use crate::request::Completion;
use crate::trace;
use crate::{Plain, Rank, ReduceOp, Tag};

/// The plan a persistent request executes every cycle.
enum PlanKind {
    /// Eager send: complete at `start`.
    Send { dest: Rank, tag: Tag },
    /// Posted receive on frozen selectors.
    Recv { src: Src, tag: TagSel },
    /// A collective cycle: the engine its `i*` twin builds per call,
    /// built once.
    Coll(Box<dyn CollEngine>),
}

/// A persistent request (mirrors the inactive `MPI_Request` returned by
/// `MPI_Send_init` and friends): the communication *plan* — envelope,
/// tags, algorithm, engine, completion registrations — frozen at init;
/// [`start`](PersistentRequest::start) /
/// [`wait`](PersistentRequest::wait) cycles reuse all of it and touch
/// only payload bytes.
pub struct PersistentRequest<'a> {
    comm: &'a Comm,
    kind: PlanKind,
    /// This cycle's payload (sends and contributing collectives);
    /// replaced between cycles via
    /// [`set_payload`](PersistentRequest::set_payload).
    payload: Option<Bytes>,
    /// Dedicated waiter holding the standing registrations. Never the
    /// thread-local cached waiter: the registrations keep a reference
    /// for the request's whole lifetime.
    waiter: Arc<Waiter>,
    /// Whether standing registrations exist (teardown on drop).
    registered: bool,
    active: bool,
    /// Completed `start`/`wait` cycles (diagnostics).
    cycles: u64,
    /// Set when a cycle ends in a ULFM error (peer failure,
    /// revocation): the frozen plan names a peer that can no longer
    /// answer, so no restart can succeed. `start` re-surfaces the
    /// error instead of `RequestActive`.
    poisoned: Option<MpiError>,
}

impl<'a> PersistentRequest<'a> {
    fn new(comm: &'a Comm, kind: PlanKind, payload: Option<Bytes>) -> Self {
        PersistentRequest {
            comm,
            kind,
            payload,
            waiter: Arc::new(Waiter::default()),
            registered: false,
            active: false,
            poisoned: None,
            cycles: 0,
        }
    }

    /// True between a `start` and the observation of its completion.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Completed cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Replaces the payload the next cycle sends. Rejected while a
    /// cycle is active (the in-flight cycle owns the current payload);
    /// for alltoallv plans the packed length must match the frozen
    /// counts.
    pub fn set_payload(&mut self, payload: Bytes) -> Result<()> {
        if self.active {
            return Err(MpiError::RequestActive);
        }
        if let PlanKind::Coll(engine) = &self.kind {
            engine.check_payload(&payload)?;
        }
        self.payload = Some(payload);
        Ok(())
    }

    /// Typed [`set_payload`](PersistentRequest::set_payload) (one
    /// serialization copy, like the typed init).
    pub fn set_data<T: Plain>(&mut self, data: &[T]) -> Result<()> {
        self.set_payload(bytes_from_slice(data))
    }

    /// Starts one cycle (mirrors `MPI_Start`): hands this cycle's
    /// payload to the frozen engine's `start`, which re-arms its
    /// receive state and posts the cycle's eager sends. O(sends)
    /// — no tag allocation, no algorithm selection, no waiter
    /// registration. Errors if the previous cycle has not completed
    /// ([`MpiError::RequestActive`]) or the communicator is revoked
    /// ([`MpiError::Revoked`], poisoning before any message moves).
    pub fn start(&mut self) -> Result<()> {
        self.comm.count_op("start");
        crate::fault::point("persistent/start");
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.active {
            return Err(MpiError::RequestActive);
        }
        // Send plans skip the standalone revocation probe: their
        // `deliver_bytes` below performs the same check before any
        // message moves, and the probe is a lock on the hot path.
        if !matches!(self.kind, PlanKind::Send { .. })
            && self.comm.world.is_revoked(self.comm.context)
        {
            return Err(MpiError::Revoked);
        }
        trace::async_begin(trace::cat::PERSIST, "persistent_cycle", self.trace_id());
        let payload = self.payload.clone();
        match &mut self.kind {
            PlanKind::Send { dest, tag } => {
                let payload = payload.expect("send plans hold a payload");
                self.comm.deliver_bytes(*dest, *tag, payload, None)?;
            }
            PlanKind::Recv { .. } => {}
            PlanKind::Coll(engine) => engine.start(self.comm, payload.unwrap_or_default())?,
        }
        self.active = true;
        Ok(())
    }

    /// Blocks until the started cycle completes (mirrors `MPI_Wait` on
    /// a persistent request), leaving the request inactive and
    /// restartable. Steady state: the standing registrations installed
    /// at init claim the dedicated waiter directly — no registration,
    /// no deregistration, no sweep of unrelated sources. The
    /// registrations are *wake-only*: pushes claim the waiter only
    /// while an armed attempt below is under way, so cycles whose
    /// messages have already arrived cost the senders nothing at all.
    /// Waiting on an inactive request returns [`Completion::Done`]
    /// immediately (MPI's null-status convention).
    pub fn wait(&mut self) -> Result<Completion> {
        if !self.active {
            return Ok(Completion::Done);
        }
        let _sp = trace::span(trace::cat::WAIT, "wait_persistent", 0, 0);
        // Fast path: the cycle already completed — the armed flag is
        // never raised and no push ever locked this waiter.
        let mut attempt = self.kind.try_complete(self.comm);
        loop {
            match attempt {
                Ok(Some(c)) => {
                    self.finish_cycle();
                    return Ok(c);
                }
                Ok(None) => attempt = self.armed_attempt().map(|(c, _)| c),
                Err(e) => return Err(self.poison(e)),
            }
        }
    }

    /// One armed completion attempt ([`Waiter::armed_park`]) against
    /// the frozen plan.
    fn armed_attempt(&mut self) -> Result<(Option<Completion>, bool)> {
        let comm = self.comm;
        self.waiter
            .armed_park(comm.mailbox(), || self.kind.try_complete(comm))
    }

    /// Non-blocking completion check (mirrors `MPI_Test` on a
    /// persistent request). `Ok(Some(..))` deactivates the request for
    /// restart; an inactive request reports `Done` immediately.
    pub fn test(&mut self) -> Result<Option<Completion>> {
        if !self.active {
            return Ok(Some(Completion::Done));
        }
        match self.kind.try_complete(self.comm) {
            Ok(Some(c)) => {
                self.finish_cycle();
                Ok(Some(c))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Ends the cycle on a ULFM error: the request goes inactive and
    /// every later `start` re-surfaces the error (the plan's peers are
    /// frozen, so "this cycle failed" means "every cycle fails").
    fn poison(&mut self, e: MpiError) -> MpiError {
        self.active = false;
        self.poisoned = Some(e.clone());
        e
    }

    /// Cycle bookkeeping shared by `wait` and `test`.
    fn finish_cycle(&mut self) {
        // The end event must carry the same id the cycle's `start`
        // emitted, so it fires before the cycle counter advances.
        trace::async_end(trace::cat::PERSIST, "persistent_cycle", self.trace_id());
        self.active = false;
        self.cycles += 1;
    }

    /// Stable id correlating this request's async trace spans.
    fn trace_id(&self) -> u64 {
        Arc::as_ptr(&self.waiter) as u64 ^ self.cycles.rotate_left(48)
    }
}

impl PlanKind {
    /// One non-blocking completion attempt against the frozen plan.
    fn try_complete(&mut self, comm: &Comm) -> Result<Option<Completion>> {
        match self {
            PlanKind::Send { .. } => Ok(Some(Completion::Done)),
            PlanKind::Recv { src, tag } => match comm.try_recv_envelope(*src, *tag) {
                Some(env) => {
                    let st = Status {
                        source: env.src,
                        tag: env.tag,
                        bytes: env.payload.len(),
                    };
                    Ok(Some(Completion::Message(env.payload, st)))
                }
                None => match comm.wait_interrupted(*src) {
                    Some(e) => Err(e),
                    None => Ok(None),
                },
            },
            PlanKind::Coll(engine) => engine.advance(comm, false),
        }
    }
}

impl Drop for PersistentRequest<'_> {
    /// The standing registrations reference the waiter from the
    /// mailbox's posted queues; dropping the request must remove them
    /// or they would claim a dead waiter for the communicator's
    /// lifetime.
    fn drop(&mut self) {
        if self.registered {
            self.comm
                .mailbox()
                .deregister_notify(self.comm.context, &self.waiter);
        }
    }
}

/// Starts every request in the slice (mirrors `MPI_Startall`); stops at
/// the first error, leaving later requests inactive.
pub fn start_all(requests: &mut [PersistentRequest<'_>]) -> Result<()> {
    for req in requests.iter_mut() {
        req.start()?;
    }
    Ok(())
}

/// A batch of persistent requests driven as one unit — the persistent
/// sibling of [`RequestSet`](crate::RequestSet) (mirrors `MPI_Startall`
/// + `MPI_Waitall` on persistent handles).
///
/// [`wait_all`](PersistentSet::wait_all) sweeps every member
/// non-blockingly and parks on at most one member at a time, re-sweeping
/// the whole batch on each wakeup. Members whose messages arrive while
/// the set sleeps cost nothing: only the parked member's waiter is
/// armed, so a completion wave that lands together wakes the set
/// **once** and the re-sweep retires the entire batch —
/// [`parks`](PersistentSet::parks) counts the actual sleeps, pinned at
/// ≤ one per wave (zero when the wave precedes the wait) by the tests.
pub struct PersistentSet<'a> {
    requests: Vec<PersistentRequest<'a>>,
    parks: u64,
}

impl<'a> Default for PersistentSet<'a> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> PersistentSet<'a> {
    pub fn new() -> Self {
        PersistentSet {
            requests: Vec::new(),
            parks: 0,
        }
    }

    /// Adds a request; returns its index (the position of its
    /// completion in [`wait_all`](PersistentSet::wait_all)'s result).
    pub fn push(&mut self, req: PersistentRequest<'a>) -> usize {
        self.requests.push(req);
        self.requests.len() - 1
    }

    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The member requests (e.g. to
    /// [`set_data`](PersistentRequest::set_data) between cycles).
    pub fn requests_mut(&mut self) -> &mut [PersistentRequest<'a>] {
        &mut self.requests
    }

    /// Times `wait_all` actually slept on a condvar — the batch wakeup
    /// meter: a completion wave that lands while the set is parked
    /// costs exactly one sleep, and a wave that lands before the wait
    /// costs zero.
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Starts one cycle on every member (mirrors `MPI_Startall`); stops
    /// at the first error, leaving later members inactive.
    pub fn start_all(&mut self) -> Result<()> {
        start_all(&mut self.requests)
    }

    /// Blocks until every started member completes, returning the
    /// completions in member order (inactive members report
    /// [`Completion::Done`], MPI's null-status convention). One park
    /// covers a whole completion wave: each sleep is followed by a full
    /// re-sweep, so messages that arrived for *other* members while
    /// this one slept are collected without further waits.
    pub fn wait_all(&mut self) -> Result<Vec<Completion>> {
        let n = self.requests.len();
        let mut out: Vec<Option<Completion>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::with_capacity(n);
        for (i, req) in self.requests.iter_mut().enumerate() {
            if !req.active {
                out[i] = Some(Completion::Done);
            } else {
                pending.push(i);
            }
        }
        while !pending.is_empty() {
            // Full non-blocking sweep: retire everything already done.
            let mut still = Vec::with_capacity(pending.len());
            for &i in &pending {
                let req = &mut self.requests[i];
                match req.kind.try_complete(req.comm)? {
                    Some(c) => {
                        req.finish_cycle();
                        out[i] = Some(c);
                    }
                    None => still.push(i),
                }
            }
            pending = still;
            let Some(&first) = pending.first() else { break };
            // Park on the first unfinished member only; its standing
            // registrations (installed at init) claim the armed waiter.
            // The other members' waiters stay un-armed — their arrivals
            // queue silently and the re-sweep finds them.
            let req = &mut self.requests[first];
            let (done, slept) = req.armed_attempt()?;
            if let Some(c) = done {
                req.finish_cycle();
                out[first] = Some(c);
                pending.remove(0);
            }
            self.parks += u64::from(slept);
        }
        Ok(out
            .into_iter()
            .map(|c| c.expect("all members done"))
            .collect())
    }
}

impl Comm {
    /// The `*_init` driver of a plan: installs standing registrations
    /// for every source the engine can ever receive from, then hands the
    /// request out, holding `payload` for the first cycle.
    pub(crate) fn persistent_coll(
        &self,
        engine: Box<dyn CollEngine>,
        payload: Bytes,
    ) -> Result<PersistentRequest<'_>> {
        let mut pairs: Vec<(Rank, Tag)> = Vec::new();
        engine.all_sources(self, &mut pairs);
        let mut req = PersistentRequest::new(self, PlanKind::Coll(engine), Some(payload));
        for (slot, (r, t)) in pairs.iter().enumerate() {
            // A message already queued is fine: `wait` always attempts
            // completion before parking, so pre-registration arrivals
            // are found without a claim. Wake-only: claims fire only
            // while `wait` is armed (see there).
            self.mailbox().register_standing(
                self.context,
                Src::Rank(*r),
                TagSel::Is(*t),
                &req.waiter,
                slot,
                true,
            );
            req.registered = true;
        }
        Ok(req)
    }

    /// Creates a persistent send to `dest` on `tag` (mirrors
    /// `MPI_Send_init`): the envelope is validated once; every
    /// [`start`](PersistentRequest::start) posts the current payload
    /// eagerly. Update the payload between cycles with
    /// [`set_data`](PersistentRequest::set_data).
    pub fn send_init<T: Plain>(
        &self,
        data: &[T],
        dest: Rank,
        tag: Tag,
    ) -> Result<PersistentRequest<'_>> {
        self.send_init_bytes(bytes_from_slice(data), dest, tag)
    }

    /// Byte-level [`Comm::send_init`] (zero-copy for adopted buffers).
    pub fn send_init_bytes(
        &self,
        payload: Bytes,
        dest: Rank,
        tag: Tag,
    ) -> Result<PersistentRequest<'_>> {
        self.count_op("send_init");
        self.check_tag(tag)?;
        self.check_rank(dest)?;
        Ok(PersistentRequest::new(
            self,
            PlanKind::Send { dest, tag },
            Some(payload),
        ))
    }

    /// Creates a persistent receive from `src` on `tag` (mirrors
    /// `MPI_Recv_init`): one standing completion registration installed
    /// here serves every future cycle's wakeup.
    pub fn recv_init(&self, src: Rank, tag: Tag) -> Result<PersistentRequest<'_>> {
        self.count_op("recv_init");
        self.check_tag(tag)?;
        self.check_rank(src)?;
        let mut req = PersistentRequest::new(
            self,
            PlanKind::Recv {
                src: Src::Rank(src),
                tag: TagSel::Is(tag),
            },
            None,
        );
        self.mailbox().register_standing(
            self.context,
            Src::Rank(src),
            TagSel::Is(tag),
            &req.waiter,
            0,
            true,
        );
        req.registered = true;
        Ok(req)
    }

    /// Creates a persistent broadcast from `root` (mirrors
    /// `MPI_Bcast_init`). The root supplies `Some(data)` (refreshable
    /// per cycle via [`set_data`](PersistentRequest::set_data)); other
    /// ranks pass `None` and receive each cycle's payload as their
    /// completion. The binomial tree, its internal tag, and the
    /// receivers' standing parent registration are all frozen here.
    pub fn bcast_init<T: Plain>(
        &self,
        data: Option<&[T]>,
        root: Rank,
    ) -> Result<PersistentRequest<'_>> {
        let payload = data.filter(|_| self.rank() == root).map(bytes_from_slice);
        self.bcast_init_bytes(payload, root)
    }

    /// Byte-level [`Comm::bcast_init`].
    pub fn bcast_init_bytes(
        &self,
        payload: Option<Bytes>,
        root: Rank,
    ) -> Result<PersistentRequest<'_>> {
        self.count_op("bcast_init");
        // A plan freezes its pick (`select`): the engine is built once,
        // here, and never re-selected at `start`, however the model's
        // estimates move afterwards. Non-roots do not know the size, so
        // the call is not regular: the binomial tree.
        let size = payload.as_ref().map_or(0, Bytes::len);
        tuned(self, Site::INIT, Call::irregular(size), |_: BcastAlgo| {
            self.bcast_plan("bcast_init", payload, root, Comm::persistent_coll)
        })
    }

    /// Creates a persistent allreduce (mirrors `MPI_Allreduce_init`):
    /// the allreduce plan of [`Comm::iallreduce`] — the row the blocking
    /// `allreduce` would pick for this size, or for a non-commutative
    /// operation the ordered flat gather + broadcast — selected once,
    /// engine built once, its tags frozen. Every rank's completion is
    /// the reduced vector, one [`Completion::Message`].
    pub fn allreduce_init<T: Plain, O: ReduceOp<T> + 'static>(
        &self,
        data: &[T],
        op: O,
    ) -> Result<PersistentRequest<'_>> {
        self.allreduce_init_bytes(bytes_from_slice(data), op)
    }

    /// Byte-level [`Comm::allreduce_init`]: `own` (which must encode a
    /// `[T]` slice) is the first cycle's payload as-is — zero-copy for
    /// adopted owned buffers.
    pub fn allreduce_init_bytes<T: Plain, O: ReduceOp<T> + 'static>(
        &self,
        own: Bytes,
        op: O,
    ) -> Result<PersistentRequest<'_>> {
        self.count_op("allreduce_init");
        self.allreduce_plan(Site::INIT, "allreduce_init", own, op, Comm::persistent_coll)
    }

    /// Creates a persistent allgather (mirrors `MPI_Allgather_init`)
    /// under the row the blocking `allgather` would pick — the eager
    /// fan-out, or recursive doubling / Bruck for small contributions —
    /// completing each cycle with [`Completion::Blocks`] in rank order.
    /// Every rank must contribute the same length, as to `allgather`:
    /// the size selects the row. Lengths that differ across ranks take
    /// [`Comm::allgatherv_init`].
    pub fn allgather_init<T: Plain>(&self, data: &[T]) -> Result<PersistentRequest<'_>> {
        self.allgather_init_bytes(bytes_from_slice(data))
    }

    /// Byte-level [`Comm::allgather_init`].
    pub fn allgather_init_bytes(&self, own: Bytes) -> Result<PersistentRequest<'_>> {
        self.count_op("allgather_init");
        self.allgather_plan(Site::INIT, BlockSizes::Equal, own, Comm::persistent_coll)
    }

    /// Creates a persistent allgather whose blocks may differ in length
    /// across ranks and between cycles (mirrors `MPI_Allgatherv_init`):
    /// the self-sizing plan of [`Comm::allgatherv_blocks`] without
    /// counts — from `p = 4` recursive doubling or Bruck, which learn
    /// every cycle's lengths in their rounds, else the eager fan-out —
    /// frozen at init, completing each cycle with [`Completion::Blocks`]
    /// in rank order; the per-rank counts are the block lengths.
    pub fn allgatherv_init<T: Plain>(&self, data: &[T]) -> Result<PersistentRequest<'_>> {
        self.allgatherv_init_bytes(bytes_from_slice(data))
    }

    /// Byte-level [`Comm::allgatherv_init`].
    pub fn allgatherv_init_bytes(&self, own: Bytes) -> Result<PersistentRequest<'_>> {
        self.count_op("allgatherv_init");
        self.allgather_plan(Site::INIT, BlockSizes::Learned, own, Comm::persistent_coll)
    }

    /// Creates a persistent personalized all-to-all with per-destination
    /// counts (mirrors `MPI_Alltoallv_init`). The counts — and therefore
    /// the per-peer byte ranges carved out of the packed payload — are
    /// frozen at init; [`set_payload`](PersistentRequest::set_payload)
    /// enforces the frozen total. Completes with
    /// [`Completion::Blocks`]: one block per source rank.
    pub fn alltoallv_init<T: Plain>(
        &self,
        data: &[T],
        counts: &[usize],
    ) -> Result<PersistentRequest<'_>> {
        let elem = std::mem::size_of::<T>();
        let byte_counts: Vec<usize> = counts.iter().map(|&c| c * elem).collect();
        self.alltoallv_init_bytes(bytes_from_slice(data), &byte_counts)
    }

    /// Byte-level [`Comm::alltoallv_init`]: `packed` holds the per-peer
    /// blocks contiguously in rank order, `byte_counts[r]` bytes each.
    pub fn alltoallv_init_bytes(
        &self,
        packed: Bytes,
        byte_counts: &[usize],
    ) -> Result<PersistentRequest<'_>> {
        self.count_op("alltoallv_init");
        // Variable blocks: pairwise.
        let (call, run) = (Call::irregular(packed.len()), Comm::persistent_coll);
        tuned(self, Site::INIT, call, |_: AlltoallAlgo| {
            self.alltoallv_plan("alltoallv_init", packed, byte_counts, run)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;
    use crate::Universe;
    use proptest::prelude::*;

    #[test]
    fn persistent_send_recv_cycles() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.send_init(&[0u32], 1, 7).unwrap();
                for cycle in 0..5u32 {
                    req.set_data(&[cycle * 10]).unwrap();
                    req.start().unwrap();
                    req.wait().unwrap();
                }
                assert_eq!(req.cycles(), 5);
            } else {
                let mut req = comm.recv_init(0, 7).unwrap();
                for cycle in 0..5u32 {
                    req.start().unwrap();
                    let (v, st) = req.wait().unwrap().into_vec::<u32>().unwrap();
                    assert_eq!(v, vec![cycle * 10]);
                    assert_eq!(st.source, 0);
                    assert_eq!(st.tag, 7);
                }
            }
        });
    }

    #[test]
    fn start_while_active_is_an_error() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.recv_init(1, 0).unwrap();
                req.start().unwrap();
                assert_eq!(req.start().unwrap_err(), MpiError::RequestActive);
                req.wait().unwrap();
                // Completing the cycle makes it restartable again.
                req.start().unwrap();
                req.wait().unwrap();
            } else {
                comm.send(&[1u8], 0, 0).unwrap();
                comm.send(&[2u8], 0, 0).unwrap();
            }
        });
    }

    #[test]
    fn wait_on_inactive_request_returns_immediately() {
        Universe::run(1, |comm| {
            let mut req = comm.send_init(&[1u8], 0, 0).unwrap();
            assert!(matches!(req.wait().unwrap(), Completion::Done));
            assert_eq!(req.cycles(), 0);
        });
    }

    #[test]
    fn set_payload_while_active_is_rejected() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.recv_init(1, 0).unwrap();
                req.start().unwrap();
                assert_eq!(
                    req.set_payload(Bytes::new()).unwrap_err(),
                    MpiError::RequestActive
                );
                req.wait().unwrap();
            } else {
                comm.send(&[1u8], 0, 0).unwrap();
            }
        });
    }

    #[test]
    fn persistent_bcast_cycles() {
        for p in [1, 2, 4, 5] {
            Universe::run(p, move |comm| {
                let root = p - 1;
                let mut req = if comm.rank() == root {
                    comm.bcast_init(Some(&[0u64]), root).unwrap()
                } else {
                    comm.bcast_init::<u64>(None, root).unwrap()
                };
                for cycle in 0..4u64 {
                    if comm.rank() == root {
                        req.set_data(&[cycle * cycle + 3]).unwrap();
                    }
                    req.start().unwrap();
                    let (v, st) = req.wait().unwrap().into_vec::<u64>().unwrap();
                    assert_eq!(v, vec![cycle * cycle + 3]);
                    assert_eq!(st.source, root);
                }
            });
        }
    }

    #[test]
    fn persistent_allreduce_cycles() {
        for p in [1, 2, 3, 4, 8] {
            Universe::run(p, move |comm| {
                let mut req = comm.allreduce_init(&[0u64, 0], Sum).unwrap();
                for cycle in 1..=4u64 {
                    req.set_data(&[comm.rank() as u64 * cycle, cycle]).unwrap();
                    req.start().unwrap();
                    let (v, _) = req.wait().unwrap().into_vec::<u64>().unwrap();
                    let ranks_sum: u64 = (0..p as u64).sum();
                    assert_eq!(v, vec![ranks_sum * cycle, cycle * p as u64]);
                }
            });
        }
    }

    #[test]
    fn persistent_allgather_cycles() {
        Universe::run(4, |comm| {
            let mut req = comm.allgather_init(&[0u32]).unwrap();
            for cycle in 0..3u32 {
                req.set_data(&[comm.rank() as u32 + 100 * cycle]).unwrap();
                req.start().unwrap();
                let blocks = req.wait().unwrap().into_blocks().unwrap();
                assert_eq!(blocks.len(), 4);
                for (r, b) in blocks.iter().enumerate() {
                    assert_eq!(
                        crate::plain::bytes_to_vec::<u32>(b),
                        vec![r as u32 + 100 * cycle]
                    );
                }
            }
        });
    }

    #[test]
    fn persistent_alltoallv_cycles() {
        Universe::run(3, |comm| {
            let p = comm.size();
            // Rank r sends r+1 elements to each peer: [dest; r+1].
            let counts: Vec<usize> = vec![comm.rank() + 1; p];
            let pack = |cycle: u32| -> Vec<u32> {
                (0..p)
                    .flat_map(|dest| {
                        std::iter::repeat_n(dest as u32 + 1000 * cycle, comm.rank() + 1)
                    })
                    .collect()
            };
            let mut req = comm.alltoallv_init(&pack(0), &counts).unwrap();
            for cycle in 0..3u32 {
                req.set_data(&pack(cycle)).unwrap();
                req.start().unwrap();
                let blocks = req.wait().unwrap().into_blocks().unwrap();
                assert_eq!(blocks.len(), p);
                for (src, b) in blocks.iter().enumerate() {
                    assert_eq!(
                        crate::plain::bytes_to_vec::<u32>(b),
                        vec![comm.rank() as u32 + 1000 * cycle; src + 1]
                    );
                }
            }
        });
    }

    #[test]
    fn alltoallv_frozen_counts_enforced_on_set_payload() {
        Universe::run(2, |comm| {
            let mut req = comm.alltoallv_init(&[1u32, 2], &[1, 1]).unwrap();
            assert!(matches!(
                req.set_data(&[1u32, 2, 3]).unwrap_err(),
                MpiError::InvalidLayout(_)
            ));
            // The old payload is still intact; a cycle still works.
            req.start().unwrap();
            req.wait().unwrap();
        });
    }

    /// The tentpole's steady-state claim, pinned by counters: after
    /// init, N cycles of start/wait perform **zero** additional waiter
    /// registrations (`notify_registrations` stays flat — standing
    /// entries serve every cycle) and **zero** algorithm re-selections
    /// (`allreduce_init` counted once, only `start` advances).
    #[test]
    fn steady_state_makes_zero_registrations_and_reselections() {
        Universe::run(4, |comm| {
            let mut req = comm.allreduce_init(&[comm.rank() as u64], Sum).unwrap();
            // One warm-up cycle, then measure.
            req.start().unwrap();
            req.wait().unwrap();
            comm.barrier().unwrap();
            let before = comm.mailbox_stats().notify_registrations;
            for _ in 0..20 {
                req.start().unwrap();
                req.wait().unwrap();
            }
            let after = comm.mailbox_stats().notify_registrations;
            assert_eq!(
                after, before,
                "steady-state cycles must not touch the posted queue"
            );
            assert_eq!(comm.call_counts().get("allreduce_init"), 1);
            assert_eq!(comm.call_counts().get("start"), 21);
        });
    }

    /// ULFM: a revoked communicator poisons `start` before any message
    /// moves.
    #[test]
    fn revoked_comm_poisons_start() {
        let outcomes = Universe::run_with(crate::Config::new(2), |comm| {
            let mut req = comm.send_init(&[1u8], (comm.rank() + 1) % 2, 0).unwrap();
            req.start().unwrap();
            req.wait().unwrap();
            // Both ranks must finish the healthy cycle before the
            // revocation lands.
            comm.barrier().unwrap();
            if comm.rank() == 0 {
                comm.revoke();
            } else {
                // Wait until the revocation is visible here.
                while !comm.is_revoked() {
                    std::thread::yield_now();
                }
            }
            assert_eq!(req.start().unwrap_err(), MpiError::Revoked);
        });
        assert!(outcomes.into_iter().all(|o| o.completed().is_some()));
    }

    /// The batch wakeup pin: a completion wave that lands *before*
    /// `wait_all` costs zero sleeps — the fast sweep retires the whole
    /// batch without ever touching a condvar.
    #[test]
    fn set_wait_all_zero_parks_when_wave_precedes_wait() {
        Universe::run(2, |comm| {
            const W: usize = 4;
            if comm.rank() == 0 {
                let mut set = PersistentSet::new();
                for t in 0..W {
                    set.push(comm.recv_init(1, 10 + t as i32).unwrap());
                }
                assert_eq!(set.len(), W);
                for cycle in 0..5u32 {
                    set.start_all().unwrap();
                    comm.send(&[cycle], 1, 1).unwrap();
                    // The ack was pushed after the whole wave: once it
                    // is here, every member's message already is too.
                    comm.recv_vec::<u32>(1, 2).unwrap();
                    let done = set.wait_all().unwrap();
                    assert_eq!(done.len(), W);
                    for (t, c) in done.into_iter().enumerate() {
                        let (v, st) = c.into_vec::<u32>().unwrap();
                        assert_eq!(v, vec![cycle * 10 + t as u32]);
                        assert_eq!(st.tag, 10 + t as i32);
                    }
                    assert_eq!(set.parks(), 0, "pre-arrived waves never sleep");
                }
            } else {
                for cycle in 0..5u32 {
                    comm.recv_vec::<u32>(0, 1).unwrap();
                    for t in 0..W {
                        comm.send(&[cycle * 10 + t as u32], 0, 10 + t as i32)
                            .unwrap();
                    }
                    comm.send(&[0u32], 0, 2).unwrap();
                }
            }
        });
    }

    /// A wave that lands while the set sleeps wakes it at most once:
    /// only the parked member's waiter is armed, the re-sweep collects
    /// everyone else — ≤ one park per batch completion wave.
    #[test]
    fn set_wait_all_one_park_per_wave() {
        Universe::run(2, |comm| {
            const W: usize = 4;
            const CYCLES: u32 = 5;
            if comm.rank() == 0 {
                let mut set = PersistentSet::new();
                for t in 0..W {
                    set.push(comm.recv_init(1, 10 + t as i32).unwrap());
                }
                for cycle in 0..CYCLES {
                    set.start_all().unwrap();
                    comm.send(&[cycle], 1, 1).unwrap();
                    let done = set.wait_all().unwrap();
                    for (t, c) in done.into_iter().enumerate() {
                        let (v, _) = c.into_vec::<u32>().unwrap();
                        assert_eq!(v, vec![cycle * 10 + t as u32]);
                    }
                }
                assert!(
                    set.parks() <= CYCLES as u64,
                    "parked {} times for {CYCLES} waves",
                    set.parks()
                );
            } else {
                for cycle in 0..CYCLES {
                    comm.recv_vec::<u32>(0, 1).unwrap();
                    // Member 0's message last: the set parks (if at all)
                    // on member 0, whose arrival closes the wave.
                    for t in (0..W).rev() {
                        comm.send(&[cycle * 10 + t as u32], 0, 10 + t as i32)
                            .unwrap();
                    }
                }
            }
        });
    }

    /// Inactive members report `Done` (the null-status convention) and
    /// collective members mix freely with p2p members.
    #[test]
    fn set_wait_all_mixed_members() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            let mut set = PersistentSet::new();
            set.push(comm.send_init(&[comm.rank() as u8], peer, 4).unwrap());
            set.push(comm.recv_init(peer, 4).unwrap());
            set.push(comm.allgather_init(&[comm.rank() as u64]).unwrap());
            // A member never started stays Done.
            set.push(comm.send_init(&[9u8], peer, 5).unwrap());
            for _ in 0..3 {
                start_all(&mut set.requests_mut()[..3]).unwrap();
                let mut done = set.wait_all().unwrap();
                assert!(matches!(done[3], Completion::Done));
                let blocks = done.swap_remove(2).into_blocks().unwrap();
                assert_eq!(
                    crate::plain::bytes_to_vec::<u64>(&blocks[peer]),
                    vec![peer as u64]
                );
                let (v, _) = done.swap_remove(1).into_vec::<u8>().unwrap();
                assert_eq!(v, vec![peer as u8]);
            }
        });
    }

    #[test]
    fn start_all_starts_every_request() {
        Universe::run(2, |comm| {
            let peer = (comm.rank() + 1) % 2;
            let mut reqs = vec![
                comm.send_init(&[comm.rank() as u8], peer, 1).unwrap(),
                comm.recv_init(peer, 1).unwrap(),
            ];
            for _ in 0..3 {
                super::start_all(&mut reqs).unwrap();
                for r in reqs.iter_mut() {
                    r.wait().unwrap();
                }
            }
            assert!(reqs.iter().all(|r| r.cycles() == 3));
        });
    }

    /// Dropping a persistent request removes its standing registrations
    /// (no zombie claims for the communicator's lifetime).
    #[test]
    fn drop_deregisters_standing_entries() {
        Universe::run(2, |comm| {
            let base = comm.mailbox_stats().notify_registrations;
            {
                let _req = comm.recv_init((comm.rank() + 1) % 2, 3).unwrap();
                assert_eq!(comm.mailbox_stats().notify_registrations, base + 1);
            }
            // The counter is monotonic (it counts registrations made,
            // not live ones); liveness is observable via a fresh cycle:
            // a new request claims its own waiter, undisturbed.
            let mut req = comm.recv_init((comm.rank() + 1) % 2, 3).unwrap();
            comm.send(&[9u8], (comm.rank() + 1) % 2, 3).unwrap();
            req.start().unwrap();
            let (v, _) = req.wait().unwrap().into_vec::<u8>().unwrap();
            assert_eq!(v, vec![9]);
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Satellite 4: a persistent operation must be observationally
        /// equivalent to its regular counterpart across random
        /// payloads, communicator sizes, and restart counts — cycle k
        /// of the persistent allreduce returns exactly what a fresh
        /// `iallreduce` on the same data returns.
        #[test]
        fn persistent_allreduce_equals_regular(
            p in 1usize..9,
            cycles in 1usize..5,
            seeds in prop::collection::vec(0u64..1_000_000, 1..5),
        ) {
            let seeds = std::sync::Arc::new(seeds);
            let out = Universe::run(p, move |comm| {
                let width = seeds.len();
                let mut req = comm.allreduce_init(&vec![0u64; width], Sum).unwrap();
                for cycle in 0..cycles {
                    let mine: Vec<u64> = seeds
                        .iter()
                        .map(|s| s.wrapping_mul(comm.rank() as u64 + 1) ^ cycle as u64)
                        .collect();
                    req.set_data(&mine).unwrap();
                    req.start().unwrap();
                    let (got, _) = req.wait().unwrap().into_vec::<u64>().unwrap();
                    let (want, _) = comm
                        .iallreduce(&mine, Sum)
                        .unwrap()
                        .wait()
                        .unwrap()
                        .into_vec::<u64>()
                        .unwrap();
                    assert_eq!(got, want, "cycle {cycle} diverged from iallreduce");
                }
                true
            });
            prop_assert!(out.into_iter().all(|ok| ok));
        }

        /// Same law for the personalized all-to-all: frozen counts,
        /// fresh payload bytes every cycle.
        #[test]
        fn persistent_alltoallv_equals_regular(
            p in 1usize..7,
            cycles in 1usize..4,
            counts_seed in 0usize..4,
        ) {
            let out = Universe::run(p, move |comm| {
                let counts: Vec<usize> =
                    (0..p).map(|d| (comm.rank() + d + counts_seed) % 3).collect();
                let total: usize = counts.iter().sum();
                let mut req = comm.alltoallv_init(&vec![0u32; total], &counts).unwrap();
                for cycle in 0..cycles {
                    let data: Vec<u32> = (0..total)
                        .map(|i| (i + cycle * 31 + comm.rank() * 7) as u32)
                        .collect();
                    req.set_data(&data).unwrap();
                    req.start().unwrap();
                    let got = req.wait().unwrap().into_blocks().unwrap();
                    let want = comm
                        .ialltoallv(&data, &counts)
                        .unwrap()
                        .wait()
                        .unwrap()
                        .into_blocks()
                        .unwrap();
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(&g[..], &w[..], "cycle {cycle} diverged from ialltoallv");
                    }
                }
                true
            });
            prop_assert!(out.into_iter().all(|ok| ok));
        }
    }
}
