//! The message-matching engine: per-rank, per-context two-queue matching
//! with targeted wakeups.
//!
//! Each rank owns one [`Mailbox`]. Senders push envelopes (the transport
//! is an eager protocol, as in shared-memory MPI for small/medium
//! messages); receivers match on `(context, source, tag)` with optional
//! wildcards. This module is the transport hot path: every p2p message,
//! every probe, and every round of every collective algorithm — blocking
//! or non-blocking — funnels through it.
//!
//! # Design: the two-queue matching structure
//!
//! Real MPI implementations (MPICH, Open MPI — the runtimes that MPL- and
//! RWTH-style bindings inherit their matching from) do not keep one flat
//! message queue. They keep two, and so does this engine:
//!
//! - the **unexpected-message queue** (UMQ) holds envelopes that arrived
//!   before a matching receive was posted. Here it is an index: a hash
//!   map from `(source, tag)` to a FIFO of envelopes, so the common case
//!   — a receive with both selectors specific — pops in O(1) instead of
//!   linearly scanning past every unrelated message. Wildcard receives
//!   (`Src::Any` / `TagSel::Any`) scan only the *head* of each per-key
//!   FIFO, i.e. O(distinct live (source, tag) pairs), not O(messages).
//! - the **posted-receive queue** (PRQ) holds waiting receivers (and
//!   blocking probes). When an envelope arrives, [`Mailbox::push`]
//!   matches it against the PRQ in posting order and, on a hit, delivers
//!   it *directly into that waiter's slot* and wakes exactly that waiter
//!   via its own condition variable. The envelope never touches the UMQ,
//!   and no other waiter is disturbed — the `notify_all` thundering herd
//!   (every waiter waking to rescan on every push) is gone.
//!
//! Queues are **sharded by communicator context**: each context id maps
//! to its own shard with its own lock, so collective rounds on a
//! dup'd communicator never contend with application point-to-point
//! traffic on the world communicator.
//!
//! # Why matching order survives the index (proof sketch)
//!
//! MPI requires (a) *non-overtaking*: two messages from the same sender
//! matching the same receive are received in send order, and (b) FIFO
//! matching between wildcard and specific receives: a receive matches the
//! *earliest-arrived* envelope its selectors admit.
//!
//! Every envelope is stamped with a per-shard arrival sequence number
//! under the shard lock, so stamps are totally ordered per context and
//! respect per-sender program order (a sender's pushes to one rank
//! happen in program order). Within one `(source, tag)` FIFO, envelopes
//! are therefore in arrival = send order, which gives (a) for fully
//! specific receives directly. A wildcard receive takes the minimum
//! stamp over the matching FIFO *heads*; since each FIFO is
//! arrival-ordered, the minimum over heads is the global
//! earliest-arrived matching envelope, which gives (b) — and (a) as a
//! special case, because the earliest matching envelope from a given
//! source is always that source's FIFO head. Sharding cannot reorder
//! anything: matching never crosses contexts, and stamps are only ever
//! compared within one shard.
//!
//! # Blocking waits: direct delivery
//!
//! A blocking receive or probe first scans the UMQ; on a miss it posts
//! a waiter in the PRQ and parks in the one park of
//! [`crate::completion`], which also owns the interrupt rule. A
//! matching push writes the envelope (or the probe's status) into the
//! waiter's slot and claims the waiter under the same lock. A waiter
//! that observes an interruption deregisters under the shard lock and
//! *re-checks its delivery slot*: a push that matched it concurrently
//! wins, so an already-matched message is delivered, never dropped (MPI
//! completes operations that already matched).
//!
//! # Multi-waiter registrations (the completion subsystem's hook)
//!
//! [`crate::completion`] parks one thread against *many* pending
//! sources at once (`wait_any` over a request set, a pool, a mixed
//! batch of sends and collective engines). Its mailbox hook is the
//! third posted-queue entry kind, the **notification-only**
//! registration (`Mailbox::register_notify`): when a push matches
//! one, the envelope is **not** delivered into the waiter — the waiter
//! is *claimed* (first completion wins; the claim records which
//! registration fired) and woken, and the envelope continues down the
//! normal path into the unexpected queue, where the woken thread's
//! re-test pops it. Because a claim carries no message, cancelling the
//! waiter's other registrations can never lose anything: a push racing
//! a deregistration either finds the entry (claims an already-claimed
//! waiter — a no-op — and drops the dead entry) or does not (the entry
//! was removed first); the envelope is queued and matchable either way.
//! This extends PR 4's cancel-rechecks-the-delivery-slot proof by
//! moving the delivery out of the race entirely; the 500-iteration
//! `completion_racing_deregistration_never_loses` test pins it, and the
//! matching proptests replay randomized push/register/cancel/interrupt
//! interleavings against the oracle to check that registrations are
//! *transparent* to matching order.
//!
//! Interrupts reach every parked waiter through the watcher list (see
//! [`crate::completion`]).
//!
//! The seed implementation — one coarse `Mutex<VecDeque>` with O(n)
//! scans and broadcast wakeups — is preserved verbatim in
//! [`reference`](mod@reference) as the differential-testing oracle and the benchmark
//! baseline (`matching_experiment`).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::completion::{fresh_waiter, Waiter, WaiterSlot};
use crate::error::{MpiError, Result};
use crate::message::{Envelope, Src, Status, TagSel};
use crate::trace;
use crate::{Rank, Tag};

/// FxHash-style multiply-rotate hasher for the hot-path indices. The
/// keys are tiny (`(Rank, Tag)` pairs, context ids) and under the shard
/// lock there is no untrusted input to defend against, so the default
/// SipHash's DoS resistance would be pure overhead — at shallow queue
/// depths the hash itself dominates matching cost.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u32 as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// What a posted waiter is waiting for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PostKind {
    /// A receive: consumes the matching envelope.
    Recv,
    /// A blocking probe: observes the matching envelope's status; the
    /// envelope stays available.
    Peek,
    /// A multi-source registration ([`crate::completion`]): a matching
    /// push *claims* the waiter with this source index and wakes it, but
    /// the envelope is NOT consumed — it continues into the unexpected
    /// queue for the woken thread's re-test to pop.
    Notify(usize),
    /// A *standing* registration: claim-and-wake exactly like
    /// [`PostKind::Notify`], but the entry **survives the fire** — it
    /// stays posted and claims again on the next matching push. This is
    /// the persistent-request / request-set-session hook: register once,
    /// then every `start`/`wait` cycle or `wait_any` call re-parks in
    /// O(1) with zero re-registration (the registration kinds are
    /// listed in [`crate::completion`]). Removed only by explicit
    /// deregistration.
    Standing(usize),
}

/// One entry of the posted-receive queue.
struct Posted {
    src: Src,
    tag: TagSel,
    kind: PostKind,
    waiter: Arc<Waiter>,
}

/// An indexed standing registration (fully-specific selector): the
/// claim target a push finds by `(source, tag)` hash lookup instead of
/// a posted-queue scan.
struct StandingReg {
    slot: usize,
    waiter: Arc<Waiter>,
    /// Wake-only discipline (see [`Mailbox::register_standing`]): claim
    /// only while the waiter is armed. `false` keeps full claim/missed
    /// recording on every matching push.
    wake_only: bool,
}

/// Per-context matching state: the `(source, tag)`-indexed unexpected-
/// message queue and the posted-receive queue.
#[derive(Default)]
struct ShardState {
    /// Arrival stamp source; assigned under the shard lock.
    next_seq: u64,
    /// Unexpected-message queue. Invariant: no empty FIFOs (keys are
    /// removed when drained), so wildcard head-scans touch only live
    /// `(source, tag)` pairs.
    umq: FxMap<(Rank, Tag), VecDeque<(u64, Envelope)>>,
    /// Posted receives and probes, in posting order.
    posted: VecDeque<Posted>,
    /// Standing registrations with fully-specific `(source, tag)`
    /// selectors, indexed for O(1) claim on push. A rank holding many
    /// frozen plans (one standing entry per persistent receive) would
    /// otherwise tax **every** arriving message with a linear scan of
    /// all of them. Wildcard standing registrations stay in `posted`.
    standing_idx: FxMap<(Rank, Tag), Vec<StandingReg>>,
    /// Retired FIFO allocations, reused for new keys. Collective
    /// traffic burns one `(source, tag)` key per peer per operation
    /// (fresh internal tags); without the pool every such key would
    /// allocate a fresh queue buffer.
    pool: Vec<VecDeque<(u64, Envelope)>>,
}

impl ShardState {
    /// Key of the earliest-arrived envelope admitted by the selectors
    /// (wildcard path: scans per-key FIFO heads only).
    fn earliest_key(&self, src: Src, tag: TagSel) -> Option<(Rank, Tag)> {
        let mut best: Option<(u64, (Rank, Tag))> = None;
        for (&key, q) in &self.umq {
            if !src.admits(key.0) || !tag.admits(key.1) {
                continue;
            }
            let &(seq, _) = q.front().expect("drained UMQ keys are removed");
            if best.is_none_or(|(b, _)| seq < b) {
                best = Some((seq, key));
            }
        }
        best.map(|(_, k)| k)
    }

    /// Removes and returns the first matching envelope (tagged with its
    /// arrival seq), if any.
    fn pop_match(&mut self, src: Src, tag: TagSel) -> Option<(u64, Envelope)> {
        let key = match (src, tag) {
            // Fully specific: O(1) index hit.
            (Src::Rank(r), TagSel::Is(t)) => (r, t),
            _ => self.earliest_key(src, tag)?,
        };
        // One hash op for lookup, pop and removal via the entry API.
        let std::collections::hash_map::Entry::Occupied(mut o) = self.umq.entry(key) else {
            return None;
        };
        let (seq, env) = o
            .get_mut()
            .pop_front()
            .expect("drained UMQ keys are removed");
        if o.get().is_empty() {
            let q = o.remove();
            if self.pool.len() < 64 {
                self.pool.push(q);
            }
        }
        Some((seq, env))
    }

    /// Indexes an unexpected envelope, reusing a pooled FIFO buffer for
    /// a new key.
    fn enqueue(&mut self, seq: u64, env: Envelope) {
        let q = match self.umq.entry((env.src, env.tag)) {
            std::collections::hash_map::Entry::Occupied(o) => o.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(self.pool.pop().unwrap_or_default())
            }
        };
        q.push_back((seq, env));
    }

    /// Status of the first matching envelope without removing it.
    fn peek_match(&self, src: Src, tag: TagSel) -> Option<Status> {
        let q = match (src, tag) {
            (Src::Rank(r), TagSel::Is(t)) => self.umq.get(&(r, t))?,
            _ => &self.umq[&self.earliest_key(src, tag)?],
        };
        let (_, env) = q.front().expect("drained UMQ keys are removed");
        Some(Status {
            source: env.src,
            tag: env.tag,
            bytes: env.payload.len(),
        })
    }
}

#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
}

/// Diagnostics of one rank's matching engine: live through
/// [`crate::Comm::mailbox_stats`], whole-run in
/// [`RankStats::mailbox`](crate::RankStats::mailbox) of
/// [`crate::Universe::run_report`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Messages currently queued as unexpected (all contexts).
    pub queued: usize,
    /// High-water mark of the unexpected-queue depth — the matching
    /// pressure: how far senders ran ahead of this rank's receives.
    pub max_unexpected_depth: usize,
    /// Number of envelopes delivered straight into a posted waiter's
    /// slot (each such delivery wakes exactly that one waiter).
    pub targeted_wakeups: u64,
    /// Number of pushes that claimed a parked multi-source waiter
    /// ([`crate::completion`]): each claim wakes exactly that one
    /// waiter, exactly once — the waiter's remaining registrations go
    /// silent.
    pub multi_wakeups: u64,
    /// Wakeups of parked waiters that delivered no completion claim
    /// (interruption-epoch re-checks), over every park: completion
    /// waits, blocking receives and probes, and agreements. Bounded by
    /// the number of interruption events — there is no timer to wake
    /// anybody.
    pub spurious_wakeups: u64,
    /// High-water mark of concurrently parked waiters, over every park:
    /// completion waits, blocking receives and probes, and agreements.
    pub max_parked: usize,
    /// Total waiter registrations inserted into posted queues (notify +
    /// standing): the zero-re-registration pin for persistent and pool
    /// steady states.
    pub notify_registrations: u64,
    /// Live per-context shard allocations, including the world shard.
    /// Shards are created on first use per context that carried traffic
    /// or posted a receive; [`crate::Comm::free`] reclaims a derived
    /// context's shard, so dup/split-heavy workloads that free their
    /// communicators hold this gauge flat.
    pub shard_count: usize,
    /// Total envelopes ever pushed into this rank's engine — the
    /// message-count meter: a sparse neighborhood exchange must grow it
    /// by the rank's in-degree per round where a dense alltoallv grows
    /// it by p-1.
    pub envelopes_posted: u64,
}

/// A rank's matching engine: per-context shards of the two-queue
/// structure described in the [module docs](self).
#[derive(Default)]
pub struct Mailbox {
    /// The world communicator's shard (context 0), reached without
    /// touching the shard map — the hot path for every universe.
    world_shard: Arc<Shard>,
    /// Shards of derived communicators (dup/split contexts).
    shards: RwLock<FxMap<u64, Arc<Shard>>>,
    /// Unexpected messages across all shards (O(1) `len`).
    queued: AtomicUsize,
    /// High-water mark of `queued`.
    max_depth: AtomicUsize,
    /// Direct posted-waiter deliveries (receives and probes).
    wakeups: AtomicU64,
    /// Claims of parked multi-source waiters (see [`crate::completion`]).
    multi_wakeups: AtomicU64,
    /// Parked wakeups that carried no claim (epoch re-checks).
    spurious: AtomicU64,
    /// Parked waiters right now, and the high-water mark.
    parked_now: AtomicUsize,
    max_parked: AtomicUsize,
    /// Every waiter parked on this mailbox ([`Waiter::park`]): the one
    /// list [`Mailbox::interrupt`] wakes.
    watchers: Mutex<Vec<Arc<Waiter>>>,
    /// Interruption epoch; bumped by [`Mailbox::interrupt`].
    epoch: AtomicU64,
    /// Waiter registrations inserted into posted queues (notify +
    /// standing). The O(1)-amortized-re-park pins count this: a
    /// steady-state persistent/pool cycle must not move it.
    registrations: AtomicU64,
    /// Total envelopes ever pushed (delivered targeted *or* queued) —
    /// the per-rank message count the neighborhood bench pins.
    envelopes: AtomicU64,
}

impl Mailbox {
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// The shard of `context`, created on first use (receivers may post
    /// before the first message of a context arrives, and vice versa).
    fn shard(&self, context: u64) -> Arc<Shard> {
        if context == 0 {
            return Arc::clone(&self.world_shard);
        }
        if let Some(s) = self.shards.read().get(&context) {
            return Arc::clone(s);
        }
        Arc::clone(self.shards.write().entry(context).or_default())
    }

    /// The shard of `context` if it exists (the non-blocking paths never
    /// create shards).
    fn existing_shard(&self, context: u64) -> Option<Arc<Shard>> {
        if context == 0 {
            return Some(Arc::clone(&self.world_shard));
        }
        self.shards.read().get(&context).cloned()
    }

    /// Delivers an envelope: hands it directly to the first matching
    /// posted receiver (waking exactly that waiter) or, if none is
    /// posted, indexes it into the unexpected-message queue. Matching
    /// blocking probes observe the envelope's status on the way.
    pub fn push(&self, env: Envelope) {
        crate::fault::point("mailbox/push");
        self.envelopes.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(env.context);
        let mut st = shard.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        // Indexed standing registrations first: one hash lookup claims
        // every registered waiter for this exact `(source, tag)`.
        // Claims are wake-only (the envelope is not consumed here), so
        // firing them before the posted-queue scan cannot reroute the
        // message; at worst a posted receive below consumes it and the
        // claimed waiter's re-test comes up empty — the documented
        // claims-never-carry-messages contract.
        if let Some(regs) = st.standing_idx.get(&(env.src, env.tag)) {
            for reg in regs {
                // Wake-only registrations are claimed only while the
                // owner is actually waiting: a busy owner re-tests the
                // queues anyway, so firing a claim at it would cost a
                // waiter lock and a wakeup per message for nothing.
                if reg.wake_only && !reg.waiter.armed.load(Ordering::SeqCst) {
                    continue;
                }
                self.claim(&reg.waiter, reg.slot, seq);
            }
        }
        // Posted-receive queue next, in posting order: every matching
        // probe is fulfilled (the message stays available); the first
        // matching receive consumes the envelope — it never touches the
        // UMQ and nobody else is woken.
        let mut i = 0;
        while i < st.posted.len() {
            let p = &st.posted[i];
            if !env.matches(env.context, p.src, p.tag) {
                i += 1;
                continue;
            }
            if let PostKind::Standing(slot) = p.kind {
                // Wildcard standing registration: claim-or-miss exactly
                // like Notify below, but the entry is NOT removed — it
                // keeps claiming for every future matching push, so
                // persistent cycles never re-register. The envelope
                // stays live. (Fully-specific standing registrations
                // were already claimed through `standing_idx` above.)
                self.claim(&p.waiter, slot, seq);
                i += 1;
                continue;
            }
            // Entry `i` is removed: the scan continues at the same
            // index unless a receive consumes the envelope.
            let p = st.posted.remove(i).expect("index in bounds");
            match p.kind {
                PostKind::Peek => {
                    let status = Status {
                        source: env.src,
                        tag: env.tag,
                        bytes: env.payload.len(),
                    };
                    p.waiter.claim_delivering(0, |w| w.status = Some(status));
                    self.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                PostKind::Recv => {
                    trace::instant(trace::cat::MATCH, "targeted_wakeup", seq, env.src as u64);
                    p.waiter.claim_delivering(0, |w| w.env = Some(env));
                    self.wakeups.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // Notification-only: claim-or-miss, and the envelope
                // stays live — it falls through to the unexpected queue
                // (or a later posted receive) for the woken thread's
                // re-test.
                PostKind::Notify(slot) => self.claim(&p.waiter, slot, seq),
                PostKind::Standing(_) => unreachable!("standing entries are never removed above"),
            }
        }
        st.enqueue(seq, env);
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
        trace::umq_enqueue(seq, depth as u64);
    }

    /// Claim-or-miss on a registered waiter (`Waiter::claim`, counted
    /// and traced): the first completion claims and wakes it; later
    /// ones land in its missed list for the owner's next park. Claims
    /// never carry messages — the woken thread re-tests against the
    /// queues.
    fn claim(&self, waiter: &Waiter, slot: usize, seq: u64) {
        if waiter.claim(slot) {
            self.multi_wakeups.fetch_add(1, Ordering::Relaxed);
            trace::instant(trace::cat::COMPLETION, "claim", slot as u64, seq);
        } else {
            trace::instant(
                trace::cat::COMPLETION,
                "missed_completion",
                slot as u64,
                seq,
            );
        }
    }

    /// Bumps the interruption epoch, then wakes every watcher — every
    /// thread parked on this mailbox — without delivering anything, so
    /// it re-checks interruption conditions (failure / revocation).
    /// Each wakeup is issued while holding that waiter's lock; with the
    /// parkers' capture-epoch-then-check protocol this guarantees no
    /// waiter misses the interrupt (see [`crate::completion`]).
    pub fn interrupt(&self) {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        trace::instant(trace::cat::ULFM, "epoch_bump", epoch, 0);
        for w in self.watchers.lock().iter() {
            let _g = w.state.lock();
            w.cond.notify_one();
        }
    }

    // ----- completion-subsystem hooks (see `crate::completion`) ----------

    /// Current interruption epoch (captured by parked waits before
    /// their availability checks).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Registers `waiter` for a claim-and-wake when a message matching
    /// `(context, src, tag)` arrives. Returns `true` — without
    /// registering — if a matching message is *already* queued: the
    /// check and the registration happen under the shard lock pushes
    /// take, so no arrival can fall between them.
    pub(crate) fn register_notify(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        waiter: &Arc<Waiter>,
        slot: usize,
    ) -> bool {
        let shard = self.shard(context);
        let mut st = shard.state.lock();
        if st.peek_match(src, tag).is_some() {
            return true;
        }
        st.posted.push_back(Posted {
            src,
            tag,
            kind: PostKind::Notify(slot),
            waiter: Arc::clone(waiter),
        });
        self.registrations.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Registers a **standing** claim-and-wake: like
    /// [`Mailbox::register_notify`] but the entry survives every fire —
    /// it keeps claiming until explicitly deregistered, so persistent
    /// `start`/`wait` cycles and pool re-parks touch the posted queue
    /// zero times in the steady state. The registration is *always*
    /// inserted; the return value reports whether a matching message was
    /// already queued at registration time (the caller must re-test,
    /// since no claim fires for messages that arrived earlier). The
    /// check and the insertion happen under the shard lock pushes take.
    ///
    /// `wake_only` opts into the armed-flag discipline
    /// ([`Waiter::armed`]): pushes claim the waiter only while its
    /// owner is waiting. Legal only for owners that re-test the queues
    /// on every pass and never read claims as completion records
    /// (persistent and partitioned requests); owners that rely on
    /// claim/missed recording (a request set's session, see
    /// [`crate::completion`]) must pass `false`. Wildcard selectors
    /// keep claim-always behavior regardless — only indexed
    /// (fully-specific) entries check the flag.
    pub(crate) fn register_standing(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        waiter: &Arc<Waiter>,
        slot: usize,
        wake_only: bool,
    ) -> bool {
        let shard = self.shard(context);
        let mut st = shard.state.lock();
        let already_queued = st.peek_match(src, tag).is_some();
        if let (Src::Rank(r), TagSel::Is(t)) = (src, tag) {
            // Fully-specific selector: indexed, so steady-state pushes
            // claim it by hash lookup instead of scanning every frozen
            // plan's entry.
            st.standing_idx
                .entry((r, t))
                .or_default()
                .push(StandingReg {
                    slot,
                    waiter: Arc::clone(waiter),
                    wake_only,
                });
        } else {
            st.posted.push_back(Posted {
                src,
                tag,
                kind: PostKind::Standing(slot),
                waiter: Arc::clone(waiter),
            });
        }
        self.registrations.fetch_add(1, Ordering::Relaxed);
        already_queued
    }

    /// Removes every notify *and* standing registration of `waiter` in
    /// `context`. A push racing this either claimed the waiter before
    /// the entry vanished (the message is queued and matchable) or finds
    /// no entry (same); nothing is ever lost.
    pub(crate) fn deregister_notify(&self, context: u64, waiter: &Arc<Waiter>) {
        let Some(shard) = self.existing_shard(context) else {
            return;
        };
        let mut st = shard.state.lock();
        st.posted.retain(|p| {
            !(matches!(p.kind, PostKind::Notify(_) | PostKind::Standing(_))
                && Arc::ptr_eq(&p.waiter, waiter))
        });
        st.standing_idx.retain(|_, regs| {
            regs.retain(|r| !Arc::ptr_eq(&r.waiter, waiter));
            !regs.is_empty()
        });
    }

    /// Removes `waiter`'s notify/standing registrations carrying `slot`
    /// in `context`, leaving its other slots registered (a request
    /// set's session retires one completed receive without disturbing
    /// the rest).
    pub(crate) fn deregister_slot(&self, context: u64, waiter: &Arc<Waiter>, slot: usize) {
        let Some(shard) = self.existing_shard(context) else {
            return;
        };
        let mut st = shard.state.lock();
        st.posted.retain(|p| {
            !(matches!(p.kind, PostKind::Notify(s) | PostKind::Standing(s) if s == slot)
                && Arc::ptr_eq(&p.waiter, waiter))
        });
        st.standing_idx.retain(|_, regs| {
            regs.retain(|r| !(r.slot == slot && Arc::ptr_eq(&r.waiter, waiter)));
            !regs.is_empty()
        });
    }

    /// Removes the one registration `register_standing(context, src,
    /// tag, waiter, slot, ..)` made: by `(source, tag)` lookup for a
    /// fully-specific selector — retiring one of a set's many receives
    /// must not cost a scan of all the others' entries — and through
    /// [`Mailbox::deregister_slot`] otherwise.
    pub(crate) fn retire_standing(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        waiter: &Arc<Waiter>,
        slot: usize,
    ) {
        let (Src::Rank(r), TagSel::Is(t)) = (src, tag) else {
            return self.deregister_slot(context, waiter, slot);
        };
        let Some(shard) = self.existing_shard(context) else {
            return;
        };
        let mut st = shard.state.lock();
        if let std::collections::hash_map::Entry::Occupied(mut regs) = st.standing_idx.entry((r, t))
        {
            regs.get_mut()
                .retain(|reg| !(reg.slot == slot && Arc::ptr_eq(&reg.waiter, waiter)));
            if regs.get().is_empty() {
                regs.remove();
            }
        }
    }

    /// Adds a parking waiter ([`Waiter::park`]) to the interrupt watcher
    /// list and maintains the parked-waiter gauges.
    pub(crate) fn watch(&self, waiter: &Arc<Waiter>) {
        self.watchers.lock().push(Arc::clone(waiter));
        let now = self.parked_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_parked.fetch_max(now, Ordering::Relaxed);
    }

    /// Removes a waiter from the interrupt watcher list.
    pub(crate) fn unwatch(&self, waiter: &Arc<Waiter>) {
        self.watchers.lock().retain(|w| !Arc::ptr_eq(w, waiter));
        self.parked_now.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts a parked wakeup that carried no completion claim. Such a
    /// wakeup may record no event of its own, so it also answers any
    /// pending live-snapshot request.
    pub(crate) fn record_spurious(&self) {
        self.spurious.fetch_add(1, Ordering::Relaxed);
        trace::instant(trace::cat::COMPLETION, "spurious_wakeup", 0, 0);
        trace::poll_publish();
    }

    /// Removes and returns the first matching envelope, if any.
    pub fn try_match(&self, context: u64, src: Src, tag: TagSel) -> Option<Envelope> {
        let shard = self.existing_shard(context)?;
        let (seq, env) = shard.state.lock().pop_match(src, tag)?;
        self.queued.fetch_sub(1, Ordering::Relaxed);
        trace::instant(trace::cat::MATCH, "umq_match", seq, env.src as u64);
        Some(env)
    }

    /// Returns the status of the first matching envelope without
    /// removing it (probe semantics).
    pub fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status> {
        let shard = self.existing_shard(context)?;
        let st = shard.state.lock();
        st.peek_match(src, tag)
    }

    /// Blocks until a matching envelope arrives and removes it.
    ///
    /// `interrupted` is evaluated whenever the epoch protocol wakes the
    /// waiter; returning `Some(err)` aborts the wait. It is checked
    /// *after* the queue scan (and after the delivery slot on
    /// interruption), so a message that has already arrived — or already
    /// matched this waiter — from a subsequently-failed sender is still
    /// delivered (MPI completes operations that already matched).
    pub fn wait_match(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        interrupted: impl FnMut() -> Option<MpiError>,
    ) -> Result<Envelope> {
        crate::fault::point("mailbox/match");
        let scan = |st: &mut ShardState| {
            let (seq, env) = st.pop_match(src, tag)?;
            self.queued.fetch_sub(1, Ordering::Relaxed);
            trace::instant(trace::cat::MATCH, "umq_match", seq, env.src as u64);
            Some(env)
        };
        let post = (src, tag, PostKind::Recv);
        self.posted_wait(context, post, interrupted, scan, |w| w.env.take())
    }

    /// Blocks until a matching envelope arrives; returns its status and
    /// leaves the message queued (blocking probe).
    pub fn wait_peek(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        interrupted: impl FnMut() -> Option<MpiError>,
    ) -> Result<Status> {
        let scan = |st: &mut ShardState| st.peek_match(src, tag);
        let post = (src, tag, PostKind::Peek);
        self.posted_wait(context, post, interrupted, scan, |w| w.status.take())
    }

    /// The one posted wait behind [`Mailbox::wait_match`] and
    /// [`Mailbox::wait_peek`]: `scan` the queue under the shard lock;
    /// on a miss post the `(src, tag, kind)` entry and [`Waiter::park`]
    /// until a push's direct delivery claims the waiter (`take` reads
    /// the slot) or an interrupt makes `interrupted` report an error.
    fn posted_wait<T>(
        &self,
        context: u64,
        (src, tag, kind): (Src, TagSel, PostKind),
        mut interrupted: impl FnMut() -> Option<MpiError>,
        scan: impl FnOnce(&mut ShardState) -> Option<T>,
        take: impl Fn(&mut WaiterSlot) -> Option<T>,
    ) -> Result<T> {
        let shard = self.shard(context);
        // The epoch must be captured before the interruption check: an
        // interrupt bumps the epoch before waking, so a condition raised
        // after this load is caught by `park`'s epoch comparison, and
        // one raised before it is caught by `interrupted()`.
        let mut seen_epoch = self.epoch();
        let waiter = {
            let mut st = shard.state.lock();
            if let Some(hit) = scan(&mut st) {
                return Ok(hit);
            }
            if let Some(err) = interrupted() {
                return Err(err);
            }
            let waiter = fresh_waiter();
            st.posted.push_back(Posted {
                src,
                tag,
                kind,
                waiter: Arc::clone(&waiter),
            });
            waiter
        };
        let delivered = || take(&mut waiter.state.lock()).expect("claimed by its direct delivery");
        loop {
            if waiter.park(self, seen_epoch).fired.is_some() {
                return Ok(delivered());
            }
            seen_epoch = self.epoch();
            if let Some(err) = interrupted() {
                // Deregister — but a concurrent push may have fulfilled
                // the waiter already; the delivery slot decides.
                return if self.cancel(&shard, &waiter) {
                    Err(err)
                } else {
                    Ok(delivered())
                };
            }
        }
    }

    /// Deregisters a posted waiter. Returns `true` if the entry was
    /// still posted (nothing was delivered; removing it cannot lose a
    /// message), `false` if a push got there first — its delivery is
    /// then already in the slot, written under the shard lock this
    /// call just took.
    fn cancel(&self, shard: &Shard, waiter: &Arc<Waiter>) -> bool {
        let mut st = shard.state.lock();
        let pos = st
            .posted
            .iter()
            .position(|p| Arc::ptr_eq(&p.waiter, waiter));
        pos.and_then(|pos| st.posted.remove(pos)).is_some()
    }

    /// Number of unexpected (queued) messages across all contexts. O(1):
    /// maintained counter, no locks. Diagnostic only.
    pub fn len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// True if no messages are queued. O(1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reclaims the shard of a freed derived context
    /// ([`crate::Comm::free`]). Messages still queued on the context
    /// (none, after a correct collective free) leave the global gauge
    /// with it; the world shard (context 0) is never removed.
    pub(crate) fn remove_shard(&self, context: u64) {
        if context == 0 {
            return;
        }
        let Some(shard) = self.shards.write().remove(&context) else {
            return;
        };
        let leftover: usize = shard.state.lock().umq.values().map(|q| q.len()).sum();
        if leftover > 0 {
            self.queued.fetch_sub(leftover, Ordering::Relaxed);
        }
    }

    /// Releases everything a **dead** rank's engine holds: every derived-
    /// context shard, plus the world shard's queues and registrations.
    /// Called by the survivors of [`Comm::shrink`](crate::Comm::shrink)
    /// — buffered sends to a failed rank succeed by design, so its
    /// unexpected queues would otherwise pin payload memory for the rest
    /// of the run. Idempotent and safe to race: the owner thread is gone,
    /// so nothing is parked on the dropped waiters, and a straggler push
    /// at worst re-creates an empty shard.
    pub(crate) fn purge(&self) {
        let contexts: Vec<u64> = self.shards.read().keys().copied().collect();
        for c in contexts {
            self.remove_shard(c);
        }
        let drained: usize = {
            let mut st = self.world_shard.state.lock();
            let n = st.umq.values().map(|q| q.len()).sum();
            st.umq.clear();
            st.posted.clear();
            st.standing_idx.clear();
            n
        };
        if drained > 0 {
            self.queued.fetch_sub(drained, Ordering::Relaxed);
        }
    }

    /// Snapshot of the engine's diagnostics — the one reader of its
    /// counters (each field is documented on [`MailboxStats`]).
    pub fn stats(&self) -> MailboxStats {
        MailboxStats {
            queued: self.len(),
            max_unexpected_depth: self.max_depth.load(Ordering::Relaxed),
            targeted_wakeups: self.wakeups.load(Ordering::Relaxed),
            multi_wakeups: self.multi_wakeups.load(Ordering::Relaxed),
            spurious_wakeups: self.spurious.load(Ordering::Relaxed),
            max_parked: self.max_parked.load(Ordering::Relaxed),
            notify_registrations: self.registrations.load(Ordering::Relaxed),
            shard_count: self.shards.read().len() + 1,
            envelopes_posted: self.envelopes.load(Ordering::Relaxed),
        }
    }
}

pub mod reference {
    //! The seed mailbox: one coarse queue, linear-scan matching,
    //! broadcast wakeups, 50 ms timed-wait safety net.
    //!
    //! Kept (verbatim, minus the counters the engine grew) for two jobs:
    //! it is the *oracle* the property tests replay randomized
    //! push/match interleavings against — the linear scan over one FIFO
    //! is trivially correct for MPI's matching laws, so any divergence
    //! convicts the indexed engine — and it is the *baseline* the
    //! `matching_experiment` benchmark measures the engine's speedup
    //! over.

    use std::collections::VecDeque;

    use parking_lot::{Condvar, Mutex};

    use crate::error::{MpiError, Result};
    use crate::message::{Envelope, Src, Status, TagSel};

    /// The seed implementation: linear scan over one coarse FIFO.
    #[derive(Default)]
    pub struct ScanMailbox {
        queue: Mutex<VecDeque<Envelope>>,
        cond: Condvar,
    }

    impl ScanMailbox {
        pub fn new() -> Self {
            ScanMailbox::default()
        }

        /// Delivers an envelope and wakes every waiting receiver.
        pub fn push(&self, env: Envelope) {
            let mut q = self.queue.lock();
            q.push_back(env);
            self.cond.notify_all();
        }

        /// Wakes all waiters so they can re-check interruption.
        pub fn interrupt(&self) {
            let _q = self.queue.lock();
            self.cond.notify_all();
        }

        /// Removes and returns the first matching envelope, if any.
        pub fn try_match(&self, context: u64, src: Src, tag: TagSel) -> Option<Envelope> {
            let mut q = self.queue.lock();
            let idx = q.iter().position(|e| e.matches(context, src, tag))?;
            q.remove(idx)
        }

        /// Status of the first matching envelope, without removing it.
        pub fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status> {
            let q = self.queue.lock();
            q.iter()
                .find(|e| e.matches(context, src, tag))
                .map(|e| Status {
                    source: e.src,
                    tag: e.tag,
                    bytes: e.payload.len(),
                })
        }

        /// Blocks until a matching envelope arrives and removes it.
        pub fn wait_match(
            &self,
            context: u64,
            src: Src,
            tag: TagSel,
            mut interrupted: impl FnMut() -> Option<MpiError>,
        ) -> Result<Envelope> {
            let mut q = self.queue.lock();
            loop {
                if let Some(idx) = q.iter().position(|e| e.matches(context, src, tag)) {
                    return Ok(q.remove(idx).expect("index valid under lock"));
                }
                if let Some(err) = interrupted() {
                    return Err(err);
                }
                // The poll safety net the engine retired: a bounded wait
                // kept missed wakeups from hanging forever — at the cost
                // of a 50 ms latency floor whenever one was missed.
                self.cond
                    .wait_for(&mut q, std::time::Duration::from_millis(50));
            }
        }

        /// Blocking probe.
        pub fn wait_peek(
            &self,
            context: u64,
            src: Src,
            tag: TagSel,
            mut interrupted: impl FnMut() -> Option<MpiError>,
        ) -> Result<Status> {
            let mut q = self.queue.lock();
            loop {
                if let Some(e) = q.iter().find(|e| e.matches(context, src, tag)) {
                    return Ok(Status {
                        source: e.src,
                        tag: e.tag,
                        bytes: e.payload.len(),
                    });
                }
                if let Some(err) = interrupted() {
                    return Err(err);
                }
                self.cond
                    .wait_for(&mut q, std::time::Duration::from_millis(50));
            }
        }

        /// Number of queued messages (O(n) lock-and-count).
        pub fn len(&self) -> usize {
            self.queue.lock().len()
        }

        /// True if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.queue.lock().is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn env(src: usize, context: u64, tag: i32, bytes: usize) -> Envelope {
        Envelope {
            src,
            src_world: src,
            context,
            tag,
            payload: Bytes::from(vec![0u8; bytes]),
            arrival_ns: 0,
            ack: None,
        }
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5, 1));
        mb.push(env(0, 1, 5, 2));
        let a = mb.try_match(1, Src::Rank(0), TagSel::Is(5)).unwrap();
        let b = mb.try_match(1, Src::Rank(0), TagSel::Is(5)).unwrap();
        assert_eq!(a.payload.len(), 1);
        assert_eq!(b.payload.len(), 2);
    }

    #[test]
    fn matching_skips_non_matching() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5, 1));
        mb.push(env(2, 1, 7, 2));
        let m = mb.try_match(1, Src::Rank(2), TagSel::Any).unwrap();
        assert_eq!(m.src, 2);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn wildcard_matches_in_arrival_order_across_sources() {
        let mb = Mailbox::new();
        mb.push(env(3, 1, 9, 1));
        mb.push(env(1, 1, 4, 2));
        mb.push(env(3, 1, 2, 3));
        // Any/Any must deliver by global arrival order even though the
        // envelopes live in three different (source, tag) FIFOs.
        let order: Vec<(usize, i32)> = (0..3)
            .map(|_| {
                let e = mb.try_match(1, Src::Any, TagSel::Any).unwrap();
                (e.src, e.tag)
            })
            .collect();
        assert_eq!(order, vec![(3, 9), (1, 4), (3, 2)]);
        assert!(mb.is_empty());
    }

    #[test]
    fn contexts_are_sharded_independently() {
        let mb = Mailbox::new();
        mb.push(env(0, 1, 5, 1));
        mb.push(env(0, 2, 5, 2));
        assert!(mb.try_match(3, Src::Any, TagSel::Any).is_none());
        let c2 = mb.try_match(2, Src::Rank(0), TagSel::Is(5)).unwrap();
        assert_eq!(c2.payload.len(), 2);
        let c1 = mb.try_match(1, Src::Rank(0), TagSel::Is(5)).unwrap();
        assert_eq!(c1.payload.len(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let mb = Mailbox::new();
        mb.push(env(3, 1, 9, 4));
        let s = mb.try_peek(1, Src::Any, TagSel::Any).unwrap();
        assert_eq!(
            s,
            Status {
                source: 3,
                tag: 9,
                bytes: 4
            }
        );
        assert_eq!(mb.len(), 1);
        assert!(mb.try_match(1, Src::Rank(3), TagSel::Is(9)).is_some());
        assert!(mb.is_empty());
    }

    #[test]
    fn wait_match_blocks_until_push() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || {
            mb2.wait_match(1, Src::Rank(0), TagSel::Is(1), || None)
                .unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        mb.push(env(0, 1, 1, 8));
        let got = h.join().unwrap();
        assert_eq!(got.payload.len(), 8);
    }

    #[test]
    fn posted_receive_bypasses_the_queue() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || {
            mb2.wait_match(1, Src::Rank(0), TagSel::Is(1), || None)
                .unwrap()
        });
        // Wait until the receiver is registered in the PRQ, then pile
        // on non-matching noise.
        while mb
            .shards
            .read()
            .get(&1)
            .is_none_or(|s| s.state.lock().posted.is_empty())
        {
            std::thread::yield_now();
        }
        for _ in 0..3 {
            mb.push(env(9, 1, 9, 1));
        }
        mb.push(env(0, 1, 1, 8));
        h.join().unwrap();
        // The matching envelope was handed straight to the waiter: only
        // the noise is queued, and exactly one targeted wakeup fired.
        assert_eq!(mb.stats().targeted_wakeups, 1);
        assert_eq!(mb.len(), 3);
        assert_eq!(mb.stats().max_unexpected_depth, 3);
    }

    #[test]
    fn single_push_wakes_exactly_one_of_n_specific_waiters() {
        const N: i32 = 8;
        let mb = std::sync::Arc::new(Mailbox::new());
        let done = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..N)
            .map(|t| {
                let mb = mb.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let e = mb
                        .wait_match(1, Src::Rank(0), TagSel::Is(t), || None)
                        .unwrap();
                    done.fetch_add(1, Ordering::SeqCst);
                    e.tag
                })
            })
            .collect();
        // Wait until all N waiters are posted (no message queued yet).
        while mb
            .shards
            .read()
            .get(&1)
            .is_none_or(|s| s.state.lock().posted.len() < N as usize)
        {
            std::thread::yield_now();
        }
        mb.push(env(0, 1, 3, 1));
        // Exactly one waiter (tag 3) completes; one targeted wakeup, no
        // broadcast. The others stay asleep.
        while done.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(mb.stats().targeted_wakeups, 1);
        assert!(mb.is_empty(), "the envelope went straight to its waiter");
        for t in 0..N {
            if t != 3 {
                mb.push(env(0, 1, t, 1));
            }
        }
        let mut tags: Vec<i32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..N).collect::<Vec<_>>());
        assert_eq!(mb.stats().targeted_wakeups, N as u64);
    }

    #[test]
    fn wait_match_interruptible() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let f2 = flag.clone();
        let h = std::thread::spawn(move || {
            mb2.wait_match(1, Src::Rank(0), TagSel::Is(1), || {
                f2.load(std::sync::atomic::Ordering::SeqCst)
                    .then_some(MpiError::Revoked)
            })
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
        mb.interrupt();
        assert!(matches!(h.join().unwrap(), Err(MpiError::Revoked)));
    }

    #[test]
    fn wait_peek_interruptible_and_fulfillable() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h =
            std::thread::spawn(move || mb2.wait_peek(1, Src::Any, TagSel::Any, || None).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(5));
        mb.push(env(2, 1, 6, 3));
        let st = h.join().unwrap();
        assert_eq!(
            st,
            Status {
                source: 2,
                tag: 6,
                bytes: 3
            }
        );
        // Probe does not consume: the envelope was queued after the peek.
        assert_eq!(mb.len(), 1);
        assert!(mb.try_match(1, Src::Rank(2), TagSel::Is(6)).is_some());
    }

    #[test]
    fn queued_message_beats_interruption() {
        // A message that already arrived is delivered even if the
        // interruption condition holds (matches MPI completion semantics).
        let mb = Mailbox::new();
        mb.push(env(0, 1, 1, 3));
        let r = mb.wait_match(1, Src::Rank(0), TagSel::Is(1), || Some(MpiError::Revoked));
        assert!(r.is_ok());
    }

    #[test]
    fn interruption_racing_push_never_hangs_or_drops() {
        // The satellite regression: a revocation raised concurrently
        // with a matching push must neither hang the waiter (there is no
        // 50 ms poll to paper over a lost wakeup any more) nor lose the
        // message. Every iteration must end in exactly one of:
        //   Ok(env)                      — the push won the race;
        //   Err(..) with the message queued — the interrupt won; the
        //                                  envelope stays matchable.
        for i in 0..500u64 {
            let mb = std::sync::Arc::new(Mailbox::new());
            let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let (mb2, f2) = (mb.clone(), flag.clone());
            let waiter = std::thread::spawn(move || {
                mb2.wait_match(7, Src::Rank(0), TagSel::Is(1), || {
                    f2.load(std::sync::atomic::Ordering::SeqCst)
                        .then_some(MpiError::Revoked)
                })
            });
            let (mb3, f3) = (mb.clone(), flag.clone());
            let revoker = std::thread::spawn(move || {
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                f3.store(true, std::sync::atomic::Ordering::SeqCst);
                mb3.interrupt();
            });
            let mb4 = mb.clone();
            let pusher = std::thread::spawn(move || {
                if i % 2 == 0 {
                    std::thread::yield_now();
                }
                mb4.push(env(0, 7, 1, 5));
            });
            revoker.join().unwrap();
            pusher.join().unwrap();
            match waiter.join().unwrap() {
                Ok(e) => {
                    assert_eq!(e.payload.len(), 5);
                    assert!(mb.is_empty(), "iteration {i}: delivered AND queued");
                }
                Err(MpiError::Revoked) => {
                    // The push must still be matchable — never dropped.
                    let e = mb
                        .try_match(7, Src::Rank(0), TagSel::Is(1))
                        .unwrap_or_else(|| panic!("iteration {i}: message dropped"));
                    assert_eq!(e.payload.len(), 5);
                }
                Err(other) => panic!("iteration {i}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn single_push_wakes_exactly_one_multi_waiter() {
        // The multi-waiter pin: N threads each park with TWO notify
        // registrations (a multi-source wait). One matching push claims
        // exactly one waiter, via exactly one of its registrations, and
        // consumes nothing.
        use crate::completion::fresh_waiter;
        const N: i32 = 6;
        let mb = std::sync::Arc::new(Mailbox::new());
        let woken = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..N)
            .map(|t| {
                let mb = mb.clone();
                let woken = woken.clone();
                std::thread::spawn(move || {
                    let w = fresh_waiter();
                    mb.watch(&w);
                    assert!(!mb.register_notify(1, Src::Rank(0), TagSel::Is(t), &w, 0));
                    assert!(!mb.register_notify(1, Src::Rank(1), TagSel::Is(t), &w, 1));
                    let fired = {
                        let mut st = w.state.lock();
                        loop {
                            if let Some(slot) = st.fired {
                                break slot;
                            }
                            w.cond.wait(&mut st);
                        }
                    };
                    mb.deregister_notify(1, &w);
                    mb.unwatch(&w);
                    woken.fetch_add(1, Ordering::SeqCst);
                    (t, fired)
                })
            })
            .collect();
        // Wait until all 2N registrations are posted.
        while mb
            .shards
            .read()
            .get(&1)
            .is_none_or(|s| s.state.lock().posted.len() < 2 * N as usize)
        {
            std::thread::yield_now();
        }
        assert_eq!(mb.stats().max_parked, N as usize);
        mb.push(env(1, 1, 3, 9));
        while woken.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        // Exactly one waiter woke (tag 3, via its source-1 slot); the
        // envelope was NOT consumed — notify registrations only point.
        assert_eq!(woken.load(Ordering::SeqCst), 1);
        assert_eq!(mb.stats().multi_wakeups, 1);
        assert_eq!(mb.len(), 1, "notify never consumes the envelope");
        for t in 0..N {
            if t != 3 {
                mb.push(env(0, 1, t, 1));
            }
        }
        let mut fired: Vec<(i32, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        fired.sort_unstable();
        for (t, slot) in fired {
            // Tag 3 was pushed from rank 1 (slot 1); the rest from
            // rank 0 (slot 0): the claim names the source that fired.
            assert_eq!(slot, usize::from(t == 3), "tag {t}");
        }
        assert_eq!(mb.stats().multi_wakeups, N as u64);
        assert_eq!(mb.stats().spurious_wakeups, 0);
        assert_eq!(mb.len(), N as usize, "all envelopes still queued");
    }

    #[test]
    fn dropped_request_set_session_leaves_no_registrations() {
        // The wait-for-fastest pattern: take one completion, drop the
        // set with receives still pending. The session's standing
        // registrations must be torn down by the drop — no dead
        // entries left in the posted queue.
        crate::Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut set = crate::RequestSet::new();
                set.push(comm.irecv(1, 0));
                set.push(comm.irecv(1, 1));
                set.wait_any().unwrap().expect("non-empty");
                drop(set);
                let shard = comm.mailbox().shard(comm.context_id());
                assert!(
                    shard.state.lock().posted.is_empty(),
                    "dropping the set must deregister its standing entries"
                );
                // The abandoned receive's message is still matchable.
                let (v, _) = comm.recv_vec::<u8>(1, 1).unwrap();
                assert_eq!(v, vec![2]);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(10));
                comm.send(&[1u8], 0, 0).unwrap();
                comm.send(&[2u8], 0, 1).unwrap();
            }
        });
    }

    #[test]
    fn completion_racing_deregistration_never_loses() {
        // The satellite race: a matching push racing the waiter's
        // deregistration. Because notify registrations never consume,
        // every interleaving must leave the message queued and
        // matchable; a claim, if it happened, names the registered
        // slot. 500 iterations with varied interleaving nudges.
        use crate::completion::fresh_waiter;
        for i in 0..500u64 {
            let mb = std::sync::Arc::new(Mailbox::new());
            let w = fresh_waiter();
            mb.watch(&w);
            assert!(!mb.register_notify(7, Src::Rank(0), TagSel::Is(1), &w, 3));
            let mb2 = mb.clone();
            let pusher = std::thread::spawn(move || {
                if i % 2 == 0 {
                    std::thread::yield_now();
                }
                mb2.push(env(0, 7, 1, 5));
            });
            if i % 3 == 0 {
                std::thread::yield_now();
            }
            mb.deregister_notify(7, &w);
            mb.unwatch(&w);
            pusher.join().unwrap();
            let e = mb
                .try_match(7, Src::Rank(0), TagSel::Is(1))
                .unwrap_or_else(|| panic!("iteration {i}: message lost"));
            assert_eq!(e.payload.len(), 5);
            let st = w.state.lock();
            if st.claimed {
                assert_eq!(st.fired, Some(3), "iteration {i}: claim names the slot");
            }
            drop(st);
            assert!(
                mb.shards
                    .read()
                    .get(&7)
                    .is_none_or(|s| s.state.lock().posted.is_empty()),
                "iteration {i}: no dead entry survives deregistration"
            );
        }
    }

    #[test]
    fn len_and_depth_counters() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        for k in 0..5 {
            mb.push(env(0, 1, k, 1));
        }
        assert_eq!(mb.len(), 5);
        assert_eq!(mb.stats().max_unexpected_depth, 5);
        for k in 0..5 {
            mb.try_match(1, Src::Rank(0), TagSel::Is(k)).unwrap();
        }
        assert!(mb.is_empty());
        // The high-water mark survives the drain.
        assert_eq!(mb.stats().max_unexpected_depth, 5);
        assert_eq!(
            mb.stats(),
            MailboxStats {
                queued: 0,
                max_unexpected_depth: 5,
                targeted_wakeups: 0,
                multi_wakeups: 0,
                spurious_wakeups: 0,
                max_parked: 0,
                notify_registrations: 0,
                // Pushes targeted context 1: its shard plus the world's.
                shard_count: 2,
                envelopes_posted: 5,
            }
        );
    }

    #[test]
    fn comm_free_reclaims_derived_context_shards() {
        // The PR 4 leak, fixed: a dup/split-heavy loop that frees its
        // communicators holds shard_count flat instead of growing one
        // shard per context forever.
        use crate::universe::{Config, Universe};
        let (outcomes, report) = Universe::run_report(Config::new(2), |comm| {
            assert_eq!(
                comm.mailbox_stats().shard_count,
                1,
                "only the world shard before any dup"
            );
            for round in 0..8u8 {
                let dup = comm.dup().unwrap();
                let sub = comm
                    .split(Some(0), comm.rank() as i64)
                    .unwrap()
                    .expect("both ranks pass a color");
                for c in [&dup, &sub] {
                    let peer = 1 - c.rank();
                    if c.rank() == 0 {
                        c.send(&[round], peer, 0).unwrap();
                        let _ = c.recv_vec::<u8>(peer, 0).unwrap();
                    } else {
                        let _ = c.recv_vec::<u8>(peer, 0).unwrap();
                        c.send(&[round], peer, 0).unwrap();
                    }
                }
                assert!(
                    comm.mailbox_stats().shard_count >= 3,
                    "round {round}: dup + split each carry a live shard"
                );
                sub.free().unwrap();
                dup.free().unwrap();
                assert_eq!(
                    comm.mailbox_stats().shard_count,
                    1,
                    "round {round}: free must reclaim both derived shards"
                );
            }
        });
        assert!(outcomes.into_iter().all(|o| o.completed().is_some()));
        for (rank, s) in report.stats.iter().enumerate() {
            assert_eq!(
                s.mailbox.shard_count, 1,
                "rank {rank}: 8 dup/split/free rounds held the gauge flat: {:?}",
                s.mailbox
            );
        }
    }

    #[test]
    fn standing_registration_survives_fires_until_deregistered() {
        // The persistent-request hook: one standing registration keeps
        // claiming across many pushes — zero re-registration — and
        // `deregister_slot` removes exactly it.
        use crate::completion::fresh_waiter;
        let mb = Mailbox::new();
        let w = fresh_waiter();
        assert!(!mb.register_standing(1, Src::Rank(0), TagSel::Is(7), &w, 4, false));
        assert_eq!(mb.stats().notify_registrations, 1);
        for k in 0..5u64 {
            mb.push(env(0, 1, 7, 1));
            let mut st = w.state.lock();
            assert!(st.claimed, "push {k} claims through the standing entry");
            assert_eq!(st.fired, Some(4));
            // Re-arm like a persistent wait does.
            st.claimed = false;
            st.fired = None;
            st.missed.clear();
        }
        // The envelopes were never consumed; the entry is still posted.
        assert_eq!(mb.len(), 5);
        assert_eq!(mb.stats().notify_registrations, 1, "zero re-registration");
        // Registering again reports the queued backlog.
        let w2 = fresh_waiter();
        assert!(mb.register_standing(1, Src::Rank(0), TagSel::Is(7), &w2, 0, false));
        mb.deregister_slot(1, &w2, 0);
        mb.deregister_slot(1, &w, 3); // wrong slot: entry stays
        mb.push(env(0, 1, 7, 1));
        assert_eq!(
            w.state.lock().fired,
            Some(4),
            "entry with slot 4 still live"
        );
        w.state.lock().claimed = false;
        w.state.lock().fired = None;
        mb.deregister_slot(1, &w, 4);
        mb.push(env(0, 1, 7, 1));
        assert!(
            !w.state.lock().claimed,
            "deregistered entry no longer claims"
        );
    }

    #[test]
    fn wake_only_standing_claims_only_while_armed() {
        // The persistent-request steady-state fast path: while the
        // owner is not waiting, pushes skip the claim entirely (no
        // waiter lock, no wakeup) — the envelope just queues. Arming
        // restores claim-and-wake.
        use crate::completion::fresh_waiter;
        use std::sync::atomic::Ordering;
        let mb = Mailbox::new();
        let w = fresh_waiter();
        mb.register_standing(1, Src::Rank(0), TagSel::Is(7), &w, 4, true);
        mb.push(env(0, 1, 7, 1));
        assert!(!w.state.lock().claimed, "unarmed: push must not claim");
        assert_eq!(mb.len(), 1, "the envelope queued regardless");
        w.armed.store(true, Ordering::SeqCst);
        mb.push(env(0, 1, 7, 1));
        {
            let st = w.state.lock();
            assert!(st.claimed, "armed: push claims through the index");
            assert_eq!(st.fired, Some(4));
        }
        // Deregistration removes the indexed entry like any other.
        w.state.lock().claimed = false;
        w.state.lock().fired = None;
        mb.deregister_slot(1, &w, 4);
        mb.push(env(0, 1, 7, 1));
        assert!(
            !w.state.lock().claimed,
            "deregistered entry no longer claims"
        );
    }

    #[test]
    fn specific_receive_is_index_hit_under_noise() {
        // A deep pile of unrelated messages must not affect a specific
        // (source, tag) match — the O(1) index path.
        let mb = Mailbox::new();
        for k in 0..1000 {
            mb.push(env(1, 1, 100 + (k % 50), 1));
        }
        mb.push(env(2, 1, 7, 3));
        let e = mb.try_match(1, Src::Rank(2), TagSel::Is(7)).unwrap();
        assert_eq!(e.payload.len(), 3);
        assert_eq!(mb.len(), 1000);
    }
}
