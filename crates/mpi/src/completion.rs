//! The completion subsystem: the one place that decides how a thread
//! blocks on pending operations.
//!
//! PR 4 gave single blocking receives a targeted wakeup: a waiter parks
//! on a private condvar and the matching push wakes exactly that
//! thread. This module is that wakeup generalized to every wait in the
//! substrate: a `Waiter` registered against *N* pending sources at
//! once, where the **first** completion claims the waiter, records
//! which source fired, and wakes exactly that thread. Three pieces,
//! each defined once:
//!
//! - **the claim** — `Waiter::claim`: the first completion sets
//!   `claimed` / `fired` and wakes the thread; completions landing
//!   while that claim is outstanding are appended to `missed` and wake
//!   nobody. A posted receive's or probe's direct delivery is a claim
//!   that also writes the slot (`Waiter::claim_delivering`);
//! - **the park** — `Waiter::park`: under the waiter's lock, consume an
//!   outstanding claim (→ fired id + missed ids), else notice that the
//!   interruption epoch moved (→ interrupted), else sleep on the
//!   private condvar. It is the only sleep on a `Waiter`, and every
//!   parked wait is a loop around it:
//!   - the blocking receive and probe (the mailbox's posted wait behind
//!     [`Mailbox::wait_match`] / [`Mailbox::wait_peek`]);
//!   - request sets ([`RequestSet::wait_any`] /
//!     [`wait_some`](crate::RequestSet::wait_some), and through them the
//!     binding layer's request pools) and synchronous-mode sends;
//!   - persistent and partitioned requests (`Waiter::armed_park`);
//!   - the agreement behind [`Comm::agree_and`] and
//!     [`Comm::shrink`];
//! - **the session** — `Session`: the standing registrations a
//!   [`RequestSet`] of plain receives keeps across `wait_any` calls.
//!
//! **The one interrupt rule.** `park` lists its waiter on the mailbox's
//! watcher list for the whole sleep, and [`Mailbox::interrupt`] bumps
//! the mailbox's one epoch, then wakes every watcher. A parked thread
//! therefore wakes only by a claim or by that watcher loop. A parker
//! listed before the interrupter walks the list is woken under its
//! lock, after the bump; one listed later reads the bumped epoch under
//! its lock before it would sleep.
//!
//! # The protocol
//!
//! A parked wait runs this loop (all steps in this order — the order is
//! the correctness argument):
//!
//! ```text
//!   1. capture the interruption epoch
//!   2. SWEEP: non-blocking test of every pending operation
//!        ready?        -> done
//!        interrupted?  -> error                  (checked inside test)
//!   3. REGISTER: for each source the operations are blocked on,
//!      atomically {check "already available?" ; else enqueue waiter}
//!        available?    -> skip the park, go to 5
//!   4. PARK (`Waiter::park`), watched, on the private condvar until
//!        claimed (fired = source id)             -> targeted wakeup
//!        or epoch != captured                    -> interrupt, re-check
//!   5. re-test the fired id only; on an interrupt deregister
//!      everything and go to 1
//! ```
//!
//! State machine of one waiter (all transitions under the waiter's own
//! lock):
//!
//! ```text
//!               register(id 0..n-1)
//!   [idle] ───────────────────────────> [parked{n sources}]
//!                                          │            │
//!                 first matching completion│            │epoch bump
//!                 claims: fired = Some(k)  │            │(interrupt)
//!                 later ones: missed += j  v            v
//!                                      [claimed(k)]  [re-check]
//!                                          │            │
//!                       park consumes the  │            │ deregister all
//!                       claim: k, missed   v            v
//!                                   re-test those    full sweep
//! ```
//!
//! Who registers what, and for how long:
//!
//! - **Transient** (`park_any`: sets holding sends, synchronous-mode
//!   sends or collective engines; `wait_some`; a lone `issend`): steps
//!   3–5 run per park — fire-once `register_notify` entries on a
//!   thread-cached waiter, all deregistered when the park ends.
//! - **Standing, claim-always** (`Session`): a set of plain posted
//!   receives never changes its sources, so step 3 runs once — one
//!   `register_standing` entry per receive, keyed by a stable id, on a
//!   waiter the set owns. The entries **survive a fire**; each is
//!   retired (`retire_standing`) when its own request completes or
//!   fails, and the rest stay armed. Draining N receives therefore
//!   costs N registrations, whatever their selectors: N receives that
//!   share one selector are all signalled by each push, the real
//!   recipient tests ready, its siblings test pending and simply wait
//!   for the next signal — no teardown, no re-registration
//!   (`notify_registrations` in [`MailboxStats`](crate::MailboxStats)
//!   pins N, for the set and for the binding's pool). Because pushes
//!   record every fire in the waiter (claim or missed) even while the
//!   owner is between calls, the owner serves later `wait_any` calls
//!   straight from the recorded ids — O(1) amortized, no rescan. The
//!   session ends when the set is otherwise mutated (`push`,
//!   `test_some`, `wait_some`, `wait_all`, drop) or the epoch moves;
//!   the epoch it compares against was captured before the sweep that
//!   preceded its build, so "unchanged" proves no failure or
//!   revocation has happened since everything was last re-checked.
//! - **Standing, wake-only** ([`crate::persistent`],
//!   [`crate::partitioned`]): registered once at `*_init`; pushes claim
//!   only while the owner has raised `Waiter::armed` inside its wait,
//!   because the owner re-tests its queues on every pass and never
//!   reads claims as completion records.
//!
//! Three properties make this safe:
//!
//! - **No lost completion.** Mailbox registrations are
//!   *notification-only*: a push that claims a parked waiter does **not**
//!   hand it the envelope — the envelope continues into the unexpected
//!   queue (or to a directly-delivered single waiter) exactly as if
//!   nobody had been parked. Claiming only says "source `k` fired; go
//!   look". Deregistration therefore can never drop a message: there is
//!   nothing in the waiter to drop, and a completion racing it leaves
//!   the message matchable in the queue either way. (This is the
//!   multi-waiter extension of PR 4's cancel-rechecks-the-delivery-slot
//!   proof, with the delivery moved out of the race entirely; the
//!   500-iteration race test in [`crate::mailbox`] pins it.)
//! - **No lost wakeup.** The availability check in step 3 runs under the
//!   same shard lock pushes take, so a message arriving before the
//!   registration is seen by the check and one arriving after is seen by
//!   the push's registration lookup. A claim that lands before the owner
//!   reaches step 4 is still there when it does: `park` tests `claimed`
//!   under the lock the claim was written under, before it ever sleeps.
//!   Interrupts (failure, revocation) bump the epoch *before* waking,
//!   and the epoch was captured in step 1 *before* the sweep's
//!   interruption checks — every interleaving either makes the condition
//!   visible to a check or makes the epochs differ.
//! - **Bounded spurious wakeups.** A parked waiter wakes for exactly two
//!   reasons: a claim (the fired source really received a message;
//!   re-testing that id finds it, or — for a same-selector sibling —
//!   finds the recipient took it) or an epoch bump. Epoch bumps happen
//!   once per interruption event (process failure or communicator
//!   revocation), so the number of claim-less wakeups over a run is
//!   bounded by the number of such events — there is no periodic
//!   safety-net timer to wake anybody. The count is surfaced as
//!   `spurious_wakeups` in [`MailboxStats`](crate::MailboxStats).
//!
//! The previous sweep-and-yield implementations are preserved verbatim
//! in [`reference`](mod@reference) as the differential-testing baseline and the
//! `completion_experiment` benchmark's baseline, mirroring
//! [`mailbox::reference`](crate::mailbox::reference).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;
use crate::error::Result;
use crate::mailbox::Mailbox;
use crate::message::{AckSlot, Envelope, Src, Status, TagSel};
use crate::request::{Completion, Request, RequestSet};
use crate::trace;
use crate::{MpiError, Rank};

/// A parked thread's delivery slot. Single blocking receives get the
/// envelope or probe status delivered directly ([`crate::mailbox`]);
/// multi-source waits get a *claim*: the id of the source that fired.
/// All fields are written under [`Waiter::state`]'s lock.
#[derive(Default)]
pub(crate) struct WaiterSlot {
    /// Direct delivery of a matched envelope (single posted receive).
    pub(crate) env: Option<Envelope>,
    /// Direct delivery of a probe status (single posted probe).
    pub(crate) status: Option<Status>,
    /// Which registered source fired (multi-source waits).
    pub(crate) fired: Option<usize>,
    /// Set by the first completion; later completions of other sources
    /// see the claim and leave the waiter alone (one completion wakes
    /// exactly one waiter, exactly once).
    pub(crate) claimed: bool,
    /// Sources that completed *while* the waiter was claimed: the owner
    /// receives them with the claim from its next [`Waiter::park`] — no
    /// additional wakeups, no re-scan.
    pub(crate) missed: Vec<usize>,
}

/// One parked thread: a private delivery slot and a private condvar, so
/// a completion wakes exactly this thread and nobody else.
#[derive(Default)]
pub(crate) struct Waiter {
    pub(crate) state: Mutex<WaiterSlot>,
    pub(crate) cond: Condvar,
    /// Armed flag for *wake-only* standing registrations
    /// ([`crate::mailbox::Mailbox::register_standing`]): set by the
    /// owner just before it starts waiting, cleared when the wait ends.
    /// While clear, matching pushes skip the claim entirely — no waiter
    /// lock, no wakeup — because a wake-only owner always re-tests the
    /// queues itself and never reads claims as completion records. The
    /// store happens before the owner's post-arm queue re-test (which
    /// takes the shard lock pushes hold), so a push that enqueues after
    /// that re-test is guaranteed to observe the flag.
    pub(crate) armed: std::sync::atomic::AtomicBool,
}

/// How a [`Waiter::park`] ended.
pub(crate) struct Wake {
    /// The source whose completion claimed the waiter; `None` when the
    /// interruption epoch moved instead (re-check everything).
    pub(crate) fired: Option<usize>,
    /// Sources that completed while that claim was outstanding.
    pub(crate) missed: Vec<usize>,
    /// Whether the thread actually slept: a claim or an interrupt that
    /// raced the park is consumed without sleeping.
    pub(crate) slept: bool,
}

impl Waiter {
    /// The one claim: the first completion claims the waiter for source
    /// `slot` and wakes it. Returns `false` if another source already
    /// holds the claim — `slot` is then recorded as missed and nobody is
    /// woken; the owner gets both from its next [`park`](Waiter::park).
    /// A claim never carries a message: whatever fired stays queued for
    /// the owner's re-test.
    pub(crate) fn claim(&self, slot: usize) -> bool {
        self.claim_delivering(slot, |_| {})
    }

    /// [`claim`](Waiter::claim) for a direct delivery: `deliver` writes
    /// the matched envelope or probe status into the slot under the
    /// same lock the claim is taken under, so the woken owner finds it.
    pub(crate) fn claim_delivering(
        &self,
        slot: usize,
        deliver: impl FnOnce(&mut WaiterSlot),
    ) -> bool {
        let mut st = self.state.lock();
        deliver(&mut st);
        if st.claimed {
            st.missed.push(slot);
            return false;
        }
        st.claimed = true;
        st.fired = Some(slot);
        self.cond.notify_one();
        true
    }

    /// The one parked wait (step 4 of the [module protocol](self)):
    /// sleeps until a completion claims this waiter or `mb`'s
    /// interruption epoch differs from `seen_epoch`, which the caller
    /// captured **before** its last non-blocking re-check. The waiter
    /// is on `mb`'s watcher list for the whole sleep, listed before the
    /// waiter lock is taken — the order [`Mailbox::interrupt`] locks
    /// in. The claim is consumed: its fired and missed ids come back in
    /// the [`Wake`] and the waiter can be claimed again.
    pub(crate) fn park(self: &Arc<Self>, mb: &Mailbox, seen_epoch: u64) -> Wake {
        mb.watch(self);
        let mut st = self.state.lock();
        let mut slept = false;
        while !st.claimed && mb.epoch() == seen_epoch {
            slept = true;
            self.cond.wait(&mut st);
        }
        // Unclaimed means the epoch moved; `fired` and `missed` are
        // then empty (only a claim fills them).
        if !std::mem::take(&mut st.claimed) {
            mb.record_spurious();
        }
        let (fired, missed) = (st.fired.take(), std::mem::take(&mut st.missed));
        drop(st);
        mb.unwatch(self);
        Wake {
            fired,
            missed,
            slept,
        }
    }

    /// The wait step of a *wake-only* owner ([`crate::persistent`],
    /// [`crate::partitioned`]): arm, `retest`, and — still pending —
    /// park until the first wakeup; then disarm. Returns the re-test's
    /// completion (`None`: woken by a claim or an interrupt; re-test)
    /// and whether the thread actually slept.
    ///
    /// Arm, then re-test before parking: the store precedes the
    /// re-test's shard-lock acquisition, so a push that enqueues after
    /// the re-test observes the flag and claims — no arrival can fall
    /// between re-test and park. A claim left over from an earlier
    /// attempt (claims never carry messages) costs one early return.
    pub(crate) fn armed_park<T>(
        self: &Arc<Self>,
        mb: &Mailbox,
        retest: impl FnOnce() -> Result<Option<T>>,
    ) -> Result<(Option<T>, bool)> {
        self.armed.store(true, Ordering::SeqCst);
        let epoch = mb.epoch();
        let attempt = retest().map(|done| match done {
            Some(c) => (Some(c), false),
            None => (None, self.park(mb, epoch).slept),
        });
        self.armed.store(false, Ordering::SeqCst);
        attempt
    }
}

thread_local! {
    /// Waiter cache: a rank thread parks on at most one wait at a time,
    /// so its waiter allocation is reused across waits instead of
    /// hitting the allocator on every blocking operation (a measurable
    /// cost in shallow-queue round-trip patterns). Reuse is gated on
    /// the refcount: a waiter still referenced by a registration (which
    /// cannot happen on the normal paths, but costs one branch to rule
    /// out) is left alone and a fresh one allocated.
    static WAITER_CACHE: std::cell::RefCell<Option<Arc<Waiter>>> =
        const { std::cell::RefCell::new(None) };
}

/// A cleared waiter for this thread, reusing the cached allocation when
/// nothing else still references it.
pub(crate) fn fresh_waiter() -> Arc<Waiter> {
    WAITER_CACHE.with(|cache| {
        let mut slot = cache.borrow_mut();
        if let Some(w) = slot.as_ref() {
            if Arc::strong_count(w) == 1 {
                *w.state.lock() = WaiterSlot::default();
                return Arc::clone(w);
            }
        }
        let w = Arc::new(Waiter::default());
        *slot = Some(Arc::clone(&w));
        w
    })
}

/// One source a pending request can be blocked on (step 3's
/// registration targets).
pub(crate) enum ParkSource<'a> {
    /// A message matching `(context, src, tag)` arriving at this rank's
    /// mailbox.
    Mailbox { context: u64, src: Src, tag: TagSel },
    /// A synchronous-mode send's receiver-matched acknowledgement.
    Ack(&'a Arc<AckSlot>),
}

/// The transient park: registers one waiter against every source
/// `requests` are blocked on, sleeps until the first completion claims
/// it or the epoch moves, then deregisters everything. Returns the
/// index of the request to re-test — the one that fired, or one that
/// was already available at registration time — or `None` for "re-sweep
/// everything" (interrupt, or nothing to park on). Never consumes a
/// message. `seen_epoch` must have been captured before the caller's
/// last non-blocking sweep.
fn park_any(requests: &[Request<'_>], seen_epoch: u64) -> Option<usize> {
    let first = requests.first()?;
    crate::fault::point("completion/register");
    let mb = first.comm().mailbox();
    let waiter = fresh_waiter();
    let mut contexts: Vec<u64> = Vec::new();
    let mut acks: Vec<&Arc<AckSlot>> = Vec::new();
    let mut sources: Vec<ParkSource<'_>> = Vec::new();
    let mut ready = None;
    for (i, req) in requests.iter().enumerate() {
        debug_assert!(
            std::ptr::eq(req.comm().mailbox(), mb),
            "a request set parks on one rank's mailbox"
        );
        sources.clear();
        // Intrinsically ready (or in a state with nothing to park on),
        // or a source is already available: do not sleep — the caller's
        // re-test collects it.
        let available = req.park_spec(&mut sources)
            || sources.is_empty()
            || sources.drain(..).any(|s| match s {
                ParkSource::Mailbox { context, src, tag } => {
                    if !contexts.contains(&context) {
                        contexts.push(context);
                    }
                    mb.register_notify(context, src, tag, &waiter, i)
                }
                ParkSource::Ack(ack) => {
                    acks.push(ack);
                    ack.register_notify(&waiter, i)
                }
            });
        if available {
            ready = Some(i);
            break;
        }
    }
    let fired = ready.or_else(|| {
        crate::fault::point("completion/park");
        let _sp = trace::span(trace::cat::PARK, "park_any", requests.len() as u64, 0);
        waiter.park(mb, seen_epoch).fired
    });
    // A completion racing this deregistration is harmless: claims never
    // carry a message, so whatever fired is still queued and the
    // caller's re-test finds it.
    for context in contexts {
        mb.deregister_notify(context, &waiter);
    }
    for ack in acks {
        ack.deregister_notify(&waiter);
    }
    fired
}

/// The standing registrations of a [`RequestSet`] of plain posted
/// receives, kept alive **across** `wait_any` calls (see "Standing,
/// claim-always" in the [module docs](self)).
pub(crate) struct Session {
    /// Dedicated, never the thread-local cache: the registrations
    /// outlive the call that made them.
    waiter: Arc<Waiter>,
    /// Stable id of each request, parallel to `RequestSet::requests`
    /// (the index at session build; positions shift as requests retire,
    /// ids never do) — the slot of its standing registration.
    ids: Vec<usize>,
    /// Ids whose completion has been signalled (fired, missed, or
    /// already queued at registration) but not yet served.
    pending: VecDeque<usize>,
    /// Epoch captured before the sweep preceding the session build.
    seen_epoch: u64,
}

/// Ends a set's session, if any: every registration it still holds is
/// removed from the mailbox, so no claim is left pointed at a dead
/// waiter.
pub(crate) fn teardown_session(requests: &[Request<'_>], session: &mut Option<Session>) {
    let Some(sess) = session.take() else {
        return;
    };
    let mut contexts: Vec<u64> = Vec::new();
    for req in requests {
        let context = req.comm().context;
        if !contexts.contains(&context) {
            contexts.push(context);
            req.comm()
                .mailbox()
                .deregister_notify(context, &sess.waiter);
        }
    }
}

/// Builds the session if every request is a plain receive; returns
/// false (registering nothing) otherwise. Must run right after a sweep
/// that found nothing ready, with the epoch captured before that sweep.
fn build_session(set: &mut RequestSet<'_>, seen_epoch: u64) -> bool {
    crate::fault::point("completion/register");
    let selectors: Option<Vec<_>> = set.requests.iter().map(Request::recv_selectors).collect();
    let Some(selectors) = selectors else {
        return false;
    };
    let mb = set.requests[0].comm().mailbox();
    let mut sess = Session {
        waiter: Arc::new(Waiter::default()),
        ids: (0..selectors.len()).collect(),
        pending: VecDeque::new(),
        seen_epoch,
    };
    for (id, (context, src, tag)) in selectors.into_iter().enumerate() {
        // Claim-always (`wake_only = false`): the session reads claims
        // and missed fires as completion records, so a push must record
        // even while the owner is between parks. A message already
        // queued signals its receive from the start.
        if mb.register_standing(context, src, tag, &sess.waiter, id, false) {
            sess.pending.push_back(id);
        }
    }
    set.session = Some(sess);
    true
}

/// Serves the oldest signalled request that has really completed (or
/// failed), retiring exactly its registration.
fn serve_signalled(set: &mut RequestSet<'_>) -> Option<(usize, Result<Completion>)> {
    let RequestSet { requests, session } = set;
    let sess = session.as_mut().expect("session exists");
    while let Some(id) = sess.pending.pop_front() {
        // A late fire of an already-retired request names no live id.
        let Some(pos) = sess.ids.iter().position(|&x| x == id) else {
            continue;
        };
        let req = requests.remove(pos);
        let comm = req.comm();
        let (context, src, tag) = req.recv_selectors().expect("sessions hold receives");
        match req.settle() {
            // One push signals every standing entry its envelope
            // matches, so the siblings of the real recipient test
            // pending. Their registrations stand: wait for the next
            // signal.
            Err(pending) => requests.insert(pos, pending),
            Ok(outcome) => {
                sess.ids.remove(pos);
                comm.mailbox()
                    .retire_standing(context, src, tag, &sess.waiter, id);
                return Some((pos, outcome));
            }
        }
    }
    None
}

/// [`RequestSet::complete_any`]: a [`Session`] for sets of plain
/// receives — O(1) amortized per completion; otherwise sweep once, park
/// transiently on every pending source, and on a targeted wakeup
/// re-test only the fired index. With `block` false the two parks
/// become `return None`.
pub(crate) fn complete_any(
    set: &mut RequestSet<'_>,
    block: bool,
) -> Option<(usize, Result<Completion>)> {
    let Some(first) = set.requests.first() else {
        teardown_session(&set.requests, &mut set.session);
        return None;
    };
    let mb = first.comm().mailbox();
    loop {
        if set.session.is_some() {
            if let Some(hit) = serve_signalled(set) {
                return Some(hit);
            }
            if !block {
                return None;
            }
            crate::fault::point("completion/claim");
            let sess = set.session.as_mut().expect("checked above");
            crate::fault::point("completion/park");
            let wake = {
                let _sp = trace::span(trace::cat::PARK, "park_session", sess.ids.len() as u64, 0);
                sess.waiter.park(mb, sess.seen_epoch)
            };
            match wake.fired {
                Some(id) => {
                    sess.pending.push_back(id);
                    sess.pending.extend(wake.missed);
                    continue;
                }
                // Interrupted: re-check everything under fresh
                // interruption checks.
                None => teardown_session(&set.requests, &mut set.session),
            }
        }
        let epoch = mb.epoch();
        if let Some(hit) = set.sweep_outcome() {
            return Some(hit);
        }
        if !block {
            return None;
        }
        if build_session(set, epoch) {
            continue;
        }
        // Fast path: exactly one source fired; test only that request.
        // A pending outcome (the engine advanced but did not finish)
        // falls through to the next full sweep.
        if let Some(hit) = park_any(&set.requests, epoch).and_then(|i| set.test_at(i)) {
            return Some(hit);
        }
    }
}

/// Event-driven [`RequestSet::wait_some`]: like [`complete_any`]'s
/// transient path but collects everything completed once the park ends.
pub(crate) fn wait_some(set: &mut RequestSet<'_>) -> Result<Vec<(usize, Completion)>> {
    loop {
        let Some(first) = set.requests.first() else {
            return Ok(Vec::new());
        };
        let epoch = first.comm().mailbox().epoch();
        let done = set.test_some()?;
        if !done.is_empty() {
            return Ok(done);
        }
        park_any(&set.requests, epoch);
    }
}

/// Event-driven wait for a synchronous-mode send: parks on the
/// acknowledgement slot (claimed by the receiver's match) under the
/// epoch protocol, instead of the seed's yield-and-recheck spin.
pub(crate) fn wait_sync_send(comm: &Comm, ack: &Arc<AckSlot>, dest: Rank) -> Result<Completion> {
    let dest_world = comm.translate_to_world(dest)?;
    let mb = comm.mailbox();
    loop {
        let seen_epoch = mb.epoch();
        if ack.is_complete() {
            return Ok(Completion::Done);
        }
        if comm.world.is_revoked(comm.context) {
            return Err(MpiError::Revoked);
        }
        if comm.world.is_failed(dest_world) {
            return Err(MpiError::ProcessFailed {
                world_rank: dest_world,
            });
        }
        let waiter = fresh_waiter();
        if !ack.register_notify(&waiter, 0) {
            crate::fault::point("completion/park");
            let _sp = trace::span(trace::cat::PARK, "park_sync_send", dest as u64, 0);
            waiter.park(mb, seen_epoch);
        }
        ack.deregister_notify(&waiter);
    }
}

pub mod reference {
    //! The seed completion strategy: sweep every pending operation with
    //! a non-blocking test, `yield_now`, sweep again.
    //!
    //! Kept (verbatim in structure, minus being the only option) for two
    //! jobs: it is the *baseline* the `completion_experiment` benchmark
    //! measures the parked path's wakeup latency and CPU burn against,
    //! and the differential-testing partner the request-set tests drive
    //! both paths of — each sweep is trivially correct (it re-derives
    //! readiness from scratch every iteration), so any divergence
    //! convicts the parking protocol.

    use super::{Completion, Request, RequestSet, Result};
    use crate::request::TestOutcome;

    /// Sweep-based `MPI_Wait`: test-and-yield until ready. This is the
    /// idiom the substrate's tests used before the parking protocol
    /// (`poll_to_completion`), preserved as the baseline for waits on a
    /// single request.
    pub fn wait(mut req: Request<'_>) -> Result<Completion> {
        loop {
            match req.test()? {
                TestOutcome::Ready(c) => return Ok(c),
                TestOutcome::Pending(r) => {
                    req = r;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Sweep-based `MPI_Waitany`: the seed `RequestSet::wait_any` — one
    /// O(set) test sweep per iteration with a `yield_now` between
    /// sweeps.
    pub fn wait_any<'a>(set: &mut RequestSet<'a>) -> Result<Option<(usize, Completion)>> {
        if set.is_empty() {
            return Ok(None);
        }
        loop {
            if let Some(hit) = set.sweep_any()? {
                return Ok(Some(hit));
            }
            std::thread::yield_now();
        }
    }

    /// Sweep-based `MPI_Waitsome`: the seed `RequestSet::wait_some`.
    pub fn wait_some<'a>(set: &mut RequestSet<'a>) -> Result<Vec<(usize, Completion)>> {
        if set.is_empty() {
            return Ok(Vec::new());
        }
        loop {
            let done = set.test_some()?;
            if !done.is_empty() {
                return Ok(done);
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{reference::ScanMailbox, Mailbox};
    use crate::Universe;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn env(src: usize, context: u64, tag: i32, id: u64) -> Envelope {
        Envelope {
            src,
            src_world: src,
            context,
            tag,
            payload: Bytes::from(id.to_le_bytes().to_vec()),
            arrival_ns: 0,
            ack: None,
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push {
            src: usize,
            tag: i32,
        },
        Match {
            src: Src,
            tag: TagSel,
        },
        /// Multi-register a fresh waiter for 1..=3 random selectors.
        Register(Vec<(Src, TagSel)>),
        /// Deregister the k-th oldest live waiter.
        Cancel(usize),
        /// Revocation/failure wakeup path: epoch bump + broadcast.
        Interrupt,
    }

    fn sel() -> impl Strategy<Value = (Src, TagSel)> {
        (
            prop_oneof![Just(Src::Any), (0usize..3).prop_map(Src::Rank)],
            prop_oneof![Just(TagSel::Any), (-1i32..3).prop_map(TagSel::Is)],
        )
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Three push arms keep the mix push-heavy so queues build depth
        // (the vendored proptest has no weighted prop_oneof).
        prop_oneof![
            (0usize..3, -1i32..3).prop_map(|(src, tag)| Op::Push { src, tag }),
            (0usize..3, -1i32..3).prop_map(|(src, tag)| Op::Push { src, tag }),
            (0usize..3, 0i32..3).prop_map(|(src, tag)| Op::Push { src, tag }),
            sel().prop_map(|(src, tag)| Op::Match { src, tag }),
            sel().prop_map(|(src, tag)| Op::Match { src, tag }),
            prop::collection::vec(sel(), 1..4).prop_map(Op::Register),
            prop::collection::vec(sel(), 1..4).prop_map(Op::Register),
            (0usize..4).prop_map(Op::Cancel),
            Just(Op::Interrupt),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Multi-waiter registrations must be *transparent* to matching:
        /// an engine carrying arbitrary interleavings of registrations,
        /// cancellations, and interrupts must stay step-for-step
        /// equivalent to the registration-free linear-scan oracle — no
        /// divergence, no lost message (queue depths equal after every
        /// op, full drain identical), and every claim names a
        /// registered slot.
        #[test]
        fn multi_registrations_are_transparent_to_matching(
            ops in prop::collection::vec(op_strategy(), 0..100)
        ) {
            let engine = Mailbox::new();
            let oracle = ScanMailbox::new();
            let mut next_id = 0u64;
            let mut waiters: Vec<(Arc<Waiter>, usize)> = Vec::new();
            for op in &ops {
                match op {
                    Op::Push { src, tag } => {
                        engine.push(env(*src, 1, *tag, next_id));
                        oracle.push(env(*src, 1, *tag, next_id));
                        next_id += 1;
                    }
                    Op::Match { src, tag } => {
                        let a = engine.try_match(1, *src, *tag);
                        let b = oracle.try_match(1, *src, *tag);
                        match (&a, &b) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                prop_assert_eq!(&x.payload[..], &y.payload[..]);
                            }
                            _ => prop_assert!(false,
                                "divergence on {:?}: engine {:?} vs oracle {:?}",
                                op, a.is_some(), b.is_some()),
                        }
                    }
                    Op::Register(sels) => {
                        let w = Arc::new(Waiter::default());
                        for (slot, (src, tag)) in sels.iter().enumerate() {
                            // An immediate hit is allowed (no
                            // registration made for that source); the
                            // others still register.
                            let _ = engine.register_notify(1, *src, *tag, &w, slot);
                        }
                        waiters.push((w, sels.len()));
                    }
                    Op::Cancel(k) => {
                        if !waiters.is_empty() {
                            let (w, _) = waiters.remove(k % waiters.len());
                            engine.deregister_notify(1, &w);
                        }
                    }
                    Op::Interrupt => {
                        engine.interrupt();
                        oracle.interrupt();
                    }
                }
                // The law: registrations never consume or reorder.
                prop_assert_eq!(engine.len(), oracle.len(), "queue depths diverged on {:?}", op);
            }
            // Claims only ever name a slot that was registered.
            for (w, n_slots) in &waiters {
                let st = w.state.lock();
                if let Some(fired) = st.fired {
                    prop_assert!(st.claimed);
                    prop_assert!(fired < *n_slots, "claimed slot out of range");
                }
            }
            // Full drain: identical residue, message by message.
            loop {
                let a = engine.try_match(1, Src::Any, TagSel::Any);
                let b = oracle.try_match(1, Src::Any, TagSel::Any);
                match (a, b) {
                    (None, None) => break,
                    (Some(x), Some(y)) => prop_assert_eq!(&x.payload[..], &y.payload[..]),
                    (a, b) => prop_assert!(false,
                        "drain divergence: engine {:?} vs oracle {:?}", a.is_some(), b.is_some()),
                }
            }
            for tag in -1i32..0 {
                for src in 0usize..3 {
                    loop {
                        let a = engine.try_match(1, Src::Rank(src), TagSel::Is(tag));
                        let b = oracle.try_match(1, Src::Rank(src), TagSel::Is(tag));
                        match (a, b) {
                            (None, None) => break,
                            (Some(x), Some(y)) => prop_assert_eq!(&x.payload[..], &y.payload[..]),
                            (a, b) => prop_assert!(false,
                                "internal-tag drain divergence: engine {:?} vs oracle {:?}",
                                a.is_some(), b.is_some()),
                        }
                    }
                }
            }
            prop_assert!(engine.is_empty());
            prop_assert!(oracle.is_empty());
        }

        /// Differential test of the whole parked path: random request
        /// sets (receives from peers with randomized send staggering)
        /// drained by the event-driven `wait_any` and by the preserved
        /// sweep baseline must deliver the same multiset of payloads —
        /// and the event-driven run must terminate (no hung waiter)
        /// without any poll loop to paper over a lost wakeup.
        #[test]
        fn event_driven_wait_any_matches_reference_sweep(
            p in 2usize..6,
            tags_per_peer in 1usize..4,
            stagger in prop::collection::vec(0u64..3, 16..17),
        ) {
            let stagger = &stagger;
            let out = Universe::run(p, move |comm| {
                if comm.rank() == 0 {
                    let mut collected = [Vec::new(), Vec::new()];
                    for (round, bucket) in collected.iter_mut().enumerate() {
                        let mut set = RequestSet::new();
                        for peer in 1..p {
                            for t in 0..tags_per_peer {
                                set.push(comm.irecv(peer, (round * 8 + t) as i32));
                            }
                        }
                        while !set.is_empty() {
                            let hit = if round == 0 {
                                set.wait_any()
                            } else {
                                crate::completion::reference::wait_any(&mut set)
                            };
                            let (_, c) = hit.unwrap().expect("set non-empty");
                            let (v, st) = c.into_vec::<u8>().unwrap();
                            bucket.push((st.source, st.tag, v));
                        }
                        bucket.sort();
                    }
                    let [event, sweep] = collected;
                    assert_eq!(event.len(), sweep.len());
                    // Same peers and values; tags differ by the round
                    // offset built into the sends.
                    for (a, b) in event.iter().zip(&sweep) {
                        assert_eq!(a.0, b.0);
                        assert_eq!(a.1 + 8, b.1);
                        assert_eq!(a.2, b.2);
                    }
                    true
                } else {
                    for round in 0..2usize {
                        for t in 0..tags_per_peer {
                            let idx = (comm.rank() * 5 + t) % stagger.len();
                            for _ in 0..stagger[idx] {
                                std::thread::yield_now();
                            }
                            comm.send(
                                &[comm.rank() as u8, t as u8],
                                0,
                                (round * 8 + t) as i32,
                            )
                            .unwrap();
                        }
                    }
                    true
                }
            });
            prop_assert!(out.into_iter().all(|ok| ok));
        }
    }

    /// Draining a set of N receives that share **one selector** through
    /// `wait_any` makes one standing registration per receive: each
    /// push signals all of them, the recipient tests ready, its
    /// siblings test pending and keep their registrations. (Were the
    /// entries removed by the fire, the session would have to be rebuilt
    /// after every completion: N + (N−1) + … + 1 = 78 registrations.)
    #[test]
    fn set_wait_any_drain_of_same_selector_receives_makes_one_registration_per_receive() {
        const N: u64 = 12;
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                for _ in 0..N {
                    set.push(comm.irecv(1, 0));
                }
                let before = comm.mailbox_stats().notify_registrations;
                let mut got = Vec::new();
                while let Some((_, c)) = set.wait_any().unwrap() {
                    got.push(c.into_vec::<u8>().unwrap().0[0]);
                }
                assert_eq!(got, (0..N as u8).collect::<Vec<_>>());
                let made = comm.mailbox_stats().notify_registrations - before;
                assert!(
                    made <= N,
                    "drained {N} same-selector receives with {made} registrations — the \
                     set is rebuilding its session instead of keeping it"
                );
            } else {
                for i in 0..N {
                    // Stagger so the set actually parks between
                    // completions instead of sweeping everything up.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    comm.send(&[i as u8], 0, 0).unwrap();
                }
            }
        });
    }

    /// A mixed set — sync-send (ack source) + receive (mailbox source)
    /// — parks once and completes both; the sync-send's ack claim
    /// arrives through the non-mailbox registration path.
    #[test]
    fn mixed_set_with_sync_send_parks_and_completes() {
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                set.push(comm.issend(&[9u8], 1, 4).unwrap());
                set.push(comm.irecv(2, 5));
                let mut seen = 0;
                while !set.is_empty() {
                    set.wait_any().unwrap().expect("non-empty");
                    seen += 1;
                }
                assert_eq!(seen, 2);
            } else if comm.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(8));
                let (v, _) = comm.recv_vec::<u8>(0, 4).unwrap();
                assert_eq!(v, vec![9]);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(16));
                comm.send(&[2u8], 0, 5).unwrap();
            }
        });
    }

    /// `wait` on a lone synchronous-mode send parks on the ack (no
    /// yield spin) and still completes; the run's diagnostics show the
    /// park actually happened. The park-before-send ordering is
    /// timing-dependent, so the scenario retries a few times — it must
    /// park on at least one attempt (in practice the first).
    #[test]
    fn sync_send_wait_parks_on_ack() {
        for attempt in 0..5 {
            let (outcomes, report) = Universe::run_report(crate::Config::new(2), |comm| {
                if comm.rank() == 0 {
                    let req = comm.issend(&[1u8, 2, 3], 1, 0).unwrap();
                    req.wait().unwrap();
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    let (v, _) = comm.recv_vec::<u8>(0, 0).unwrap();
                    assert_eq!(v, vec![1, 2, 3]);
                }
            });
            assert!(outcomes.into_iter().all(|o| o.completed().is_some()));
            if report.stats[0].mailbox.max_parked >= 1 {
                return;
            }
            eprintln!("attempt {attempt}: the receive outran the park; retrying");
        }
        panic!("the sender never parked across 5 attempts — wait() is spinning");
    }
}
