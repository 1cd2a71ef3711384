//! Deterministic fault injection: crash a rank at its k-th injection
//! point, or drop / delay / duplicate / truncate a matching message —
//! reproducibly.
//!
//! The ULFM reproduction (see [`crate::ulfm`]) is only as trustworthy as
//! the failures it has been tested against. A voluntary
//! [`Comm::fail_here`](crate::Comm::fail_here) at a call boundary cannot
//! land a crash *inside* a Rabenseifner phase, between two standing-claim
//! restarts of a parked session, or halfway through an agreement freeze —
//! exactly the states where a survivor could hang. This module closes
//! that gap with a **deterministic fault plane**:
//!
//! - A [`FaultPlan`] names the faults up front: *crash rank `r` at its
//!   `k`-th injection point* (optionally restricted to one named point)
//!   and/or *drop / delay / duplicate / truncate the `n`-th message
//!   matching a `(source, tag)` predicate*. The plan is plain data; the
//!   same plan against the same workload replays the same failure.
//! - `point` hooks are threaded through the substrate's hot paths —
//!   the **injection-point catalog**:
//!
//!   | name | site |
//!   |---|---|
//!   | `mailbox/push` | sender entering the destination's matching engine |
//!   | `mailbox/match` | receiver entering a blocking match |
//!   | `completion/register` | waiter about to register with the mailboxes |
//!   | `completion/park` | waiter about to block on its condvar |
//!   | `completion/claim` | parked session claiming a standing completion |
//!   | `coll/phase` | every engine phase step (each collective round's recv) |
//!   | `persistent/start` | persistent plan `start()`, a partitioned receive's included |
//!   | `partitioned/pready` | partitioned producer marking a partition ready |
//!   | `topology/build` | Cart/DistGraph constructor collectives |
//!   | `ulfm/contribute` | agreement contribution (crashes a freezer mid-freeze) |
//!
//!   A crash is [`Comm::fail_here`](crate::Comm::fail_here) made
//!   involuntary: the rank thread unwinds with the same `RankFailure`
//!   payload, [`Universe`](crate::Universe) marks it failed, and every
//!   parked survivor is interruption-epoch-woken.
//! - Message faults intercept envelopes at the delivery boundary
//!   (`Comm::deliver_bytes` and the partitioned producer push): `Drop`
//!   discards the envelope, `Duplicate` pushes it twice, `Delay(n)`
//!   holds it until `n` further deliveries to the same destination have
//!   happened (a deterministic reordering, not a timer), `Truncate(n)`
//!   delivers only the payload's first `n` bytes. A message an engine
//!   sent in parts is one message here too: `Duplicate` pushes its
//!   parts twice (refcount views), `Truncate(n)` cuts the part `n`
//!   falls inside and drops the parts after it.
//!
//! # The cost when no plan is installed
//!
//! The plane is compiled into every build; only a [`FaultPlan`] given
//! to [`Config::faults`](crate::Config::faults) arms it. While no
//! universe in the process runs a non-empty plan, each hook is one
//! relaxed load of the live-plan count, and [`WorldFaults`] holds
//! `None`. The measured cost of compiling the plane and the trace
//! recorder in is under "The cost when off" in [`crate::trace`]. The
//! `fault` probe of the `floors` bench pins the armed hooks' on-vs-off
//! cost.
//!
//! # Using it
//!
//! ```no_run
//! use kmp_mpi::{op, Config, FaultPlan, Universe};
//!
//! let plan = FaultPlan::new().crash_at(1, "coll/phase", 3);
//! let out = Universe::run_with(Config::new(4).faults(plan), |comm| {
//!     // rank 1 dies inside its 3rd collective phase step; survivors
//!     // observe ProcessFailed, revoke, shrink, and continue.
//!     comm.allreduce_one(1u64, op::Sum)
//! });
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::message::Envelope;
use crate::trace;
use crate::universe::{RankFailure, WorldState};
use crate::{Rank, Tag};

/// What to do with a message matched by a [`MsgRule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgAction {
    /// Discard the envelope; it never reaches the matching engine.
    Drop,
    /// Hold the envelope until this many further deliveries to the same
    /// destination have occurred, then release it (deterministic
    /// reordering past later traffic).
    Delay(u64),
    /// Deliver the envelope twice.
    Duplicate,
    /// Deliver only the first `n` bytes of the payload, over all its
    /// parts (a message cut short on the wire).
    Truncate(usize),
}

/// A message-fault predicate: act on the `nth` (1-based) message from
/// world rank `from` to world rank `to` whose tag matches `tag`
/// (`None` = any tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgRule {
    /// Sender's world rank.
    pub from: Rank,
    /// Destination's world rank.
    pub to: Rank,
    /// Tag filter; `None` matches any tag (including internal ones).
    pub tag: Option<Tag>,
    /// Which matching message to act on (1-based occurrence count).
    pub nth: u64,
    /// The fault to apply.
    pub action: MsgAction,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CrashSpec {
    rank: Rank,
    /// Restrict the count to one named injection point; `None` counts
    /// every point the rank passes.
    point: Option<&'static str>,
    /// Crash on the `at`-th (1-based) counted point.
    at: u64,
}

/// A deterministic fault schedule: crash arms plus message rules.
///
/// Plans are plain data; an empty plan installs nothing (the run is
/// fault-free).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    crashes: Vec<CrashSpec>,
    rules: Vec<MsgRule>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.rules.is_empty()
    }

    /// Crash `rank` at the `at`-th (1-based) injection point it passes,
    /// of any name.
    pub fn crash(mut self, rank: Rank, at: u64) -> Self {
        assert!(at >= 1, "injection points are counted from 1");
        self.crashes.push(CrashSpec {
            rank,
            point: None,
            at,
        });
        self
    }

    /// Crash `rank` at the `at`-th (1-based) time it passes the named
    /// injection point (see the catalog in the module docs).
    pub fn crash_at(mut self, rank: Rank, point: &'static str, at: u64) -> Self {
        assert!(at >= 1, "injection points are counted from 1");
        self.crashes.push(CrashSpec {
            rank,
            point: Some(point),
            at,
        });
        self
    }

    /// Add a message-fault rule.
    pub fn message(mut self, rule: MsgRule) -> Self {
        assert!(rule.nth >= 1, "message occurrences are counted from 1");
        self.rules.push(rule);
        self
    }

    /// Drop the `nth` message from `from` to `to` with tag `tag`.
    pub fn drop_message(self, from: Rank, to: Rank, tag: Option<Tag>, nth: u64) -> Self {
        self.message(MsgRule {
            from,
            to,
            tag,
            nth,
            action: MsgAction::Drop,
        })
    }

    /// Delay the `nth` matching message past `by` further deliveries to
    /// the same destination.
    pub fn delay_message(self, from: Rank, to: Rank, tag: Option<Tag>, nth: u64, by: u64) -> Self {
        self.message(MsgRule {
            from,
            to,
            tag,
            nth,
            action: MsgAction::Delay(by),
        })
    }

    /// Duplicate the `nth` matching message.
    pub fn duplicate_message(self, from: Rank, to: Rank, tag: Option<Tag>, nth: u64) -> Self {
        self.message(MsgRule {
            from,
            to,
            tag,
            nth,
            action: MsgAction::Duplicate,
        })
    }

    /// Cut the `nth` matching message to its first `keep` bytes.
    pub fn truncate_message(
        self,
        from: Rank,
        to: Rank,
        tag: Option<Tag>,
        nth: u64,
        keep: usize,
    ) -> Self {
        self.message(MsgRule {
            from,
            to,
            tag,
            nth,
            action: MsgAction::Truncate(keep),
        })
    }

    /// World ranks this plan schedules a crash for (the planned victims).
    pub fn crashed_ranks(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.crashes.iter().map(|c| c.rank).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A seeded single-crash plan for a `size`-rank universe: a
    /// splitmix64 stream picks the victim (never rank 0, so runs keep a
    /// deterministic reporter) and an injection-point index in
    /// `1..=64`. Same seed → same plan; used by the chaos smoke runs
    /// with fixed seeds in CI.
    pub fn seeded(seed: u64, size: usize) -> Self {
        assert!(size >= 2, "a seeded crash plan needs a survivor");
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let victim = 1 + (next() as usize % (size - 1));
        let at = 1 + next() % 64;
        Self::new().crash(victim, at)
    }
}

/// Number of live universes with a non-empty plan installed. The
/// hook fast path bails on one relaxed load of this being zero.
static ACTIVE_PLANS: AtomicUsize = AtomicUsize::new(0);
/// Runtime arm/disarm switch, for the overhead bench's paired A/B.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Runtime switch: `set_enabled(false)` makes every hook bail after
/// its fast-path load even with a plan installed (the `fault` probe
/// of the `floors` bench alternates this to measure the armed hook
/// cost by paired differencing).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

struct CrashArm {
    point: Option<&'static str>,
    at: u64,
    hits: AtomicU64,
    fired: AtomicBool,
}

struct RuleState {
    rule: MsgRule,
    seen: u64,
}

struct DelayedMsg {
    dest_world: Rank,
    due: u64,
    env: Envelope,
}

struct MsgState {
    rules: Vec<RuleState>,
    /// Delivery-attempt sequence number per destination mailbox —
    /// the clock `Delay(n)` is measured against.
    delivered_to: Vec<u64>,
    delayed: Vec<DelayedMsg>,
}

struct Inner {
    /// Crash arms indexed by world rank.
    arms: Vec<Vec<CrashArm>>,
    /// Total injection points passed per rank (diagnostics).
    counters: Vec<AtomicU64>,
    msg: Mutex<MsgState>,
}

impl Inner {
    #[inline(never)]
    fn hit(&self, rank: Rank, name: &'static str) {
        self.counters[rank].fetch_add(1, Ordering::Relaxed);
        for arm in &self.arms[rank] {
            if arm.point.is_none_or(|p| p == name) {
                let n = arm.hits.fetch_add(1, Ordering::Relaxed) + 1;
                if n == arm.at && !arm.fired.swap(true, Ordering::Relaxed) {
                    trace::instant(trace::cat::ULFM, "fault/crash", rank as u64, n);
                    // Involuntary `fail_here`: unwind with the same
                    // payload; the universe marks the rank failed
                    // and interruption-wakes every parked survivor.
                    std::panic::panic_any(RankFailure);
                }
            }
        }
    }

    fn deliver(&self, dest_world: Rank, env: Envelope, push: &mut dyn FnMut(Envelope)) {
        let mut st = self.msg.lock();
        let mut action = None;
        for rs in st.rules.iter_mut() {
            let r = &rs.rule;
            if r.from == env.src_world && r.to == dest_world && r.tag.is_none_or(|t| t == env.tag) {
                rs.seen += 1;
                if rs.seen == r.nth {
                    action = Some(r.action);
                    break;
                }
            }
        }
        st.delivered_to[dest_world] += 1;
        let now = st.delivered_to[dest_world];
        match action {
            Some(MsgAction::Drop) => {
                trace::instant(trace::cat::ULFM, "fault/drop", env.src_world as u64, now);
            }
            Some(MsgAction::Delay(by)) => {
                trace::instant(trace::cat::ULFM, "fault/delay", env.src_world as u64, by);
                st.delayed.push(DelayedMsg {
                    dest_world,
                    due: now + by,
                    env,
                });
            }
            Some(MsgAction::Duplicate) => {
                trace::instant(trace::cat::ULFM, "fault/dup", env.src_world as u64, now);
                push(env.clone());
                push(env);
            }
            Some(MsgAction::Truncate(keep)) => {
                trace::instant(
                    trace::cat::ULFM,
                    "fault/truncate",
                    env.src_world as u64,
                    now,
                );
                let mut env = env;
                env.truncate(keep);
                push(env);
            }
            None => push(env),
        }
        // Release everything whose delay has elapsed for this
        // destination, in stash order (deterministic).
        let mut i = 0;
        while i < st.delayed.len() {
            if st.delayed[i].dest_world == dest_world && st.delayed[i].due <= now {
                let d = st.delayed.remove(i);
                push(d.env);
            } else {
                i += 1;
            }
        }
    }
}

/// Per-universe fault state, owned by [`WorldState`]. `None` when the
/// universe was launched without a plan.
pub struct WorldFaults {
    inner: Option<Arc<Inner>>,
}

impl WorldFaults {
    pub(crate) fn new(plan: &FaultPlan, size: usize) -> Self {
        if plan.is_empty() {
            return WorldFaults { inner: None };
        }
        let mut arms: Vec<Vec<CrashArm>> = (0..size).map(|_| Vec::new()).collect();
        for &CrashSpec { rank, point, at } in &plan.crashes {
            assert!(
                rank < size,
                "crash rank {rank} out of range for size {size}"
            );
            arms[rank].push(CrashArm {
                point,
                at,
                hits: AtomicU64::new(0),
                fired: AtomicBool::new(false),
            });
        }
        for r in &plan.rules {
            assert!(
                r.from < size && r.to < size,
                "message rule ranks out of range for size {size}"
            );
        }
        ACTIVE_PLANS.fetch_add(1, Ordering::SeqCst);
        WorldFaults {
            inner: Some(Arc::new(Inner {
                arms,
                counters: (0..size).map(|_| AtomicU64::new(0)).collect(),
                msg: Mutex::new(MsgState {
                    rules: plan
                        .rules
                        .iter()
                        .map(|&rule| RuleState { rule, seen: 0 })
                        .collect(),
                    delivered_to: vec![0; size],
                    delayed: Vec::new(),
                }),
            })),
        }
    }
}

impl Drop for WorldFaults {
    fn drop(&mut self) {
        if self.inner.is_some() {
            ACTIVE_PLANS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

thread_local! {
    /// The rank thread's handle into its universe's fault state,
    /// installed by [`register_rank_thread`] at spawn.
    static CURRENT: RefCell<Option<(Arc<Inner>, Rank)>> = const { RefCell::new(None) };
}

/// Binds the calling rank thread to its universe's fault plan (a
/// no-op when the universe has none). Called from
/// `Universe::run_on` as each rank thread starts.
pub(crate) fn register_rank_thread(world: &WorldState, rank: Rank) {
    if let Some(inner) = &world.faults.inner {
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(inner), rank)));
    }
}

/// An injection point. One relaxed load when no plan is live
/// anywhere; otherwise counts the point against the calling rank's
/// crash arms and unwinds if one fires.
#[inline]
pub(crate) fn point(name: &'static str) {
    if ACTIVE_PLANS.load(Ordering::Relaxed) == 0 || !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    point_slow(name);
}

#[inline(never)]
fn point_slow(name: &'static str) {
    let hit = CURRENT.with(|c| c.borrow().as_ref().map(|(i, r)| (Arc::clone(i), *r)));
    if let Some((inner, rank)) = hit {
        inner.hit(rank, name);
    }
}

/// Message-delivery interception: applies any matching rule, then
/// hands the surviving envelope(s) to `push`. Inlines to a bare
/// `push(env)` when no plan is live.
#[inline]
pub(crate) fn deliver<F: FnMut(Envelope)>(
    world: &WorldState,
    dest_world: Rank,
    env: Envelope,
    mut push: F,
) {
    if ACTIVE_PLANS.load(Ordering::Relaxed) != 0 && ENABLED.load(Ordering::Relaxed) {
        if let Some(inner) = &world.faults.inner {
            return inner.deliver(dest_world, env, &mut push);
        }
    }
    push(env);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Config, RankOutcome, Universe};
    use crate::{op, MpiError};

    /// A planned crash at a named point kills exactly the victim; the
    /// survivors recover by revoke + shrink and finish the workload.
    #[test]
    fn crash_at_named_point_kills_victim_survivors_recover() {
        let plan = FaultPlan::new().crash_at(2, "mailbox/match", 2);
        let out = Universe::run_with(Config::new(4).faults(plan), |comm| {
            let mut active = comm.dup().unwrap();
            let mut sum = 0u64;
            let mut rounds = 0;
            // The canonical ULFM round: attempt, revoke on local error
            // (a peer can be parked on a live rank that errored — only
            // revocation reaches it), agree on success (a mid-phase
            // crash can fail some ranks' collectives while others
            // complete), recover together when anyone errored.
            while rounds < 6 {
                let r = active.allreduce_one(1u64, op::Sum);
                if r.is_err() && !active.is_revoked() {
                    active.revoke();
                }
                if active.agree_and(r.is_ok()).unwrap() {
                    sum = r.unwrap();
                    rounds += 1;
                } else {
                    if !active.is_revoked() {
                        active.revoke();
                    }
                    active = active.shrink().unwrap();
                }
            }
            sum
        });
        assert!(matches!(out[2], RankOutcome::Failed), "{:?}", out[2]);
        for (r, o) in out.iter().enumerate() {
            if r == 2 {
                continue;
            }
            match o {
                RankOutcome::Completed(v) => assert_eq!(*v, 3, "rank {r}"),
                o => panic!("survivor {r} did not complete: {o:?}"),
            }
        }
    }

    /// An any-point crash arm fires deterministically: the same plan
    /// over the same workload kills the same rank both times.
    #[test]
    fn seeded_plans_are_deterministic() {
        assert_eq!(FaultPlan::seeded(7, 4), FaultPlan::seeded(7, 4));
        let plan = FaultPlan::seeded(7, 4);
        let victims = plan.crashed_ranks();
        assert_eq!(victims.len(), 1);
        assert!(victims[0] >= 1 && victims[0] < 4);
        let run = |plan: &FaultPlan| {
            Universe::run_with(Config::new(4).faults(plan.clone()), |comm| {
                let mut active = comm.dup().unwrap();
                for _ in 0..40 {
                    let r = active.allreduce_one(1u64, op::Sum);
                    if r.is_err() && !active.is_revoked() {
                        active.revoke();
                    }
                    if !active.agree_and(r.is_ok()).unwrap() {
                        if !active.is_revoked() {
                            active.revoke();
                        }
                        active = active.shrink().unwrap();
                    }
                }
                active.size()
            })
            .into_iter()
            .map(|o| matches!(o, RankOutcome::Failed))
            .collect::<Vec<_>>()
        };
        assert_eq!(run(&plan), run(&plan));
    }

    /// A fault-free (empty) plan is bit-identical to a plain run.
    #[test]
    fn empty_plan_is_transparent() {
        let plain = Universe::run(3, |comm| {
            comm.allreduce_one(comm.rank() as u64 + 1, op::Sum).unwrap()
        });
        let faulted = Universe::run_with(Config::new(3).faults(FaultPlan::new()), |comm| {
            comm.allreduce_one(comm.rank() as u64 + 1, op::Sum).unwrap()
        })
        .into_iter()
        .map(|o| o.unwrap())
        .collect::<Vec<_>>();
        assert_eq!(plain, faulted);
    }

    /// Drop: the matched message never arrives; a later message on a
    /// different tag still does (the drop is surgical, not a link cut).
    #[test]
    fn drop_rule_discards_exactly_the_matched_message() {
        let plan = FaultPlan::new().drop_message(0, 1, Some(7), 1);
        let out = Universe::run_with(Config::new(2).faults(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u32], 1, 7).unwrap();
                comm.send(&[2u32], 1, 8).unwrap();
                0
            } else {
                let (v, _) = comm.recv_vec::<u32>(0, 8).unwrap();
                assert_eq!(v, vec![2]);
                // The tag-7 message was dropped before matching: it is
                // not queued and never will be.
                assert!(comm.iprobe(0, 7).is_none());
                1
            }
        });
        assert!(out.iter().all(|o| matches!(o, RankOutcome::Completed(_))));
    }

    /// Duplicate: the matched message is delivered twice.
    #[test]
    fn duplicate_rule_delivers_twice() {
        let plan = FaultPlan::new().duplicate_message(0, 1, Some(7), 1);
        Universe::run_with(Config::new(2).faults(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(&[9u32], 1, 7).unwrap();
            } else {
                let (a, _) = comm.recv_vec::<u32>(0, 7).unwrap();
                let (b, _) = comm.recv_vec::<u32>(0, 7).unwrap();
                assert_eq!((a, b), (vec![9], vec![9]));
            }
        })
        .into_iter()
        .for_each(|o| {
            o.unwrap();
        });
    }

    /// Delay(1): the matched message is reordered past the next
    /// delivery to the same destination — a wildcard receive observes
    /// the later send first.
    #[test]
    fn delay_rule_reorders_past_later_traffic() {
        let plan = FaultPlan::new().delay_message(0, 1, Some(7), 1, 1);
        Universe::run_with(Config::new(2).faults(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(&[1u32], 1, 7).unwrap();
                comm.send(&[2u32], 1, 8).unwrap();
            } else {
                let (first, st) = comm
                    .recv_vec::<u32>(crate::ANY_SOURCE, crate::ANY_TAG)
                    .unwrap();
                assert_eq!(st.tag, 8, "delayed tag-7 must arrive after tag-8");
                assert_eq!(first, vec![2]);
                let (second, _) = comm.recv_vec::<u32>(0, 7).unwrap();
                assert_eq!(second, vec![1]);
            }
        })
        .into_iter()
        .for_each(|o| {
            o.unwrap();
        });
    }

    /// A sender crashed by `mailbox/push` is detected: the receiver's
    /// blocking receive surfaces `ProcessFailed` instead of hanging.
    #[test]
    fn crashed_sender_surfaces_process_failed() {
        let plan = FaultPlan::new().crash_at(0, "mailbox/push", 1);
        let out = Universe::run_with(Config::new(2).faults(plan), |comm| {
            if comm.rank() == 0 {
                // Dies inside this send's mailbox push.
                comm.send(&[1u32], 1, 7).unwrap();
                unreachable!("the push point must have fired");
            }
            match comm.recv_vec::<u32>(0, 7) {
                Err(MpiError::ProcessFailed { world_rank: 0 }) => (),
                other => panic!("expected ProcessFailed from rank 0, got {other:?}"),
            }
        });
        assert!(matches!(out[0], RankOutcome::Failed));
        assert!(matches!(out[1], RankOutcome::Completed(())));
    }

    /// A live plan whose arms never match (unknown point name, count
    /// never reached) is inert: the run completes exactly like a
    /// fault-free one.
    /// The agreement protocol's recovery seam: a member that has
    /// contributed but not yet frozen the outcome dies (planned crash
    /// at `ulfm/contribute`, reached under the table lock — the lock
    /// releases on unwind). The failure mark bumps the interruption
    /// epoch, and a parked survivor re-runs the idempotent freeze
    /// evaluation in the dead would-be freezer's stead: every survivor
    /// still observes the identical outcome, within a deadline.
    #[test]
    fn agree_survives_freezer_crash_mid_agreement() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let plan = FaultPlan::new().crash_at(1, "ulfm/contribute", 1);
            let out = Universe::run_with(Config::new(3).faults(plan), |comm| {
                comm.agree_and(true).unwrap()
            });
            let _ = tx.send(out);
        });
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("agreement with a crashed freezer must still terminate");
        for (rank, o) in out.iter().enumerate() {
            match o {
                RankOutcome::Failed => assert_eq!(rank, 1),
                RankOutcome::Completed(v) => assert!(*v, "rank {rank}"),
                RankOutcome::Panicked(m) => panic!("rank {rank} panicked: {m}"),
            }
        }
    }

    #[test]
    fn unmatched_arms_never_fire() {
        let plan = FaultPlan::new()
            .crash_at(1, "no/such/point", 1)
            .crash(0, u64::MAX);
        let out = Universe::run_with(Config::new(2).faults(plan), |comm| {
            if comm.rank() == 1 {
                comm.send(&[1u32], 0, 3).unwrap();
            } else {
                comm.recv_vec::<u32>(1, 3).unwrap();
            }
        });
        assert!(out.iter().all(|o| matches!(o, RankOutcome::Completed(()))));
    }
}
