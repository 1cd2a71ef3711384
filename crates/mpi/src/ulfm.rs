//! User-Level Failure Mitigation (ULFM): the substrate's
//! fault-tolerance design note.
//!
//! The upcoming MPI 5.0 standard lets applications recover from process
//! failures via ULFM (§V-B of the paper): failed processes surface as
//! `MPI_ERR_PROC_FAILED`, survivors *revoke* the communicator to make
//! every pending and future operation on it fail, then *shrink* it to a
//! new communicator of survivors and continue; `agree` provides a
//! failure-aware agreement (logical AND) among survivors. This module
//! implements those operations — [`Comm::revoke`] / [`Comm::is_revoked`],
//! [`Comm::shrink`], [`Comm::agree_and`], plus the voluntary crash
//! [`Comm::fail_here`] — and this note records the model and the
//! argument for why **no survivor can hang**, whatever the crash point.
//!
//! # Failure detector model
//!
//! Ranks are OS threads sharing one address space, so the substrate has
//! the *perfect* failure detector shared memory affords: a crash is an
//! unwinding rank thread, caught by the universe, which sets the rank's
//! `failed` flag (one atomic store, release) **before** any survivor can
//! be told to look. Detection is neither eventual nor inaccurate —
//! `is_failed` is the ground truth the moment it returns `true` — which
//! maps to ULFM's assumption of a local failure detector with
//! completeness, and strengthens accuracy to "perfect" (no wrongful
//! suspicion). What remains hard — and what this module is really about
//! — is *propagation*: a failure must reach every survivor **parked in a
//! blocking wait**, of which the substrate has many kinds (matching
//! waits, multi-source completion parks, standing-registration sessions,
//! agreement parks, persistent and partitioned cycle waits).
//!
//! # The wake-on-epoch protocol (proof sketch)
//!
//! Every parking structure follows one discipline, and the argument is
//! the same for each:
//!
//! 1. A waiter **captures the interruption epoch** `e` *before* its last
//!    predicate check (queue scan, freeze evaluation, failure-flag
//!    read).
//! 2. It parks only if the predicate came up empty, and re-checks the
//!    epoch under its own lock before every sleep: it sleeps only while
//!    `epoch == e`.
//! 3. An interruption (failure mark or revocation) first updates the
//!    condition (failed flag / revoked set), then **bumps the epoch, then
//!    wakes** every parked waiter — each listed on its mailbox's watcher
//!    list by the one park, each wake taken under that waiter's lock
//!    ([`Mailbox::interrupt`](crate::mailbox::Mailbox::interrupt)).
//!
//! Case split on when the failure happens relative to the waiter's
//! epoch capture: (a) *before* — the waiter's predicate check already
//! sees the updated flags and returns an error without parking;
//! (b) *after* — the bump makes `epoch != e`, and since the wake is
//! taken under the waiter's lock it cannot interleave between the
//! waiter's last epoch test and its sleep, so the waiter wakes, observes
//! the mismatch, and re-runs its predicate against the new flags. Either
//! way the waiter terminates with the message, `ProcessFailed`, or
//! `Revoked` — there is no third branch and no timed poll anywhere.
//! Higher layers (request sets, park sessions, pools, persistent waits)
//! tear down to a full re-check whenever their captured epoch moves, so
//! the argument composes.
//!
//! # Agreement and shrink
//!
//! [`Comm::agree_and`] runs on a shared [`AgreementTable`]: each member
//! contributes under the table lock; whoever observes the freeze
//! condition (*every member contributed or failed*) computes the
//! outcome — fold over survivors, survivor list, fresh context id —
//! still under the lock, and claims exactly that entry's waiters. The
//! freeze evaluation is **idempotent and lock-atomic**: if the would-be
//! freezer crashes before freezing (injection point `ulfm/contribute`),
//! its failure mark bumps the epoch and any parked member re-evaluates
//! the same condition — now satisfied by the crasher's `failed` flag —
//! and freezes in its stead. [`Comm::shrink`] is `agree` plus a derived
//! communicator build, inheriting the parent's collective tuning; it
//! also releases what the dead can no longer drain (their mailbox
//! engines) and, when the parent is revoked, this rank's shard for the
//! dead context — the [`Comm::free`] reclamation without the barrier a
//! revoked communicator could not run.
//!
//! # The canonical recovery loop
//!
//! Applications wrap each fault-tolerant step as: attempt → **revoke on
//! local error** → `agree_and(ok)` → count the step, or revoke + shrink
//! together. The revoke-before-agree order is load-bearing. ULFM only
//! guarantees an error at *some* ranks: a peer can be parked inside the
//! failed collective waiting on a rank that is still **alive** but
//! errored out and moved on (the classic case: non-roots parked on a
//! broadcast whose root's gather failed). Agreement cannot free that
//! peer — `agree_and` freezes only when every member *contributed or
//! failed*, and the stuck peer will do neither. Revocation can: it
//! interrupts every pending operation on the communicator, so the stuck
//! peer wakes with `Revoked`, revokes idempotently, and joins the
//! agreement. Skipping the revoke turns "one rank errored" into a
//! distributed deadlock whenever the error is asymmetric.
//!
//! # Crash-testing this argument
//!
//! The `fault` feature (see [`crate::fault`]) compiles injection points
//! into the paths above — `mailbox/push`, `mailbox/match`,
//! `completion/register`, `completion/park`, `completion/claim`,
//! `coll/phase`, `persistent/start`, `partitioned/pready`,
//! `topology/build`, `ulfm/contribute` — so a deterministic
//! [`FaultPlan`](crate::FaultPlan) can land a crash inside any of them.
//! The chaos suite (`crates/mpi/tests/chaos.rs`) replays hundreds of
//! randomized fault schedules against randomized workloads under a hard
//! liveness deadline; the `fault_experiment` bench pins
//! failure-detection latency and shrink-and-continue recovery time.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::comm::Comm;
use crate::completion::{fresh_waiter, Waiter};
use crate::error::Result;
use crate::universe::RankFailure;
use crate::Rank;

/// One in-flight agreement instance.
struct AgreeEntry {
    /// Contributions by world rank (a rank contributes exactly once).
    contributions: HashMap<Rank, u64>,
    /// Set once the agreement freezes: (AND of contributions, surviving
    /// participant world ranks in canonical order, fresh context id).
    outcome: Option<(u64, Vec<Rank>, u64)>,
    /// How many survivors have collected the outcome (for cleanup).
    collected: usize,
    /// Parked participants awaiting this entry's outcome. The freezing
    /// rank claims and wakes exactly these waiters — other agreements'
    /// waiters never hear about it (no table-wide herd), and there is
    /// no timed re-check: interruption reaches parked waiters through
    /// their mailbox's epoch ([`Mailbox::interrupt`](crate::mailbox::Mailbox::interrupt)).
    waiters: Vec<Arc<Waiter>>,
}

/// Shared table of in-flight agreements, keyed by
/// `(context id, per-communicator call sequence)`.
///
/// Waiting is the one park of [`crate::completion`]: a participant that
/// cannot freeze the agreement yet registers a waiter on the entry and
/// parks on its rank's mailbox; the freezer claims exactly that entry's
/// waiters, and interruption (process failure — which can change the
/// freeze condition) bumps every mailbox's epoch before waking its
/// watchers, so no interleaving can strand a waiter. The 50 ms timed
/// re-check the seed used — the substrate's last poll loop — is gone.
#[derive(Default)]
pub struct AgreementTable {
    entries: Mutex<HashMap<(u64, i32), AgreeEntry>>,
}

impl Comm {
    /// Simulates a crash of this rank: marks it failed (waking all blocked
    /// peers, which then observe `ProcessFailed`) and unwinds the rank
    /// thread. Never returns.
    pub fn fail_here(&self) -> ! {
        self.world.mark_failed(self.world_rank());
        std::panic::panic_any(RankFailure);
    }

    /// Revokes the communicator: every pending and future operation on it
    /// (on any rank) fails with
    /// [`MpiError::Revoked`](crate::MpiError::Revoked). Mirrors
    /// `MPI_Comm_revoke`; like it, revocation is not itself collective.
    pub fn revoke(&self) {
        self.count_op("comm_revoke");
        self.world.revoke(self.context);
    }

    /// True if this communicator has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.world.is_revoked(self.context)
    }

    /// True if the given communicator rank is known to have failed.
    pub fn is_failed(&self, rank: Rank) -> bool {
        self.translate_to_world(rank)
            .map(|w| self.world.is_failed(w))
            .unwrap_or(false)
    }

    /// Failure-aware agreement (mirrors `MPI_Comm_agree`): returns the
    /// logical AND of `flag` over all *surviving* ranks of the
    /// communicator. Unlike regular collectives, agreement succeeds in the
    /// presence of failed ranks (their contributions are excluded) and on
    /// revoked communicators.
    pub fn agree_and(&self, flag: bool) -> Result<bool> {
        self.count_op("comm_agree");
        let bits = self.agree_raw(u64::from(flag))?;
        Ok(bits != 0)
    }

    /// Shrinks the communicator to its surviving ranks (mirrors
    /// `MPI_Comm_shrink`). Works on revoked communicators; the surviving
    /// ranks obtain a fresh, non-revoked communicator with ranks assigned
    /// in the old rank order.
    pub fn shrink(&self) -> Result<Comm> {
        self.count_op("comm_shrink");
        let _sp = crate::trace::span(crate::trace::cat::COLL, "ulfm/shrink", 0, 0);
        let (_, survivors_world, fresh_context) = self.agree_full(1)?;
        let my_world = self.world_rank();
        // Reclaim what the dead can no longer drain: buffered sends to
        // a failed rank succeed by design, so its matching engine would
        // otherwise pin shards and payloads for the rest of the run.
        // Every survivor purges idempotently (racing purges are safe:
        // the owner thread is gone).
        for &w in self.group.iter() {
            if self.world.is_failed(w) {
                self.world.mailboxes[w].purge();
            }
        }
        // A revoked parent can never run the collective `Comm::free`,
        // so its per-rank shard would leak; shrink is the last
        // collective-ish call on it, and every survivor passes through
        // here — reclaim the shard now (the free path minus the
        // barrier).
        if self.is_revoked() {
            self.mailbox().remove_shard(self.context);
        }
        let new_rank = survivors_world
            .iter()
            .position(|&w| w == my_world)
            .expect("calling rank survives its own shrink");
        Ok(self.derived(Arc::new(survivors_world), new_rank, fresh_context))
    }

    fn agree_raw(&self, value: u64) -> Result<u64> {
        self.agree_full(value).map(|(v, _, _)| v)
    }

    /// Core agreement: each surviving member contributes once; the call
    /// returns when every member has contributed or failed. The freezing
    /// participant computes the result and allocates a fresh context id
    /// (used by `shrink`) under the table lock, so all survivors observe
    /// the identical outcome.
    fn agree_full(&self, value: u64) -> Result<(u64, Vec<Rank>, u64)> {
        let _sp = crate::trace::span(crate::trace::cat::COLL, "ulfm/agree", self.size() as u64, 0);
        // Keyed by the dedicated agreement sequence, NOT the internal
        // tag counter: tag counters diverge across survivors when a
        // collective dies mid-phase (each rank allocated only the tags
        // of the phases it reached), and a diverged key would park the
        // survivors on *different* entries — a deadlock no epoch bump
        // can break. Agreement calls themselves are collective, so this
        // counter cannot diverge.
        let key = (self.context, self.next_agree_seq());
        let my_world = self.world_rank();
        let members: Vec<Rank> = self.group.as_ref().clone();
        let table = &self.world.agreements;

        // The epoch must be captured before the first freeze check: a
        // failure raised after this load is caught by `park`'s epoch
        // comparison (every failure bumps this rank's mailbox epoch
        // before waking), one raised before it by the `is_failed` reads
        // below.
        let mb = self.mailbox();
        let mut seen_epoch = mb.epoch();
        let mut entries = table.entries.lock();
        let entry = entries.entry(key).or_insert_with(|| AgreeEntry {
            contributions: HashMap::new(),
            outcome: None,
            collected: 0,
            waiters: Vec::new(),
        });
        entry.contributions.insert(my_world, value);
        // A crash here (planned via `ulfm/contribute`) kills a member
        // that has contributed but not frozen: the would-be freezer
        // dying mid-agreement. The table lock releases on unwind; the
        // failure mark bumps the epoch and a parked survivor re-runs
        // the (idempotent) freeze evaluation in its stead.
        crate::fault::point("ulfm/contribute");

        loop {
            let entry = entries.get_mut(&key).expect("entry exists while awaited");
            if entry.outcome.is_none() {
                let frozen = members
                    .iter()
                    .all(|&w| entry.contributions.contains_key(&w) || self.world.is_failed(w));
                if frozen {
                    let survivors: Vec<Rank> = members
                        .iter()
                        .copied()
                        .filter(|&w| {
                            entry.contributions.contains_key(&w) && !self.world.is_failed(w)
                        })
                        .collect();
                    let folded = entry
                        .contributions
                        .iter()
                        .filter(|(w, _)| survivors.contains(w))
                        .fold(u64::MAX, |acc, (_, &v)| acc & v);
                    let fresh = self.world.alloc_contexts(1);
                    entry.outcome = Some((folded, survivors, fresh));
                    // Targeted wakeups: exactly this entry's parked
                    // participants; waiters of other in-flight
                    // agreements sleep on.
                    for w in entry.waiters.drain(..) {
                        w.claim(0);
                    }
                }
            }
            if let Some((v, survivors, ctx)) = entry.outcome.clone() {
                entry.collected += 1;
                if entry.collected >= survivors.len() {
                    entries.remove(&key);
                }
                return Ok((v, survivors, ctx));
            }
            // Park until the freezer claims this waiter or the epoch
            // moves (a failure may have completed the freeze condition
            // this rank must now evaluate). Registration happens under
            // the entries lock freezers take, so no outcome can slip
            // between the check above and the park below.
            let waiter = fresh_waiter();
            entry.waiters.push(Arc::clone(&waiter));
            drop(entries);
            waiter.park(mb, seen_epoch);
            seen_epoch = mb.epoch();
            entries = table.entries.lock();
            if let Some(e) = entries.get_mut(&key) {
                e.waiters.retain(|w| !Arc::ptr_eq(w, &waiter));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Config, MpiError, RankOutcome, Universe};

    #[test]
    fn failure_is_detected_by_blocked_receiver() {
        let out = Universe::run_with(Config::new(2), |comm| {
            if comm.rank() == 1 {
                comm.fail_here();
            }
            // Rank 0 blocks on a receive from the failed rank.
            let err = comm.recv_vec::<u8>(1, 0).unwrap_err();
            assert!(matches!(err, MpiError::ProcessFailed { world_rank: 1 }));
            true
        });
        assert_eq!(out[0], RankOutcome::Completed(true));
        assert_eq!(out[1], RankOutcome::Failed);
    }

    #[test]
    fn failure_surfaces_in_collectives() {
        // A collective may fail on some ranks while others would keep
        // waiting on non-failed peers — the reason ULFM requires revoking
        // the communicator before recovery. Ranks that observe the error
        // revoke; the remaining ranks are then released with `Revoked`.
        let out = Universe::run_with(Config::new(4), |comm| {
            if comm.rank() == 2 {
                comm.fail_here();
            }
            let r = comm.allreduce_one(1u64, crate::op::Sum);
            if r.is_err() && !comm.is_revoked() {
                comm.revoke();
            }
            r.is_err()
        });
        for (rank, o) in out.iter().enumerate() {
            match o {
                RankOutcome::Failed => assert_eq!(rank, 2),
                RankOutcome::Completed(errored) => {
                    assert!(errored, "rank {rank} must see the failure")
                }
                RankOutcome::Panicked(m) => panic!("rank {rank} panicked: {m}"),
            }
        }
    }

    #[test]
    fn revoked_comm_rejects_operations() {
        Universe::run(2, |comm| {
            // Work on a duplicate so the world communicator stays usable.
            let dup = comm.dup().unwrap();
            if comm.rank() == 0 {
                dup.revoke();
            }
            // Spin until the revocation is visible on all ranks.
            while !dup.is_revoked() {
                std::thread::yield_now();
            }
            let err = dup.send(&[1u8], (comm.rank() + 1) % 2, 0).unwrap_err();
            assert_eq!(err, MpiError::Revoked);
        });
    }

    #[test]
    fn revocation_racing_a_send_never_hangs_the_receiver() {
        // Regression for the matching engine's interruption protocol:
        // the receiver blocks in `wait_match` with no timed-poll safety
        // net while the peer's send and the revocation race each other.
        // Every iteration must terminate — with the message if the push
        // matched first, with `Revoked` otherwise. Before the
        // targeted-wakeup engine this interleaving was only guarded by
        // the 50 ms poll.
        for i in 0..200u32 {
            Universe::run(2, move |comm| {
                let dup = comm.dup().unwrap();
                if comm.rank() == 1 {
                    if i % 2 == 0 {
                        std::thread::yield_now();
                    }
                    let sent = dup.send(&[i], 0, 3).is_ok();
                    dup.revoke();
                    sent
                } else {
                    match dup.recv_vec::<u32>(1, 3) {
                        Ok((v, _)) => v == vec![i],
                        Err(MpiError::Revoked) => true,
                        Err(e) => panic!("iteration {i}: unexpected error {e}"),
                    }
                }
            })
            .into_iter()
            .for_each(|ok| assert!(ok));
        }
    }

    #[test]
    fn shrink_after_failure_produces_working_comm() {
        let out = Universe::run_with(Config::new(4), |comm| {
            if comm.rank() == 1 {
                comm.fail_here();
            }
            // Survivors: detect the failure, then recover (Fig. 12 flow).
            let err = comm.allreduce_one(1u64, crate::op::Sum);
            assert!(err.is_err());
            if !comm.is_revoked() {
                comm.revoke();
            }
            let shrunk = comm.shrink().unwrap();
            assert_eq!(shrunk.size(), 3);
            assert!(!shrunk.is_revoked());
            // The shrunken communicator is fully operational.
            shrunk
                .allreduce_one(shrunk.rank() as u64, crate::op::Sum)
                .unwrap()
        });
        let survivors: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
        // New ranks are 0,1,2 -> sum 3 on every survivor.
        assert_eq!(survivors, vec![3, 3, 3]);
    }

    #[test]
    fn agree_and_over_survivors() {
        let out = Universe::run_with(Config::new(3), |comm| {
            if comm.rank() == 0 {
                comm.fail_here();
            }
            // Survivors 1 and 2 both pass true; the failed rank is excluded.
            comm.agree_and(true).unwrap()
        });
        assert_eq!(out[1], RankOutcome::Completed(true));
        assert_eq!(out[2], RankOutcome::Completed(true));
    }

    #[test]
    fn agree_and_is_logical_and() {
        let out = Universe::run_with(Config::new(3), |comm| {
            comm.agree_and(comm.rank() != 1).unwrap()
        });
        for o in out {
            assert_eq!(o, RankOutcome::Completed(false));
        }
    }

    #[test]
    fn double_shrink_tolerates_sequential_failures() {
        let out = Universe::run_with(Config::new(4), |comm| {
            if comm.rank() == 3 {
                comm.fail_here();
            }
            let shrunk = comm.shrink().unwrap();
            assert_eq!(shrunk.size(), 3);
            if shrunk.rank() == 2 {
                shrunk.fail_here();
            }
            let again = shrunk.shrink().unwrap();
            assert_eq!(again.size(), 2);
            again.allreduce_one(1u64, crate::op::Sum).unwrap()
        });
        let survivors: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
        assert_eq!(survivors, vec![2, 2]);
    }

    /// Watchdog for liveness assertions: a hang's only observable
    /// signature is "never returns", so the fault-matrix tests run
    /// under a deadline generous enough for a loaded CI machine. On
    /// timeout the worker thread is leaked — the test is failing
    /// anyway.
    fn with_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(v) => v,
            Err(_) => panic!("liveness deadline of {secs}s exceeded: a survivor is hung"),
        }
    }

    /// A topology's private communicator is revoked with the one it was
    /// built from: a rank parked in a neighborhood exchange whose peer
    /// bailed out before joining is reachable by the recovery
    /// protocol's `revoke`. (It was not: a single-crash sweep of
    /// `chaos_neighborhood_round` hung at p = 4.)
    #[test]
    fn revoking_the_parent_reaches_a_rank_parked_in_a_topology_exchange() {
        use crate::NeighborhoodColl;
        with_deadline(60, || {
            Universe::run(2, |comm| {
                let parent = comm.dup().unwrap();
                let peer = 1 - comm.rank();
                let g = parent.create_dist_graph_adjacent(&[peer], &[peer]).unwrap();
                if comm.rank() == 0 {
                    let err = g.neighbor_allgather_vecs(&[0u8]).unwrap_err();
                    assert_eq!(err, MpiError::Revoked);
                } else {
                    parent.revoke();
                }
            });
        });
    }

    #[test]
    fn revoked_while_parked_request_sets_wake() {
        // A `RequestSet` parked on the matching engine must wake with
        // `Revoked` when the communicator is revoked under it — both
        // the standing-registration fast path (`wait_any` on an
        // all-receive set keeps a `ParkSession`) and the transient park
        // (`wait_some`). 500 schedules race the revocation against set
        // construction and the park itself; tag 6 never receives a
        // message, so the only exit is the revocation surfacing —
        // reaching it at all is the assertion.
        with_deadline(240, || {
            for i in 0..500u32 {
                Universe::run(2, move |comm| {
                    let dup = comm.dup().unwrap();
                    if comm.rank() == 1 {
                        if i % 4 == 0 {
                            // Let the receiver reach the parked state.
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        }
                        if i % 3 == 0 {
                            let _ = dup.send(&[i], 0, 5);
                        }
                        dup.revoke();
                    } else {
                        let mut set = crate::RequestSet::new();
                        set.push(dup.irecv(1, 5));
                        set.push(dup.irecv(1, 6));
                        loop {
                            let r = if i % 2 == 0 {
                                set.wait_any()
                                    .map(|hit| hit.into_iter().collect::<Vec<_>>())
                            } else {
                                set.wait_some()
                            };
                            match r {
                                Ok(_) => continue,
                                Err(MpiError::Revoked) => break,
                                Err(e) => panic!("iteration {i}: unexpected error {e}"),
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn shrink_inherits_parent_coll_tuning() {
        // Recovery must not forget performance decisions: `CollTuning`
        // is per-communicator and collectively agreed, so the shrunken
        // communicator inherits the parent's settings rather than
        // resetting to defaults.
        let out = Universe::run_with(Config::new(3), |comm| {
            let dup = comm.dup().unwrap();
            let mut t = dup.tuning();
            t.rabenseifner_min_bytes = 4242;
            dup.set_tuning(t);
            if comm.rank() == 1 {
                comm.fail_here();
            }
            let r = dup.allreduce_one(1u64, crate::op::Sum);
            assert!(r.is_err());
            if !dup.is_revoked() {
                dup.revoke();
            }
            let shrunk = dup.shrink().unwrap();
            assert_eq!(shrunk.tuning().rabenseifner_min_bytes, 4242);
            shrunk.allreduce_one(1u64, crate::op::Sum).unwrap()
        });
        let survivors: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
        assert_eq!(survivors, vec![2, 2]);
    }

    #[test]
    fn shrink_releases_dead_ranks_mailbox_shards() {
        // Buffered sends to a failed rank succeed by design, so a dead
        // rank's matching engine would pin its shards and queued
        // payloads for the rest of the run. The survivors' `shrink`
        // purges it: afterwards only the world shard remains and the
        // unexpected-queue gauge reads zero.
        let (out, report) = Universe::run_report(Config::new(3), |comm| {
            let dup = comm.dup().unwrap();
            if comm.rank() == 1 {
                // Carry traffic on the dup context so this rank's
                // engine holds a live derived shard, then die.
                let _ = dup.recv_vec::<u8>(0, 1).unwrap();
                comm.fail_here();
            }
            if comm.rank() == 0 {
                dup.send(&[1u8], 1, 1).unwrap();
            }
            let r = dup.allreduce_one(1u64, crate::op::Sum);
            assert!(r.is_err());
            // More traffic for the dead engine: either it queues
            // unmatched (the leak this test pins) or the failure is
            // already visible and the send errors — both are fine.
            let _ = dup.send(&[9u8], 1, 2);
            if !dup.is_revoked() {
                dup.revoke();
            }
            let shrunk = dup.shrink().unwrap();
            assert_eq!(shrunk.size(), 2);
            shrunk.allreduce_one(1u64, crate::op::Sum).unwrap()
        });
        let survivors: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
        assert_eq!(survivors, vec![2, 2]);
        let dead = &report.stats[1].mailbox;
        assert_eq!(
            dead.shard_count, 1,
            "shrink must reclaim the dead rank's derived shards: {dead:?}"
        );
        assert_eq!(
            dead.queued, 0,
            "shrink must drain the dead rank's unexpected queues: {dead:?}"
        );
    }

    #[test]
    fn persistent_wait_surfaces_peer_failure_mid_cycle() {
        // A persistent receive in its steady state (standing
        // registration, zero per-cycle setup) parks on an arrival that
        // will never come once the sender dies; the failure mark must
        // wake it with `ProcessFailed`, not leave it parked.
        with_deadline(60, || {
            let out = Universe::run_with(Config::new(2), |comm| {
                if comm.rank() == 0 {
                    let mut rx = comm.recv_init(1, 7).unwrap();
                    for _ in 0..3 {
                        rx.start().unwrap();
                        rx.wait().unwrap();
                    }
                    rx.start().unwrap();
                    let err = rx.wait().unwrap_err();
                    assert_eq!(err, MpiError::ProcessFailed { world_rank: 1 });
                    true
                } else {
                    let mut tx = comm.send_init(&[1u8], 0, 7).unwrap();
                    for _ in 0..3 {
                        tx.start().unwrap();
                        tx.wait().unwrap();
                    }
                    comm.fail_here();
                }
            });
            assert!(matches!(out[0], RankOutcome::Completed(true)));
            assert!(matches!(out[1], RankOutcome::Failed));
        });
    }

    #[test]
    fn persistent_cycle_surfaces_revocation() {
        // Revocation mid-steady-state: the parked persistent receive
        // wakes with `Revoked`, and re-arming the plan is refused.
        with_deadline(60, || {
            Universe::run(2, |comm| {
                let dup = comm.dup().unwrap();
                if comm.rank() == 0 {
                    let mut rx = dup.recv_init(1, 7).unwrap();
                    rx.start().unwrap();
                    rx.wait().unwrap();
                    // Re-arm, then ack on the (never revoked) parent: cycle
                    // 1 is deterministically complete and cycle 2 armed
                    // before the revocation.
                    rx.start().unwrap();
                    comm.send(&[1u8], 1, 0).unwrap();
                    let err = rx.wait().unwrap_err();
                    assert_eq!(err, MpiError::Revoked);
                    assert_eq!(rx.start().unwrap_err(), MpiError::Revoked);
                } else {
                    let mut tx = dup.send_init(&[1u8], 0, 7).unwrap();
                    tx.start().unwrap();
                    tx.wait().unwrap();
                    let _ = comm.recv_vec::<u8>(0, 0).unwrap();
                    dup.revoke();
                }
            });
        });
    }

    #[test]
    fn partitioned_pready_after_peer_death_poisons_the_cycle() {
        // Partitioned sends are rendezvous-like: the receiver froze a
        // matching plan, so publishing into a dead peer can never
        // complete a cycle. `pready` must fail fast with
        // `ProcessFailed` and poison the cycle so the rank thread's
        // `wait` sees it too.
        with_deadline(60, || {
            let out = Universe::run_with(Config::new(2), |comm| {
                if comm.rank() == 0 {
                    let mut tx = comm.psend_init::<u64>(2, 1, 1, 9).unwrap();
                    let w = tx.writer();
                    tx.start().unwrap();
                    w.pready(0, &[1u64]).unwrap();
                    w.pready(1, &[2u64]).unwrap();
                    tx.wait().unwrap();
                    while !comm.is_failed(1) {
                        std::thread::yield_now();
                    }
                    tx.start().unwrap();
                    let err = w.pready(0, &[3u64]).unwrap_err();
                    assert_eq!(err, MpiError::ProcessFailed { world_rank: 1 });
                    let err = tx.wait().unwrap_err();
                    assert_eq!(err, MpiError::ProcessFailed { world_rank: 1 });
                    true
                } else {
                    let mut rx = comm.precv_init::<u64>(2, 1, 0, 9).unwrap();
                    rx.start().unwrap();
                    assert_eq!(rx.wait().unwrap(), vec![1, 2]);
                    comm.fail_here();
                }
            });
            assert!(matches!(out[0], RankOutcome::Completed(true)));
        });
    }

    #[test]
    fn partitioned_recv_wait_surfaces_sender_death_mid_cycle() {
        // The reassembly loop parks between partition arrivals; a
        // sender dying after publishing only part of the cycle must
        // wake it with `ProcessFailed`, never strand it waiting for the
        // missing partitions.
        with_deadline(60, || {
            let out = Universe::run_with(Config::new(2), |comm| {
                if comm.rank() == 1 {
                    let mut rx = comm.precv_init::<u64>(2, 1, 0, 9).unwrap();
                    rx.start().unwrap();
                    assert_eq!(rx.wait().unwrap(), vec![4, 5]);
                    rx.start().unwrap();
                    let err = rx.wait().unwrap_err();
                    assert_eq!(err, MpiError::ProcessFailed { world_rank: 0 });
                    assert_eq!(
                        rx.start().unwrap_err(),
                        MpiError::ProcessFailed { world_rank: 0 }
                    );
                    true
                } else {
                    let mut tx = comm.psend_init::<u64>(2, 1, 1, 9).unwrap();
                    let w = tx.writer();
                    tx.start().unwrap();
                    w.pready(0, &[4u64]).unwrap();
                    w.pready(1, &[5u64]).unwrap();
                    tx.wait().unwrap();
                    tx.start().unwrap();
                    w.pready(0, &[6u64]).unwrap();
                    comm.fail_here();
                }
            });
            assert!(matches!(out[1], RankOutcome::Completed(true)));
        });
    }

    /// Every kind of parked wait wakes on an interrupt: rank 0 parks in
    /// each in turn while rank 1 revokes the communicator or dies, and
    /// the wait must end in `Revoked` / `ProcessFailed` before the
    /// deadline — no park may sleep through the watcher list.
    #[test]
    fn every_parked_wait_wakes_on_an_interrupt() {
        use crate::{Comm, PersistentSet, RequestSet, Result};
        type Park = fn(&Comm) -> Result<()>;
        let parks: [(&str, Park); 9] = [
            ("recv", |c| c.recv_vec::<u8>(1, 0).map(drop)),
            ("probe", |c| c.probe(1, 0).map(drop)),
            ("issend", |c| c.issend(&[1u8], 1, 0)?.wait().map(drop)),
            ("wait_any on receives", |c| {
                let mut set = RequestSet::new();
                set.push(c.irecv(1, 0));
                set.push(c.irecv(1, 1));
                set.wait_any().map(drop)
            }),
            ("wait_any on a mixed set", |c| {
                let mut set = RequestSet::new();
                set.push(c.issend(&[1u8], 1, 0)?);
                set.push(c.irecv(1, 1));
                set.wait_any().map(drop)
            }),
            ("wait_some", |c| {
                let mut set = RequestSet::new();
                set.push(c.irecv(1, 0));
                set.wait_some().map(drop)
            }),
            ("persistent wait", |c| {
                let mut rx = c.recv_init(1, 0)?;
                rx.start()?;
                rx.wait().map(drop)
            }),
            ("persistent wait_all", |c| {
                let mut set = PersistentSet::new();
                set.push(c.recv_init(1, 0)?);
                set.push(c.recv_init(1, 1)?);
                set.start_all()?;
                set.wait_all().map(drop)
            }),
            ("partitioned wait", |c| {
                let mut rx = c.precv_init::<u8>(2, 1, 1, 0)?;
                rx.start()?;
                rx.wait().map(drop)
            }),
        ];
        with_deadline(120, move || {
            for (name, park) in parks {
                for revoke in [true, false] {
                    let out = Universe::run_with(Config::new(2), move |comm| {
                        if comm.rank() == 0 {
                            return Some(park(&comm).unwrap_err());
                        }
                        // Interrupt only once rank 0 is parked: its first
                        // park is the wait under test.
                        while comm.world.mailboxes[0].stats().max_parked == 0 {
                            std::thread::yield_now();
                        }
                        if revoke {
                            comm.revoke();
                            return None;
                        }
                        comm.fail_here();
                    });
                    let want = match revoke {
                        true => MpiError::Revoked,
                        false => MpiError::ProcessFailed { world_rank: 1 },
                    };
                    let got = &out[0];
                    assert_eq!(
                        *got,
                        RankOutcome::Completed(Some(want)),
                        "{name}, revoke {revoke}"
                    );
                }
            }
        });
    }

    /// Every restartable request ends a failed cycle the same way: the
    /// interrupted `wait` returns the error, and the next `start`
    /// returns it again — the frozen plan names a peer that can no
    /// longer answer. Rank 0 parks in each row's wait while rank 1
    /// revokes the communicator or dies.
    #[test]
    fn every_restartable_request_replays_its_failed_cycle_at_restart() {
        use crate::{op::Sum, Comm, PersistentSet, Result};
        type Cycle = fn(&Comm) -> Result<[Result<()>; 2]>;
        let rows: [(&str, Cycle); 4] = [
            ("recv_init", |c| {
                let mut rx = c.recv_init(1, 0)?;
                rx.start()?;
                Ok([rx.wait().map(drop), rx.start()])
            }),
            ("PersistentSet of two", |c| {
                let mut set = PersistentSet::new();
                set.push(c.recv_init(1, 0)?);
                set.push(c.recv_init(1, 1)?);
                set.start_all()?;
                Ok([set.wait_all().map(drop), set.start_all()])
            }),
            ("allreduce_init", |c| {
                let mut sum = c.allreduce_init(&[1u64], Sum)?;
                sum.start()?;
                Ok([sum.wait().map(drop), sum.start()])
            }),
            ("precv_init", |c| {
                let mut rx = c.precv_init::<u8>(2, 1, 1, 0)?;
                rx.start()?;
                Ok([rx.wait().map(drop), rx.start()])
            }),
        ];
        with_deadline(120, move || {
            for (name, cycle) in rows {
                for revoke in [true, false] {
                    let out = Universe::run_with(Config::new(2), move |comm| {
                        if comm.rank() == 0 {
                            return Some(cycle(&comm));
                        }
                        while comm.world.mailboxes[0].stats().max_parked == 0 {
                            std::thread::yield_now();
                        }
                        if revoke {
                            comm.revoke();
                            return None;
                        }
                        comm.fail_here();
                    });
                    let want = match revoke {
                        true => MpiError::Revoked,
                        false => MpiError::ProcessFailed { world_rank: 1 },
                    };
                    assert_eq!(
                        out[0],
                        RankOutcome::Completed(Some(Ok([Err(want.clone()), Err(want)]))),
                        "{name}, revoke {revoke}"
                    );
                }
            }
        });
    }

    /// A `PersistentSet` member whose cycle fails is poisoned like a lone
    /// request: member 0's message lands, member 1's sender dies, and
    /// after `wait_all` returns the failure, `start_all` restarts member
    /// 0 and stops at member 1 with the same error (not `RequestActive`:
    /// the failed cycle is over).
    #[test]
    fn persistent_set_poisons_the_member_whose_cycle_failed() {
        use crate::PersistentSet;
        with_deadline(60, || {
            let out = Universe::run_with(Config::new(2), |comm| {
                if comm.rank() == 1 {
                    comm.send(&[7u8], 0, 0).unwrap();
                    comm.fail_here();
                }
                let mut set = PersistentSet::new();
                set.push(comm.recv_init(1, 0).unwrap());
                set.push(comm.recv_init(1, 1).unwrap());
                set.start_all().unwrap();
                let failed = MpiError::ProcessFailed { world_rank: 1 };
                assert_eq!(set.wait_all().unwrap_err(), failed);
                assert_eq!(set.start_all().unwrap_err(), failed);
                assert!(set.requests_mut()[0].is_active(), "member 0 restarted");
                true
            });
            assert_eq!(out[0], RankOutcome::Completed(true));
        });
    }

    /// The healthy half of the table: one stream read through a one-shot
    /// receive, a persistent receive, a `PersistentSet` member and a
    /// partitioned receive yields the same bytes every cycle.
    #[test]
    fn every_receive_form_reads_the_same_stream() {
        use crate::PersistentSet;
        const N: usize = 8;
        let payload = |cycle: u8| -> Vec<u8> { (0..N as u8).map(|i| i * 3 + cycle).collect() };
        Universe::run(2, move |comm| {
            if comm.rank() == 1 {
                let mut tx = comm.psend_init::<u8>(2, N / 2, 0, 3).unwrap();
                let w = tx.writer();
                for cycle in 0..3 {
                    let data = payload(cycle);
                    for tag in 0..3 {
                        comm.send(&data, 0, tag).unwrap();
                    }
                    tx.start().unwrap();
                    for (p, part) in data.chunks(N / 2).enumerate().rev() {
                        w.pready(p, part).unwrap();
                    }
                    tx.wait().unwrap();
                }
                return;
            }
            let mut rx = comm.recv_init(1, 1).unwrap();
            let mut set = PersistentSet::new();
            set.push(comm.recv_init(1, 2).unwrap());
            let mut prx = comm.precv_init::<u8>(2, N / 2, 1, 3).unwrap();
            for cycle in 0..3 {
                let read = |c: crate::request::Completion| c.into_vec::<u8>().unwrap().0;
                rx.start().unwrap();
                set.start_all().unwrap();
                prx.start().unwrap();
                let got = [
                    read(comm.irecv(1, 0).wait().unwrap()),
                    read(rx.wait().unwrap()),
                    read(set.wait_all().unwrap().remove(0)),
                    prx.wait().unwrap(),
                ];
                assert!(
                    got.iter().all(|g| *g == payload(cycle)),
                    "cycle {cycle}: {got:?}"
                );
            }
        });
    }

    /// Agreement parks on its rank's mailbox and is woken by the
    /// failure's epoch bump: rank 2 dies after an iteration-dependent
    /// spin while ranks 0 and 1 agree, and in every schedule both
    /// survivors return the same value before the deadline.
    #[test]
    fn agreement_park_races_a_failure() {
        with_deadline(240, || {
            for i in 0..200u32 {
                let out = Universe::run_with(Config::new(3), move |comm| {
                    if comm.rank() == 2 {
                        for _ in 0..(i % 25) * 400 {
                            std::hint::spin_loop();
                        }
                        comm.fail_here();
                    }
                    comm.agree_and(comm.rank() == 0 || i % 2 == 0).unwrap()
                });
                assert_eq!(out[2], RankOutcome::Failed, "iteration {i}");
                assert_eq!(out[0], out[1], "iteration {i}: the survivors disagree");
                assert_eq!(out[0], RankOutcome::Completed(i % 2 == 0), "iteration {i}");
            }
        });
    }

    #[test]
    fn ineighbor_in_mixed_request_set_surfaces_peer_failure() {
        // A neighborhood collective parked inside a *mixed* RequestSet
        // (collective + plain receive ⇒ transient park, not a
        // ParkSession) must surface a dead in-neighbor through
        // `wait_any`; afterwards the survivors recover by shrinking the
        // topology's underlying communicator — the DistGraph half of
        // the shrink-from-topology-parents matrix.
        use crate::NeighborhoodColl;
        with_deadline(60, || {
            let out = Universe::run_with(Config::new(3), |comm| {
                let me = comm.rank();
                let prev = (me + 2) % 3;
                let next = (me + 1) % 3;
                let g = comm.create_dist_graph_adjacent(&[prev], &[next]).unwrap();
                if me == 2 {
                    comm.fail_here();
                }
                let req = g.ineighbor_allgatherv(&[me as u64]).unwrap();
                let mut set = crate::RequestSet::new();
                set.push(req);
                set.push(g.comm().irecv(prev, 77));
                let round_ok = match set.wait_any() {
                    // Only the neighborhood request can complete —
                    // nothing is ever sent on tag 77.
                    Ok(Some((0, _))) => true,
                    Ok(other) => panic!("rank {me}: unexpected completion {other:?}"),
                    Err(MpiError::ProcessFailed { world_rank: 2 }) => false,
                    Err(e) => panic!("rank {me}: unexpected error {e}"),
                };
                drop(set);
                // Rank 0 reads from the dead rank (errored); rank 1
                // reads from rank 0 whose eager sends landed before the
                // wait (completed). Either way, recover together.
                assert_eq!(round_ok, me == 1, "rank {me}");
                let base = g.comm();
                if !base.agree_and(round_ok).unwrap() {
                    if !base.is_revoked() {
                        base.revoke();
                    }
                    let shrunk = base.shrink().unwrap();
                    assert_eq!(shrunk.size(), 2);
                    return shrunk.allreduce_one(1u64, crate::op::Sum).unwrap();
                }
                unreachable!("rank 0's failure forces recovery on every survivor")
            });
            let survivors: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
            assert_eq!(survivors, vec![2, 2]);
        });
    }

    #[test]
    fn shrink_recovers_from_cart_topology_parent() {
        // The Cart half of the matrix: a periodic ring loses a member;
        // the survivors revoke and shrink the cartesian communicator's
        // underlying dup and continue on the result.
        use crate::NeighborhoodColl;
        with_deadline(60, || {
            let out = Universe::run_with(Config::new(4), |comm| {
                let cart = comm.create_cart(&[4], &[true], false).unwrap();
                if comm.rank() == 3 {
                    comm.fail_here();
                }
                let r = cart.neighbor_allgather_vecs(&[comm.rank() as u64]);
                let base = cart.comm();
                if !base.agree_and(r.is_ok()).unwrap() {
                    if !base.is_revoked() {
                        base.revoke();
                    }
                    let shrunk = base.shrink().unwrap();
                    assert_eq!(shrunk.size(), 3);
                    return shrunk.allreduce_one(1u64, crate::op::Sum).unwrap();
                }
                unreachable!("ranks 0 and 2 border the dead rank and must error")
            });
            let survivors: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
            assert_eq!(survivors, vec![3, 3, 3]);
        });
    }
}
