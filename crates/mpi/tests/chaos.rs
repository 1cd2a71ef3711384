//! Chaos harness: randomized crash schedules against randomized
//! workloads, with one hard liveness invariant — **every survivor
//! returns within a deadline**, either with the correct result or with
//! the correct ULFM error handled by the canonical recovery loop
//! (attempt → revoke on local error → `agree_and` → count or
//! revoke+shrink).
//!
//! Four workload shapes cover the post-ULFM subsystems end to end:
//! blocking collectives, mixed `RequestSet` waits, persistent
//! steady-state plans, and neighborhood exchanges on freshly built
//! topologies. Each proptest case draws a world size, a round count,
//! and up to two planned crashes (`FaultPlan::crash`: the victim dies
//! at its k-th injection point, wherever in the stack that lands — mid
//! collective phase, parked in the matching engine, inside an
//! agreement, or between topology-constructor collectives).
//!
//! Every workload reports `(rounds completed, final size, tally)`
//! where each counted round contributes the live membership size — a
//! value that is *collectively determined*, so it must be identical
//! across survivors whatever the crash schedule did; payload-level
//! correctness (the ring delivered the right neighbor's value) is
//! asserted inside the rank closures. Fault-free cases (the strategy
//! draws zero crashes about a third of the time) must additionally be
//! bit-identical to the closed-form oracle `rounds * p`.
//!
//! Schedules are **crash-only**: message faults (drop/delay/duplicate)
//! intentionally violate the delivery guarantees the recovery loop
//! relies on (a dropped contribution is indistinguishable from a hung
//! peer to a perfect failure detector), so they are pinned by the
//! targeted tests in `kmp_mpi::fault` instead. Victims exclude rank 0:
//! topology constructors allocate fresh contexts through rank 0, and
//! its mid-constructor death is exercised by the named-point tests.

#![cfg(feature = "fault")]

use kmp_mpi::{
    op, Comm, Config, FaultPlan, MpiError, NeighborhoodColl, RankOutcome, RequestSet, Universe,
};
use proptest::prelude::*;

/// Per-case liveness deadline. Generous for loaded CI machines; a
/// correct run is milliseconds.
const DEADLINE_SECS: u64 = 30;

/// Runs a faulted universe under the liveness deadline: if any rank is
/// still blocked when it expires, the case fails (the worker thread is
/// leaked — the test is failing anyway).
fn run_deadline<R, F>(p: usize, plan: FaultPlan, f: F) -> Vec<RankOutcome<R>>
where
    R: Send + 'static,
    F: Fn(Comm) -> R + Sync + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(Universe::run_with(Config::new(p).faults(plan), f));
    });
    rx.recv_timeout(std::time::Duration::from_secs(DEADLINE_SECS))
        .expect("liveness violated: a survivor did not return within the deadline")
}

/// A randomized schedule: world size, rounds, and 0..=2 planned
/// crashes `(victim, at)` — victim in `1..p`, `at` counts injection
/// points hit by that rank (small values die during setup, larger ones
/// deep inside the workload's steady state).
fn schedule() -> impl Strategy<Value = (usize, u32, Vec<(usize, u64)>)> {
    (3usize..6).prop_flat_map(|p| {
        (
            Just(p),
            2u32..6,
            prop::collection::vec((1..p, 1u64..300), 0..3),
        )
    })
}

fn plan_of(crashes: &[(usize, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(victim, at) in crashes {
        plan = plan.crash(victim, at);
    }
    plan
}

/// The canonical recovery wrapper: run `attempt` per round, **revoke on
/// local error**, then agree on success, shrinking together on
/// disagreement. The revoke-before-agree order is load-bearing: a peer
/// can be parked inside the collective waiting on a *live* rank that
/// errored out (say, a broadcast from a root whose gather failed), and
/// only revocation reaches a waiter whose peers are all still alive —
/// agreement alone would wait for that stuck peer's contribution
/// forever. Each counted round tallies the result `attempt` returned
/// (the shapes all return the live membership size). Returns
/// `(rounds done, final size, tally)`.
fn recovery_loop(
    mut active: Comm,
    rounds: u32,
    attempt: impl Fn(&Comm) -> Result<u64, MpiError>,
) -> (u32, usize, u64) {
    let mut done = 0u32;
    let mut tally = 0u64;
    while done < rounds {
        let r = attempt(&active);
        if r.is_err() && !active.is_revoked() {
            active.revoke();
        }
        if active.agree_and(r.is_ok()).unwrap_or(false) {
            tally += r.expect("agreed ok");
            done += 1;
        } else {
            if !active.is_revoked() {
                active.revoke();
            }
            active = active.shrink().expect("survivors can always shrink");
        }
    }
    (done, active.size(), tally)
}

/// Shared post-conditions: only planned victims may die, nobody may
/// panic, and every survivor's `(rounds, final size, tally)` must be
/// identical — agreement makes round outcomes collective decisions, so
/// a diverging tally means a survivor counted a round its peers
/// rejected: a wrong result, not just a flaky one.
fn check_outcomes(
    p: usize,
    rounds: u32,
    crashes: &[(usize, u64)],
    out: Vec<RankOutcome<(u32, usize, u64)>>,
) {
    let mut survivors = Vec::new();
    for (rank, o) in out.into_iter().enumerate() {
        match o {
            RankOutcome::Failed => {
                assert!(
                    crashes.iter().any(|&(v, _)| v == rank),
                    "rank {rank} died without a planned crash"
                );
            }
            RankOutcome::Completed(r) => survivors.push((rank, r)),
            RankOutcome::Panicked(m) => panic!("rank {rank} panicked: {m}"),
        }
    }
    assert!(!survivors.is_empty());
    let (first_rank, first) = survivors[0];
    for &(rank, r) in &survivors {
        assert_eq!(r, first, "rank {rank} diverged from rank {first_rank}");
    }
    let (done, final_size, tally) = first;
    assert_eq!(done, rounds);
    assert!(final_size <= p && final_size + crashes.len() >= p);
    // Membership only shrinks, so every counted round contributed a
    // size between the final and the initial one.
    assert!(tally >= u64::from(rounds) * final_size as u64);
    assert!(tally <= u64::from(rounds) * p as u64);
    if crashes.is_empty() {
        assert_eq!(final_size, p);
        assert_eq!(
            tally,
            u64::from(rounds) * p as u64,
            "fault-free run diverged from the oracle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Shape 1: blocking collective rounds. Crashes land inside
    /// collective engine phases (`coll/phase`) and the matching engine.
    #[test]
    fn chaos_blocking_collective((p, rounds, crashes) in schedule()) {
        let out = run_deadline(p, plan_of(&crashes), move |comm| {
            recovery_loop(comm, rounds, |active| active.allreduce_one(1u64, op::Sum))
        });
        check_outcomes(p, rounds, &crashes, out);
    }

    /// Shape 2: mixed `RequestSet` ring — an isend plus an irecv per
    /// round, drained through `wait_any` (transient parks, since the
    /// set is not all-receive). Crashes strand parked waiters, which
    /// must wake with the peer's failure.
    #[test]
    fn chaos_mixed_request_set((p, rounds, crashes) in schedule()) {
        let out = run_deadline(p, plan_of(&crashes), move |comm| {
            recovery_loop(comm, rounds, |active| {
                let size = active.size();
                let next = (active.rank() + 1) % size;
                let prev = (active.rank() + size - 1) % size;
                let mut set = RequestSet::new();
                set.push(active.isend(&[active.rank() as u64], next, 3)?);
                set.push(active.irecv(prev, 3));
                let mut got = None;
                while let Some((_, c)) = set.wait_any()? {
                    if let Some((v, _)) = c.into_vec::<u64>() {
                        got = Some(v[0]);
                    }
                }
                assert_eq!(got, Some(prev as u64), "ring delivered the wrong payload");
                Ok(size as u64)
            })
        });
        check_outcomes(p, rounds, &crashes, out);
    }

    /// Shape 3: persistent steady state — an `allreduce_init` plan per
    /// membership, start/wait cycles amortizing all setup. Crashes
    /// poison plans (`persistent/start`, standing registrations); the
    /// survivors rebuild the plan on the shrunken communicator.
    #[test]
    fn chaos_persistent_steady_state((p, rounds, crashes) in schedule()) {
        let out = run_deadline(p, plan_of(&crashes), move |comm| {
            let mut active = comm;
            let mut done = 0u32;
            let mut tally = 0u64;
            while done < rounds {
                let mut ok = true;
                match active.allreduce_init(&[1u64], op::Sum) {
                    Ok(mut req) => {
                        while ok && done < rounds {
                            let r: Result<u64, MpiError> = (|| {
                                req.start()?;
                                let c = req.wait()?;
                                Ok(c.into_vec::<u64>().expect("allreduce carries a value").0[0])
                            })();
                            if r.is_err() && !active.is_revoked() {
                                active.revoke();
                            }
                            ok = active.agree_and(r.is_ok()).unwrap_or(false);
                            if ok {
                                tally += r.expect("agreed ok");
                                done += 1;
                            }
                        }
                    }
                    // Plan construction failed: revoke (peers may be
                    // parked mid-cycle on this rank) and align with the
                    // per-cycle agreement so nobody waits on a
                    // contribution this rank will never send.
                    Err(_) => {
                        if !active.is_revoked() {
                            active.revoke();
                        }
                        ok = active.agree_and(false).unwrap_or(false);
                    }
                }
                if !ok {
                    if !active.is_revoked() {
                        active.revoke();
                    }
                    active = active.shrink().expect("survivors can always shrink");
                }
            }
            (done, active.size(), tally)
        });
        check_outcomes(p, rounds, &crashes, out);
    }

    /// Shape 4: neighborhood exchange on a freshly built ring topology
    /// each round (BFS-style frontier exchange). Crashes land between
    /// the topology constructor's collectives (`topology/build`) and
    /// inside the sparse exchange.
    #[test]
    fn chaos_neighborhood_round((p, rounds, crashes) in schedule()) {
        let out = run_deadline(p, plan_of(&crashes), move |comm| {
            recovery_loop(comm, rounds, |active| {
                let size = active.size();
                let next = (active.rank() + 1) % size;
                let prev = (active.rank() + size - 1) % size;
                let g = active.create_dist_graph_adjacent(&[prev], &[next])?;
                let blocks = g.neighbor_allgather_vecs(&[active.rank() as u64])?;
                assert_eq!(
                    blocks,
                    vec![vec![prev as u64]],
                    "ring exchange delivered the wrong payload"
                );
                Ok(size as u64)
            })
        });
        check_outcomes(p, rounds, &crashes, out);
    }
}
