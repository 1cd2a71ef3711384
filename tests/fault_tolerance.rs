//! ULFM integration scenarios (§V-B of the paper): failure detection in
//! blocking and non-blocking operations, revocation semantics, recovery
//! by shrinking, agreement, and continued operation of the survivors.

use kamping_repro::kamping::prelude::*;
use kamping_repro::kamping::MpiError;
use kamping_repro::mpi::{Config, RankOutcome, Universe};

fn recover(mut comm: Communicator) -> Communicator {
    if !comm.is_revoked() {
        comm.revoke();
    }
    comm = comm.shrink().unwrap();
    comm
}

#[test]
fn survivors_complete_a_full_pipeline_after_failure() {
    let out = Universe::run_with(Config::new(5), |comm| {
        let mut comm = Communicator::new(comm);
        if comm.rank() == 3 {
            comm.fail_now();
        }
        // Failure surfaces in some collective eventually.
        if comm
            .allreduce_single((send_buf(&[1u64]), op(ops::Sum)))
            .is_err()
        {
            comm = recover(comm);
        }
        // Survivors run a full sort + allgather pipeline.
        let mut data = vec![comm.rank() as u64 * 3 % 7, 5, 1];
        comm.sort(&mut data).unwrap();
        let lens: Vec<u64> = comm.allgatherv(send_buf(&[data.len() as u64])).unwrap();
        assert_eq!(lens.len(), comm.size());
        comm.size()
    });
    let sizes: Vec<usize> = out.into_iter().filter_map(|o| o.completed()).collect();
    assert_eq!(sizes, vec![4, 4, 4, 4]);
}

#[test]
fn failure_detected_in_p2p_wait() {
    let out = Universe::run_with(Config::new(2), |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 1 {
            comm.fail_now();
        }
        let r = comm.recv::<u64, _>((source(1),));
        matches!(r, Err(MpiError::ProcessFailed { world_rank: 1 }))
    });
    assert_eq!(out[0], RankOutcome::Completed(true));
}

#[test]
fn failure_detected_in_nonblocking_test_loop() {
    let out = Universe::run_with(Config::new(2), |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 1 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            comm.fail_now();
        }
        let mut req = comm.irecv::<u8, _>(source(1)).unwrap();
        loop {
            match req.test() {
                Ok(Ok(_)) => return false,
                Ok(Err(pending)) => req = pending,
                Err(e) => return Communicator::is_failure(&e),
            }
            std::thread::yield_now();
        }
    });
    assert_eq!(out[0], RankOutcome::Completed(true));
}

#[test]
fn revoked_communicator_stops_everything_but_shrink_works() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let dup = comm.dup().unwrap();
        if dup.rank() == 2 {
            dup.revoke();
        }
        while !dup.is_revoked() {
            std::thread::yield_now();
        }
        // Normal traffic is refused...
        assert_eq!(dup.barrier().unwrap_err(), MpiError::Revoked);
        assert!(dup.allgatherv(send_buf(&[1u8])).is_err());
        // ...but shrink recovers a working communicator of all 3 (nobody
        // actually failed).
        let fresh = dup.shrink().unwrap();
        assert_eq!(fresh.size(), 3);
        fresh.barrier().unwrap();
        // The original world communicator was never revoked.
        comm.barrier().unwrap();
    });
}

#[test]
fn agreement_is_failure_aware_and_consistent() {
    let out = Universe::run_with(Config::new(4), |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            comm.fail_now();
        }
        // Everyone passes true except rank 2: AND over survivors = false.
        let flag = comm.rank() != 2;
        comm.agree(flag).unwrap()
    });
    let votes: Vec<bool> = out.into_iter().filter_map(|o| o.completed()).collect();
    assert_eq!(votes, vec![false, false, false]);
}

#[test]
fn cascading_failures_shrink_twice() {
    let out = Universe::run_with(Config::new(6), |comm| {
        let mut comm = Communicator::new(comm);
        if comm.rank() == 1 {
            comm.fail_now();
        }
        comm = comm.shrink().unwrap();
        assert_eq!(comm.size(), 5);
        if comm.rank() == 3 {
            comm.fail_now();
        }
        comm = comm.shrink().unwrap();
        assert_eq!(comm.size(), 4);
        comm.allreduce_single((send_buf(&[1u64]), op(ops::Sum)))
            .unwrap()
    });
    let sums: Vec<u64> = out.into_iter().filter_map(|o| o.completed()).collect();
    assert_eq!(sums, vec![4, 4, 4, 4]);
}

#[test]
fn plain_panic_is_reported_as_panic_not_failure() {
    let out = Universe::run_with(Config::new(2), |comm| {
        if comm.rank() == 1 {
            panic!("application bug");
        }
        // Rank 0 notices the dead peer rather than hanging.
        let r = comm.recv_vec::<u8>(1, 0);
        r.is_err()
    });
    assert_eq!(out[0], RankOutcome::Completed(true));
    assert!(matches!(out[1], RankOutcome::Panicked(ref m) if m.contains("application bug")));
}

/// Watchdog for liveness assertions: a hang's only observable signature
/// is "never returns". On timeout the worker thread is leaked — the
/// test is failing anyway.
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

/// The binding's row of the substrate's restartable-request table
/// (`kmp_mpi::ulfm`'s
/// `every_restartable_request_replays_its_failed_cycle_at_restart`): a
/// `Persistent` receive whose cycle is revoked, or whose sender dies,
/// returns that error from `wait` and again from the next `start`.
#[test]
fn binding_persistent_replays_its_failed_cycle_at_restart() {
    for revoke in [true, false] {
        let out = with_deadline(60, move || {
            Universe::run_with(Config::new(2), move |comm| {
                let comm = Communicator::new(comm);
                let dup = comm.dup().unwrap();
                if comm.rank() == 1 {
                    // Interrupt only once rank 0's cycle is started.
                    comm.recv::<u8, _>((source(0),)).unwrap();
                    if revoke {
                        dup.revoke();
                        return None;
                    }
                    comm.fail_now();
                }
                let mut rx = dup.recv_init::<u8, _>((source(1), tag(4))).unwrap();
                rx.start().unwrap();
                comm.send((send_buf(&[1u8]), destination(1))).unwrap();
                Some([rx.wait().map(drop), rx.start()])
            })
        });
        let want = match revoke {
            true => MpiError::Revoked,
            false => MpiError::ProcessFailed { world_rank: 1 },
        };
        assert_eq!(
            out[0],
            RankOutcome::Completed(Some([Err(want.clone()), Err(want)])),
            "revoke {revoke}"
        );
    }
}

/// A request pool parked in `wait_any` on two receives nobody will ever
/// satisfy must come back with `Revoked` when the communicator is
/// revoked under it — whether the revocation lands before the pool's
/// sweep, between its registrations, or once it sleeps — and each
/// pooled receive surfaces the revocation exactly once.
#[test]
fn revoked_while_parked_pool_wakes() {
    with_deadline(240, || {
        for i in 0..200u32 {
            Universe::run(2, move |comm| {
                let dup = Communicator::new(comm).dup().unwrap();
                if dup.rank() == 1 {
                    if i % 2 == 0 {
                        // Let the pool reach the parked state.
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    dup.revoke();
                } else {
                    let mut pool = RequestPool::new();
                    pool.submit_recv(dup.irecv::<u32, _>((source(1), tag(5))).unwrap());
                    pool.submit_recv(dup.irecv::<u32, _>((source(1), tag(6))).unwrap());
                    for left in [1, 0] {
                        assert_eq!(pool.wait_any(), Err(MpiError::Revoked), "iteration {i}");
                        assert_eq!(pool.len(), left, "iteration {i}");
                    }
                    assert_eq!(pool.wait_any(), Ok(None), "iteration {i}");
                }
            });
        }
    });
}

/// The survivor case: one pooled receive names a rank that fails, the
/// other a live one. `wait_any` reports the failure once, retiring that
/// entry *and its own bookkeeping* — the survivor then completes at
/// index 0 under its own `recv_count`, not the dead entry's.
#[test]
fn pool_survives_a_failed_peer() {
    let out = with_deadline(60, || {
        Universe::run_with(Config::new(3), |comm| {
            let comm = Communicator::new(comm);
            match comm.rank() {
                0 => {
                    let mut pool = RequestPool::new();
                    pool.submit_recv(comm.irecv::<u32, _>((source(1), recv_count(3))).unwrap());
                    pool.submit_recv(comm.irecv::<u32, _>((source(2), recv_count(1))).unwrap());
                    let (mut failures, mut completed) = (0, Vec::new());
                    while !pool.is_empty() {
                        match pool.wait_any() {
                            Ok(Some(index)) => completed.push(index),
                            Err(MpiError::ProcessFailed { world_rank: 1 }) => failures += 1,
                            other => panic!("unexpected outcome: {other:?}"),
                        }
                    }
                    (failures, completed) == (1, vec![0])
                }
                1 => comm.fail_now(),
                _ => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    comm.send((send_buf(&[7u32]), destination(0))).unwrap();
                    true
                }
            }
        })
    });
    assert_eq!(out[0], RankOutcome::Completed(true));
    assert_eq!(out[1], RankOutcome::Failed);
}

/// A layout error only the root can see is `InvalidLayout` there, in
/// every lifecycle of the scatter plan, and costs its peers nothing:
/// each returns (with a typed result, here the empty block the root
/// still sends), nothing stays queued, and the next collective lines
/// up. The calls: counts with no entries (`scatterv_vec`, `iscatterv`),
/// four elements that do not split into three blocks (`scatter_vec`),
/// and the binding's `scatterv` on a root without `send_counts`.
#[test]
fn root_layout_error_in_a_scatter_leaves_no_peer_waiting() {
    with_deadline(60, || {
        for call in 0..4 {
            Universe::run(3, move |comm| {
                let comm = Communicator::new(comm);
                let (raw, root) = (comm.raw(), comm.rank() == 0);
                let (data, no_counts) = ([1u64, 2, 3, 4], &[][..]);
                let got: Result<Vec<u64>, MpiError> = match call {
                    0 => raw.scatterv_vec(root.then_some((&data[..], no_counts, no_counts)), 0),
                    1 => raw
                        .iscatterv(root.then_some((&data[..], no_counts)), 0)
                        .and_then(|req| req.wait())
                        .map(|done| done.into_vec().map(|(v, _)| v).unwrap_or_default()),
                    2 => raw.scatter_vec(root.then_some(&data[..]), 0),
                    _ => comm.scatterv(send_buf(&data)),
                };
                match got {
                    Err(MpiError::InvalidLayout(_)) if root => {}
                    // Returning at all is the point here.
                    _ if !root => {}
                    other => panic!("call {call}, root: {other:?}"),
                }
                let sum = comm.allreduce_single((send_buf(&[1u64]), op(ops::Sum)));
                assert_eq!(sum, Ok(3), "call {call}: the next collective lines up");
                comm.barrier().unwrap();
                assert_eq!(raw.mailbox_stats().queued, 0, "call {call}: nothing queued");
            });
        }
    });
}

/// `allreduce_single` with a buffer that does not hold exactly one
/// element is `InvalidLayout` on that rank, not a panic; the rank still
/// takes part, so its peers complete and the communicator stays usable.
#[test]
fn allreduce_single_of_the_wrong_length_is_an_error_and_peers_complete() {
    let out = with_deadline(60, || {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![1u64; comm.rank()]; // 0, 1 and 2 elements
            let got = comm.allreduce_single((send_buf(&mine), op(ops::Sum)));
            let next = comm.allreduce_single((send_buf(&[1u64]), op(ops::Sum)));
            (
                got.map_err(|e| matches!(e, MpiError::InvalidLayout(_))),
                next,
            )
        })
    });
    assert!(out[0].0 == Err(true) && out[2].0 == Err(true), "{out:?}");
    assert!(
        out[1].0.is_ok(),
        "the rank with one element completes: {out:?}"
    );
    assert!(out.iter().all(|(_, next)| *next == Ok(3)), "{out:?}");
}
