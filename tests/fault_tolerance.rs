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

/// A self-sizing broadcast on van de Geijn's row with a message cut
/// short on its way, in every lifecycle: the size announcement each
/// non-root gets from its tree parent, or the chunk the root scatters
/// to it. A rank that cannot read the size, or holds a chunk that does
/// not fit it, still forwards what it has and joins the exchange, then
/// returns a typed error — a cut announcement on every non-root, a cut
/// chunk (which every rank receives in the allgather) on every rank —
/// before the deadline, and the next broadcast succeeds.
#[test]
fn a_cut_announcement_or_chunk_fails_every_rank_holding_it() {
    use kamping_repro::mpi::{bytes_from_vec, BcastAlgo, CollTuning, FaultPlan};
    const FORMS: [&str; 4] = ["bcast_bytes", "ibcast", "bcast_init", "kamping bcast"];
    let parent = |r: usize| r & (r - 1);
    for p in [4usize, 5, 8] {
        for cut_chunk in [false, true] {
            for form in FORMS {
                let plan = (1..p).fold(FaultPlan::new(), |plan, r| match cut_chunk {
                    // The root's children find their chunk behind the
                    // announcement; the others get it first.
                    true => plan.truncate_message(0, r, None, 1 + u64::from(parent(r) == 0), 99),
                    false => plan.truncate_message(parent(r), r, None, 1, 3),
                });
                let at = format!("p = {p}, {form}, chunk cut: {cut_chunk}");
                with_deadline(60, move || {
                    let outcomes = Universe::run_with(Config::new(p).faults(plan), |comm| {
                        let comm = Communicator::new(comm);
                        let raw = comm.raw();
                        raw.set_tuning(CollTuning::default().bcast(BcastAlgo::ScatterAllgather));
                        let data = vec![5u8; 1000];
                        let mine = (comm.rank() == 0).then(|| data.clone());
                        let got: Result<Vec<u8>, MpiError> = match form {
                            "bcast_bytes" => raw
                                .bcast_bytes(mine.clone().map(bytes_from_vec), 0)
                                .map(|b| b.to_vec()),
                            "ibcast" => raw
                                .ibcast(mine.as_deref(), 0)
                                .and_then(|req| req.wait())
                                .map(|done| done.into_vec().map(|(v, _)| v).unwrap_or_default()),
                            "bcast_init" => {
                                raw.bcast_init(mine.as_deref(), 0).and_then(|mut plan| {
                                    plan.start()?;
                                    let done = plan.wait()?;
                                    Ok(done.into_vec().map(|(v, _)| v).unwrap_or_default())
                                })
                            }
                            _ => comm.bcast((send_recv_buf(mine.clone().unwrap_or_default()),)),
                        };
                        let next = raw
                            .bcast_bytes(mine.map(bytes_from_vec), 0)
                            .map(|b| b.to_vec());
                        comm.barrier().unwrap();
                        (got, next, raw.mailbox_stats().queued)
                    });
                    for (rank, outcome) in outcomes.into_iter().enumerate() {
                        let (got, next, queued) = outcome.unwrap();
                        match (got, cut_chunk) {
                            (Ok(v), false) if rank == 0 => assert_eq!(v, vec![5; 1000], "{at}"),
                            (Err(MpiError::InvalidLayout(_)), false) => {}
                            (Err(MpiError::Truncated { .. }), true) => {}
                            other => panic!("{at}, rank {rank}: {other:?}"),
                        }
                        assert_eq!(next, Ok(vec![5; 1000]), "{at}, rank {rank}: the next one");
                        assert_eq!(queued, 0, "{at}, rank {rank}: nothing left queued");
                    }
                });
            }
        }
    }
}

/// `bcast_one` of a value cut short on its way is `Truncated` on the
/// rank that got it, not a panic; the root completes.
#[test]
fn a_cut_bcast_one_value_is_truncated_not_a_panic() {
    use kamping_repro::mpi::FaultPlan;
    let outcomes = with_deadline(60, || {
        let plan = FaultPlan::new().truncate_message(0, 1, None, 1, 3);
        Universe::run_with(Config::new(2).faults(plan), |comm| comm.bcast_one(7u64, 0))
    });
    let got: Vec<_> = outcomes.into_iter().map(|o| o.unwrap()).collect();
    assert_eq!(got[0], Ok(7));
    assert!(matches!(got[1], Err(MpiError::Truncated { .. })), "{got:?}");
}

/// A fault on a message an engine sent in parts: `Truncate(n)` with `n`
/// inside its second part, or `Duplicate`.
#[derive(Clone, Copy, Debug)]
enum PartsFault {
    Cut(usize),
    Twice,
}

impl PartsFault {
    fn plan(self, from: usize, to: usize, tag: Option<i32>) -> kamping_repro::mpi::FaultPlan {
        let plan = kamping_repro::mpi::FaultPlan::new();
        match self {
            PartsFault::Cut(keep) => plan.truncate_message(from, to, tag, 1, keep),
            PartsFault::Twice => plan.duplicate_message(from, to, tag, 1),
        }
    }
}

/// Round 1 of recursive doubling at p = 4 is the first message from
/// rank 0 to rank 2 (its partner `0 ^ 2`), two 64-byte blocks sent as
/// parts — behind a 16-byte length header for the self-sizing
/// `allgatherv`. Cut inside its second part, rank 2 alone returns
/// `InvalidLayout`; duplicated, every rank completes and the copy stays
/// queued on a tag no later call takes. Either way every rank is back
/// before the deadline, nothing panics, and the next collective on the
/// communicator succeeds.
#[test]
fn a_cut_or_duplicated_doubling_round_in_parts_fails_only_its_receiver() {
    use kamping_repro::mpi::bytes_from_vec;
    const S: usize = 64;
    for counted in [true, false] {
        let header = if counted { 0 } else { 16 };
        for fault in [PartsFault::Cut(header + S + S / 2), PartsFault::Twice] {
            let at = format!("counted: {counted}, {fault:?}");
            let plan = fault.plan(0, 2, None);
            let outcomes = with_deadline(60, move || {
                Universe::run_with(Config::new(4).faults(plan), move |comm| {
                    let own = bytes_from_vec(vec![comm.rank() as u8; S]);
                    let counts = [S; 4];
                    let got = comm.allgatherv_blocks(own, counted.then_some(&counts[..]));
                    let next = comm.allreduce_vec(&[1u64], kamping_repro::mpi::op::Sum);
                    (
                        got.map(|blocks| {
                            blocks.iter().flat_map(|b| b.to_vec()).collect::<Vec<u8>>()
                        }),
                        next,
                    )
                })
            });
            let whole: Vec<u8> = (0..4u8).flat_map(|r| [r; S]).collect();
            for (rank, outcome) in outcomes.into_iter().enumerate() {
                let (got, next) = outcome.unwrap();
                match (fault, rank) {
                    (PartsFault::Cut(_), 2) => {
                        assert!(
                            matches!(got, Err(MpiError::InvalidLayout(_))),
                            "{at}: {got:?}"
                        )
                    }
                    _ => assert_eq!(got, Ok(whole.clone()), "{at}, rank {rank}"),
                }
                assert_eq!(next, Ok(vec![4]), "{at}, rank {rank}: the next collective");
            }
        }
    }
}

/// The grid's column hop on a 2 x 2 grid forwards each record of the
/// row hop as one part: rank 0 sends rank 2 its own record for rank 2,
/// then rank 1's, each a 24-byte header and 32 payload bytes. Cut inside
/// the second record, rank 2 returns `Truncated`; duplicated, every rank
/// completes. Either way every rank is back before the deadline,
/// nothing panics, and the next exchange on the grid succeeds.
#[test]
fn a_cut_or_duplicated_grid_column_hop_fails_only_its_receiver() {
    const RECORD: usize = 24 + 32;
    for fault in [PartsFault::Cut(RECORD + 24 + 16), PartsFault::Twice] {
        // The column communicator's first internal tag.
        let plan = fault.plan(0, 2, Some(-1));
        let outcomes = with_deadline(60, move || {
            Universe::run_with(Config::new(4).faults(plan), move |comm| {
                let comm = Communicator::new(comm);
                let grid = comm.make_grid().unwrap();
                let send = vec![comm.rank() as u64; 4 * 4];
                let got = grid.alltoallv(&send, &[4; 4]);
                let next = grid.alltoallv(&send, &[4; 4]);
                (got, next)
            })
        });
        let whole: Vec<u64> = (0..4u64).flat_map(|r| [r; 4]).collect();
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            let (got, next) = outcome.unwrap();
            match (fault, rank) {
                (PartsFault::Cut(_), 2) => {
                    assert!(
                        matches!(got, Err(MpiError::Truncated { .. })),
                        "{fault:?}: {got:?}"
                    )
                }
                _ => assert_eq!(got, Ok(whole.clone()), "{fault:?}, rank {rank}"),
            }
            assert_eq!(
                next,
                Ok(whole.clone()),
                "{fault:?}, rank {rank}: the next exchange"
            );
        }
    }
}

/// Rabenseifner's doubling allgather phase at p = 4 and 8, 48 KiB per
/// rank, with a message of its first or its last round cut or
/// duplicated. Rank 0 sends each round's partner two messages: the
/// halving's step, then the phase's round. Round 0's carries rank 0's
/// reduced chunk to rank 1; the last round's carries `p / 2` chunks as
/// parts to rank `p / 2`. A chunk cut short fails every rank it reaches
/// with `Truncated`: cut in the last round, the receiver alone; cut in
/// round 0, rank 1 and every rank it forwards chunk 0 to, directly or
/// through later rounds — the odd ranks. Duplicated, every rank
/// completes and the copy stays queued on a tag no later call takes.
/// Either way every rank is back before the deadline, nothing panics,
/// and the next `allreduce` succeeds. At p = 4 the chunks are
/// 12 KiB, `ALLGATHER_MAX_BYTES`: the largest that double.
#[test]
fn a_cut_rabenseifner_doubling_round_fails_the_ranks_its_chunks_reach() {
    use kamping_repro::mpi::{AllreduceAlgo, CollTuning, FaultPlan};
    const N: usize = 6144; // u64 elements: 48 KiB
    for p in [4usize, 8] {
        let chunk = N * 8 / p;
        // (receiver, cut within the message, the ranks a cut fails)
        type Fails = fn(usize, usize) -> bool;
        let rounds: [(usize, usize, Fails); 2] = [
            (1, chunk / 2, |_, rank| rank % 2 == 1),
            (p / 2, chunk + chunk / 2, |p, rank| rank == p / 2),
        ];
        let faults = rounds.into_iter().flat_map(|(to, keep, fails)| {
            [PartsFault::Cut(keep), PartsFault::Twice].map(|fault| (to, fault, fails))
        });
        for (to, fault, fails) in faults {
            let at = format!("p = {p}, message to rank {to}, {fault:?}");
            let plan = match fault {
                PartsFault::Cut(keep) => FaultPlan::new().truncate_message(0, to, None, 2, keep),
                PartsFault::Twice => FaultPlan::new().duplicate_message(0, to, None, 2),
            };
            let outcomes = with_deadline(60, move || {
                Universe::run_with(Config::new(p).faults(plan), move |comm| {
                    let tuning = CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner);
                    comm.set_tuning(tuning);
                    let mine = vec![comm.rank() as u64; N];
                    let got = comm.allreduce_vec(&mine, kamping_repro::mpi::op::Sum);
                    let next = comm.allreduce_vec(&[1u64], kamping_repro::mpi::op::Sum);
                    (got, next)
                })
            });
            let sum = (0..p as u64).sum::<u64>();
            for (rank, outcome) in outcomes.into_iter().enumerate() {
                let (got, next) = outcome.unwrap();
                match (fault, fails(p, rank)) {
                    (PartsFault::Cut(_), true) => {
                        assert!(
                            matches!(got, Err(MpiError::Truncated { .. })),
                            "{at}, rank {rank}: {got:?}"
                        )
                    }
                    _ => assert_eq!(got, Ok(vec![sum; N]), "{at}, rank {rank}"),
                }
                assert_eq!(
                    next,
                    Ok(vec![p as u64]),
                    "{at}, rank {rank}: the next allreduce"
                );
            }
        }
    }
}
