//! Algorithm-equivalence properties: every algorithm a collective's
//! tuning can select must produce the identical result on random
//! payloads and communicator sizes — the correctness contract of the
//! selection engine (`kmp_mpi::collectives::algos`). Exercised both at
//! the substrate level (forced via `Comm::set_tuning`) and through the
//! binding's `tuning(...)` named parameter.

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::op::Sum;
use kamping_repro::mpi::{
    AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, ModelConfig, ModelSnapshot,
    ReduceAlgo, Universe,
};
use proptest::prelude::*;

/// An aggressive model cadence for tests: publish every call, one
/// observation warms a class — the run passes through static warm-up,
/// exploration, and warm-model regimes within a handful of calls.
fn fast_model() -> CollTuning {
    CollTuning::default().model(
        ModelConfig::default()
            .drive(true)
            .epoch_len(1)
            .warmup_obs(1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn allreduce_algorithms_agree(
        blocks in prop::collection::vec(prop::collection::vec(any::<u64>(), 1..40), 1..9)
    ) {
        let p = blocks.len();
        let width = blocks.iter().map(Vec::len).min().unwrap();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let mine = blocks[comm.rank()][..width].to_vec();
            let mut results = Vec::new();
            for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Rabenseifner] {
                comm.set_tuning(CollTuning::default().allreduce(algo));
                results.push(
                    comm.allreduce_vec(&mine, |a: &u64, b: &u64| a.wrapping_add(*b))
                        .unwrap(),
                );
            }
            comm.set_tuning(CollTuning::default());
            results.push(
                comm.allreduce_vec(&mine, |a: &u64, b: &u64| a.wrapping_add(*b))
                    .unwrap(),
            );
            results
        });
        let expected: Vec<u64> = (0..width)
            .map(|i| blocks.iter().fold(0u64, |acc, b| acc.wrapping_add(b[i])))
            .collect();
        for results in out {
            for got in results {
                prop_assert_eq!(&got, &expected);
            }
        }
    }

    #[test]
    fn alltoall_algorithms_agree(
        p in 1usize..9,
        n in 0usize..5,
        seed in any::<u32>()
    ) {
        let out = Universe::run(p, move |comm| {
            let send: Vec<u32> = (0..p * n)
                .map(|i| seed ^ (comm.rank() as u32) << 16 ^ i as u32)
                .collect();
            let mut pairwise = vec![0u32; p * n];
            let mut bruck = vec![0u32; p * n];
            comm.set_tuning(CollTuning::default().alltoall(AlltoallAlgo::Pairwise));
            comm.alltoall_into(&send, &mut pairwise).unwrap();
            comm.set_tuning(CollTuning::default().alltoall(AlltoallAlgo::Bruck));
            comm.alltoall_into(&send, &mut bruck).unwrap();
            (pairwise, bruck)
        });
        for (pairwise, bruck) in out {
            prop_assert_eq!(pairwise, bruck);
        }
    }

    #[test]
    fn allgather_algorithms_agree(
        p in 1usize..17,
        n in 0usize..40,
        seed in any::<u32>()
    ) {
        let out = Universe::run(p, move |comm| {
            let mine: Vec<u32> = (0..n)
                .map(|i| seed ^ ((comm.rank() as u32) << 20) ^ i as u32)
                .collect();
            let mut results = Vec::new();
            // Forced RD falls back to the ring off powers of two, so
            // every (p, n) draw exercises both paths safely; Bruck runs
            // everywhere, power of two or not — the non-power-of-two
            // draws (p in {3, 5, 6, 7, ...}) are the coverage the ring
            // and RD cannot give it.
            for algo in [
                AllgatherAlgo::Ring,
                AllgatherAlgo::RecursiveDoubling,
                AllgatherAlgo::Bruck,
            ] {
                comm.set_tuning(CollTuning::default().allgather(algo));
                results.push(comm.allgather_vec(&mine).unwrap());
            }
            comm.set_tuning(CollTuning::default());
            results.push(comm.allgather_vec(&mine).unwrap());
            results
        });
        let expected: Vec<u32> = (0..p)
            .flat_map(|r| (0..n).map(move |i| seed ^ ((r as u32) << 20) ^ i as u32))
            .collect();
        for results in out {
            for got in results {
                prop_assert_eq!(&got, &expected);
            }
        }
    }

    #[test]
    fn bcast_algorithms_agree(
        p in 1usize..9,
        len in 0usize..600,
        root_pick in any::<u32>(),
        seed in any::<u8>()
    ) {
        let root = root_pick as usize % p;
        let out = Universe::run(p, move |comm| {
            let mut results = Vec::new();
            for algo in [BcastAlgo::Binomial, BcastAlgo::ScatterAllgather] {
                comm.set_tuning(CollTuning::default().bcast(algo));
                let mut buf: Vec<u8> = if comm.rank() == root {
                    (0..len).map(|i| seed.wrapping_add(i as u8)).collect()
                } else {
                    vec![0; len]
                };
                comm.bcast_into(&mut buf, root).unwrap();
                results.push(buf);
            }
            results
        });
        let expected: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
        for results in out {
            for got in results {
                prop_assert_eq!(&got, &expected);
            }
        }
    }

    #[test]
    fn reduce_algorithms_agree(
        blocks in prop::collection::vec(prop::collection::vec(any::<u64>(), 1..30), 1..9),
        root_pick in any::<u32>()
    ) {
        let p = blocks.len();
        let root = root_pick as usize % p;
        let width = blocks.iter().map(Vec::len).min().unwrap();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let mine = blocks[comm.rank()][..width].to_vec();
            let mut results = Vec::new();
            for algo in [ReduceAlgo::BinomialTree, ReduceAlgo::FlatGather] {
                comm.set_tuning(CollTuning::default().reduce(algo));
                let mut out = vec![0u64; width];
                comm.reduce_into(&mine, &mut out, |a: &u64, b: &u64| a.wrapping_add(*b), root)
                    .unwrap();
                results.push(out);
            }
            (comm.rank(), results)
        });
        let expected: Vec<u64> = (0..width)
            .map(|i| blocks.iter().fold(0u64, |acc, b| acc.wrapping_add(b[i])))
            .collect();
        for (rank, results) in out {
            if rank == root {
                for got in results {
                    prop_assert_eq!(&got, &expected);
                }
            }
        }
    }

    /// A driven model must change only the schedule, never the result:
    /// repeated collectives under the aggressive cadence cross the
    /// static, exploration, and warm-model regimes while every result
    /// stays identical to the direct computation — on every `p`,
    /// power of two or not.
    #[test]
    fn model_driven_auto_stays_result_correct(
        p in 1usize..17,
        n in 1usize..100,
        seed in any::<u32>()
    ) {
        let out = Universe::run(p, move |comm| {
            comm.set_tuning(fast_model());
            let mine: Vec<u32> = (0..n)
                .map(|i| seed ^ ((comm.rank() as u32) << 20) ^ i as u32)
                .collect();
            let mut gathers = Vec::new();
            let mut sums = Vec::new();
            for _ in 0..8 {
                gathers.push(comm.allgather_vec(&mine).unwrap());
                sums.push(
                    comm.allreduce_vec(&mine, |a: &u32, b: &u32| a.wrapping_add(*b))
                        .unwrap(),
                );
            }
            (gathers, sums, comm.tuning_stats())
        });
        let expected_gather: Vec<u32> = (0..p)
            .flat_map(|r| (0..n).map(move |i| seed ^ ((r as u32) << 20) ^ i as u32))
            .collect();
        let expected_sum: Vec<u32> = (0..n)
            .map(|i| {
                (0..p).fold(0u32, |acc, r| {
                    acc.wrapping_add(seed ^ ((r as u32) << 20) ^ i as u32)
                })
            })
            .collect();
        for (gathers, sums, stats) in out {
            for g in gathers {
                prop_assert_eq!(&g, &expected_gather);
            }
            for s in sums {
                prop_assert_eq!(&s, &expected_sum);
            }
            if p > 1 {
                // 8 allgathers + 8 allreduces, each a counted decision.
                prop_assert!(stats.decisions >= 16);
                prop_assert!(stats.publishes > 0);
            }
        }
    }
}

/// The binding's `tuning(...)` parameter overrides a single call —
/// results are identical across algorithms, and the communicator's own
/// policy is untouched afterwards.
#[test]
fn tuning_parameter_overrides_one_call() {
    Universe::run(5, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u64 + 1, 10];
        let defaulted: Vec<u64> = comm.allreduce((send_buf(&mine), op(ops::Sum))).unwrap();
        let forced: Vec<u64> = comm
            .allreduce((
                send_buf(&mine),
                op(ops::Sum),
                tuning(CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner)),
            ))
            .unwrap();
        assert_eq!(defaulted, forced);
        assert_eq!(
            comm.tuning(),
            CollTuning::default(),
            "the per-call override must not stick"
        );
    });
}

/// The per-call override must reach the *non-blocking* engine
/// selection too: forcing Rabenseifner changes the message pattern of
/// `iallreduce`, which the deterministic virtual clock observes
/// (results stay identical).
#[test]
fn tuning_parameter_reaches_nonblocking_engines() {
    use kamping_repro::mpi::{Config, CostModel};
    let vtime = |force: bool| -> u64 {
        Universe::run_with(Config::new(8).cost(CostModel::cluster()), move |comm| {
            let comm = Communicator::new(comm);
            comm.barrier().unwrap();
            comm.raw().clock_reset();
            let mine = vec![comm.rank() as u64; 8192];
            let fut = if force {
                comm.iallreduce((
                    send_buf(mine),
                    op(ops::Sum),
                    tuning(CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner)),
                ))
                .unwrap()
            } else {
                comm.iallreduce((send_buf(mine), op(ops::Sum))).unwrap()
            };
            let (total, _mine) = fut.wait().unwrap();
            assert_eq!(total[0], 28); // 0 + 1 + ... + 7
            assert_eq!(
                comm.tuning(),
                CollTuning::default(),
                "the per-call override must not stick"
            );
            comm.raw().clock_now_ns()
        })
        .into_iter()
        .map(|o| o.unwrap())
        .max()
        .unwrap()
    };
    assert_ne!(
        vtime(false),
        vtime(true),
        "forcing AllreduceAlgo::Rabenseifner through tuning(...) must change the \
         iallreduce engine (doubling vs reduce-scatter message patterns differ)"
    );
}

/// A persistent policy set through the binding applies to subsequent
/// calls on the communicator (and its algorithms stay result-correct).
#[test]
fn communicator_level_tuning_applies() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        comm.set_tuning(
            CollTuning::default()
                .alltoall(AlltoallAlgo::Bruck)
                .allreduce(AllreduceAlgo::Rabenseifner),
        );
        let send: Vec<u32> = (0..4).map(|d| comm.rank() as u32 * 10 + d).collect();
        let recv: Vec<u32> = comm.alltoall(send_buf(&send)).unwrap();
        let expected: Vec<u32> = (0..4).map(|j| j * 10 + comm.rank() as u32).collect();
        assert_eq!(recv, expected);
        let total: Vec<u64> = comm
            .allreduce((send_buf(&[comm.rank() as u64 + 1][..]), op(ops::Sum)))
            .unwrap();
        assert_eq!(total, vec![10]);
    });
}

/// `recv_count` on bcast unlocks size-based selection: with a large
/// payload and a forced scatter+allgather the result must still match,
/// through the full named-parameter path.
#[test]
fn sized_bcast_selects_large_message_algorithm() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let n = 100_000usize; // u64: 800 KB, above the vdG threshold
        let data: Vec<u64> = if comm.rank() == 2 {
            (0..n as u64).collect()
        } else {
            Vec::new()
        };
        let data: Vec<u64> = comm
            .bcast((send_recv_buf(data), root(2), recv_count(n)))
            .unwrap();
        assert_eq!(data.len(), n);
        assert_eq!(data[n - 1], n as u64 - 1);

        // Forced small-size vdG through the named parameter.
        let mut small = if comm.rank() == 0 {
            vec![7u8; 33]
        } else {
            vec![]
        };
        comm.bcast((
            send_recv_buf(&mut small),
            recv_count(33),
            tuning(CollTuning::default().bcast(BcastAlgo::ScatterAllgather)),
        ))
        .unwrap();
        assert_eq!(small, vec![7u8; 33]);
    });
}

/// Scan/exscan on the shared-`Bytes` datapath stay rank-ordered for
/// non-commutative operations (the fold keeps the upstream prefix as
/// the left operand). Decimal concatenation of positive integers
/// (`ilog10` rejects 0): associative, as every MPI operation must be
/// — the doubling rounds fold partial prefixes.
#[test]
fn scan_datapath_preserves_rank_order() {
    Universe::run(5, |comm| {
        let concat = |a: &u64, b: &u64| a * 10u64.pow(b.ilog10() + 1) + b;
        let op = kamping_repro::mpi::non_commutative(concat);
        let out = comm.scan_vec(&[comm.rank() as u64 + 1], op).unwrap();
        let expected = (1..=comm.rank() as u64 + 1).fold(0, |acc, d| acc * 10 + d);
        assert_eq!(out, [expected]);
    });
}

/// Composition of affine maps `x -> a·x + b` over `Z/2^32`, packed as
/// `a << 32 | b`: associative, non-commutative, and closed under any
/// number of ranks (decimal concatenation overflows past 19 digits).
fn compose(f: &u64, g: &u64) -> u64 {
    let low = |x: &u64| x & 0xFFFF_FFFF;
    let (a1, b1, a2, b2) = (f >> 32, low(f), g >> 32, low(g));
    low(&(a1 * a2)) << 32 | low(&(a2 * b1 + b2))
}

/// The doubling scan against the sequential oracle — the left-to-right
/// fold over ranks `0..=r` (`0..r` for exscan) — on the whole grid:
/// p in 1..=17 x {empty, 1, odd, 4096 elements} x {`Sum`, a
/// non-commutative op} x {borrowed, owned send buffer}, through the
/// substrate's `_vec` forms and the binding. An owned
/// contribution to `scan` is folded in place (the result is the
/// moved-in allocation); rank 0's `exscan` is `None` at the substrate
/// and zeroed library storage through the binding.
#[test]
fn scan_and_exscan_match_the_sequential_oracle_on_the_grid() {
    fn check<O: kamping_repro::mpi::ReduceOp<u64> + Copy>(
        comm: &Communicator,
        n: usize,
        fold: O,
        kop: impl Fn() -> kamping_repro::kamping::params::OpParam<O>,
    ) {
        let (raw, rank) = (comm.raw(), comm.rank());
        let of = |r: usize| -> Vec<u64> {
            let seed = (r as u64 + 1) * 0x9E37_79B9;
            (0..n as u64).map(|i| (seed ^ i) >> 8).collect()
        };
        let prefix = |upto: usize| {
            (1..upto).fold(of(0), |acc, r| {
                (acc.iter().zip(of(r)).map(|(a, b)| fold.apply(a, &b))).collect()
            })
        };
        let (mine, incl) = (of(rank), prefix(rank + 1));
        let excl = (rank > 0).then(|| prefix(rank));
        let what = format!("p = {}, rank {rank}, n = {n}", comm.size());

        assert_eq!(raw.scan_vec(&mine, fold).unwrap(), incl, "scan_vec, {what}");
        let owned = mine.clone();
        let moved_in = owned.as_ptr();
        let got = raw.scan_vec(owned, fold).unwrap();
        assert_eq!(
            (got.as_ptr(), &got),
            (moved_in, &incl),
            "owned scan_vec, {what}"
        );
        assert_eq!(
            raw.exscan_vec(&mine, fold).unwrap(),
            excl,
            "exscan_vec, {what}"
        );
        assert_eq!(
            raw.exscan_vec(mine.clone(), fold).unwrap(),
            excl,
            "owned, {what}"
        );

        let zeroed = excl.unwrap_or(vec![0; n]);
        let got: Vec<u64> = comm.scan((send_buf(&mine), kop())).unwrap();
        assert_eq!(got, incl, "scan, {what}");
        let got: Vec<u64> = comm.scan((send_buf(mine.clone()), kop())).unwrap();
        assert_eq!(got, incl, "owned scan, {what}");
        let got: Vec<u64> = comm.exscan((send_buf(&mine), kop())).unwrap();
        assert_eq!(got, zeroed, "exscan, {what}");
        let got: Vec<u64> = comm.exscan((send_buf(mine), kop())).unwrap();
        assert_eq!(got, zeroed, "owned exscan, {what}");
    }
    for p in 1..=17 {
        Universe::run(p, |comm| {
            let comm = Communicator::new(comm);
            for n in [0, 1, 37, 4096] {
                check(&comm, n, Sum, || op(Sum));
                let composed = kamping_repro::mpi::non_commutative(compose);
                check(&comm, n, composed, || op(composed));
            }
        });
    }
}

/// Oracle check that the default (auto) policy is used end-to-end by
/// an application-shaped call: a large allreduce through the binding.
#[test]
fn large_allreduce_auto_matches_sum() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let n = 40_000usize; // 320 KB: auto selects Rabenseifner
        let mine = vec![comm.rank() as u64; n];
        let total: Vec<u64> = comm.allreduce((send_buf(&mine), op(Sum))).unwrap();
        assert_eq!(total, vec![6u64; n]);
    });
}

/// Determinism contract of `Select::Force`: a warm model never
/// overrides a forced slot. Every forced call is counted as a forced
/// pick; the model- and exploration-pick counters stay flat.
#[test]
fn force_is_never_overridden_by_a_warm_model() {
    Universe::run(4, |comm| {
        let mine = vec![comm.rank() as u64; 256];
        let sum = |a: &u64, b: &u64| a.wrapping_add(*b);
        // Warm every allreduce class.
        comm.set_tuning(fast_model());
        for _ in 0..12 {
            comm.allreduce_vec(&mine, sum).unwrap();
        }
        let before = comm.tuning_stats();
        // Keep the model driving, but force the algorithm.
        comm.set_tuning(fast_model().allreduce(AllreduceAlgo::Rabenseifner));
        for _ in 0..6 {
            assert_eq!(
                comm.allreduce_vec(&mine, sum).unwrap(),
                (0..4u64).fold(vec![0u64; 256], |acc, r| acc
                    .iter()
                    .map(|v| v.wrapping_add(r))
                    .collect())
            );
        }
        let after = comm.tuning_stats();
        assert_eq!(after.forced_picks - before.forced_picks, 6);
        assert_eq!(after.model_picks, before.model_picks);
        assert_eq!(after.explore_picks, before.explore_picks);
    });
}

/// Persistent plans freeze their selection at `*_init` (counted as one
/// frozen pick) and the steady-state `start`/`wait` cycles never
/// re-enter the selection engine: the decision counter is pinned flat
/// across every cycle, even with the model driving.
#[test]
fn persistent_plans_freeze_selection_and_never_reselect() {
    Universe::run(4, |comm| {
        comm.set_tuning(fast_model());
        let root = 0;
        let mut req = if comm.rank() == root {
            comm.bcast_init(Some(&[0u64]), root).unwrap()
        } else {
            comm.bcast_init::<u64>(None, root).unwrap()
        };
        let init = comm.tuning_stats();
        assert_eq!(init.frozen_picks, 1);
        for cycle in 0..5u64 {
            if comm.rank() == root {
                req.set_data(&[cycle * 7]).unwrap();
            }
            req.start().unwrap();
            let (v, _) = req.wait().unwrap().into_vec::<u64>().unwrap();
            assert_eq!(v, vec![cycle * 7]);
        }
        let after = comm.tuning_stats();
        assert_eq!(
            after.decisions, init.decisions,
            "steady-state persistent cycles must not re-select"
        );
        assert_eq!(after.frozen_picks, 1);
        assert_eq!(after.observations, init.observations);
    });
}

/// `dup` inherits the parent's published snapshot (warm estimates carry
/// into the child); `reset_model` clears only the communicator it is
/// called on.
#[test]
fn dup_inherits_model_and_reset_restarts_warmup() {
    Universe::run(4, |comm| {
        comm.set_tuning(fast_model());
        let mine = vec![comm.rank() as u64; 64];
        for _ in 0..8 {
            comm.allreduce_vec(&mine, |a: &u64, b: &u64| a.wrapping_add(*b))
                .unwrap();
        }
        let parent = comm.model_snapshot();
        assert!(parent.epoch > 0, "aggressive cadence must have published");
        let dup = comm.dup().unwrap();
        assert_eq!(
            dup.model_snapshot(),
            parent,
            "derived communicators inherit the published estimates"
        );
        dup.reset_model();
        assert_eq!(dup.model_snapshot(), ModelSnapshot::default());
        assert_eq!(
            comm.model_snapshot(),
            parent,
            "reset is per-communicator: the parent keeps its estimates"
        );
    });
}

// ---------------------------------------------------------------------------
// The lifecycle axis: every round-structured algorithm has one
// definition (a resumable engine) and three drivers of it. Each driver,
// on every (p, n) of the grid, must equal the sequential result.
// ---------------------------------------------------------------------------

mod lifecycles {
    use kamping_repro::mpi::request::{Completion, TestOutcome};
    use kamping_repro::mpi::{
        bytes_to_vec, non_commutative, AlgoClass, AllgatherAlgo, AlltoallAlgo, CollTuning, Comm,
        MpiError, NeighborhoodColl, PersistentRequest, ReduceAlgo, ReduceOp, Request, RequestSet,
        Universe,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    const GRID_P: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 16];
    /// Empty, one, odd, large.
    const GRID_N: [usize; 4] = [0, 1, 7, 1500];
    const CYCLES: usize = 3;

    /// How an `i*` request is brought to completion.
    #[derive(Clone, Copy, Debug)]
    enum Finish {
        Wait,
        /// `test` only — the engine never sees a blocking receive.
        Poll,
        /// Inside a set that also holds a receive which cannot complete
        /// first: the collective finishes through sweep-and-park.
        WaitAny,
    }
    const FINISHES: [Finish; 3] = [Finish::Wait, Finish::Poll, Finish::WaitAny];

    fn finish(comm: &Comm, mut req: Request<'_>, how: Finish) -> Completion {
        match how {
            Finish::Wait => req.wait().unwrap(),
            Finish::Poll => loop {
                match req.test().unwrap() {
                    TestOutcome::Ready(c) => return c,
                    TestOutcome::Pending(r) => {
                        req = r;
                        std::thread::yield_now();
                    }
                }
            },
            Finish::WaitAny => {
                // Only this rank sends the receive's message, and only
                // once the collective is done.
                let mut set = RequestSet::new();
                set.push(comm.irecv(comm.rank(), 99));
                set.push(req);
                let (index, done) = set.wait_any().unwrap().expect("two requests");
                assert_eq!(index, 1, "the receive's message is not sent yet");
                comm.send(&[0u8], comm.rank(), 99).unwrap();
                set.wait_any().unwrap().expect("the receive");
                done
            }
        }
    }

    /// Three `start`/`wait` cycles with `set_data` between them.
    fn cycles(
        mut plan: PersistentRequest<'_>,
        data: impl Fn(usize) -> Vec<u64>,
        check: impl Fn(usize, Completion),
    ) {
        for cycle in 0..CYCLES {
            plan.set_data(&data(cycle)).unwrap();
            plan.start().unwrap();
            check(cycle, plan.wait().unwrap());
        }
    }

    fn concat(done: Completion) -> Vec<u64> {
        let blocks = done.into_blocks().expect("a blocks completion");
        blocks.iter().flat_map(|b| bytes_to_vec::<u64>(b)).collect()
    }

    /// Element `i` of rank `r`'s contribution in cycle `c`.
    fn val(r: usize, i: usize, c: usize) -> u64 {
        (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 * 31 + c as u64 * 7)
    }

    fn wrapping_sum(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn on_grid(f: impl Fn(usize, usize) + Sync) {
        for p in GRID_P {
            for n in GRID_N {
                f(p, n);
            }
        }
    }

    #[test]
    fn allgather_ring_rd_and_bruck() {
        on_grid(|p, n| {
            Universe::run(p, move |comm| {
                let mine =
                    |c: usize| -> Vec<u64> { (0..n).map(|i| val(comm.rank(), i, c)).collect() };
                let expected = |c: usize| -> Vec<u64> {
                    (0..p)
                        .flat_map(|r| (0..n).map(move |i| val(r, i, c)))
                        .collect()
                };
                // Forced RD resolves to the ring row off powers of two
                // in every lifecycle alike.
                let rows = [
                    AllgatherAlgo::Ring,
                    AllgatherAlgo::RecursiveDoubling,
                    AllgatherAlgo::Bruck,
                ];
                for algo in rows {
                    comm.set_tuning(CollTuning::default().allgather(algo));
                    let what = format!("{algo:?} p={p} n={n}");
                    assert_eq!(comm.allgather_vec(&mine(0)).unwrap(), expected(0), "{what}");
                    for how in FINISHES {
                        let req = comm.iallgather(&mine(0)).unwrap();
                        assert_eq!(
                            concat(finish(&comm, req, how)),
                            expected(0),
                            "{what} {how:?}"
                        );
                    }
                    cycles(comm.allgather_init(&mine(0)).unwrap(), mine, |c, done| {
                        assert_eq!(concat(done), expected(c), "{what} cycle {c}")
                    });
                }
            });
        });
    }

    #[test]
    fn alltoall_pairwise_and_bruck() {
        on_grid(|p, n| {
            Universe::run(p, move |comm| {
                let me = comm.rank();
                // Block for destination `d`: n elements keyed by (me, d).
                let send = |c: usize| -> Vec<u64> {
                    (0..p)
                        .flat_map(|d| (0..n).map(move |i| val(me * p + d, i, c)))
                        .collect()
                };
                let expected = |c: usize| -> Vec<u64> {
                    (0..p)
                        .flat_map(|s| (0..n).map(move |i| val(s * p + me, i, c)))
                        .collect()
                };
                for algo in [AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck] {
                    comm.set_tuning(CollTuning::default().alltoall(algo));
                    let what = format!("{algo:?} p={p} n={n}");
                    let mut recv = vec![0u64; p * n];
                    comm.alltoall_into(&send(0), &mut recv).unwrap();
                    assert_eq!(recv, expected(0), "{what}");
                    for how in FINISHES {
                        let req = comm.ialltoall(&send(0)).unwrap();
                        assert_eq!(
                            concat(finish(&comm, req, how)),
                            expected(0),
                            "{what} {how:?}"
                        );
                    }
                }
                // A plan freezes the pairwise row, whatever is forced.
                let what = format!("p={p} n={n}");
                let plan = comm.alltoallv_init(&send(0), &vec![n; p]).unwrap();
                cycles(plan, send, |c, done| {
                    assert_eq!(concat(done), expected(c), "{what} cycle {c}")
                });
            });
        });
    }

    #[test]
    fn flat_and_binomial_reduce() {
        on_grid(|p, n| {
            Universe::run(p, move |comm| {
                let mine =
                    |c: usize| -> Vec<u64> { (0..n).map(|i| val(comm.rank(), i, c)).collect() };
                let expected = |c: usize| -> Vec<u64> {
                    (0..n)
                        .map(|i| (0..p).fold(0u64, |acc, r| acc.wrapping_add(val(r, i, c))))
                        .collect()
                };
                let root = p / 2;
                for algo in [ReduceAlgo::FlatGather, ReduceAlgo::BinomialTree] {
                    comm.set_tuning(CollTuning::default().reduce(algo));
                    let what = format!("{algo:?} p={p} n={n}");
                    let folded = comm.reduce_vec(mine(0), wrapping_sum, root).unwrap();
                    assert_eq!(folded, (comm.rank() == root).then(|| expected(0)), "{what}");
                    for how in FINISHES {
                        let req = comm.ireduce(&mine(0), wrapping_sum, root).unwrap();
                        let done = finish(&comm, req, how).into_vec::<u64>();
                        let folded = done.map(|(v, _)| v);
                        assert_eq!(
                            folded,
                            (comm.rank() == root).then(|| expected(0)),
                            "{what} {how:?}"
                        );
                    }
                }
            });
        });
    }

    /// The sizes of the allreduce and van de Geijn grids: vectors
    /// shorter than `p`, and every non-power-of-two fix-up.
    const SMALL_P: std::ops::RangeInclusive<usize> = 1..=9;
    const SMALL_N: [usize; 5] = [1, 2, 3, 7, 64];

    /// The row `call` selected, by `selections` delta (`None`: no
    /// decision was taken).
    fn picked(comm: &Comm, call: impl FnOnce()) -> Option<AlgoClass> {
        let before = comm.tuning_stats().selections;
        call();
        let after = comm.tuning_stats().selections;
        AlgoClass::ALL
            .into_iter()
            .find(|c| after[c.index()] > before[c.index()])
    }

    /// One allreduce in all three lifecycles against the sequential
    /// fold: blocking (`allreduce_vec`, borrowed and owned), `i*`
    /// (`iallreduce` under every finish, `iallreduce_bytes` owned) and
    /// `*_init` (three cycles with `set_data` between them, then one
    /// that replays the plan's own payload). Returns the row the
    /// blocking call selected.
    fn allreduce_lifecycles<O: ReduceOp<u64> + 'static>(
        comm: &Comm,
        n: usize,
        op: impl Fn() -> O,
        what: &str,
    ) -> Option<AlgoClass> {
        use kamping_repro::mpi::bytes_from_vec;
        let p = comm.size();
        let mine = |c: usize| -> Vec<u64> { (0..n).map(|i| val(comm.rank(), i, c)).collect() };
        let expected = |c: usize| -> Vec<u64> {
            let all = |i| (0..p).fold(0u64, |acc, r| acc.wrapping_add(val(r, i, c)));
            (0..n).map(all).collect()
        };
        let row = picked(comm, || {
            let got = comm.allreduce_vec(&mine(0)[..], op()).unwrap();
            assert_eq!(got, expected(0), "{what}, borrowed");
        });
        let got = comm.allreduce_vec(mine(0), op()).unwrap();
        assert_eq!(got, expected(0), "{what}, owned");
        for how in FINISHES {
            let req = comm.iallreduce(&mine(0), op()).unwrap();
            assert_eq!(
                concat(finish(comm, req, how)),
                expected(0),
                "{what} {how:?}"
            );
        }
        let own = bytes_from_vec(mine(0));
        let req = comm.iallreduce_bytes::<u64, _>(own, op()).unwrap();
        assert_eq!(concat(req.wait().unwrap()), expected(0), "{what}, owned i*");
        let mut plan = comm.allreduce_init(&mine(0), op()).unwrap();
        for cycle in 0..CYCLES {
            plan.set_data(&mine(cycle)).unwrap();
            plan.start().unwrap();
            let done = concat(plan.wait().unwrap());
            assert_eq!(done, expected(cycle), "{what} cycle {cycle}");
        }
        plan.start().unwrap();
        let done = concat(plan.wait().unwrap());
        assert_eq!(done, expected(CYCLES - 1), "{what}, replayed");
        row
    }

    /// Both allreduce rows — forced, and picked by `Auto` on either
    /// side of its size rule — and the ordered flat path of an
    /// operation declared non-commutative, in every lifecycle.
    #[test]
    fn allreduce_rows_in_every_lifecycle() {
        use kamping_repro::mpi::AllreduceAlgo;
        let (rd, rab) = (AlgoClass::AllreduceRd, AlgoClass::AllreduceRabenseifner);
        let base = CollTuning::default();
        for p in SMALL_P {
            for n in SMALL_N {
                Universe::run(p, move |comm| {
                    // Above the rule's 16 bytes at p >= 4, `Auto` picks
                    // Rabenseifner.
                    let eager = p >= 4 && n >= 2;
                    let rows = [
                        ("auto", base, rd),
                        (
                            "auto, small rule",
                            base.rabenseifner_min_bytes(16),
                            if eager { rab } else { rd },
                        ),
                        (
                            "doubling",
                            base.allreduce(AllreduceAlgo::RecursiveDoubling),
                            rd,
                        ),
                        (
                            "Rabenseifner",
                            base.allreduce(AllreduceAlgo::Rabenseifner),
                            rab,
                        ),
                    ];
                    for (name, tuning, row) in rows {
                        comm.set_tuning(tuning);
                        let what = format!("{name} p={p} n={n}");
                        let got = allreduce_lifecycles(&comm, n, || wrapping_sum, &what);
                        // A single rank returns its contribution unselected.
                        assert_eq!(got, (p > 1).then_some(row), "{what}");
                    }
                    comm.set_tuning(base);
                    let what = format!("non-commutative p={p} n={n}");
                    let ordered = || non_commutative(wrapping_sum);
                    assert_eq!(allreduce_lifecycles(&comm, n, ordered, &what), None);
                });
            }
        }
    }

    /// Van de Geijn's broadcast — forced, and picked by `Auto` — against
    /// the root's data in every lifecycle. The sized blocking forms run
    /// it (`bcast_into` borrowed, `bcast_parts` owned, `bcast_vec`
    /// behind its header); `ibcast`, `ibcast_bytes` and `bcast_init`,
    /// whose non-roots pass no size, keep the binomial tree. Chunks hold
    /// zero elements where `n < p` and split elements where the byte
    /// bounds fall inside one.
    #[test]
    fn scatter_allgather_broadcast_in_every_lifecycle() {
        use kamping_repro::mpi::{bytes_from_vec, BcastAlgo};
        let base = CollTuning::default();
        for p in SMALL_P {
            for n in SMALL_N {
                Universe::run(p, move |comm| {
                    let root = p / 2;
                    let data = |c: usize| -> Vec<u64> { (0..n).map(|i| val(root, i, c)).collect() };
                    let at_root = |c: usize| (comm.rank() == root).then(|| data(c));
                    let vdg = AlgoClass::BcastScatterAllgather;
                    let rows = [
                        ("forced", base.bcast(BcastAlgo::ScatterAllgather), true),
                        ("auto", base.bcast_scatter_min_bytes(8), p >= 4),
                    ];
                    for (name, tuning, runs_vdg) in rows {
                        comm.set_tuning(tuning);
                        let what = format!("{name} p={p} n={n}");
                        let mut buf = at_root(0).unwrap_or_else(|| vec![0; n]);
                        let row = picked(&comm, || comm.bcast_into(&mut buf, root).unwrap());
                        assert_eq!(buf, data(0), "{what}");
                        assert_eq!(row == Some(vdg), runs_vdg, "{what}");
                        let own = at_root(0).map(bytes_from_vec);
                        let parts = comm.bcast_parts(own, n * 8, root).unwrap();
                        assert_eq!(parts.into_vec::<u64>(), data(0), "{what}, owned");
                        let got = comm.bcast_vec(at_root(0).as_deref(), root).unwrap();
                        assert_eq!(got, data(0), "{what}, bcast_vec");
                        for how in FINISHES {
                            let req = comm.ibcast(at_root(0).as_deref(), root).unwrap();
                            assert_eq!(concat(finish(&comm, req, how)), data(0), "{what} {how:?}");
                        }
                        let own = at_root(0).map(bytes_from_vec);
                        let req = comm.ibcast_bytes(own, root).unwrap();
                        assert_eq!(concat(req.wait().unwrap()), data(0), "{what}, owned i*");
                        let plan = comm.bcast_init(at_root(0).as_deref(), root).unwrap();
                        cycles(plan, data, |c, done| {
                            assert_eq!(concat(done), data(c), "{what} cycle {c}")
                        });
                    }
                });
            }
        }
    }

    /// The sparse neighborhood row: every rank sends to its next two
    /// ranks — a self-edge and a duplicate edge at p = 1, a self-edge at
    /// p = 2 — block `k` of rank `r` keyed by `(r, k)`.
    #[test]
    fn sparse_neighborhood() {
        on_grid(|p, n| {
            Universe::run(p, move |comm| {
                let me = comm.rank();
                let dests = [(me + 1) % p, (me + 2) % p];
                let srcs = [(me + p - 1) % p, (me + 2 * p - 2) % p];
                let g = comm.create_dist_graph_adjacent(&srcs, &dests).unwrap();
                let send = |c: usize| -> Vec<u64> {
                    (0..2)
                        .flat_map(|k| (0..n).map(move |i| val(2 * me + k, i, c)))
                        .collect()
                };
                // Source `j` lists this rank as its `j`-th destination.
                let expected = |c: usize| -> Vec<u64> {
                    (0..2)
                        .flat_map(|j| (0..n).map(move |i| val(2 * srcs[j] + j, i, c)))
                        .collect()
                };
                let what = format!("p={p} n={n}");
                let blocks = g.neighbor_alltoallv_blocks(&send(0), &[n, n], &[0, n]);
                let got: Vec<u64> = (blocks.unwrap().iter())
                    .flat_map(|b| bytes_to_vec::<u64>(b))
                    .collect();
                assert_eq!(got, expected(0), "{what}");
                for how in FINISHES {
                    let req = g.ineighbor_alltoallv(&send(0), &[n, n]).unwrap();
                    assert_eq!(
                        concat(finish(&comm, req, how)),
                        expected(0),
                        "{what} {how:?}"
                    );
                }
                let plan = g.neighbor_alltoallv_init(&send(0), &[n, n]).unwrap();
                cycles(plan, send, |c, done| {
                    assert_eq!(concat(done), expected(c), "{what} cycle {c}")
                });
            });
        });
    }

    /// The scatter row: one plan under the blocking driver (`scatter_into`,
    /// `scatter_vec`, `scatterv_vec`) and the `i*` one (`iscatter`,
    /// `iscatterv`). Rank `r`'s `scatterv` block holds `r % 3 · n`
    /// elements, so some blocks are empty.
    #[test]
    fn flat_scatter() {
        use kamping_repro::mpi::collectives::displacements_from_counts;
        on_grid(|p, n| {
            Universe::run(p, move |comm| {
                let (me, root) = (comm.rank(), p / 2);
                let block =
                    |r: usize, len: usize| -> Vec<u64> { (0..len).map(|i| val(r, i, 0)).collect() };
                let counts: Vec<usize> = (0..p).map(|r| r % 3 * n).collect();
                let displs = displacements_from_counts(&counts);
                let equal: Vec<u64> = (0..p).flat_map(|r| block(r, n)).collect();
                let varied: Vec<u64> = (0..p).flat_map(|r| block(r, counts[r])).collect();
                let (mine, my_share) = (block(me, n), block(me, counts[me]));
                let at_root = me == root;
                let what = format!("p={p} n={n}");
                let mut recv = vec![0u64; n];
                comm.scatter_into(&equal, &mut recv, root).unwrap();
                assert_eq!(recv, mine, "{what}");
                let got = comm
                    .scatter_vec(at_root.then_some(&equal[..]), root)
                    .unwrap();
                assert_eq!(got, mine, "{what}");
                let send = at_root.then_some((&varied[..], &counts[..], &displs[..]));
                assert_eq!(comm.scatterv_vec(send, root).unwrap(), my_share, "{what}");
                for how in FINISHES {
                    let req = comm.iscatter(at_root.then_some(&equal[..]), root).unwrap();
                    let (got, _) = finish(&comm, req, how).into_vec::<u64>().unwrap();
                    assert_eq!(got, mine, "{what} {how:?}");
                    let send = at_root.then_some((&varied[..], &counts[..]));
                    let req = comm.iscatterv(send, root).unwrap();
                    let (got, _) = finish(&comm, req, how).into_vec::<u64>().unwrap();
                    assert_eq!(got, my_share, "{what} {how:?}");
                }
            });
        });
    }

    /// The broadcast row: the binomial tree under all three drivers —
    /// `bcast_bytes` / `bcast_into`, `ibcast`, `bcast_init`.
    #[test]
    fn binomial_broadcast() {
        use kamping_repro::mpi::bytes_from_vec;
        on_grid(|p, n| {
            Universe::run(p, move |comm| {
                let root = p - 1;
                let data = |c: usize| -> Vec<u64> { (0..n).map(|i| val(root, i, c)).collect() };
                let at_root = |c: usize| (comm.rank() == root).then(|| data(c));
                let what = format!("p={p} n={n}");
                let got = comm.bcast_bytes(at_root(0).map(bytes_from_vec), root);
                assert_eq!(bytes_to_vec::<u64>(&got.unwrap()), data(0), "{what}");
                let mut buf = at_root(0).unwrap_or_else(|| vec![0; n]);
                comm.bcast_into(&mut buf, root).unwrap();
                assert_eq!(buf, data(0), "{what}");
                for how in FINISHES {
                    let req = comm.ibcast(at_root(0).as_deref(), root).unwrap();
                    let (got, _) = finish(&comm, req, how).into_vec::<u64>().unwrap();
                    assert_eq!(got, data(0), "{what} {how:?}");
                }
                let plan = comm.bcast_init(at_root(0).as_deref(), root).unwrap();
                cycles(plan, data, |c, done| {
                    let (got, _) = done.into_vec::<u64>().unwrap();
                    assert_eq!(got, data(c), "{what} cycle {c}")
                });
            });
        });
    }

    /// One packed `alltoallv` layout rule in every lifecycle: a payload
    /// longer than its counts is `InvalidLayout` on every rank, from the
    /// blocking substrate and binding forms (which used to send the
    /// counted prefix and drop the rest) as from `ialltoallv`.
    #[test]
    fn packed_alltoallv_rejects_a_payload_longer_than_its_counts() {
        use kamping_repro::kamping::prelude::*;
        use kamping_repro::mpi::bytes_from_vec;
        for p in [2usize, 3] {
            Universe::run(p, move |comm| {
                let comm = Communicator::new(comm);
                let raw = comm.raw();
                let (send, counts) = (vec![7u64; p + 1], vec![1usize; p]);
                let invalid = |r: Result<(), MpiError>, call: &str| {
                    assert!(
                        matches!(r, Err(MpiError::InvalidLayout(_))),
                        "{call} p={p}: {r:?}"
                    )
                };
                let packed = bytes_from_vec(send.clone());
                let blocks = raw.alltoallv_blocks_bytes(packed, &[8; 3][..p]);
                invalid(blocks.map(drop), "alltoallv_blocks_bytes");
                let data = comm.alltoallv::<u64, _>((send_buf(&send), send_counts(&counts)));
                invalid(data.map(drop), "kamping alltoallv");
                invalid(raw.ialltoallv(&send, &counts).map(drop), "ialltoallv");
                let fut = comm.ialltoallv((send_buf(send.clone()), send_counts(&counts)));
                invalid(fut.map(drop), "kamping ialltoallv");
                let ranks = raw.allreduce_vec(&[1u64], wrapping_sum).unwrap();
                assert_eq!(ranks, [p as u64], "the next collective, p={p}");
            });
        }
    }

    #[test]
    fn dissemination_barrier() {
        for p in GRID_P {
            // One arrival counter per barrier: nobody may leave barrier
            // `b` before all `p` ranks have entered it.
            let arrived: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let arrived = &arrived;
            Universe::run(p, move |comm| {
                arrived[0].fetch_add(1, Ordering::SeqCst);
                comm.barrier().unwrap();
                assert_eq!(arrived[0].load(Ordering::SeqCst), p, "blocking p={p}");
                for (b, how) in FINISHES.into_iter().enumerate() {
                    arrived[b + 1].fetch_add(1, Ordering::SeqCst);
                    let req = comm.ibarrier().unwrap();
                    assert!(matches!(finish(&comm, req, how), Completion::Done));
                    assert_eq!(arrived[b + 1].load(Ordering::SeqCst), p, "{how:?} p={p}");
                }
            });
        }
    }

    /// Unequal contributions break the equal-block contract the packed
    /// rounds rely on: one definition reports it, with one text, from
    /// every lifecycle. Halves contributing different sizes make every
    /// rank see the mismatch (in its last round), so nobody is left
    /// waiting for a peer that bailed.
    #[test]
    fn unequal_contributions_report_the_same_error_from_both_lifecycles() {
        for p in [2usize, 4] {
            for algo in [AllgatherAlgo::RecursiveDoubling, AllgatherAlgo::Bruck] {
                Universe::run(p, move |comm| {
                    comm.set_tuning(CollTuning::default().allgather(algo));
                    let mine = vec![7u64; if comm.rank() < p / 2 { 1 } else { 2 }];
                    let blocking = comm.allgather_vec(&mine).unwrap_err();
                    let nonblocking = comm.iallgather(&mine).unwrap().wait().unwrap_err();
                    assert_eq!(blocking, nonblocking, "{algo:?} p={p}");
                    match blocking {
                        MpiError::InvalidLayout(text) => {
                            assert!(text.contains("unequal contributions"), "{text}")
                        }
                        other => panic!("{algo:?} p={p}: {other:?}"),
                    }
                });
            }
        }
        // The flat reduce row — taken by a non-commutative operation, or
        // forced: the one fold reports the odd block at the root (the
        // blocking form used to panic there), named after the call; the
        // other ranks' part was their send, and the communicator is
        // clean afterwards.
        fn flat_row<O: ReduceOp<u64> + Copy + 'static>(comm: &Comm, op: O) {
            let (p, root) = (comm.size(), 1);
            let mine = vec![7u64; if comm.rank() == p - 1 { 2 } else { 1 }];
            let check = |folded: Result<bool, MpiError>, call: &str| match folded {
                Ok(folded) => assert!(!folded && comm.rank() != root, "{call} p={p}"),
                Err(MpiError::InvalidLayout(text)) => {
                    assert!(comm.rank() == root, "{call} p={p}");
                    assert!(text.starts_with(&format!("{call}: rank")), "{text}")
                }
                Err(other) => panic!("{call} p={p}: {other:?}"),
            };
            let blocking = comm.reduce_vec(&mine, op, root);
            check(blocking.map(|folded| folded.is_some()), "reduce");
            let nonblocking = comm.ireduce(&mine, op, root).unwrap().wait();
            check(
                nonblocking.map(|done| done.into_vec::<u64>().is_some()),
                "ireduce",
            );
            let ranks = comm.allreduce_vec(&[1u64], wrapping_sum).unwrap();
            assert_eq!(ranks, [p as u64], "the next collective, p={p}");
        }
        for p in [3usize, 4] {
            Universe::run(p, |comm| {
                flat_row(&comm, non_commutative(wrapping_sum));
                comm.set_tuning(CollTuning::default().reduce(ReduceAlgo::FlatGather));
                flat_row(&comm, wrapping_sum);
            });
        }
    }
}
