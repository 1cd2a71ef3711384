//! Shape assertions on the virtual-time cost model — the mechanisms
//! behind the paper's Fig. 8/10 findings must be visible in the model:
//! sparse exchanges beat dense ones on sparse patterns, the grid
//! all-to-all beats dense at scale, rebuilding topologies per round does
//! not scale, and the alltoallw (MPL) path is more expensive — plus the
//! crossovers the static `Auto` rules stand on and the critical-path
//! audits. `i*` schedules are priced by `Universe::dry_run` on one
//! thread, which the lifecycle test holds to the threaded run.

use std::collections::HashMap;

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::op::Sum;
use kamping_repro::mpi::{Comm, Config, CostModel, Request, Result as MpiResult, Universe};

/// Max-over-ranks virtual time (ns) of one run of `f` under the cluster
/// cost model.
fn vtime<F: Fn(&Comm) + Sync>(p: usize, f: F) -> u64 {
    Universe::run_with(Config::new(p).cost(CostModel::cluster()), |comm| {
        comm.barrier().unwrap();
        comm.clock_reset();
        f(&comm);
        comm.clock_now_ns()
    })
    .into_iter()
    .map(|o| o.unwrap())
    .max()
    .unwrap()
}

/// Max-over-ranks virtual time (ns) of the request `start` makes on
/// every rank, priced by a one-thread dry run under `model`.
fn dry<F>(p: usize, model: CostModel, start: F) -> u64
where
    F: for<'c> Fn(&'c Comm) -> MpiResult<Request<'c>>,
{
    let finish = Universe::dry_run(Config::new(p).cost(model), start).unwrap();
    finish.into_iter().max().unwrap()
}

/// `(hops on the critical path, most receives at one rank)` of the
/// schedule `start` runs at `p` ranks.
fn counts<F>(p: usize, start: F) -> (u64, u64)
where
    F: for<'c> Fn(&'c Comm) -> MpiResult<Request<'c>>,
{
    let only = |alpha_ns, recv_overhead_ns| CostModel {
        alpha_ns,
        recv_overhead_ns,
        ..CostModel::disabled()
    };
    (dry(p, only(1, 0), &start), dry(p, only(0, 1), &start))
}

#[test]
fn sparse_beats_dense_on_ring_pattern() {
    let p = 16;
    let dense = vtime(p, |comm| {
        let kc = Communicator::new(comm.dup().unwrap());
        comm.clock_reset();
        let mut counts = vec![0usize; p];
        counts[(kc.rank() + 1) % p] = 1;
        let _: Vec<u64> = kc
            .alltoallv((send_buf(&vec![1u64]), send_counts(&counts)))
            .unwrap();
    });
    let sparse = vtime(p, |comm| {
        let kc = Communicator::new(comm.dup().unwrap());
        comm.clock_reset();
        let mut msgs = HashMap::new();
        msgs.insert((kc.rank() + 1) % p, vec![1u64]);
        let _ = kc.sparse_alltoallv(&msgs).unwrap();
    });
    assert!(
        sparse < dense,
        "ring pattern: sparse ({sparse} ns) must beat dense ({dense} ns) at p={p}"
    );
}

#[test]
fn grid_beats_dense_alltoallv_at_scale_for_small_messages() {
    let p = 64;
    let dense = vtime(p, |comm| {
        let kc = Communicator::new(comm.dup().unwrap());
        comm.clock_reset();
        let counts = vec![1usize; p];
        let data = vec![1u64; p];
        let _: Vec<u64> = kc
            .alltoallv((send_buf(&data), send_counts(&counts)))
            .unwrap();
    });
    let grid = vtime(p, |comm| {
        let kc = Communicator::new(comm.dup().unwrap());
        let g = kc.make_grid().unwrap();
        comm.clock_reset();
        let counts = vec![1usize; p];
        let data = vec![1u64; p];
        let _ = g.alltoallv(&data, &counts).unwrap();
    });
    assert!(
        grid < dense,
        "p={p}: grid ({grid} ns) must beat dense ({dense} ns) for latency-bound exchanges"
    );
}

#[test]
fn dense_beats_grid_for_bandwidth_bound_exchanges() {
    // The trade-off of §V-A: the grid halves the startup count but
    // doubles the communication volume, so for large payloads the dense
    // exchange must win.
    let p = 4;
    let n = 8_192usize; // 64 KiB per peer: beta-dominated
    let dense = vtime(p, |comm| {
        let kc = Communicator::new(comm.dup().unwrap());
        comm.clock_reset();
        let counts = vec![n; p];
        let data = vec![1u64; n * p];
        let mut out = vec![0u64; n * p];
        kc.alltoallv((
            send_buf(&data),
            send_counts(&counts),
            recv_counts(&counts),
            recv_buf(&mut out),
        ))
        .unwrap();
    });
    let grid = vtime(p, |comm| {
        let kc = Communicator::new(comm.dup().unwrap());
        let g = kc.make_grid().unwrap();
        comm.clock_reset();
        let counts = vec![n; p];
        let data = vec![1u64; n * p];
        let _ = g.alltoallv(&data, &counts).unwrap();
    });
    assert!(
        dense < grid,
        "p={p}, 64 KiB blocks: dense ({dense} ns) must beat the volume-doubling grid ({grid} ns)"
    );
}

#[test]
fn topology_rebuild_dwarfs_reuse() {
    let p = 16;
    let peers: Vec<usize> = vec![]; // empty neighbourhood: isolate setup cost
    let reuse = vtime(p, |comm| {
        let topo = comm.create_dist_graph_adjacent(&peers, &peers).unwrap();
        comm.clock_reset();
        for _ in 0..10 {
            let _ = topo.neighbor_alltoall_vecs::<u64>(&[]).unwrap();
        }
    });
    let rebuild = vtime(p, |comm| {
        comm.barrier().unwrap();
        comm.clock_reset();
        for _ in 0..10 {
            let topo = comm.create_dist_graph_adjacent(&peers, &peers).unwrap();
            let _ = topo.neighbor_alltoall_vecs::<u64>(&[]).unwrap();
        }
    });
    assert!(
        rebuild > reuse * 3,
        "rebuilding per round ({rebuild} ns) must dwarf reuse ({reuse} ns)"
    );
}

#[test]
fn alltoallw_path_costs_more_than_alltoallv() {
    let p = 16;
    let via_v = vtime(p, |comm| {
        let counts = vec![8usize; p];
        let displs: Vec<usize> = (0..p).map(|r| r * 8).collect();
        let data = vec![1u8; 8 * p];
        let mut out = vec![0u8; 8 * p];
        comm.alltoallv_into(&data, &counts, &displs, &mut out, &counts, &displs)
            .unwrap();
    });
    let via_w = vtime(p, |comm| {
        let counts = vec![8usize; p];
        let displs: Vec<usize> = (0..p).map(|r| r * 8).collect();
        let data = vec![1u8; 8 * p];
        let mut out = vec![0u8; 8 * p];
        comm.alltoallw_bytes(&data, &counts, &displs, &mut out, &counts, &displs)
            .unwrap();
    });
    assert!(
        via_w > via_v,
        "alltoallw ({via_w} ns) must carry the datatype overhead over alltoallv ({via_v} ns)"
    );
}

#[test]
fn weak_scaling_of_dense_exchange_is_superlinear_in_p() {
    // Dense personalized exchange: per-rank startups grow linearly in p,
    // so doubling p roughly doubles the (latency-dominated) cost.
    let t8 = vtime(8, |comm| {
        let p = comm.size();
        let counts = vec![1usize; p];
        let displs: Vec<usize> = (0..p).collect();
        let data = vec![1u64; p];
        let mut out = vec![0u64; p];
        comm.alltoallv_into(&data, &counts, &displs, &mut out, &counts, &displs)
            .unwrap();
    });
    let t32 = vtime(32, |comm| {
        let p = comm.size();
        let counts = vec![1usize; p];
        let displs: Vec<usize> = (0..p).collect();
        let data = vec![1u64; p];
        let mut out = vec![0u64; p];
        comm.alltoallv_into(&data, &counts, &displs, &mut out, &counts, &displs)
            .unwrap();
    });
    assert!(
        t32 > 2 * t8,
        "dense exchange at p=32 ({t32} ns) must cost well over 2x p=8 ({t8} ns)"
    );
}

/// The crossovers the static `Auto` rules stand on, at p = 4 and 8 over
/// the ladders they were drawn from (contribution bytes; block bytes
/// for alltoall): Rabenseifner beats recursive doubling and van de
/// Geijn's broadcast beats the binomial tree at the top rung, Bruck
/// beats pairwise at the bottom one, and `Auto` is never slower than
/// the former single-algorithm default on any rung. The broadcast row
/// is blocking-only, so it runs threaded.
#[test]
fn auto_stands_on_the_crossovers() {
    use kamping_repro::mpi::AllreduceAlgo::{Rabenseifner, RecursiveDoubling};
    use kamping_repro::mpi::AlltoallAlgo::{Bruck, Pairwise};
    use kamping_repro::mpi::BcastAlgo::{Binomial, ScatterAllgather};
    use kamping_repro::mpi::CollTuning;
    let (auto, model) = (CollTuning::default(), CostModel::cluster());
    let ladder = [16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let blocks = [16, 256, 1 << 10, 16 << 10, 64 << 10];
    for p in [4usize, 8] {
        let allreduce = |tuning, bytes: usize| {
            let mine = vec![1u64; bytes / 8];
            dry(p, model, |c| {
                c.set_tuning(tuning);
                c.iallreduce(&mine, Sum)
            })
        };
        let bcast = |tuning, bytes| {
            vtime(p, |c| {
                c.set_tuning(tuning);
                c.bcast_into(&mut vec![1u8; bytes], 0).unwrap();
            })
        };
        let alltoall = |tuning, bytes: usize| {
            let send = vec![1u8; bytes * p];
            dry(p, model, |c| {
                c.set_tuning(tuning);
                c.ialltoall(&send)
            })
        };
        let [rd, rab] =
            [RecursiveDoubling, Rabenseifner].map(|a| allreduce(auto.allreduce(a), 4 << 20));
        assert!(rab < rd, "p = {p}: Rabenseifner {rab} ns, doubling {rd} ns");
        let [tree, vdg] = [Binomial, ScatterAllgather].map(|a| bcast(auto.bcast(a), 4 << 20));
        assert!(vdg < tree, "p = {p}: vdG {vdg} ns, binomial {tree} ns");
        let [pw, bruck] = [Pairwise, Bruck].map(|a| alltoall(auto.alltoall(a), 16));
        assert!(bruck < pw, "p = {p}: Bruck {bruck} ns, pairwise {pw} ns");
        for bytes in ladder {
            let old = allreduce(auto.allreduce(RecursiveDoubling), bytes);
            assert!(allreduce(auto, bytes) <= old, "p = {p}, {bytes} B");
            let old = bcast(auto.bcast(Binomial), bytes);
            assert!(bcast(auto, bytes) <= old, "p = {p}, {bytes} B");
        }
        for bytes in blocks {
            let old = alltoall(auto.alltoall(Pairwise), bytes);
            assert!(alltoall(auto, bytes) <= old, "p = {p}, {bytes} B");
        }
    }
}

// ---------------------------------------------------------------------------
// The critical-path audit: what a small-message collective costs in
// message times, per operation, communicator size and root.
// ---------------------------------------------------------------------------

/// Runs `ops` back to back at `p` ranks under `model`, each from a
/// synchronized zero; returns the virtual ns of each operation name in
/// first-run order — the maximum over ranks and over every run of that
/// name (one per root, for the rooted ones).
fn timed_ops<F>(p: usize, model: CostModel, ops: F) -> Vec<(&'static str, u64)>
where
    F: Fn(&Comm, &mut dyn FnMut(&'static str, &mut dyn FnMut())) + Sync,
{
    let per_rank = Universe::run_with(Config::new(p).cost(model), |comm| {
        let mut out = Vec::new();
        ops(&comm, &mut |name, op| {
            comm.barrier().unwrap();
            comm.clock_reset();
            op();
            out.push((name, comm.clock_now_ns()));
        });
        out
    });
    let mut worst: Vec<(&'static str, u64)> = Vec::new();
    for (name, t) in per_rank.into_iter().flat_map(|o| o.unwrap()) {
        match worst.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = slot.1.max(t),
            None => worst.push((name, t)),
        }
    }
    worst
}

const AUDIT_SIZES: [usize; 18] = [
    2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 64,
];

/// Every 8-byte collective that can finish in `ceil(log2 p)` message
/// times does, from every root, in every lifecycle the self-sizing
/// `allgatherv` has: one message time is `alpha + 8 beta + o` under
/// `CostModel::cluster()`. The allowances are the documented ones — the
/// bytes a packed Bruck / doubling round carries beyond its own 8, and
/// recursive-doubling allreduce's fold-in and hand-back hops off powers
/// of two. The `i*` forms are dry-run. `--nocapture` prints the table.
#[test]
fn small_message_collectives_finish_in_log_p_message_times() {
    let model = CostModel::cluster();
    let hop = model.alpha_ns + model.transfer_ns(8) + model.recv_overhead_ns;
    let mut over = Vec::new();
    for p in AUDIT_SIZES {
        let log = p.next_power_of_two().trailing_zeros() as u64;
        let tree = log * hop;
        let packed = log * (hop + model.transfer_ns(8 * p));
        let limit = |name: &str| match name {
            "allgather_vec" | "allgatherv_into" | "alltoall_into" => packed,
            // A learned round also carries one 8-byte length per block.
            "allgatherv_vec" | "iallgatherv" | "allgatherv_init" => packed,
            "allreduce_vec" if !p.is_power_of_two() => tree + hop,
            "split" => 2 * packed,
            _ => tree,
        };
        let mut times = timed_ops(p, model, |comm, run| {
            let mine = [comm.rank() as u64];
            run("barrier", &mut || comm.barrier().unwrap());
            for root in 0..p {
                let data = (comm.rank() == root).then_some(&mine[..]);
                run("bcast_into", &mut || {
                    comm.bcast_into(&mut [root as u64], root).unwrap()
                });
                let mut plan = comm.bcast_init(data, root).unwrap();
                run("bcast_init", &mut || {
                    plan.start().unwrap();
                    plan.wait().unwrap();
                });
                run("reduce_vec", &mut || {
                    comm.reduce_vec(&mine, Sum, root).unwrap();
                });
            }
            run("allreduce_vec", &mut || {
                comm.allreduce_vec(&mine, Sum).unwrap();
            });
            run("allgather_vec", &mut || {
                comm.allgather_vec(&mine).unwrap();
            });
            run("allgatherv_into", &mut || {
                let (ones, displs) = (vec![1usize; p], (0..p).collect::<Vec<_>>());
                comm.allgatherv_into(&mine, &mut vec![0u64; p], &ones, &displs)
                    .unwrap()
            });
            run("allgatherv_vec", &mut || {
                comm.allgatherv_vec(&mine).unwrap();
            });
            let mut plan = comm.allgatherv_init(&mine).unwrap();
            run("allgatherv_init", &mut || {
                plan.start().unwrap();
                plan.wait().unwrap();
            });
            run("alltoall_into", &mut || {
                comm.alltoall_into(&vec![1u64; p], &mut vec![0u64; p])
                    .unwrap()
            });
            run("scan_vec", &mut || {
                comm.scan_vec(&mine, Sum).unwrap();
            });
            run("exscan_vec", &mut || {
                comm.exscan_vec(&mine, Sum).unwrap();
            });
            run("dup", &mut || drop(comm.dup().unwrap()));
            run("split", &mut || {
                comm.split(Some(comm.rank() as u64 % 2), 0).unwrap();
            });
        });
        let ibcast = (0..p).map(|root| dry(p, model, |c| c.ibcast(Some(&[1u64][..]), root)));
        times.push(("ibcast", ibcast.max().unwrap()));
        let iallgatherv = dry(p, model, |c| c.iallgatherv(&[c.rank() as u64]));
        times.push(("iallgatherv", iallgatherv));
        let row: Vec<String> = (times.iter())
            .map(|(name, t)| format!("{name} {:.1}", *t as f64 / 1e3))
            .collect();
        println!(
            "p = {p}, bound {:.1} us: {}",
            tree as f64 / 1e3,
            row.join(", ")
        );
        over.extend(
            (times.iter().filter(|(name, t)| *t > limit(name)))
                .map(|(name, t)| format!("p = {p}: {name} {t} ns > {} ns", limit(name))),
        );
    }
    assert!(
        over.is_empty(),
        "not finished in ceil(log2 p) message times:\n{}",
        over.join("\n")
    );
}

/// What stays at `p - 1` startups, pinned exactly so that a change
/// which fixes one has to edit this table. Their log-round forms trade
/// startups for forwarded bytes and need a size rule
/// (`scatter`/`gatherv`: a binomial tree forwards up to `s·p/2` per
/// inner rank; `alltoallv`: Bruck moves `~s/2` every round). The counted
/// `allgatherv` left this table when its total came to select the
/// latency rows (see the audit above). Each pin is `(hops on the
/// critical path, most receives at one rank)`: a scatter root posts
/// p - 1 sends, a gather root completes p - 1 receives, and every rank
/// of an `alltoallv` does both. The lifecycle test holds the blocking
/// forms to these schedules.
#[test]
fn linear_collectives_are_pinned_at_p_minus_one_startups() {
    for p in AUDIT_SIZES {
        let (n, all, ones) = (p as u64 - 1, vec![7u64; p], vec![1usize; p]);
        for root in [0, p - 1] {
            let scatter = counts(p, |c| c.iscatter(Some(&all), root));
            assert_eq!(scatter, (n, 1), "p = {p}, root {root}: scatter");
            let gatherv = counts(p, |c| c.igatherv(&[c.rank() as u64], root));
            assert_eq!(gatherv, (1, n), "p = {p}, root {root}: gatherv");
        }
        let alltoallv = counts(p, |c| c.ialltoallv(&all, &ones));
        assert_eq!(alltoallv, (n, n), "p = {p}: alltoallv");
    }
}

/// Every substrate `i*` collective, started on `v` — `p` copies of it
/// where the root's buffer or an all-to-all send holds one block per
/// rank; rooted ones at rank 0.
type Start = for<'c> fn(&'c Comm, &[u64]) -> MpiResult<Request<'c>>;
const I_OPS: [(&str, Start); 12] = [
    ("ibarrier", |c, _| c.ibarrier()),
    ("ibcast", |c, v| c.ibcast(Some(v), 0)),
    ("ireduce", |c, v| c.ireduce(v, Sum, 0)),
    ("iallreduce", |c, v| c.iallreduce(v, Sum)),
    ("iallgather", |c, v| c.iallgather(v)),
    ("iallgatherv", |c, v| c.iallgatherv(v)),
    ("ialltoall", |c, v| c.ialltoall(&v.repeat(c.size()))),
    ("ialltoallv", |c, v| {
        c.ialltoallv(&v.repeat(c.size()), &vec![v.len(); c.size()])
    }),
    ("iscatter", |c, v| c.iscatter(Some(&v.repeat(c.size())), 0)),
    ("iscatterv", |c, v| {
        let counts = vec![v.len(); c.size()];
        c.iscatterv(Some((&v.repeat(c.size()), &counts)), 0)
    }),
    ("igather", |c, v| c.igather(v, 0)),
    ("igatherv", |c, v| c.igatherv(v, 0)),
];

/// One engine, one schedule: every row of `allreduce`, `allgather` and
/// the self-sizing `allgatherv` — forced, and as `Auto` picks it — and
/// `alltoall(v)`, `scatter`, `gatherv` and `barrier` cost the same
/// modelled time whether the blocking call drives the engine, `i*` +
/// `wait` does, or a persistent plan's `start` + `wait` does; so do
/// `bcast` on the binomial row and `reduce` on either forced row (under
/// `Auto`, `ireduce` keeps the flat gather by design). And every `i*`
/// form costs what `Universe::dry_run` prices on one thread: the dry
/// run is an oracle for all three lifecycles. (The blocking ring and
/// pairwise loops used to serialise their `p - 1` hops; until the
/// allreduce rows and the static `Auto` rule served every lifecycle,
/// `iallreduce` / `allreduce_init` ran a flat gather + broadcast and
/// `iallgather` / `allgather_init` the ring wherever the blocking call
/// ran a log-round row.)
#[test]
fn collectives_cost_the_same_in_every_lifecycle() {
    use kamping_repro::mpi::{bytes_from_vec, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo};
    use kamping_repro::mpi::{BcastAlgo, CollTuning, PersistentRequest, ReduceAlgo, Select};
    const GROUPS: [&[&str]; 8] = [
        &["allreduce", "iallreduce", "allreduce_init"],
        &["allgather", "iallgather", "allgather_init"],
        &["allgatherv", "iallgatherv", "allgatherv_init"],
        &["alltoall", "ialltoall"],
        &["alltoallv", "ialltoallv", "alltoallv_init"],
        &["scatter", "iscatter"],
        &["gatherv", "igatherv"],
        &["barrier", "ibarrier"],
    ];
    let base = CollTuning::default();
    let tunings = [
        base,
        base.allreduce(AllreduceAlgo::RecursiveDoubling)
            .allgather(AllgatherAlgo::Ring)
            .alltoall(AlltoallAlgo::Pairwise)
            .bcast(BcastAlgo::Binomial)
            .reduce(ReduceAlgo::BinomialTree),
        base.allreduce(AllreduceAlgo::Rabenseifner)
            .allgather(AllgatherAlgo::RecursiveDoubling)
            .reduce(ReduceAlgo::FlatGather),
        base.allgather(AllgatherAlgo::Bruck),
    ];
    let model = CostModel::cluster();
    for p in [2usize, 4, 6, 7, 16] {
        for bytes in [8usize, 64 * 1024] {
            for tuning in tunings {
                let mine = vec![1u64; bytes / 8];
                let times = timed_ops(p, model, |comm, run| {
                    comm.set_tuning(tuning);
                    let own = || bytes_from_vec(vec![comm.rank() as u8; bytes]);
                    let (send, counts) = (vec![1u8; p * bytes], vec![bytes; p]);
                    let packed = || bytes_from_vec(send.clone());
                    let cycle = |plan: &mut PersistentRequest<'_>| {
                        plan.start().unwrap();
                        plan.wait().unwrap();
                    };
                    for (name, start) in I_OPS {
                        run(name, &mut || {
                            drop(start(comm, &mine).unwrap().wait().unwrap())
                        });
                    }
                    run("allreduce", &mut || {
                        comm.allreduce_vec(&mine, Sum).unwrap();
                    });
                    let mut plan = comm.allreduce_init(&mine, Sum).unwrap();
                    run("allreduce_init", &mut || cycle(&mut plan));
                    run("allgather", &mut || {
                        comm.allgather_blocks(own()).unwrap();
                    });
                    let mut plan = comm.allgather_init_bytes(own()).unwrap();
                    run("allgather_init", &mut || cycle(&mut plan));
                    run("allgatherv", &mut || {
                        comm.allgatherv_blocks(own(), None).unwrap();
                    });
                    let mut plan = comm.allgatherv_init_bytes(own()).unwrap();
                    run("allgatherv_init", &mut || cycle(&mut plan));
                    run("alltoall", &mut || {
                        comm.alltoall_blocks(&send).unwrap();
                    });
                    run("alltoallv", &mut || {
                        comm.alltoallv_blocks_bytes(packed(), &counts).unwrap();
                    });
                    let mut plan = comm.alltoallv_init_bytes(packed(), &counts).unwrap();
                    run("alltoallv_init", &mut || cycle(&mut plan));
                    let (root, all) = (0, mine.repeat(p));
                    run("scatter", &mut || {
                        comm.scatter_vec(Some(&all), root).unwrap();
                    });
                    run("gatherv", &mut || {
                        comm.gatherv_vec(&mine, root).unwrap();
                    });
                    run("barrier", &mut || comm.barrier().unwrap());
                    run("bcast", &mut || {
                        comm.bcast_into(&mut mine.clone(), root).unwrap();
                    });
                    let data = (comm.rank() == root).then_some(&mine[..]);
                    let mut plan = comm.bcast_init(data, root).unwrap();
                    run("bcast_init", &mut || cycle(&mut plan));
                    run("reduce", &mut || {
                        comm.reduce_vec(&mine, Sum, root).unwrap();
                    });
                });
                let ns = |name: &str| times.iter().find(|(n, _)| *n == name).unwrap().1;
                let at = format!("p = {p}, {bytes} B, {tuning:?}");
                let mut groups = GROUPS.to_vec();
                if tuning.bcast == Select::Force(BcastAlgo::Binomial) {
                    groups.push(&["bcast", "ibcast", "bcast_init"]);
                }
                if tuning.reduce != Select::Auto {
                    groups.push(&["reduce", "ireduce"]);
                }
                for group in groups {
                    for name in &group[1..] {
                        assert_eq!(ns(group[0]), ns(name), "{} vs {name}, {at}", group[0]);
                    }
                }
                for (name, start) in I_OPS {
                    let priced = dry(p, model, |c| {
                        c.set_tuning(tuning);
                        start(c, &mine)
                    });
                    assert_eq!(priced, ns(name), "dry run vs threaded {name}, {at}");
                }
            }
        }
    }
}

/// The inferred-size tax. A broadcast whose non-roots pass no size —
/// the substrate's `bcast_bytes`, `ibcast` and `bcast_init`, the
/// binding's `bcast`, `ibcast` and `bcast_init` without `recv_count` —
/// lets its root select and name its row on the wire, so from van de
/// Geijn's threshold up it costs at most 1.15x the sized `bcast_into`
/// (the root announces the size down the tree first), and below it
/// exactly what `bcast_into` costs: the tree's messages, byte for byte.
/// `ibcast` is priced by a dry run, every other form threaded.
/// `--nocapture` prints the table.
#[test]
fn self_sizing_broadcasts_cost_at_most_the_announcement() {
    use kamping_repro::mpi::bytes_from_vec;
    use kamping_repro::mpi::collectives::algos::BCAST_SCATTER_MIN_BYTES;
    let model = CostModel::cluster();
    let mut over = Vec::new();
    for p in [4usize, 16, 64] {
        for bytes in [1 << 10, 64 << 10, 256 << 10, 1 << 20] {
            let data = vec![7u64; bytes / 8];
            let mut times = timed_ops(p, model, |comm, run| {
                let kc = Communicator::new(comm.dup().unwrap());
                let mine = || (comm.rank() == 0).then(|| data.clone());
                let owned = || mine().unwrap_or_default();
                run("bcast_into", &mut || {
                    comm.bcast_into(&mut data.clone(), 0).unwrap();
                });
                run("bcast_bytes", &mut || {
                    comm.bcast_bytes(mine().map(bytes_from_vec), 0).unwrap();
                });
                let mut plan = comm.bcast_init(mine().as_deref(), 0).unwrap();
                run("bcast_init", &mut || {
                    plan.start().unwrap();
                    plan.wait().unwrap();
                });
                run("kamping bcast", &mut || {
                    kc.bcast((send_recv_buf(&mut owned()),)).unwrap();
                });
                run("kamping ibcast", &mut || {
                    kc.ibcast((send_recv_buf(owned()),))
                        .unwrap()
                        .wait()
                        .unwrap();
                });
                let mut plan = kc.bcast_init((send_recv_buf(owned()),)).unwrap();
                run("kamping bcast_init", &mut || {
                    plan.start().unwrap();
                    plan.wait().unwrap();
                });
            });
            let root_data = |c: &Comm| (c.rank() == 0).then_some(&data[..]);
            times.push(("ibcast", dry(p, model, |c| c.ibcast(root_data(c), 0))));
            let sized = times[0].1;
            let row: Vec<String> = (times.iter())
                .map(|(name, t)| format!("{name} {:.1}", *t as f64 / 1e3))
                .collect();
            println!("p = {p}, {bytes} B: {} us", row.join(", "));
            for &(name, t) in &times[1..] {
                let fits = match bytes >= BCAST_SCATTER_MIN_BYTES {
                    true => t as f64 <= 1.15 * sized as f64,
                    false => t == sized,
                };
                if !fits {
                    over.push(format!(
                        "p = {p}, {bytes} B: {name} {t} ns, bcast_into {sized} ns"
                    ));
                }
            }
        }
    }
    assert!(
        over.is_empty(),
        "self-sizing broadcasts off the sized one:\n{}",
        over.join("\n")
    );
}

/// The blocking `allreduce` cells of the benchmark's p = 16 model run
/// (`coll_blocking`'s `Scale::Model` sizes), pinned to the 0.1 us:
/// recursive doubling at 1 KiB; Rabenseifner at 64 KiB, its 4 KiB
/// chunks gathered in doubling rounds (33.4 us on recursive doubling
/// before the rule moved to 64 KiB), and at 256 KiB, whose 16 KiB
/// chunks take the eager exchange.
/// The lifecycle test above holds `iallreduce` and `allreduce_init` to
/// the same numbers.
#[test]
fn blocking_allreduce_model_time_at_p16_is_pinned() {
    let times = timed_ops(16, CostModel::cluster(), |comm, run| {
        for (name, bytes) in [
            ("1 KiB", 1 << 10),
            ("64 KiB", 64 << 10),
            ("256 KiB", 256 << 10),
        ] {
            let mine = vec![comm.rank() as u64; bytes / 8];
            run(name, &mut || {
                comm.allreduce_vec(&mine, Sum).unwrap();
            });
        }
    });
    let us: Vec<f64> = (times.iter())
        .map(|(_, ns)| (*ns as f64 / 100.0).round() / 10.0)
        .collect();
    assert_eq!(us, [7.6, 26.7, 58.8], "{times:?}");
}

/// Rabenseifner against recursive doubling at the large rungs, dry-run
/// `iallreduce` under the cluster model. Its allgather posts every
/// chunk before the first receive, so the phase is one round on the
/// critical path whatever `p'`: Rabenseifner wins every cell from
/// p = 4 to 64 at 256 KiB and 1 MiB, and the static `Auto` pick (which
/// takes it from 64 KiB on powers of two `p >= 4`) is the cheaper row
/// at p = 64, 256 KiB.
#[test]
fn rabenseifner_beats_doubling_at_the_large_rungs() {
    use kamping_repro::mpi::AllreduceAlgo::{Rabenseifner, RecursiveDoubling};
    use kamping_repro::mpi::CollTuning;
    let auto = CollTuning::default();
    let allreduce = |p, tuning, bytes: usize| {
        let mine = vec![1u64; bytes / 8];
        dry(p, CostModel::cluster(), |c| {
            c.set_tuning(tuning);
            c.iallreduce(&mine, Sum)
        })
    };
    let mut lost = Vec::new();
    for p in [4usize, 8, 16, 32, 64] {
        for bytes in [256 << 10, 1 << 20] {
            let [rd, rab] =
                [RecursiveDoubling, Rabenseifner].map(|a| allreduce(p, auto.allreduce(a), bytes));
            if rab >= rd {
                lost.push(format!("p = {p}, {bytes} B: {rab} ns against {rd} ns"));
            }
        }
    }
    assert!(lost.is_empty(), "Rabenseifner lost:\n{}", lost.join("\n"));
    let [rd, picked] =
        [auto.allreduce(RecursiveDoubling), auto].map(|t| allreduce(64, t, 256 << 10));
    assert_eq!(auto.allreduce_algo(64, 256 << 10), Rabenseifner);
    assert!(picked < rd, "Auto {picked} ns, doubling {rd} ns");
}

/// The counted `allgatherv` rungs of the benchmark's `call_rate` ladder
/// at p = 16, through the binding's `allgatherv((send_buf, recv_counts))`,
/// pinned to the 0.01 us: 8, 64, 512 bytes and 4 KiB per rank are all
/// within the 12 KiB per-rank ceiling and take four doubling rounds
/// (the 4 KiB rung ran the eager fan-out's p - 1 startups at 27.41 us
/// under the old 8 KiB total).
#[test]
fn counted_allgatherv_model_time_at_p16_is_pinned() {
    let times = timed_ops(16, CostModel::cluster(), |comm, run| {
        let kc = Communicator::new(comm.dup().unwrap());
        for (name, bytes) in [("8 B", 8), ("64 B", 64), ("512 B", 512), ("4 KiB", 4096)] {
            let mine = vec![kc.rank() as u64; bytes / 8];
            let counts = vec![bytes / 8; kc.size()];
            run(name, &mut || {
                let _: Vec<u64> = kc
                    .allgatherv((send_buf(&mine), recv_counts(&counts)))
                    .unwrap();
            });
        }
    });
    let us: Vec<f64> = (times.iter())
        .map(|(_, ns)| (*ns as f64 / 10.0).round() / 100.0)
        .collect();
    assert_eq!(us, [7.21, 7.29, 7.97, 13.34], "{times:?}");
}

/// The self-sizing rungs of the same ladder, through the binding's
/// `allgatherv(send_buf)`, pinned to the 0.01 us. The lengths ride in
/// the four doubling rounds, and so does every block within the 12 KiB
/// per-rank ceiling: each rung costs what its counted twin costs plus
/// one length per block and round. (Under the old rule a 4 KiB block,
/// whose 16-fold exceeded 8 KiB, went direct to the 14 ranks that did
/// not get it in round 0, behind rounds of lengths only: 32.41 us.)
#[test]
fn self_sizing_allgatherv_model_time_at_p16_is_pinned() {
    let times = timed_ops(16, CostModel::cluster(), |comm, run| {
        let kc = Communicator::new(comm.dup().unwrap());
        for (name, bytes) in [("8 B", 8), ("64 B", 64), ("512 B", 512), ("4 KiB", 4096)] {
            let mine = vec![kc.rank() as u64; bytes / 8];
            run(name, &mut || {
                let _: Vec<u64> = kc.allgatherv(send_buf(&mine)).unwrap();
            });
        }
    });
    let us: Vec<f64> = (times.iter())
        .map(|(_, ns)| (*ns as f64 / 10.0).round() / 100.0)
        .collect();
    assert_eq!(us, [7.22, 7.31, 7.98, 13.35], "{times:?}");
}

/// Every rank's finish time (virtual ns) of one call at `p = 16` under
/// `CostModel::cluster()`: the `i*` forms dry-run, the counted
/// `allgatherv` — which has no `i*` form — threaded, from a
/// synchronized zero (the lifecycle test holds the two to the same
/// numbers), under the default tuning.
fn finish_times_at_p16() -> Vec<(String, Vec<u64>)> {
    use kamping_repro::mpi::{bytes_from_vec, AlltoallAlgo};
    let (p, model) = (16, CostModel::cluster());
    let mut out = Vec::new();
    for bytes in [8usize, 512, 16 << 10] {
        let counted = Universe::run_with(Config::new(p).cost(model), |comm| {
            let own = bytes_from_vec(vec![comm.rank() as u8; bytes]);
            comm.barrier().unwrap();
            comm.clock_reset();
            comm.allgatherv_blocks(own, Some(&vec![bytes; p])).unwrap();
            comm.clock_now_ns()
        });
        let counted = counted.into_iter().map(|t| t.unwrap()).collect();
        out.push((format!("counted allgatherv {bytes} B"), counted));
        let mine = vec![7u8; bytes];
        let learned = Universe::dry_run(Config::new(p).cost(model), |c| c.iallgatherv(&mine));
        out.push((format!("iallgatherv {bytes} B"), learned.unwrap()));
    }
    let bruck = Universe::dry_run(Config::new(p).cost(model), |c| {
        c.set_tuning(c.tuning().alltoall(AlltoallAlgo::Bruck));
        c.ialltoall(&vec![c.rank() as u8; 64 * c.size()])
    });
    out.push(("Bruck ialltoall 64 B".into(), bruck.unwrap()));
    out
}

/// Sending a round's blocks as the parts of one message instead of one
/// packed buffer moves no modelled time: the p = 16 finish times of the
/// counted and the self-sizing `allgatherv` rungs that run recursive
/// doubling (8 and 512 B per rank) and of Bruck `ialltoall`, every rank
/// to the nanosecond, as recorded with packed rounds. A part is charged
/// as bytes of its message: same envelopes, same bytes, same send order.
/// The 16 KiB rung, above the allgather ceiling (the counted call runs
/// the ring, the self-sizing one doubling with direct blocks), was
/// recorded with parts; it pins the other side of the ceiling.
#[test]
fn forwarded_parts_cost_what_packed_rounds_cost_at_p16() {
    let climb = [28638, 28338, 28038, 27738, 27438, 27138];
    let edge = climb.into_iter().chain([27000; 8]).chain([27138, 28638]);
    let want: [(&str, Vec<u64>); 7] = [
        ("counted allgatherv 8 B", vec![7210; 16]),
        ("iallgatherv 8 B", vec![7221; 16]),
        ("counted allgatherv 512 B", vec![7966; 16]),
        ("iallgatherv 512 B", vec![7979; 16]),
        ("counted allgatherv 16384 B", edge.collect()),
        ("iallgatherv 16384 B", vec![32410; 16]),
        ("Bruck ialltoall 64 B", vec![7404; 16]),
    ];
    let got = finish_times_at_p16();
    assert_eq!(got.len(), want.len());
    for ((name, times), (want_name, want_times)) in got.iter().zip(&want) {
        assert_eq!(name, want_name);
        assert_eq!(times, want_times, "{name}");
    }
}

/// The model times one allgather ceiling per rank (12 KiB) and
/// Rabenseifner's doubling allgather phase moved, at p = 16 and 64,
/// each to the 0.01 us beside its value under the former rules (an
/// 8 KiB ceiling on a counted call's total and a self-sizing block's
/// `p`-fold length; Rabenseifner from 128 KiB with an eager allgather
/// phase). The counted and the
/// self-sizing `allgatherv` at 4 KiB per rank now ride the doubling
/// rounds (the eager fan-out, and direct blocks behind length rounds,
/// before); so do the sorter's `16 log2 p + 1` samples of 24 bytes (a
/// self-sizing `allgatherv`). `Auto`'s allreduce takes Rabenseifner from 64 KiB
/// (recursive doubling before), and its allgather phase doubles where
/// the chunk is within the ceiling: at 128 KiB on both `p`, and at
/// 64 KiB.
#[test]
fn moved_cells_at_p16_and_p64_are_pinned() {
    let run = |p: usize| {
        timed_ops(p, CostModel::cluster(), |comm, run| {
            let kc = Communicator::new(comm.dup().unwrap());
            let mine = vec![kc.rank() as u64; 512];
            let counts = vec![512; kc.size()];
            run("counted allgatherv 4 KiB", &mut || {
                let _: Vec<u64> = kc
                    .allgatherv((send_buf(&mine), recv_counts(&counts)))
                    .unwrap();
            });
            run("self-sizing allgatherv 4 KiB", &mut || {
                let _: Vec<u64> = kc.allgatherv(send_buf(&mine)).unwrap();
            });
            let samples = vec![[kc.rank() as u64; 3]; 16 * kc.size().ilog2() as usize + 1];
            run("sorter samples", &mut || {
                let _: Vec<[u64; 3]> = kc.allgatherv(send_buf(&samples)).unwrap();
            });
            for (name, bytes) in [
                ("allreduce 64 KiB", 64 << 10),
                ("allreduce 128 KiB", 128 << 10),
            ] {
                let mine = vec![kc.rank() as u64; bytes / 8];
                run(name, &mut || {
                    comm.allreduce_vec(&mine, Sum).unwrap();
                });
            }
        })
    };
    let us = |times: Vec<(&str, u64)>| -> Vec<f64> {
        (times.iter())
            .map(|(_, ns)| (*ns as f64 / 10.0).round() / 100.0)
            .collect()
    };
    // (cell, former rules, now) in us, per p.
    let p16 = [
        ("counted allgatherv 4 KiB", 27.41, 13.34),
        ("self-sizing allgatherv 4 KiB", 32.41, 13.35),
        ("sorter samples", 32.41, 9.55),
        ("allreduce 64 KiB", 33.41, 26.68),
        ("allreduce 128 KiB", 46.49, 38.97),
    ];
    let p64 = [
        ("counted allgatherv 4 KiB", 113.81, 36.6),
        ("self-sizing allgatherv 4 KiB", 122.45, 36.65),
        ("sorter samples", 122.45, 25.51),
        ("allreduce 64 KiB", 50.12, 34.5),
        ("allreduce 128 KiB", 137.1, 47.4),
    ];
    for (p, cells) in [(16, p16), (64, p64)] {
        let now: Vec<f64> = cells.iter().map(|c| c.2).collect();
        assert_eq!(us(run(p)), now, "p = {p}: {cells:?}");
        assert!(cells.iter().all(|c| c.2 < c.1), "p = {p}: every cell fell");
    }
}
