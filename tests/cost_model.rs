//! Shape assertions on the virtual-time cost model — the mechanisms
//! behind the paper's Fig. 8/10 findings must be visible in the model:
//! sparse exchanges beat dense ones on sparse patterns, the grid
//! all-to-all beats dense at scale, rebuilding topologies per round does
//! not scale, and the alltoallw (MPL) path is more expensive.

use std::collections::HashMap;

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::{Comm, Config, CostModel, Universe};

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
/// times does, from every root: one message time is `alpha + 8 beta +
/// o` under `CostModel::cluster()`. The allowances are the documented
/// ones — the bytes a packed Bruck / doubling round carries beyond its
/// own 8, and recursive-doubling allreduce's fold-in and hand-back hops
/// off powers of two. `--nocapture` prints the table.
#[test]
fn small_message_collectives_finish_in_log_p_message_times() {
    use kamping_repro::mpi::op::Sum;
    let model = CostModel::cluster();
    let hop = model.alpha_ns + model.transfer_ns(8) + model.recv_overhead_ns;
    let mut over = Vec::new();
    for p in AUDIT_SIZES {
        let log = p.next_power_of_two().trailing_zeros() as u64;
        let tree = log * hop;
        let packed = log * (hop + model.transfer_ns(8 * p));
        let limit = |name: &str| match name {
            "allgather_vec" | "allgatherv_into" | "alltoall_into" => packed,
            "allreduce_vec" if !p.is_power_of_two() => tree + hop,
            "split" => 2 * packed,
            _ => tree,
        };
        let times = timed_ops(p, model, |comm, run| {
            let mine = [comm.rank() as u64];
            run("barrier", &mut || comm.barrier().unwrap());
            for root in 0..p {
                let data = (comm.rank() == root).then_some(&mine[..]);
                run("bcast_into", &mut || {
                    comm.bcast_into(&mut [root as u64], root).unwrap()
                });
                run("ibcast", &mut || {
                    comm.ibcast(data, root).unwrap().wait().unwrap();
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
/// startups for packed copies or forwarded bytes and need a size rule
/// (`scatter`/`gatherv`: a binomial tree forwards up to `s·p/2` per
/// inner rank; `alltoallv`: Bruck packs every round). The counted
/// `allgatherv` left this table when its total came to select the
/// latency rows (see the audit above).
/// Under `alpha = 1000, o = 1` the critical path reads as
/// `1000·startups + receive completions`.
#[test]
fn linear_collectives_are_pinned_at_p_minus_one_startups() {
    let model = CostModel {
        alpha_ns: 1_000,
        beta_ns_per_byte: 0.0,
        recv_overhead_ns: 1,
        measure_cpu: false,
    };
    for p in AUDIT_SIZES {
        let n = p as u64 - 1;
        let times = timed_ops(p, model, |comm, run| {
            let mine = [comm.rank() as u64];
            let (ones, displs) = (vec![1usize; p], (0..p).collect::<Vec<_>>());
            for root in [0, p - 1] {
                let all = vec![7u64; p];
                run("scatter_vec", &mut || {
                    let send = (comm.rank() == root).then_some(&all[..]);
                    comm.scatter_vec(send, root).unwrap();
                });
                run("gatherv_vec", &mut || {
                    comm.gatherv_vec(&mine, root).unwrap();
                });
            }
            run("alltoallv_into", &mut || {
                let mut recv = vec![0u64; p];
                comm.alltoallv_into(&vec![1u64; p], &ones, &displs, &mut recv, &ones, &displs)
                    .unwrap()
            });
        });
        for (name, t) in times {
            let pinned = match name {
                // The root posts p - 1 sends; the last leaf completes one receive.
                "scatter_vec" => 1_000 * n + 1,
                // Every leaf posts one send; the root completes p - 1 receives.
                "gatherv_vec" => 1_000 + n,
                // p - 1 ring rounds / pairwise steps of one send and one receive.
                _ => 1_001 * n,
            };
            assert_eq!(t, pinned, "p = {p}: {name}");
        }
    }
}

/// One engine, one schedule: every row of `allreduce` and `allgather`
/// — forced, and as `Auto` picks it — and the flat `allgatherv`,
/// `alltoall(v)` cost the same modelled time whether the blocking call
/// drives the engine, `i*` + `wait` does, or a persistent plan's
/// `start` + `wait` does. (The blocking ring and pairwise loops used to
/// serialise their `p - 1` hops; until the allreduce rows and the
/// static `Auto` rule served every lifecycle, `iallreduce` /
/// `allreduce_init` ran a flat gather + broadcast and `iallgather` /
/// `allgather_init` the ring wherever the blocking call ran a log-round
/// row.)
#[test]
fn collectives_cost_the_same_in_every_lifecycle() {
    use kamping_repro::mpi::op::Sum;
    use kamping_repro::mpi::{bytes_from_vec, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo};
    use kamping_repro::mpi::{CollTuning, PersistentRequest};
    const GROUPS: [&[&str]; 5] = [
        &["allreduce", "iallreduce", "allreduce_init"],
        &["allgather", "iallgather", "allgather_init"],
        &["allgatherv", "iallgatherv"],
        &["alltoall", "ialltoall"],
        &["alltoallv", "ialltoallv", "alltoallv_init"],
    ];
    let base = CollTuning::default();
    let tunings = [
        base,
        base.allreduce(AllreduceAlgo::RecursiveDoubling)
            .allgather(AllgatherAlgo::Ring)
            .alltoall(AlltoallAlgo::Pairwise),
        base.allreduce(AllreduceAlgo::Rabenseifner)
            .allgather(AllgatherAlgo::RecursiveDoubling),
        base.allgather(AllgatherAlgo::Bruck),
    ];
    for p in [4usize, 6, 16] {
        for bytes in [8usize, 64 * 1024] {
            for tuning in tunings {
                let times = timed_ops(p, CostModel::cluster(), |comm, run| {
                    comm.set_tuning(tuning);
                    let mine = vec![comm.rank() as u64; bytes / 8];
                    let own = || bytes_from_vec(vec![comm.rank() as u8; bytes]);
                    let (send, counts) = (vec![1u8; p * bytes], vec![bytes; p]);
                    let packed = || bytes_from_vec(send.clone());
                    let cycle = |plan: &mut PersistentRequest<'_>| {
                        plan.start().unwrap();
                        plan.wait().unwrap();
                    };
                    run("allreduce", &mut || {
                        comm.allreduce_vec(&mine, Sum).unwrap();
                    });
                    run("iallreduce", &mut || {
                        comm.iallreduce(&mine, Sum).unwrap().wait().unwrap();
                    });
                    let mut plan = comm.allreduce_init(&mine, Sum).unwrap();
                    run("allreduce_init", &mut || cycle(&mut plan));
                    run("allgather", &mut || {
                        comm.allgather_blocks(own()).unwrap();
                    });
                    run("iallgather", &mut || {
                        comm.iallgather_bytes(own()).unwrap().wait().unwrap();
                    });
                    let mut plan = comm.allgather_init_bytes(own()).unwrap();
                    run("allgather_init", &mut || cycle(&mut plan));
                    run("allgatherv", &mut || {
                        comm.allgatherv_blocks(own(), None).unwrap();
                    });
                    run("iallgatherv", &mut || {
                        comm.iallgatherv_bytes(own()).unwrap().wait().unwrap();
                    });
                    run("alltoall", &mut || {
                        comm.alltoall_blocks(&send).unwrap();
                    });
                    run("ialltoall", &mut || {
                        comm.ialltoall(&send).unwrap().wait().unwrap();
                    });
                    run("alltoallv", &mut || {
                        comm.alltoallv_blocks_bytes(packed(), &counts).unwrap();
                    });
                    run("ialltoallv", &mut || {
                        let req = comm.ialltoallv_bytes(packed(), &counts).unwrap();
                        req.wait().unwrap();
                    });
                    let mut plan = comm.alltoallv_init_bytes(packed(), &counts).unwrap();
                    run("alltoallv_init", &mut || cycle(&mut plan));
                });
                let ns = |name: &str| times.iter().find(|(n, _)| *n == name).unwrap().1;
                for group in GROUPS {
                    for name in &group[1..] {
                        let at = format!("p = {p}, {bytes} B, {tuning:?}");
                        assert_eq!(ns(group[0]), ns(name), "{} vs {name}, {at}", group[0]);
                    }
                }
            }
        }
    }
}

/// The blocking `allreduce` cells of the benchmark's p = 16 model run
/// (`coll_blocking`'s `Scale::Model` sizes), pinned to the 0.1 us:
/// recursive doubling at 1 KiB and 64 KiB, Rabenseifner at 256 KiB.
/// The lifecycle test above holds `iallreduce` and `allreduce_init` to
/// the same numbers.
#[test]
fn blocking_allreduce_model_time_at_p16_is_pinned() {
    use kamping_repro::mpi::op::Sum;
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
    assert_eq!(us, [7.6, 33.4, 83.3], "{times:?}");
}

/// The counted `allgatherv` rungs of the benchmark's `call_rate` ladder
/// at p = 16, through the binding's `allgatherv((send_buf, recv_counts))`,
/// pinned to the 0.01 us: the totals of 8, 64 and 512 bytes per rank
/// (128 B to 8 KiB) are within the recursive-doubling ceiling and take
/// four rounds; 4 KiB per rank (64 KiB in total) stays on the eager
/// fan-out (p - 1 startups).
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
    assert_eq!(us, [7.21, 7.29, 7.97, 27.41], "{times:?}");
}
