//! Collective algorithm crossover harness: records, for every tunable
//! collective, the virtual-time (alpha-beta cluster model) and
//! wall-clock cost of each algorithm across message sizes and
//! communicator sizes, and verifies the selection engine's contract:
//!
//! - Rabenseifner allreduce beats recursive doubling at large message
//!   sizes (p in {4, 8}),
//! - the scatter+allgather broadcast and Bruck alltoall beat their
//!   counterparts in their regimes,
//! - the `Auto` thresholds never pick an algorithm into its losing
//!   regime: `auto` is never slower than the former single-algorithm
//!   default (recursive doubling / binomial / pairwise).
//!
//! Model-driven `Auto` is not measured here: `tuning_experiment` /
//! `BENCH_tuning.json` owns it.
//!
//! Per-rank copy bills come from `Universe::run_report` — the
//! universe-level aggregation, no snapshot threading in the closures.
//!
//! Usage: `collectives_experiment [--smoke] [--out PATH]`; writes
//! `BENCH_collectives.json`.

use kmp_bench::harness::{write_json, BenchArgs};
use kmp_mpi::{
    AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, Comm, Config, CostModel, Universe,
};

#[derive(Clone, Debug)]
struct Row {
    collective: &'static str,
    algo: &'static str,
    ranks: usize,
    payload_bytes: usize,
    vtime_us: f64,
    wall_us: f64,
    copied_per_rank: u64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "    {{\"collective\": \"{}\", \"algo\": \"{}\", \"ranks\": {}, \
             \"payload_bytes\": {}, \"vtime_us\": {:.3}, \"wall_us\": {:.3}, \
             \"copied_per_rank\": {}}}",
            self.collective,
            self.algo,
            self.ranks,
            self.payload_bytes,
            self.vtime_us,
            self.wall_us,
            self.copied_per_rank
        )
    }
}

/// Runs `op` under the cluster cost model on `p` ranks with `tuning`
/// applied (after one unmeasured warm-up iteration), returning
/// (max-over-ranks virtual us, max-over-ranks median wall us,
/// max-over-ranks payload bytes copied per op).
fn measure<F>(p: usize, reps: usize, tuning: CollTuning, op: F) -> Measurement
where
    F: Fn(&Comm) + Sync,
{
    let (outcomes, report) =
        Universe::run_report(Config::new(p).cost(CostModel::cluster()), |comm| {
            comm.set_tuning(tuning);
            comm.barrier().unwrap();
            op(&comm); // warm-up, excluded from wall-clock medians
            let mut vtime = 0u64;
            let mut walls = Vec::with_capacity(reps);
            for _ in 0..reps {
                comm.barrier().unwrap();
                comm.clock_reset();
                let t = std::time::Instant::now();
                op(&comm);
                walls.push(t.elapsed().as_nanos() as u64);
                vtime = comm.clock_now_ns();
            }
            walls.sort_unstable();
            (vtime, walls[walls.len() / 2])
        });
    let per_rank: Vec<(u64, u64)> = outcomes.into_iter().map(|o| o.unwrap()).collect();
    let vtime_us = per_rank.iter().map(|&(v, _)| v).max().unwrap() as f64 / 1e3;
    let wall_us = per_rank.iter().map(|&(_, w)| w).max().unwrap() as f64 / 1e3;
    // Totals cover warm-up + reps; normalize to one op (barriers and
    // clock bookkeeping copy nothing).
    let copied = report
        .stats
        .iter()
        .map(|s| s.copy.bytes_copied / (reps as u64 + 1))
        .max()
        .unwrap();
    (vtime_us, wall_us, copied)
}

type Measurement = (f64, f64, u64);

fn allreduce_rows(p: usize, bytes: usize, reps: usize, rows: &mut Vec<Row>) {
    let n = bytes / 8;
    let run = |comm: &Comm| {
        let mine = vec![comm.rank() as u64 + 1; n];
        let _ = comm.allreduce_vec(&mine, kmp_mpi::op::Sum).unwrap();
    };
    for (algo, tuning) in [
        (
            "recursive_doubling",
            CollTuning::default().allreduce(AllreduceAlgo::RecursiveDoubling),
        ),
        (
            "rabenseifner",
            CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner),
        ),
        ("auto", CollTuning::default()),
    ] {
        let (vtime_us, wall_us, copied_per_rank) = measure(p, reps, tuning, run);
        rows.push(Row {
            collective: "allreduce",
            algo,
            ranks: p,
            payload_bytes: bytes,
            vtime_us,
            wall_us,
            copied_per_rank,
        });
    }
}

fn bcast_rows(p: usize, bytes: usize, reps: usize, rows: &mut Vec<Row>) {
    let run = |comm: &Comm| {
        let mut buf = vec![comm.rank() as u8; bytes];
        comm.bcast_into(&mut buf, 0).unwrap();
    };
    for (algo, tuning) in [
        ("binomial", CollTuning::default().bcast(BcastAlgo::Binomial)),
        (
            "scatter_allgather",
            CollTuning::default().bcast(BcastAlgo::ScatterAllgather),
        ),
        ("auto", CollTuning::default()),
    ] {
        let (vtime_us, wall_us, copied_per_rank) = measure(p, reps, tuning, run);
        rows.push(Row {
            collective: "bcast",
            algo,
            ranks: p,
            payload_bytes: bytes,
            vtime_us,
            wall_us,
            copied_per_rank,
        });
    }
}

fn alltoall_rows(p: usize, block_bytes: usize, reps: usize, rows: &mut Vec<Row>) {
    let n = block_bytes / 8;
    let run = move |comm: &Comm| {
        let send = vec![comm.rank() as u64; n * comm.size()];
        let mut recv = vec![0u64; n * comm.size()];
        comm.alltoall_into(&send, &mut recv).unwrap();
    };
    for (algo, tuning) in [
        (
            "pairwise",
            CollTuning::default().alltoall(AlltoallAlgo::Pairwise),
        ),
        ("bruck", CollTuning::default().alltoall(AlltoallAlgo::Bruck)),
        ("auto", CollTuning::default()),
    ] {
        let (vtime_us, wall_us, copied_per_rank) = measure(p, reps, tuning, run);
        rows.push(Row {
            collective: "alltoall",
            algo,
            ranks: p,
            payload_bytes: block_bytes,
            vtime_us,
            wall_us,
            copied_per_rank,
        });
    }
}

/// Virtual time of `(collective, algo, p, bytes)` from the result set.
fn vt(rows: &[Row], collective: &str, algo: &str, p: usize, bytes: usize) -> f64 {
    rows.iter()
        .find(|r| {
            r.collective == collective && r.algo == algo && r.ranks == p && r.payload_bytes == bytes
        })
        .unwrap_or_else(|| panic!("missing row {collective}/{algo}/p{p}/{bytes}"))
        .vtime_us
}

fn main() {
    let args = BenchArgs::parse("BENCH_collectives.json");
    let smoke = args.smoke;

    let ps = [4usize, 8];
    let (big_sizes, block_sizes, reps) = if smoke {
        (vec![16 * 1024, 1 << 20], vec![64, 16 * 1024], 3)
    } else {
        (
            vec![16 * 1024, 64 * 1024, 256 * 1024, 1 << 20, 4 << 20],
            vec![16, 256, 1024, 16 * 1024, 64 * 1024],
            7,
        )
    };

    let mut rows: Vec<Row> = Vec::new();
    for &p in &ps {
        for &bytes in &big_sizes {
            allreduce_rows(p, bytes, reps, &mut rows);
            bcast_rows(p, bytes, reps, &mut rows);
        }
        for &bytes in &block_sizes {
            alltoall_rows(p, bytes, reps, &mut rows);
        }
    }

    println!(
        "{:<10} {:<18} {:>3} {:>10} {:>12} {:>10} {:>14}",
        "collective", "algo", "p", "bytes", "vtime us", "wall us", "copied/rank"
    );
    for r in &rows {
        println!(
            "{:<10} {:<18} {:>3} {:>10} {:>12.1} {:>10.1} {:>14}",
            r.collective,
            r.algo,
            r.ranks,
            r.payload_bytes,
            r.vtime_us,
            r.wall_us,
            r.copied_per_rank
        );
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    write_json(
        &args.out,
        "collectives",
        args.mode(),
        &[(
            "cost_model",
            "\"cluster(alpha=1.5us, beta=0.1ns/B)\"".to_string(),
        )],
        &body,
    );

    // --- the selection engine's contract -------------------------------

    let big = *big_sizes.last().unwrap();
    let small = *block_sizes.first().unwrap();
    for &p in &ps {
        // Rabenseifner wins at large sizes (the headline crossover).
        let rd = vt(&rows, "allreduce", "recursive_doubling", p, big);
        let rab = vt(&rows, "allreduce", "rabenseifner", p, big);
        assert!(
            rab < rd,
            "p={p}: Rabenseifner ({rab} us) must beat recursive doubling ({rd} us) at {big} B"
        );
        let bin = vt(&rows, "bcast", "binomial", p, big);
        let vdg = vt(&rows, "bcast", "scatter_allgather", p, big);
        assert!(
            vdg < bin,
            "p={p}: scatter+allgather bcast ({vdg} us) must beat binomial ({bin} us) at {big} B"
        );
        let pw = vt(&rows, "alltoall", "pairwise", p, small);
        let bruck = vt(&rows, "alltoall", "bruck", p, small);
        assert!(
            bruck < pw,
            "p={p}: Bruck ({bruck} us) must beat pairwise ({pw} us) at {small} B blocks"
        );

        // Auto must never lose to the former single-algorithm default
        // (virtual time is deterministic; the tolerance absorbs barrier
        // alignment noise).
        for r in rows.iter().filter(|r| r.algo == "auto" && r.ranks == p) {
            let legacy = match r.collective {
                "allreduce" => "recursive_doubling",
                "bcast" => "binomial",
                "alltoall" => "pairwise",
                other => panic!("unknown collective {other}"),
            };
            let legacy_vt = vt(&rows, r.collective, legacy, p, r.payload_bytes);
            assert!(
                r.vtime_us <= legacy_vt * 1.02 + 5.0,
                "auto must not regress {}@{} B p={p}: auto {} us vs {legacy} {} us",
                r.collective,
                r.payload_bytes,
                r.vtime_us,
                legacy_vt
            );
        }
    }
    println!("selection-engine contract holds: crossovers present, auto never slower");
}
