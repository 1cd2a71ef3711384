//! Model-driven `Auto` against the static thresholds on a
//! constructed-adversarial matrix: message size × communicator size
//! cells placed so that every static threshold picks the wall-clock
//! loser in at least one of them (the thresholds were set above a
//! cluster model's crossovers; in-process the machine disagrees):
//!
//! - `RABENSEIFNER_MIN_BYTES` asks twice its 64 KiB off powers of two,
//!   parking the 64 KiB allreduce at p = 6 on recursive doubling;
//! - `BCAST_SCATTER_MIN_BYTES` (256 KiB) fires early: the refcount
//!   binomial tree still wins there;
//! - `BRUCK_MAX_BLOCK_BYTES` caps Bruck at 1 KiB blocks, but in-process
//!   its log(p) rounds beat pairwise well past the cap;
//! - `ALLGATHER_MAX_BYTES`, the 12 KiB allgather ceiling, routes small
//!   blocks to the rounds where the refcount ring (or plain doubling)
//!   wins.
//!
//! Per cell the probe measures every forced row, then static `Auto` and
//! model-driven `Auto` through a warm-up and a steady phase; each
//! measurement is the quietest of [`RUNS`] runs. The control cells are
//! ones where the thresholds are right: the model must not regress
//! there. Which designed cells a run sees as adversarial (static pick ≠
//! measured best) is a property of the host's clock, so it is printed,
//! not asserted.

use kmp_mpi::{
    AlgoClass, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, Comm, Config,
    CostModel, ModelConfig, Universe,
};

use crate::{Bound, Floor};

const WARM: usize = 32;
const REPS: usize = 7;
/// Independent runs per measurement; the one with the lowest median
/// wall counts (a scheduler hiccup inflates a whole run, never deflates
/// it).
const RUNS: usize = 3;

/// (collective, p, payload or per-peer block bytes, constructed-adversarial).
const CELLS: [(&str, usize, usize, bool); 13] = [
    ("allreduce", 6, 64 * 1024, true),
    ("allreduce", 4, 64 * 1024, false),
    ("allreduce", 4, 512 * 1024, false),
    ("bcast", 4, 256 * 1024, true),
    ("bcast", 4, 16 * 1024, false),
    ("alltoall", 4, 2048, true),
    ("alltoall", 8, 2048, true),
    ("alltoall", 16, 2048, true),
    ("alltoall", 4, 16 * 1024, false),
    ("allgather", 4, 2 * 1024, true),
    ("allgather", 6, 4 * 1024, true),
    ("allgather", 6, 8 * 1024, true),
    ("allgather", 4, 64 * 1024, false),
];

/// Publish every 4th call, two observations warm a class, a 50 % EWMA,
/// and a re-measure of the stalest row every 16th call.
fn driven() -> CollTuning {
    CollTuning::default().model(
        ModelConfig::default()
            .drive(true)
            .epoch_len(4)
            .warmup_obs(2)
            .ewma_pct(50)
            .reexplore_every(16),
    )
}

/// The algorithm classes of a collective, each with the tuning that
/// forces it.
fn rows(collective: &str) -> Vec<(AlgoClass, CollTuning)> {
    let t = CollTuning::default();
    match collective {
        "allreduce" => vec![
            (
                AlgoClass::AllreduceRd,
                t.allreduce(AllreduceAlgo::RecursiveDoubling),
            ),
            (
                AlgoClass::AllreduceRabenseifner,
                t.allreduce(AllreduceAlgo::Rabenseifner),
            ),
        ],
        "bcast" => vec![
            (AlgoClass::BcastBinomial, t.bcast(BcastAlgo::Binomial)),
            (
                AlgoClass::BcastScatterAllgather,
                t.bcast(BcastAlgo::ScatterAllgather),
            ),
        ],
        "alltoall" => vec![
            (
                AlgoClass::AlltoallPairwise,
                t.alltoall(AlltoallAlgo::Pairwise),
            ),
            (AlgoClass::AlltoallBruck, t.alltoall(AlltoallAlgo::Bruck)),
        ],
        "allgather" => vec![
            (AlgoClass::AllgatherRing, t.allgather(AllgatherAlgo::Ring)),
            (
                AlgoClass::AllgatherRd,
                t.allgather(AllgatherAlgo::RecursiveDoubling),
            ),
            (AlgoClass::AllgatherBruck, t.allgather(AllgatherAlgo::Bruck)),
        ],
        other => panic!("unknown collective {other}"),
    }
}

/// One call of the cell's collective.
fn cell_op(collective: &'static str, bytes: usize) -> impl Fn(&Comm) + Sync + Copy {
    move |comm: &Comm| match collective {
        "allreduce" => {
            let mine = vec![comm.rank() as u64 + 1; bytes / 8];
            comm.allreduce_vec(&mine, kmp_mpi::op::Sum).unwrap();
        }
        "bcast" => {
            let mut buf = vec![comm.rank() as u8; bytes];
            comm.bcast_into(&mut buf, 0).unwrap();
        }
        "alltoall" => {
            let n = (bytes / 8).max(1);
            let send = vec![comm.rank() as u64; n * comm.size()];
            let mut recv = vec![0u64; n * comm.size()];
            comm.alltoall_into(&send, &mut recv).unwrap();
        }
        "allgather" => {
            let mine = vec![comm.rank() as u64; bytes / 8];
            comm.allgather_vec(&mine).unwrap();
        }
        other => panic!("unknown collective {other}"),
    }
}

/// `warm` unmeasured calls under `tuning`, then [`REPS`] barrier-fenced
/// calls under `steady` (driven runs warm up re-exploring, then pin it
/// off for the hot loop). Returns the quietest run's max-over-ranks
/// median wall in µs and rank 0's per-class selection delta over its
/// measured phase.
fn measure(
    p: usize,
    warm: usize,
    tuning: CollTuning,
    steady: CollTuning,
    op: impl Fn(&Comm) + Sync,
) -> (f64, Vec<u64>) {
    let mut best: Option<(f64, Vec<u64>)> = None;
    for _ in 0..RUNS {
        let per_rank = Universe::run_with(Config::new(p).cost(CostModel::cluster()), |comm| {
            comm.set_tuning(tuning);
            for _ in 0..warm {
                op(&comm);
            }
            // Every rank switches after the same call, so selections
            // stay symmetric.
            comm.set_tuning(steady);
            comm.barrier().unwrap();
            let before = comm.tuning_stats();
            let mut walls: Vec<u64> = (0..REPS)
                .map(|_| {
                    comm.barrier().unwrap();
                    let t = std::time::Instant::now();
                    op(&comm);
                    t.elapsed().as_nanos() as u64
                })
                .collect();
            let after = comm.tuning_stats();
            walls.sort_unstable();
            let delta = after
                .selections
                .iter()
                .zip(&before.selections)
                .map(|(a, b)| a - b);
            (walls[REPS / 2], delta.collect::<Vec<u64>>())
        });
        let per_rank: Vec<(u64, Vec<u64>)> = per_rank.into_iter().map(|o| o.unwrap()).collect();
        let wall_us = per_rank.iter().map(|(w, _)| *w).max().unwrap() as f64 / 1e3;
        if best.as_ref().is_none_or(|(w, _)| wall_us < *w) {
            best = Some((wall_us, per_rank[0].1.clone()));
        }
    }
    best.unwrap()
}

pub fn floors() -> Vec<Floor> {
    let widest = CELLS.iter().map(|c| c.1).max().unwrap();
    let mut floors = Vec::new();
    // Summed steady walls (static Auto, model Auto) of the designed
    // cells and of the controls.
    let (mut adversarial, mut control) = ((0.0, 0.0), (0.0, 0.0));
    let mut lost = Vec::new();
    for (collective, p, bytes, designed) in CELLS {
        let op = cell_op(collective, bytes);
        let rows = rows(collective);
        // The row a run selected most often in its measured phase.
        let pick = |delta: &[u64]| rows.iter().map(|r| r.0).max_by_key(|c| delta[c.index()]);
        let forced: Vec<(AlgoClass, f64)> = rows
            .iter()
            .map(|&(class, t)| (class, measure(p, 2, t, t, op).0))
            .collect();
        let (best, best_us) = forced
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let t = CollTuning::default();
        let (static_us, static_delta) = measure(p, WARM, t, t, op);
        let steady = driven().model(driven().model.reexplore_every(0));
        let (model_us, model_delta) = measure(p, WARM, driven(), steady, op);
        let (static_pick, model_pick) = (pick(&static_delta).unwrap(), pick(&model_delta).unwrap());
        let picked_us = forced.iter().find(|f| f.0 == model_pick).unwrap().1;
        println!(
            "   {bytes} B p={p}: static {} {static_us:.1} us, model {} {model_us:.1} us, \
             best {} {best_us:.1} us",
            static_pick.name(),
            model_pick.name(),
            best.name()
        );
        if designed && static_pick != best {
            lost.push(collective);
        }
        let mix = if designed {
            &mut adversarial
        } else {
            &mut control
        };
        mix.0 += static_us;
        mix.1 += model_us;
        let name = format!("tuning {collective} {bytes} B p={p} converges");
        let converged = Floor::new(name, picked_us, best_us, "us", Bound::AtMost(1.15, 10.0));
        floors.push(converged.needs_cores(widest));
    }
    for collective in ["allreduce", "bcast", "alltoall", "allgather"] {
        if !lost.contains(&collective) {
            println!("   note: {collective}: static Auto picked the measured best in every designed cell");
        }
    }
    let (name, (s, m)) = ("tuning adversarial mix speedup", adversarial);
    floors.push(Floor::new(name, m, s, "us", Bound::Speedup(1.3)).needs_cores(widest));
    let (name, (s, m)) = ("tuning control mix no regression", control);
    floors.push(Floor::new(name, m, s, "us", Bound::AtMost(1.35, 25.0)));
    floors
}
