//! Self-tuning adversarial matrix: proves the online cost model earns
//! its keep where the static thresholds cannot.
//!
//! The matrix is a message-size × communicator-size sweep constructed
//! so that **every static threshold picks the wall-clock loser in at
//! least one cell** (in-process, the thresholds were hand-set above a
//! *cluster* model's crossovers — the machine underneath disagrees):
//!
//! - `rabenseifner_min_bytes` (128 KiB) parks the 64 KiB allreduce on
//!   recursive doubling; Rabenseifner's reduce-scatter folds 1/p of the
//!   vector per rank and wins wall time at every p,
//! - `bcast_scatter_min_bytes` (256 KiB) fires early: the
//!   refcount-forwarding binomial tree still wins at 256 KiB
//!   (van de Geijn's chunk pipeline only breaks even near 512 KiB),
//! - `bruck_max_block_bytes` caps Bruck at 1 KiB blocks, but in-process
//!   its log(p) rounds beat pairwise's p-1 mailbox rendezvous well past
//!   the cap,
//! - the allgather RD/Bruck caps route small blocks to the packing
//!   algorithms where the refcount ring (or plain RD) wins.
//!
//! Per cell the harness measures every forced candidate, derives the
//! measured-best algorithm, then runs static `Auto` and model-driven
//! `Auto` through a warm-up + steady-state phase; each measurement is
//! the quietest of [`RUNS`] independent runs (min-based noise
//! rejection). Self-asserted contract:
//!
//! - every static threshold loses ≥ 1 cell (static pick ≠ measured best)
//!   — a property of the host's wall clock, so printed as a note and
//!   asserted of the committed baseline by `--check` instead,
//! - the model's converged pick costs within 15% + 10 µs of the
//!   measured-best algorithm in **every** cell (regime winner, with a
//!   tie tolerance),
//! - aggregate steady-state wall time over the adversarial cells: model
//!   `Auto` is ≥ 1.3× faster than static `Auto`,
//! - and it never meaningfully regresses on the control cells where the
//!   static thresholds are already right.
//!
//! The second and third are asserted wherever the host has at least as
//! many cores as the widest cell has ranks and printed as notes where
//! it has fewer (`available_parallelism`, not a flag, decides); the
//! last is asserted on every host.
//!
//! `--check PATH` additionally re-validates a committed baseline
//! structurally: per-collective adversarial cells present, converged
//! picks recorded, aggregate speedup ≥ 1.3.
//!
//! Usage: `tuning_experiment [--smoke] [--out PATH] [--check PATH]`;
//! writes `BENCH_tuning.json`.

use kmp_bench::harness::{baseline_lines, json_field, write_json, BenchArgs};
use kmp_mpi::{
    AlgoClass, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, Comm, Config,
    CostModel, ModelConfig, Universe,
};

/// One forced candidate algorithm of a cell.
struct Candidate {
    name: &'static str,
    class: AlgoClass,
    tuning: CollTuning,
}

/// The model cadence used by every driven run: publish every 4th call,
/// two observations warm a class, a fast EWMA (50%) so steady-state
/// samples quickly displace the cold warm-up ones, and a periodic
/// re-measure of the stalest candidate every 16th call — converged well
/// inside the warm-up iteration budget below.
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

fn candidates(collective: &str) -> Vec<Candidate> {
    match collective {
        "allreduce" => vec![
            Candidate {
                name: "recursive_doubling",
                class: AlgoClass::AllreduceRd,
                tuning: CollTuning::default().allreduce(AllreduceAlgo::RecursiveDoubling),
            },
            Candidate {
                name: "rabenseifner",
                class: AlgoClass::AllreduceRabenseifner,
                tuning: CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner),
            },
        ],
        "bcast" => vec![
            Candidate {
                name: "binomial",
                class: AlgoClass::BcastBinomial,
                tuning: CollTuning::default().bcast(BcastAlgo::Binomial),
            },
            Candidate {
                name: "scatter_allgather",
                class: AlgoClass::BcastScatterAllgather,
                tuning: CollTuning::default().bcast(BcastAlgo::ScatterAllgather),
            },
        ],
        "alltoall" => vec![
            Candidate {
                name: "pairwise",
                class: AlgoClass::AlltoallPairwise,
                tuning: CollTuning::default().alltoall(AlltoallAlgo::Pairwise),
            },
            Candidate {
                name: "bruck",
                class: AlgoClass::AlltoallBruck,
                tuning: CollTuning::default().alltoall(AlltoallAlgo::Bruck),
            },
        ],
        "allgather" => vec![
            Candidate {
                name: "ring",
                class: AlgoClass::AllgatherRing,
                tuning: CollTuning::default().allgather(AllgatherAlgo::Ring),
            },
            Candidate {
                name: "recursive_doubling",
                class: AlgoClass::AllgatherRd,
                tuning: CollTuning::default().allgather(AllgatherAlgo::RecursiveDoubling),
            },
            Candidate {
                name: "bruck",
                class: AlgoClass::AllgatherBruck,
                tuning: CollTuning::default().allgather(AllgatherAlgo::Bruck),
            },
        ],
        other => panic!("unknown collective {other}"),
    }
}

/// What the static thresholds pick for this cell (the warm-up fallback
/// and the pre-model behavior of `Auto`).
fn static_pick(collective: &str, p: usize, bytes: usize) -> &'static str {
    let t = CollTuning::default();
    match collective {
        "allreduce" => match t.allreduce_algo(p, bytes) {
            AllreduceAlgo::RecursiveDoubling => "recursive_doubling",
            AllreduceAlgo::Rabenseifner => "rabenseifner",
        },
        "bcast" => match t.bcast_algo(p, bytes) {
            BcastAlgo::Binomial => "binomial",
            BcastAlgo::ScatterAllgather => "scatter_allgather",
        },
        "alltoall" => match t.alltoall_algo(p, bytes) {
            AlltoallAlgo::Pairwise => "pairwise",
            AlltoallAlgo::Bruck => "bruck",
        },
        "allgather" => match t.allgather_algo(p, bytes) {
            AllgatherAlgo::Ring => "ring",
            AllgatherAlgo::RecursiveDoubling => "recursive_doubling",
            AllgatherAlgo::Bruck => "bruck",
        },
        other => panic!("unknown collective {other}"),
    }
}

/// How many independent repetitions of each measurement run; the one
/// with the lowest median wall is reported (standard min-based noise
/// rejection — ranks run as threads, so a scheduler hiccup inflates a
/// whole run, never deflates it).
const RUNS: usize = 3;

/// Runs `op` on `p` ranks: `warm` unmeasured iterations under `tuning`
/// (model warm-up when the tuning drives), then `reps` barrier-aligned
/// measured iterations under `steady` — the converge-then-pin pattern:
/// driven runs warm up with periodic re-exploration on, then disable it
/// for the hot loop so the steady state pays zero re-measure overhead.
/// The whole run repeats [`RUNS`] times and the quietest run wins.
/// Returns (max-over-ranks median wall µs, rank 0's per-class
/// selection-count delta across that run's measured phase).
fn measure<F>(
    p: usize,
    warm: usize,
    reps: usize,
    tuning: CollTuning,
    steady: CollTuning,
    op: F,
) -> (f64, Vec<u64>)
where
    F: Fn(&Comm) + Sync,
{
    let mut best: Option<(f64, Vec<u64>)> = None;
    for _ in 0..RUNS {
        let outcomes = Universe::run_with(Config::new(p).cost(CostModel::cluster()), |comm| {
            comm.set_tuning(tuning);
            for _ in 0..warm {
                op(&comm);
            }
            // Every rank switches after the same matching call, so
            // selections stay symmetric.
            comm.set_tuning(steady);
            comm.barrier().unwrap();
            let before = comm.tuning_stats();
            let mut walls = Vec::with_capacity(reps);
            for _ in 0..reps {
                comm.barrier().unwrap();
                let t = std::time::Instant::now();
                op(&comm);
                walls.push(t.elapsed().as_nanos() as u64);
            }
            let after = comm.tuning_stats();
            walls.sort_unstable();
            let delta: Vec<u64> = after
                .selections
                .iter()
                .zip(before.selections.iter())
                .map(|(a, b)| a - b)
                .collect();
            (walls[walls.len() / 2], delta)
        });
        let per: Vec<(u64, Vec<u64>)> = outcomes.into_iter().map(|o| o.unwrap()).collect();
        let wall_us = per.iter().map(|(w, _)| *w).max().unwrap() as f64 / 1e3;
        if best.as_ref().is_none_or(|(w, _)| wall_us < *w) {
            best = Some((wall_us, per[0].1.clone()));
        }
    }
    best.unwrap()
}

/// The workload of one cell, dispatched by collective name. `bytes` is
/// the per-rank payload (allreduce/bcast/allgather own block) or the
/// per-peer block size (alltoall).
fn cell_op(collective: &'static str, bytes: usize) -> impl Fn(&Comm) + Sync + Copy {
    move |comm: &Comm| match collective {
        "allreduce" => {
            let mine = vec![comm.rank() as u64 + 1; bytes / 8];
            let _ = comm.allreduce_vec(&mine, kmp_mpi::op::Sum).unwrap();
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
            let _ = comm.allgather_vec(&mine).unwrap();
        }
        other => panic!("unknown collective {other}"),
    }
}

struct CellResult {
    collective: &'static str,
    ranks: usize,
    payload_bytes: usize,
    static_pick: &'static str,
    best: &'static str,
    best_wall_us: f64,
    forced: Vec<(&'static str, f64)>,
    static_auto_wall_us: f64,
    model_pick: &'static str,
    model_wall_us: f64,
    /// Constructed-adversarial: the cell was placed on the wrong side of
    /// a static threshold by design, and belongs to the aggregate mix.
    /// (Near-crossover cells can still measure non-adversarial on a
    /// given run — `adversarial` records what this run saw.)
    designed: bool,
    adversarial: bool,
}

impl CellResult {
    fn to_json(&self) -> String {
        let forced: Vec<String> = self
            .forced
            .iter()
            .map(|(n, w)| format!("\"wall_{n}_us\": {w:.3}"))
            .collect();
        format!(
            "    {{\"collective\": \"{}\", \"ranks\": {}, \"payload_bytes\": {}, \
             \"static_pick\": \"{}\", \"best\": \"{}\", \"best_wall_us\": {:.3}, {}, \
             \"static_auto_wall_us\": {:.3}, \"model_pick\": \"{}\", \
             \"model_wall_us\": {:.3}, \"designed\": {}, \"adversarial\": {}}}",
            self.collective,
            self.ranks,
            self.payload_bytes,
            self.static_pick,
            self.best,
            self.best_wall_us,
            forced.join(", "),
            self.static_auto_wall_us,
            self.model_pick,
            self.model_wall_us,
            self.designed,
            self.adversarial
        )
    }
}

fn run_cell(
    collective: &'static str,
    p: usize,
    bytes: usize,
    designed: bool,
    warm: usize,
    reps: usize,
) -> CellResult {
    let op = cell_op(collective, bytes);
    let cands = candidates(collective);
    let forced: Vec<(&'static str, f64)> = cands
        .iter()
        .map(|c| (c.name, measure(p, 2, reps, c.tuning, c.tuning, op).0))
        .collect();
    let (best, best_wall_us) = forced
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    // Static Auto: the same warm-up + steady shape, model off.
    let t = CollTuning::default();
    let (static_auto_wall_us, _) = measure(p, warm, reps, t, t, op);
    // Model-driven Auto: warm-up iterations cover exploration + EWMA
    // convergence (re-exploration on), then the measured hot loop pins
    // re-exploration off — what a converged user loop sees.
    let steady = driven().model(driven().model.reexplore_every(0));
    let (model_wall_us, delta) = measure(p, warm, reps, driven(), steady, op);
    let model_pick = cands
        .iter()
        .max_by_key(|c| delta[c.class.index()])
        .unwrap()
        .name;
    let sp = static_pick(collective, p, bytes);
    CellResult {
        collective,
        ranks: p,
        payload_bytes: bytes,
        designed,
        static_pick: sp,
        best,
        best_wall_us,
        forced,
        static_auto_wall_us,
        model_pick,
        model_wall_us,
        adversarial: sp != best,
    }
}

/// Structural re-validation of a committed baseline: adversarial
/// coverage per collective, converged picks recorded, aggregate
/// speedup still ≥ 1.3.
fn check_baseline(json: &str) {
    let speedup: f64 = json
        .lines()
        .find_map(|l| json_field(l, "aggregate_speedup"))
        .expect("baseline lacks aggregate_speedup")
        .parse()
        .expect("aggregate_speedup not a number");
    assert!(
        speedup >= 1.3,
        "committed baseline's aggregate speedup fell below 1.3x: {speedup}"
    );
    for collective in ["allreduce", "bcast", "alltoall", "allgather"] {
        let rows: Vec<&str> = baseline_lines(json, "static_pick")
            .into_iter()
            .filter(|l| json_field(l, "collective").as_deref() == Some(collective))
            .collect();
        assert!(!rows.is_empty(), "baseline has no {collective} rows");
        let adversarial = rows
            .iter()
            .filter(|l| json_field(l, "adversarial").as_deref() == Some("true"))
            .count();
        assert!(
            adversarial >= 1,
            "baseline: no adversarial cell for {collective} — its static threshold never loses"
        );
        for l in &rows {
            let sp = json_field(l, "static_pick").unwrap();
            let best = json_field(l, "best").unwrap();
            let adv = json_field(l, "adversarial").as_deref() == Some("true");
            assert_eq!(adv, sp != best, "inconsistent adversarial flag: {l}");
        }
    }
    println!("baseline check passed: adversarial coverage + speedup >= 1.3x hold");
}

fn main() {
    let args = BenchArgs::parse("BENCH_tuning.json");
    if let Some(baseline) = &args.baseline {
        check_baseline(baseline);
    }

    // (collective, p, payload/block bytes, constructed-adversarial).
    // Designed cells sit on the wrong side of a static threshold for
    // this machine and form the aggregate mix; the control cells
    // confirm the model agrees with the thresholds where they are
    // right. (Near-crossover designed cells may still measure as ties
    // on a noisy run — the mix membership never moves with the noise.)
    let cells: Vec<(&'static str, usize, usize, bool)> = vec![
        // rabenseifner_min_bytes = 128 KiB: 64 KiB rides recursive
        // doubling, whose p*log(p) full-vector traffic loses to
        // Rabenseifner's fold-1/p-per-rank at every p (~2x at p = 16).
        ("allreduce", 4, 64 * 1024, true),
        ("allreduce", 8, 64 * 1024, true),
        ("allreduce", 16, 64 * 1024, true),
        ("allreduce", 4, 512 * 1024, false), // control: static already picks Rabenseifner
        // bcast_scatter_min_bytes = 256 KiB: the threshold fires
        // early — refcount-forwarding binomial still clearly wins at
        // 256 KiB; the crossover to van de Geijn sits near 512 KiB
        // (too close to a tie there to pin a cell).
        ("bcast", 4, 256 * 1024, true),
        ("bcast", 8, 256 * 1024, true),
        ("bcast", 4, 16 * 1024, false), // control: binomial, correctly
        // bruck_max_block_bytes = 1 KiB: 2-4 KiB blocks ride pairwise,
        // but in-process Bruck's log(p) rounds beat pairwise's p-1
        // mailbox rendezvous well past the cap.
        ("alltoall", 4, 2048, true),
        ("alltoall", 8, 2048, true),
        ("alltoall", 16, 2048, true),
        ("alltoall", 8, 4096, true),
        ("alltoall", 4, 16 * 1024, false), // control: pairwise, correctly
        // allgather_rd_max_bytes = 8 KiB routes small power-of-two
        // gathers to RD's packing copies (the ring wins in-process);
        // allgather_bruck_max_bytes does the same on non-power-of-two
        // communicators where RD/ring win.
        ("allgather", 4, 2 * 1024, true),
        ("allgather", 6, 4 * 1024, true),
        ("allgather", 6, 8 * 1024, true),
        ("allgather", 4, 64 * 1024, false), // control: ring, correctly
    ];
    let (warm, reps, cells) = if args.smoke {
        // The widest-gap adversarial cell(s) per threshold plus one
        // control per collective, so every assert still runs.
        let keep: &[(&str, usize, usize)] = &[
            ("allreduce", 4, 64 * 1024),
            ("allreduce", 8, 64 * 1024),
            ("allreduce", 16, 64 * 1024),
            ("allreduce", 4, 512 * 1024),
            ("bcast", 4, 256 * 1024),
            ("bcast", 4, 16 * 1024),
            ("alltoall", 4, 2048),
            ("alltoall", 8, 2048),
            ("alltoall", 16, 2048),
            ("alltoall", 4, 16 * 1024),
            ("allgather", 4, 2 * 1024),
            ("allgather", 6, 4 * 1024),
            ("allgather", 6, 8 * 1024),
            ("allgather", 4, 64 * 1024),
        ];
        let cells = cells
            .into_iter()
            .filter(|&(c, p, b, _)| keep.contains(&(c, p, b)))
            .collect::<Vec<_>>();
        (32usize, 7usize, cells)
    } else {
        (48usize, 15usize, cells)
    };

    let results: Vec<CellResult> = cells
        .iter()
        .map(|&(c, p, b, adv)| run_cell(c, p, b, adv, warm, reps))
        .collect();

    println!(
        "{:<10} {:>2} {:>9} {:<18} {:<18} {:<18} {:>11} {:>11} {:>11}",
        "cell", "p", "bytes", "static", "best", "model", "static us", "model us", "best us"
    );
    for r in &results {
        println!(
            "{:<10} {:>2} {:>9} {:<18} {:<18} {:<18} {:>11.1} {:>11.1} {:>11.1}{}",
            r.collective,
            r.ranks,
            r.payload_bytes,
            r.static_pick,
            r.best,
            r.model_pick,
            r.static_auto_wall_us,
            r.model_wall_us,
            r.best_wall_us,
            if r.adversarial {
                "  <- adversarial"
            } else {
                ""
            }
        );
    }

    // The adversarial mix is the *designed* cells — membership is fixed
    // by construction, so a near-crossover cell that measures as a tie
    // on a noisy run cannot move in or out of the aggregate. Control
    // cells guard the other direction (the model must not regress where
    // the thresholds are right).
    let static_total: f64 = results
        .iter()
        .filter(|r| r.designed)
        .map(|r| r.static_auto_wall_us)
        .sum();
    let model_total: f64 = results
        .iter()
        .filter(|r| r.designed)
        .map(|r| r.model_wall_us)
        .sum();
    let speedup = static_total / model_total;
    let control_static: f64 = results
        .iter()
        .filter(|r| !r.designed)
        .map(|r| r.static_auto_wall_us)
        .sum();
    let control_model: f64 = results
        .iter()
        .filter(|r| !r.designed)
        .map(|r| r.model_wall_us)
        .sum();
    println!(
        "\nadversarial mix steady-state wall: static-auto {static_total:.1} us, \
         model-auto {model_total:.1} us, speedup {speedup:.2}x"
    );
    println!(
        "control mix steady-state wall: static-auto {control_static:.1} us, \
         model-auto {control_model:.1} us"
    );

    let body: Vec<String> = results.iter().map(CellResult::to_json).collect();
    write_json(
        &args.out,
        "tuning",
        args.mode(),
        &[
            (
                "cost_model",
                "\"cluster(alpha=1.5us, beta=0.1ns/B)\"".to_string(),
            ),
            ("aggregate_speedup", format!("{speedup:.3}")),
        ],
        &body,
    );

    // --- the self-tuning contract --------------------------------------
    //
    // Conditions 2 and 3a compare wall-clock measurements of ranks that
    // this host may not be able to run at once: with fewer cores than
    // the widest cell has ranks (2 cores, p = 16) the scheduler reorders
    // near-ties and the measured "best" moves between runs. There — and
    // only there, decided by what the program observes, not by a flag —
    // they are reported as notes. The control mix (3b) is asserted on
    // every host.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let widest = results.iter().map(|r| r.ranks).max().unwrap();
    let mut notes = 0;
    let mut hold = |ok: bool, msg: String| {
        if !ok {
            assert!(cores < widest, "{msg}");
            println!("note ({cores} cores < {widest} ranks): {msg}");
            notes += 1;
        }
    };

    // 1. Every static threshold loses at least one of its designed
    //    cells on this run's measurements. Whether a designed cell
    //    measures as adversarial is a property of the host's wall clock,
    //    so this one is a note everywhere; `--check` asserts it of the
    //    committed baseline.
    for collective in ["allreduce", "bcast", "alltoall", "allgather"] {
        let lost = |r: &CellResult| r.collective == collective && r.designed && r.adversarial;
        if !results.iter().any(lost) {
            println!(
                "note: {collective}: static selection matched the measured best in every \
                 designed cell of this run"
            );
        }
    }

    // 2. The model converges to the per-regime winner in every cell
    //    (tie tolerance: its pick must cost within 15% + 10 us of the
    //    measured best).
    for r in &results {
        let picked_wall = r
            .forced
            .iter()
            .find(|(n, _)| *n == r.model_pick)
            .map(|(_, w)| *w)
            .unwrap();
        hold(
            picked_wall <= r.best_wall_us * 1.15 + 10.0,
            format!(
                "{}@{} B p={}: model converged to {} ({picked_wall:.1} us) but {} measured {:.1} us",
                r.collective, r.payload_bytes, r.ranks, r.model_pick, r.best, r.best_wall_us
            ),
        );
    }

    // 3. Aggregate: (a) the learned schedule beats the static thresholds
    //    by >= 1.3x on the adversarial mix, and (b) never meaningfully
    //    regresses on the control cells where the thresholds are already
    //    right (tolerance covers re-exploration overhead + scheduler
    //    noise).
    hold(
        speedup >= 1.3,
        format!(
            "model-auto must be >= 1.3x faster than static-auto on the adversarial mix, \
             got {speedup:.2}x"
        ),
    );
    assert!(
        control_model <= control_static * 1.35 + 25.0,
        "model-auto regressed on the control mix: {control_model:.1} us vs static {control_static:.1} us"
    );
    if notes == 0 {
        println!("self-tuning contract holds: model converges, >= 1.3x, control mix not regressed");
    } else {
        println!("control mix not regressed; {notes} wall-clock condition(s) noted above");
    }
}
