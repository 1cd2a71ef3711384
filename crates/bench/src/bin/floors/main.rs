//! `floors`: every wall-clock contract of the substrate's subsystems,
//! each measured against its in-tree reference in the same run.
//!
//! ```sh
//! cargo run --release -p kmp_bench --bin floors
//! ```
//!
//! The binary takes no flags and writes no file. It runs every probe,
//! then prints one line per floor — subject, reference, the ratio the
//! bound reads, the bound, and PASS / FAIL / NOTE — and exits 1 if any
//! floor failed. A probe that panics fails one floor named after it;
//! the probes after it still run. The trace recorder starts off and the
//! fault plane is inert without a plan, so every probe but `trace` and
//! `fault` measures an uninstrumented run; those two switch the
//! recorder or install a plan themselves.
//!
//! A bound reads the subject `s` against the reference `r` one of three
//! ways: `s/r >= x` (rates), `s <= x·r + slack` (times), or `r/s >= x`
//! (a time that must be `x` times shorter). Every rate is the fastest
//! of a few repetitions after one warm-up run, both sides treated alike.
//!
//! | probe | floor (per `p`) | subject vs reference | bound |
//! |---|---|---|---|
//! | `matching` | every scenario, p ∈ {4, 8, 16} | two-queue `Mailbox` vs linear-scan `ScanMailbox`, msgs/s | `s/r >= 0.5` |
//! | `matching` | `many_senders_one_receiver`, p ∈ {4, 8, 16} | same | `s/r >= 2.0` |
//! | `matching` | `wildcard_heavy`, p ∈ {4, 8, 16} | same | `s/r >= 1.2` |
//! | `completion` | both scenarios, p ∈ {4, 8, 16} | parked waits vs `completion::reference` sweep, µs per completion | `s <= 2·r` |
//! | `completion` | `wait_any_fanin` parks, p ∈ {4, 8, 16} | event-driven `multi_wakeups` vs 1 | `s/r >= 1` |
//! | `completion` | `wait_any_fanin`, p = 8 | µs per completion, as above | `r/s >= 2.0` |
//! | `persistent` | every scenario, p ∈ {4, 8, 16} | `*_init` + `start`/`wait` vs per-call posting, ops/s | `s/r >= 0.8` |
//! | `persistent` | every scenario, p = 8 | same | `s/r >= 1.5` |
//! | `neighborhood` | frontier exchange, p ∈ {8, 16} | sparse `ineighbor_alltoallv` vs dense `alltoall` + `alltoallv`, rounds/s | `s/r >= 2.0` |
//! | `tuning` | every cell | the model's converged pick vs the measured-best forced row, µs | `s <= 1.15·r + 10` * |
//! | `tuning` | adversarial mix | model-driven `Auto` vs static `Auto`, summed µs | `r/s >= 1.3` * |
//! | `tuning` | control mix | same | `s <= 1.35·r + 25` |
//! | `trace` | both workloads, p = 8 | recorder on vs off, summed thread-CPU ms | `s <= 1.1·r` |
//! | `fault` | detection, p = 4 | slowest survivor's wake after the crash vs its ceiling, µs | `s <= 250 000 µs` |
//! | `fault` | `bfs_ft` recovery, p = 4 | crash to last survivor done vs its ceiling, ms | `s <= 10 000 ms` |
//! | `fault` | hook overhead, p = 4 | armed hooks on vs off, summed thread-CPU ms | `s <= 1.1·r` |
//!
//! \* Compares wall clock across ranks the host may not run at once: on
//! a host with fewer cores than the widest cell has ranks (16), a miss
//! prints NOTE instead of FAIL. `available_parallelism` decides, not a
//! flag.
//!
//! What these floors do not time is pinned exactly by tier-1 tests: the
//! binding's copy bill against the substrate's (`tests/copy_accounting.rs`),
//! sparse envelopes per round (`sparse_exchange_posts_degree_envelopes`
//! and its chord-ring twin in `crates/mpi/tests/substrate_props.rs`),
//! BFS results over every exchange, reproducible reduction bit for bit,
//! and the Chrome trace schema (`crates/mpi/tests/trace_integration.rs`).

mod completion;
mod fault;
mod matching;
mod neighborhood;
mod persistent;
mod trace;
mod tuning;

use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a floor reads its subject `s` against its reference `r`.
#[derive(Clone, Copy)]
enum Bound {
    /// `s / r >= x`: a rate that must keep up.
    AtLeast(f64),
    /// `s <= x·r + slack`: a time that must not fall behind.
    AtMost(f64, f64),
    /// `r / s >= x`: a time that must be `x` times shorter.
    Speedup(f64),
}

/// One asserted contract: a subject measured against its reference.
struct Floor {
    name: String,
    subject: f64,
    reference: f64,
    unit: &'static str,
    bound: Bound,
    /// A wall-clock condition over this many ranks at once: on a host
    /// with fewer cores a miss is a note, not a failure.
    ranks_at_once: Option<usize>,
}

impl Floor {
    fn new(
        name: impl Into<String>,
        subject: f64,
        reference: f64,
        unit: &'static str,
        bound: Bound,
    ) -> Self {
        Floor {
            name: name.into(),
            subject,
            reference,
            unit,
            bound,
            ranks_at_once: None,
        }
    }

    /// Marks the floor as needing `ranks` cores to be asserted.
    fn needs_cores(mut self, ranks: usize) -> Self {
        self.ranks_at_once = Some(ranks);
        self
    }

    /// The ratio the bound reads.
    fn ratio(&self) -> f64 {
        match self.bound {
            Bound::Speedup(_) => self.reference / self.subject,
            _ => self.subject / self.reference,
        }
    }

    fn holds(&self) -> bool {
        let (s, r) = (self.subject, self.reference);
        match self.bound {
            Bound::AtLeast(x) => s >= x * r,
            Bound::AtMost(x, slack) => s <= x * r + slack,
            Bound::Speedup(x) => r >= x * s,
        }
    }

    fn bound_text(&self) -> String {
        match self.bound {
            Bound::AtLeast(x) => format!("s/r >= {x}"),
            Bound::AtMost(x, 0.0) => format!("s/r <= {x}"),
            Bound::AtMost(x, slack) => format!("s <= {x}r + {slack}"),
            Bound::Speedup(x) => format!("r/s >= {x}"),
        }
    }
}

/// Runs `cycle` `WARMUP` times untimed, then `iters` times between two
/// barriers; returns this rank's seconds for the timed cycles.
fn timed_loop(
    comm: &kmp_mpi::Comm,
    iters: usize,
    mut cycle: impl FnMut() -> kmp_mpi::Result<()>,
) -> f64 {
    const WARMUP: usize = 16;
    for _ in 0..WARMUP {
        cycle().unwrap();
    }
    comm.barrier().unwrap();
    let started = std::time::Instant::now();
    for _ in 0..iters {
        cycle().unwrap();
    }
    comm.barrier().unwrap();
    started.elapsed().as_secs_f64()
}

/// One warm-up run, then the highest rate of `reps` runs of `run`,
/// which returns (operations, seconds): on an oversubscribed host a
/// scheduling hiccup only ever slows a run down.
fn best_rate(reps: usize, mut run: impl FnMut() -> (usize, f64)) -> f64 {
    run();
    (0..reps)
        .map(|_| {
            let (ops, secs) = run();
            ops as f64 / secs
        })
        .fold(0.0, f64::max)
}

/// Runs `body` for `2 * (reps + 1)` barrier-fenced repetitions on this
/// rank, switching `toggle` so that on and off alternate inside each
/// pair, and which half of a pair runs on alternates from pair to pair
/// (a monotone drift in CPU speed then cancels in the median). The
/// first pair is warm-up. Returns this rank's thread-CPU nanoseconds
/// per measured repetition, (off, on).
fn toggled_cpu(
    comm: &kmp_mpi::Comm,
    reps: usize,
    toggle: fn(bool),
    mut body: impl FnMut(usize),
) -> (Vec<u64>, Vec<u64>) {
    let mut cpu = (Vec::new(), Vec::new());
    for rep in 0..2 * (reps + 1) {
        let on = (rep % 2 == 1) ^ ((rep / 2) % 2 == 1);
        toggle(on);
        comm.barrier().unwrap();
        let c0 = kmp_mpi::sys::thread_cpu_ns();
        body(rep);
        comm.barrier().unwrap();
        let spent = kmp_mpi::sys::thread_cpu_ns().saturating_sub(c0);
        if rep >= 2 {
            if on {
                cpu.1.push(spent);
            } else {
                cpu.0.push(spent);
            }
        }
    }
    cpu
}

/// Paired differencing of [`toggled_cpu`] samples: per rank the median
/// on-minus-off delta of adjacent pairs (robust to a preempted rep) and
/// the median off time, each summed over ranks. Returns summed CPU
/// milliseconds (off, on).
fn paired_cpu_ms(per_rank: &[(Vec<u64>, Vec<u64>)]) -> (f64, f64) {
    let median = |mut v: Vec<i64>| {
        v.sort_unstable();
        v[v.len() / 2] as f64
    };
    let (mut base, mut delta) = (0.0, 0.0);
    for (off, on) in per_rank {
        delta += median(
            on.iter()
                .zip(off)
                .map(|(&b, &a)| b as i64 - a as i64)
                .collect(),
        );
        base += median(off.iter().map(|&a| a as i64).collect());
    }
    (base / 1e6, (base + delta) / 1e6)
}

/// A named probe: measures its subjects and references, returns floors.
type Probe = (&'static str, fn() -> Vec<Floor>);

fn main() {
    let probes: [Probe; 7] = [
        ("matching", matching::floors),
        ("completion", completion::floors),
        ("persistent", persistent::floors),
        ("neighborhood", neighborhood::floors),
        ("tuning", tuning::floors),
        ("trace", trace::floors),
        ("fault", fault::floors),
    ];

    let mut floors = Vec::new();
    for (probe, run) in probes {
        println!("== {probe}");
        let started = std::time::Instant::now();
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(found) => floors.extend(found),
            Err(_) => floors.push(Floor::new(
                format!("{probe}: probe panicked"),
                f64::NAN,
                f64::NAN,
                "",
                Bound::AtLeast(1.0),
            )),
        }
        println!("   {:.1} s", started.elapsed().as_secs_f64());
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "\n{:<48} {:>13} {:>13} {:<9} {:>7}  {:<17} state",
        "floor", "subject", "reference", "unit", "ratio", "bound"
    );
    let (mut failed, mut noted) = (0, 0);
    for f in &floors {
        let state = if f.holds() {
            "PASS".to_string()
        } else if f.ranks_at_once.is_some_and(|ranks| cores < ranks) {
            noted += 1;
            format!("NOTE ({cores} cores < {} ranks)", f.ranks_at_once.unwrap())
        } else {
            failed += 1;
            "FAIL".to_string()
        };
        println!(
            "{:<48} {:>13.2} {:>13.2} {:<9} {:>7.3}  {:<17} {state}",
            f.name,
            f.subject,
            f.reference,
            f.unit,
            f.ratio(),
            f.bound_text()
        );
    }
    println!(
        "\n{} floors: {} passed, {failed} failed, {noted} noted",
        floors.len(),
        floors.len() - failed - noted
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
