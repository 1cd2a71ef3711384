//! The round loop every workload runs under.
//!
//! Closed loop, one process, `p` rank threads. A *round* runs every
//! phase of the workload once through `kamping` and once through its
//! hand-written substrate twin, alternating which side goes first,
//! barrier-separated, timed on rank 0 including the closing barrier.
//! Inputs are restored and outputs verified outside the timed region.
//! Rounds repeat until the time budget is used; every reported count is
//! per round, so the number of rounds does not enter any metric.

use std::time::Instant;

use kamping::Communicator;
use kmp_mpi::{Comm, Config, CostModel, MailboxStats, Universe};

use crate::trace::{layer, now_ns, Side, Span, Tracer};

/// Rounds run and discarded before anything is recorded.
pub const WARMUP_ROUNDS: usize = 5;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
}

impl Verdict {
    pub fn of(ok: bool) -> Self {
        Verdict {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a phase sees of its rank.
pub struct Ctx<'a> {
    pub kc: &'a Communicator,
    pub tracer: &'a Tracer,
}

impl<'a> Ctx<'a> {
    pub fn raw(&self) -> &'a Comm {
        self.kc.raw()
    }

    pub fn rank(&self) -> usize {
        self.kc.rank()
    }

    pub fn size(&self) -> usize {
        self.kc.size()
    }

    /// A span around one call into `layer` (no-op unless tracing).
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(layer, name, self.kc.raw(), f)
    }
}

/// One paired unit of a workload: the same work through `kamping` and
/// through the substrate twin.
pub trait Phase {
    fn name(&self) -> &'static str;

    /// The workload's unit ops one kamping-side run of this phase
    /// completes, over all ranks. May depend on the last run's output.
    fn unit_ops(&self) -> f64;

    /// Send-payload bytes *this rank* hands to communication calls in
    /// one kamping-side run, computed from the inputs (and oracle
    /// outputs), never from program counters.
    fn payload_bytes(&self) -> u64;

    /// Untimed: restore whatever the previous run consumed.
    fn prepare(&mut self, _side: Side) {}

    /// Timed: the library's own code path.
    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()>;

    /// Timed in traced rounds: a benchmark-owned driver composing the
    /// app's public pieces with a span around every call into a layer.
    /// Its output goes through the same `verify`, so it must equal the
    /// library's. Default: the whole run is one call into one layer.
    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let l = match side {
            Side::Kamping => layer::KAMPING,
            Side::Twin => layer::SUBSTRATE,
        };
        let name = self.name();
        cx.span(l, name, || self.run(side, cx))
    }

    /// Untimed: checks the output of the last run against the oracle.
    fn verify(&mut self, side: Side, cx: &Ctx) -> Verdict;
}

pub type Phases<'a> = Vec<Box<dyn Phase + 'a>>;

/// Cell names built at run time (`allgather_64KiB_owned`) as `&'static
/// str`, each distinct name allocated once per process.
pub fn intern(name: String) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("no panic while interning");
    match names.get(name.as_str()) {
        Some(&known) => known,
        None => {
            let leaked: &'static str = Box::leak(name.into_boxed_str());
            names.insert(leaked);
            leaked
        }
    }
}

/// Problem scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Tiny sizes for `--smoke`.
    Smoke,
    /// The p = 16 model run: full per-rank sizes unless the workload's
    /// memory would grow with p squared.
    Model,
}

pub trait Workload: Sync {
    type Inputs: Sync;

    fn name(&self) -> &'static str;
    /// What one unit op is.
    fn unit(&self) -> &'static str;
    fn make_inputs(&self, seed: u64, p: usize, scale: Scale) -> Self::Inputs;
    /// Builds this rank's phases (persistent plans are built here, so
    /// their cost lands in `setup_s`).
    fn phases<'a>(&self, inputs: &'a Self::Inputs, kc: &'a Communicator) -> Phases<'a>;
}

#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub p: usize,
    pub scale: Scale,
    /// Time box for the recorded rounds.
    pub seconds: f64,
    /// Fixed round count instead of a time box (`--smoke`).
    pub fixed_rounds: Option<usize>,
    /// Complete set-ups to time (the last one continues into the run).
    pub setups: usize,
    /// Record spans: first an untraced stretch, then a traced one, each
    /// taking half of `seconds`.
    pub trace: bool,
}

/// Everything one rank brings back.
#[derive(Default)]
struct RankOut {
    setup_s: f64,
    /// Per recorded round, per phase, per side: seconds (rank 0's clock).
    times: Vec<Vec<[f64; 2]>>,
    /// Same for the traced stretch.
    traced_times: Vec<Vec<[f64; 2]>>,
    copied: [u64; 2],
    allocs: [u64; 2],
    substrate_calls: [u64; 2],
    payload: u64,
    unit_ops: f64,
    rounds: usize,
    verdict: Verdict,
    spans: Vec<Span>,
    phase_names: Vec<&'static str>,
    /// Matching-engine counters when recording began and ended.
    mailbox_start: MailboxStats,
    mailbox: MailboxStats,
}

/// Result of one workload run.
#[derive(Default)]
pub struct RunResult {
    pub setup_s: Vec<f64>,
    pub rounds: usize,
    pub phase_names: Vec<&'static str>,
    /// `[round][phase][side]` seconds.
    pub times: Vec<Vec<[f64; 2]>>,
    pub traced_times: Vec<Vec<[f64; 2]>>,
    pub unit_ops_per_round: f64,
    /// All ranks, per round.
    pub payload_bytes_per_round: f64,
    pub copied_bytes_per_round: [f64; 2],
    pub allocs_per_round: [f64; 2],
    pub substrate_calls_per_round: [f64; 2],
    pub verdict: Verdict,
    pub peak_rss_mib: f64,
    pub spans: Vec<Vec<Span>>,
    /// Per rank: matching-engine counters when recording began and
    /// ended.
    pub mailbox_start: Vec<MailboxStats>,
    pub mailbox: Vec<MailboxStats>,
}

impl RunResult {
    /// Per-round seconds of one side, summed over phases.
    pub fn round_s(&self, side: Side) -> Vec<f64> {
        round_sums(&self.times, side)
    }
}

pub fn round_sums(times: &[Vec<[f64; 2]>], side: Side) -> Vec<f64> {
    times
        .iter()
        .map(|phases| phases.iter().map(|t| t[side as usize]).sum())
        .collect()
}

/// `VmHWM` of this process in MiB (0 where /proc is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one round on this rank: adds its counters and verdict to `acc`
/// and returns the per-phase `[kamping, twin]` seconds.
fn run_round(
    phases: &mut Phases<'_>,
    cx: &Ctx,
    round: usize,
    traced: bool,
    acc: &mut RankOut,
) -> Vec<[f64; 2]> {
    let raw = cx.raw();
    let mut times = vec![[0.0f64; 2]; phases.len()];
    for (i, phase) in phases.iter_mut().enumerate() {
        let order = if round.is_multiple_of(2) {
            [Side::Kamping, Side::Twin]
        } else {
            [Side::Twin, Side::Kamping]
        };
        for side in order {
            phase.prepare(side);
            cx.tracer.set_context(round, side);
            let calls0 = raw.call_counts().total();
            raw.barrier().expect("opening barrier");
            let t0 = now_ns();
            let c0 = raw.copy_stats();
            let mut c1 = c0;
            let res = if traced {
                cx.span(layer::HARNESS, phase.name(), || {
                    let r = phase.run_traced(side, cx);
                    c1 = raw.copy_stats();
                    cx.span(layer::BARRIER, "closing_barrier", || {
                        raw.barrier().expect("closing barrier")
                    });
                    r
                })
            } else {
                let r = phase.run(side, cx);
                c1 = raw.copy_stats();
                raw.barrier().expect("closing barrier");
                r
            };
            let t1 = now_ns();
            times[i][side as usize] = (t1 - t0) as f64 / 1e9;
            let delta = c1.since(&c0);
            acc.copied[side as usize] += delta.bytes_copied;
            acc.allocs[side as usize] += delta.allocations;
            // The two barriers are the harness's, not the phase's.
            acc.substrate_calls[side as usize] +=
                (raw.call_counts().total() - calls0).saturating_sub(2);
            acc.verdict.add(match res {
                Ok(()) => phase.verify(side, cx),
                Err(e) => {
                    eprintln!(
                        "rank {}: {} ({}) returned Err: {e}",
                        cx.rank(),
                        phase.name(),
                        side.name()
                    );
                    Verdict::of(false)
                }
            });
        }
    }
    acc.rounds += 1;
    times
}

/// Rank 0 decides whether the loop continues; everyone follows.
fn agree_continue(raw: &Comm, go: bool) -> bool {
    raw.bcast_one(u8::from(go), 0).expect("continue flag") != 0
}

fn rank_main<W: Workload>(
    w: &W,
    inputs: &W::Inputs,
    comm: Comm,
    opts: &RunOpts,
    started: Instant,
    measure: bool,
) -> RankOut {
    let kc = Communicator::new(comm);
    let tracer = Tracer::new(false, kc.rank());
    let cx = Ctx {
        kc: &kc,
        tracer: &tracer,
    };
    let raw = kc.raw();
    let mut phases = w.phases(inputs, &kc);
    let mut out = RankOut {
        phase_names: phases.iter().map(|p| p.name()).collect(),
        ..RankOut::default()
    };
    let warmup = if opts.scale == Scale::Smoke {
        2
    } else {
        WARMUP_ROUNDS
    };
    let mut round = 0usize;
    for _ in 0..warmup {
        // Warm-up rounds keep nothing but their verdict: a wrong answer
        // is a wrong answer whenever it happens.
        let mut discarded = RankOut::default();
        run_round(&mut phases, &cx, round, false, &mut discarded);
        out.verdict.add(discarded.verdict);
        round += 1;
    }
    raw.barrier().expect("setup barrier");
    out.setup_s = started.elapsed().as_secs_f64();
    if !measure {
        return out;
    }
    out.mailbox_start = raw.mailbox_stats();

    let stretches: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let per_stretch = opts.seconds / stretches.len() as f64;
    for &traced in stretches {
        tracer.set_enabled(traced);
        let begun = Instant::now();
        let mut done = 0usize;
        loop {
            let t = run_round(&mut phases, &cx, round, traced, &mut out);
            if traced {
                out.traced_times.push(t);
            } else {
                out.times.push(t);
            }
            round += 1;
            done += 1;
            let go = match opts.fixed_rounds {
                Some(n) => done < n,
                None => begun.elapsed().as_secs_f64() < per_stretch,
            };
            if !agree_continue(raw, go) {
                break;
            }
        }
    }
    tracer.set_enabled(false);
    out.payload = phases.iter().map(|p| p.payload_bytes()).sum();
    out.unit_ops = phases.iter().map(|p| p.unit_ops()).sum();
    out.spans = tracer.take();
    out.mailbox = raw.mailbox_stats();
    out
}

/// Times `opts.setups` complete set-ups (inputs, oracles, universe,
/// communicator, plans, warm-up rounds) and lets the last one run on
/// into the recorded rounds.
pub fn run_workload<W: Workload>(w: &W, opts: &RunOpts) -> RunResult {
    let mut result = RunResult::default();
    for i in 0..opts.setups.max(1) {
        let last = i + 1 == opts.setups.max(1);
        let started = Instant::now();
        let inputs = w.make_inputs(opts.seed, opts.p, opts.scale);
        let outs: Vec<RankOut> = Universe::run(opts.p, |comm| {
            rank_main(w, &inputs, comm, opts, started, last)
        });
        result.setup_s.push(outs[0].setup_s);
        for o in &outs {
            result.verdict.add(o.verdict);
        }
        if !last {
            continue;
        }
        result.peak_rss_mib = peak_rss_mib();
        let rounds = outs[0].rounds as f64;
        result.rounds = outs[0].rounds;
        result.phase_names = outs[0].phase_names.clone();
        result.unit_ops_per_round = outs[0].unit_ops;
        result.payload_bytes_per_round = outs.iter().map(|o| o.payload).sum::<u64>() as f64;
        for s in 0..2 {
            let sum = |f: &dyn Fn(&RankOut) -> u64| outs.iter().map(f).sum::<u64>() as f64 / rounds;
            result.copied_bytes_per_round[s] = sum(&|o| o.copied[s]);
            result.allocs_per_round[s] = sum(&|o| o.allocs[s]);
            result.substrate_calls_per_round[s] = sum(&|o| o.substrate_calls[s]);
        }
        let mut outs = outs;
        result.times = std::mem::take(&mut outs[0].times);
        result.traced_times = std::mem::take(&mut outs[0].traced_times);
        result.mailbox_start = outs.iter().map(|o| o.mailbox_start).collect();
        result.mailbox = outs.iter().map(|o| o.mailbox).collect();
        result.spans = outs.into_iter().map(|o| o.spans).collect();
    }
    result
}

/// Max-over-ranks virtual time of one kamping-side round at `p` ranks
/// under `CostModel::cluster()`, in ms: the median of three rounds. A
/// model output — startups and bytes priced by alpha-beta, no compute
/// charged — not a measurement of this host.
pub fn virtual_round_ms<W: Workload>(w: &W, seed: u64, p: usize, scale: Scale) -> (f64, Verdict) {
    const ROUNDS: usize = 3;
    let inputs = w.make_inputs(seed, p, scale);
    let outs = Universe::run_with(Config::new(p).cost(CostModel::cluster()), |comm| {
        let kc = Communicator::new(comm);
        let tracer = Tracer::new(false, kc.rank());
        let cx = Ctx {
            kc: &kc,
            tracer: &tracer,
        };
        let raw = kc.raw();
        let mut phases = w.phases(&inputs, &kc);
        let mut verdict = Verdict::default();
        let mut per_round = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let mut ns = 0u64;
            for phase in phases.iter_mut() {
                phase.prepare(Side::Kamping);
                raw.barrier().expect("barrier");
                raw.clock_reset();
                let res = phase.run(Side::Kamping, &cx);
                ns += raw.clock_now_ns();
                verdict.add(match res {
                    Ok(()) => phase.verify(Side::Kamping, &cx),
                    Err(_) => Verdict::of(false),
                });
            }
            per_round.push(ns);
        }
        (per_round, verdict)
    });
    let mut verdict = Verdict::default();
    let mut rounds = [0u64; ROUNDS];
    for o in outs {
        let (per_round, v) = o.unwrap();
        verdict.add(v);
        for (m, ns) in rounds.iter_mut().zip(per_round) {
            *m = (*m).max(ns);
        }
    }
    let ms: Vec<f64> = rounds.iter().map(|&ns| ns as f64 / 1e6).collect();
    (crate::stats::median(&ms), verdict)
}
