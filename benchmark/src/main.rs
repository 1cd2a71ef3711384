//! The repository benchmark: the paper's workloads end to end, every
//! layer timed from outside. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat K]
//! ```
//!
//! With `--workload` the process runs that workload and prints one JSON
//! result object as its last line of output. Without it, every workload
//! runs in a child process of its own, `--repeat` times, and the parent
//! prints each metric's median, its spread between the sets and its
//! bound.

mod harness;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{RunOpts, RunResult, Scale, Workload};
use report::{CellRow, Metric, Outcome};
use trace::Side;
use workloads::coll::{Coll, Lifecycle};

/// Rank threads of the measured run: the smallest size at which tree,
/// recursive-doubling, Bruck and grid algorithms differ from the linear
/// ones, and twice the cores of the reference host, so blocking steps
/// park as they do in real runs.
const P: usize = 4;
/// Ranks of the modelled run (counts and virtual time only).
const P_MODEL: usize = 16;

#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeat: 2,
    };
    let mut explicit_repeat = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                explicit_repeat = true;
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && !explicit_repeat {
        args.repeat = 1;
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".into());
    }
    Ok(args)
}

fn out_dir() -> std::path::PathBuf {
    // From a checkout root (how the driver runs it) or from anywhere
    // else (next to the sources this binary was built from).
    let local = std::path::Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.join("out")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn end_to_end(r: &RunResult, virtual_ms: f64) -> Vec<Metric> {
    let k = r.round_s(Side::Kamping);
    let t = r.round_s(Side::Twin);
    let values = [
        stats::median(&r.setup_s),
        r.unit_ops_per_round / stats::median(&k),
        stats::paired_ratio_median(&k, &t),
        r.copied_bytes_per_round[Side::Kamping as usize] / r.payload_bytes_per_round,
        virtual_ms,
        r.peak_rss_mib,
    ];
    report::END_TO_END
        .iter()
        .zip(values)
        .map(|(s, v)| Metric::new(s.name, v, s.unit))
        .collect()
}

fn phase_cells(r: &RunResult) -> Vec<CellRow> {
    let mut cells = Vec::new();
    for (i, name) in r.phase_names.iter().enumerate() {
        let col = |side: Side| -> Vec<f64> {
            r.times
                .iter()
                .map(|ph| ph[i][side as usize] * 1e6)
                .collect()
        };
        let (k, t) = (col(Side::Kamping), col(Side::Twin));
        let ratio: Vec<f64> = k.iter().zip(&t).map(|(a, b)| a / b).collect();
        cells.push(CellRow {
            name: format!("{name} kamping"),
            unit: "us",
            samples: k,
        });
        cells.push(CellRow {
            name: format!("{name} twin"),
            unit: "us",
            samples: t,
        });
        cells.push(CellRow {
            name: format!("{name} kamping/twin"),
            unit: "ratio",
            samples: ratio,
        });
    }
    cells
}

fn run_one<W: Workload>(w: &W, args: &Args) -> Outcome {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let opts = RunOpts {
        seed: args.seed,
        p: P,
        scale,
        seconds: args.seconds,
        fixed_rounds: args.smoke.then_some(5),
        // Set-up is timed several times and reported as a median; the
        // traced run reports no set-up time.
        setups: if args.trace || args.smoke { 1 } else { 5 },
        trace: args.trace,
    };
    let r = harness::run_workload(w, &opts);
    let mut verdict = r.verdict;
    let metrics = if args.trace {
        let mut m = layers::from_workload(&r);
        let (probes, v) = layers::probe_suite(args.seed, args.smoke);
        m.extend(probes);
        verdict.add(v);
        // The result line must carry every per-layer metric, once.
        let mut got: Vec<&str> = m.iter().map(|x| x.name.as_str()).collect();
        let mut want: Vec<&str> = layers::PER_LAYER.iter().map(|x| x.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        verdict.add(harness::Verdict::of(got == want));
        let path = out_dir().join(format!("{}.trace.json", w.name()));
        match trace::write_trace(&path, w.name(), args.seed, &r.spans, 4) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                verdict.add(harness::Verdict::of(false));
            }
        }
        m
    } else {
        let model_scale = if args.smoke {
            Scale::Smoke
        } else {
            Scale::Model
        };
        let (virtual_ms, v) = harness::virtual_round_ms(w, args.seed, P_MODEL, model_scale);
        verdict.add(v);
        end_to_end(&r, virtual_ms)
    };
    let outcome = Outcome {
        correct: verdict.failed == 0 && verdict.attempted > 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    };
    println!(
        "unit op: {}; p = {P}, cores = {}, seed = {}",
        w.unit(),
        std::thread::available_parallelism().map_or(0, usize::from),
        args.seed
    );
    report::print_cells("per-phase round times", &phase_cells(&r));
    report::print_metrics(w.name(), &outcome, r.rounds);
    outcome
}

fn run_named(name: &str, args: &Args) -> Option<Outcome> {
    Some(match name {
        "sort_bulk" => run_one(&workloads::sort_bulk::SortBulk, args),
        "graph_frontier" => run_one(&workloads::graph_frontier::GraphFrontier, args),
        "call_rate" => run_one(&workloads::call_rate::CallRate, args),
        "coll_blocking" => run_one(&Coll(Lifecycle::Blocking), args),
        "coll_nonblocking" => run_one(&Coll(Lifecycle::Nonblocking), args),
        "coll_persistent" => run_one(&Coll(Lifecycle::Persistent), args),
        _ => return None,
    })
}

/// Runs one workload in a child process of its own (so that peak RSS is
/// per workload) and returns its result line, plus the report lines of
/// cells whose samples sit in two clusters.
fn run_child(name: &str, args: &Args) -> Result<(Outcome, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let outcome = stdout
        .lines()
        .last()
        .and_then(Outcome::from_json_line)
        .ok_or_else(|| {
            format!(
                "no result line (exit {:?}): {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let bimodal = stdout
        .lines()
        .filter(|l| l.contains("BIMODAL"))
        .map(str::to_string)
        .collect();
    Ok((outcome, bimodal))
}

/// All workloads, `repeat` sets: per metric the median over sets, the
/// spread between the set values, and whether that spread stays inside
/// the metric's bound.
fn run_all(args: &Args) -> bool {
    let mut all_ok = true;
    let started = std::time::Instant::now();
    for name in workloads::NAMES {
        let mut sets: Vec<Outcome> = Vec::new();
        let mut bimodal: Vec<String> = Vec::new();
        for set in 0..args.repeat {
            match run_child(name, args) {
                Ok((o, flagged)) => {
                    all_ok &= o.correct;
                    sets.push(o);
                    bimodal.extend(flagged);
                }
                Err(e) => {
                    eprintln!("{name} (set {set}): {e}");
                    all_ok = false;
                }
            }
        }
        if args.smoke && !args.trace {
            // The smoke matrix also drives the traced drivers, the
            // probes and the trace writer once.
            let traced = Args {
                trace: true,
                ..args.clone()
            };
            match run_child(name, &traced) {
                Ok((o, _)) => {
                    println!(
                        "== {name} traced: {} per-layer metrics, {} of {} operations failed",
                        o.metrics.len(),
                        o.failed,
                        o.attempted
                    );
                    all_ok &= o.correct && o.metrics.len() == layers::PER_LAYER.len();
                }
                Err(e) => {
                    eprintln!("{name} (traced): {e}");
                    all_ok = false;
                }
            }
        }
        let Some(first) = sets.first() else { continue };
        let (attempted, failed) = sets
            .iter()
            .fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed));
        println!(
            "== {name}: {} sets, {failed} of {attempted} operations failed (failed_share {:.6})",
            sets.len(),
            failed as f64 / attempted.max(1) as f64
        );
        for m in &first.metrics {
            let values: Vec<f64> = sets.iter().filter_map(|o| o.get(&m.name)).collect();
            let med = stats::median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            // Quartile distance as the driver takes it once there are
            // enough sets for quartiles; the full range before that.
            let spread = if values.len() >= 4 {
                stats::rel_spread(&values)
            } else if med != 0.0 {
                (hi - lo) / med.abs()
            } else {
                0.0
            };
            let spec = report::END_TO_END.iter().find(|s| s.name == m.name);
            let status = match spec {
                Some(s) if values.len() > 1 && spread > s.bound => "UNRESOLVED",
                Some(_) => "ok",
                None => "",
            };
            let ref_note = if m.name.starts_with("ref.") && spread > 0.10 {
                "NOISY HOST"
            } else {
                ""
            };
            println!(
                "   {:<50} {:>16.6} {:<6} n={} spread {:>6.2}% bound {} {status}{ref_note}",
                m.name,
                med,
                m.unit,
                values.len(),
                spread * 100.0,
                spec.map_or("   -  ".to_string(), |s| format!(
                    "{:>5.1}%",
                    s.bound * 100.0
                )),
            );
        }
        for line in bimodal {
            println!("   bimodal cell:{line}");
        }
    }
    println!(
        "total wall time {:.1} s, {}",
        started.elapsed().as_secs_f64(),
        if all_ok {
            "all outputs verified"
        } else {
            "FAILURES"
        }
    );
    all_ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match run_named(name, &args) {
            Some(outcome) => {
                println!("{}", outcome.to_json_line());
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            None => {
                eprintln!(
                    "unknown workload {name}; one of {}",
                    workloads::NAMES.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => {
            if run_all(&args) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
