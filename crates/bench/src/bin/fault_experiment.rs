//! Fault-injection / ULFM recovery benchmark (requires `--features
//! fault`). Three scenarios, each self-asserting:
//!
//! - **detection** — failure-detection latency, mark → last parked
//!   survivor woken. Every survivor parks in a blocking receive on the
//!   eventual victim; the victim records a timestamp and crashes
//!   ([`Comm::fail_here`]); each survivor records when its receive
//!   returned `ProcessFailed`. The row reports the median and worst
//!   over reps of the *slowest* survivor's wake delta — the quantity
//!   the wake-on-epoch protocol (see `kmp_mpi::ulfm`) bounds. The
//!   assertion is deliberately loose for CI containers (milliseconds);
//!   the real number is condvar-wakeup-scale (microseconds).
//! - **ft_bfs** — shrink-and-continue recovery time for the
//!   fault-tolerant BFS ([`kmp_apps::bfs::bfs_ft`]): a rank crashes at
//!   level 2, the survivors revoke → agree → shrink → re-partition →
//!   restart, and the stitched result must equal the sequential oracle
//!   of the survivors' partitioning. The row reports crash-to-finish
//!   recovery time next to the whole run's wall time.
//! - **hook_overhead** — the cost of the injection plane itself, in the
//!   `fault` build, on the hook-dense p2p ring (every message crosses
//!   `mailbox/push`, `mailbox/match` and the completion points). Runs
//!   interleave [`fault::set_enabled`] on/off under an *inert* plan
//!   (every rank armed with an unreachable crash count, so enabled
//!   hooks walk their arm lists and bail) and reduce by paired
//!   differencing of per-rank thread-CPU time — the `trace`
//!   methodology. The disabled-toggle path is one relaxed atomic load
//!   per hook, an upper bound on the default build, where the hooks are
//!   compiled out entirely (ZST twin module, pinned by the `fault`
//!   unit tests).
//!
//! Usage: `fault_experiment [--smoke] [--out PATH] [--check PATH]`;
//! writes `BENCH_fault.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kmp_apps::bfs::{bfs_ft, bfs_sequential, UNDEF};
use kmp_bench::harness::{baseline_lines, json_field, write_json, BenchArgs};
use kmp_graphgen::{gnm, DistGraph};
use kmp_mpi::{fault, Comm, Config, FaultPlan, MpiError, RankOutcome, Universe};

/// CI-safe ceilings: a correct wake is microseconds and a recovery a
/// few milliseconds, but an oversubscribed container can preempt a
/// survivor for a scheduler quantum between the mark and its wake.
const DETECTION_CEILING_US: f64 = 250_000.0;
const RECOVERY_CEILING_MS: f64 = 10_000.0;

/// One detection rep: survivors park on the victim, the victim marks
/// and crashes, the slowest survivor's wake delta comes back in µs.
fn detection_rep(p: usize) -> f64 {
    let t0 = Instant::now();
    let mark = AtomicU64::new(0);
    let victim = p - 1;
    let out = Universe::run_with(Config::new(p), |comm: Comm| {
        if comm.rank() == victim {
            // Give the survivors time to actually park (a non-parked
            // survivor would measure the fast path instead).
            std::thread::sleep(std::time::Duration::from_millis(2));
            mark.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            comm.fail_here();
        }
        let err = comm.recv_vec::<u8>(victim, 9).unwrap_err();
        let woke = t0.elapsed().as_nanos() as u64;
        assert!(
            matches!(err, MpiError::ProcessFailed { .. }),
            "survivor woke with the wrong error: {err:?}"
        );
        woke
    });
    let marked = mark.load(Ordering::SeqCst);
    assert!(marked > 0, "victim never marked");
    let mut slowest = 0u64;
    for (rank, o) in out.into_iter().enumerate() {
        match o {
            RankOutcome::Failed => assert_eq!(rank, victim),
            RankOutcome::Completed(woke) => slowest = slowest.max(woke),
            RankOutcome::Panicked(m) => panic!("rank {rank} panicked: {m}"),
        }
    }
    slowest.saturating_sub(marked) as f64 / 1e3
}

fn detection(p: usize, reps: usize) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..reps).map(|_| detection_rep(p)).collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], samples[samples.len() - 1])
}

/// The ft_bfs scenario: crash at level 2, shrink-and-continue, verify
/// against the survivors' sequential oracle. Returns
/// `(recovery_ms, total_ms)`.
fn ft_bfs(p: usize, vertices: usize, edges: usize, seed: u64) -> (f64, f64) {
    let t0 = Instant::now();
    let crash = AtomicU64::new(0);
    let parts_after: Vec<DistGraph> = (0..p - 1)
        .map(|r| gnm(vertices, edges, seed, r, p - 1))
        .collect();
    let reference = bfs_sequential(&parts_after, 0);
    let out = Universe::run_with(Config::new(p), |comm: Comm| {
        let (dist, active) = bfs_ft(
            comm,
            0,
            |rank, size| gnm(vertices, edges, seed, rank, size),
            |level, c| {
                if level == 2 && c.size() == p && c.rank() == p - 1 {
                    crash.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    c.fail_here();
                }
            },
        )
        .expect("survivors recover");
        (
            t0.elapsed().as_nanos() as u64,
            dist,
            active.rank(),
            active.size(),
        )
    });
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let crashed_at = crash.load(Ordering::SeqCst);
    assert!(crashed_at > 0, "the planned crash never fired");
    let mut got = vec![UNDEF; reference.len()];
    let mut slowest = 0u64;
    for (world_rank, o) in out.into_iter().enumerate() {
        match o {
            RankOutcome::Failed => assert_eq!(world_rank, p - 1),
            RankOutcome::Completed((finished, dist, new_rank, new_size)) => {
                assert_eq!(new_size, p - 1, "survivor {world_rank}");
                slowest = slowest.max(finished);
                let lo = parts_after[new_rank].vertex_ranges[new_rank];
                got[lo..lo + dist.len()].copy_from_slice(&dist);
            }
            RankOutcome::Panicked(m) => panic!("rank {world_rank} panicked: {m}"),
        }
    }
    assert_eq!(got, reference, "survivors diverged from the oracle");
    let recovery_ms = slowest.saturating_sub(crashed_at) as f64 / 1e6;
    (recovery_ms, total_ms)
}

/// Messages per rep per rank in the hook-overhead ring.
const RING_MSGS: usize = 48;
/// Payload sized so per-message copy work dominates and the hook cost
/// is measured against a realistic per-message bill (the `trace`
/// bench's reasoning).
const RING_PAYLOAD: usize = 128 * 1024;

/// A/B hook overhead on the p2p ring: one universe under an inert
/// plan, reps alternating the runtime toggle, per-rank thread-CPU
/// paired differencing. Returns summed CPU seconds `(disabled,
/// enabled)`.
fn hook_overhead(p: usize, reps: usize) -> (f64, f64) {
    // Inert: every rank armed, no arm can ever fire — enabled hooks do
    // their full counter-and-scan work on every injection point.
    let mut plan = FaultPlan::new();
    for r in 0..p {
        plan = plan.crash(r, u64::MAX);
    }
    let out = Universe::run_with(Config::new(p).faults(plan), |comm: Comm| {
        let p = comm.size();
        let me = comm.rank();
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        let data = vec![me as u8; RING_PAYLOAD];
        let mut cpu = (Vec::new(), Vec::new()); // (disabled, enabled)
        for rep in 0..2 * (reps + 1) {
            // Alternate which half of a pair runs enabled so a monotone
            // CPU-speed drift cancels in the median pair-delta.
            let enabled = (rep % 2 == 1) ^ ((rep / 2) % 2 == 1);
            fault::set_enabled(enabled);
            comm.barrier().unwrap();
            let c0 = kmp_mpi::sys::thread_cpu_ns();
            let mut sink = 0u64;
            for m in 0..RING_MSGS {
                comm.send(&data, next, m as i32).unwrap();
                let (buf, _) = comm.recv_vec::<u8>(prev, m as i32).unwrap();
                sink = sink.wrapping_add(buf.iter().map(|&x| x as u64).sum::<u64>());
            }
            std::hint::black_box(sink);
            comm.barrier().unwrap();
            let spent = kmp_mpi::sys::thread_cpu_ns().saturating_sub(c0);
            if rep >= 2 {
                if enabled {
                    cpu.1.push(spent);
                } else {
                    cpu.0.push(spent);
                }
            }
        }
        fault::set_enabled(true);
        cpu
    });
    let per_rank: Vec<(Vec<u64>, Vec<u64>)> = out
        .into_iter()
        .map(|o| match o {
            RankOutcome::Completed(c) => c,
            o => panic!("hook-overhead rank did not complete: {o:?}"),
        })
        .collect();
    // Per-rank median pair-delta (robust to a preempted rep), summed
    // across ranks; the baseline is the summed per-rank median
    // disabled time.
    let mut delta = 0.0;
    let mut base = 0.0;
    for (dis, en) in &per_rank {
        let mut d: Vec<i64> = dis
            .iter()
            .zip(en)
            .map(|(&a, &b)| b as i64 - a as i64)
            .collect();
        d.sort_unstable();
        delta += d[d.len() / 2] as f64;
        let mut b0 = dis.clone();
        b0.sort_unstable();
        base += b0[b0.len() / 2] as f64;
    }
    (base / 1e9, (base + delta) / 1e9)
}

fn main() {
    let args = BenchArgs::parse("BENCH_fault.json");
    let smoke = args.smoke;
    let baseline = args.baseline.clone();

    let (p, det_reps, ab_reps, vertices, edges) = if smoke {
        (4usize, 7usize, 8usize, 200usize, 800usize)
    } else {
        (8usize, 15usize, 24usize, 600usize, 2400usize)
    };
    // The hook-overhead bound: ~0 means "inside paired-differencing
    // noise". The full run commits to the trace bench's 2%; smoke keeps
    // a looser bound for CI containers.
    let overhead_bound_pct = if smoke { 10.0 } else { 2.0 };

    let mut rows: Vec<String> = Vec::new();

    // --- detection latency ----------------------------------------------
    let (median_us, worst_us) = detection(p, det_reps);
    println!(
        "detection   p={p}: slowest-survivor wake, median {median_us:.1} us, worst {worst_us:.1} us"
    );
    rows.push(format!(
        "    {{\"scenario\": \"detection\", \"ranks\": {p}, \"reps\": {det_reps}, \
         \"median_max_wake_us\": {median_us:.1}, \"worst_max_wake_us\": {worst_us:.1}}}"
    ));
    assert!(
        median_us < DETECTION_CEILING_US,
        "failure-detection latency blew the ceiling: median slowest-survivor \
         wake {median_us:.1} us >= {DETECTION_CEILING_US} us"
    );

    // --- fault-tolerant BFS recovery -------------------------------------
    let (recovery_ms, total_ms) = ft_bfs(p, vertices, edges, 17);
    println!(
        "ft_bfs      p={p}: crash at level 2, recovery {recovery_ms:.2} ms, total {total_ms:.2} ms"
    );
    rows.push(format!(
        "    {{\"scenario\": \"ft_bfs\", \"ranks\": {p}, \"vertices\": {vertices}, \
         \"edges\": {edges}, \"recovery_ms\": {recovery_ms:.2}, \"total_ms\": {total_ms:.2}, \
         \"correct\": true}}"
    ));
    assert!(
        recovery_ms < RECOVERY_CEILING_MS,
        "shrink-and-continue recovery blew the ceiling: {recovery_ms:.2} ms"
    );

    // --- hook overhead ----------------------------------------------------
    let (disabled_s, enabled_s) = hook_overhead(p.min(4), ab_reps);
    let overhead_pct = (enabled_s - disabled_s) / disabled_s * 100.0;
    println!(
        "hook_overhead p={}: disabled {:.3} ms, enabled {:.3} ms CPU -> {overhead_pct:+.2}%",
        p.min(4),
        disabled_s * 1e3,
        enabled_s * 1e3
    );
    rows.push(format!(
        "    {{\"scenario\": \"hook_overhead\", \"ranks\": {}, \"reps\": {ab_reps}, \
         \"disabled_cpu_ms\": {:.3}, \"enabled_cpu_ms\": {:.3}, \"overhead_pct\": {overhead_pct:.2}}}",
        p.min(4),
        disabled_s * 1e3,
        enabled_s * 1e3
    ));
    assert!(
        overhead_pct <= overhead_bound_pct,
        "fault hooks cost {overhead_pct:.2}% CPU on the hook-dense ring \
         (bound {overhead_bound_pct}%)"
    );

    write_json(&args.out, "fault", args.mode(), &[], &rows);

    if let Some(baseline) = baseline {
        // The committed BENCH_fault.json must be self-asserting: a
        // full-run baseline has to satisfy the full-run bounds whatever
        // mode this process ran in.
        for line in baseline_lines(&baseline, "scenario") {
            match json_field(line, "scenario").as_deref() {
                Some("detection") => {
                    let med: f64 = json_field(line, "median_max_wake_us")
                        .and_then(|v| v.parse().ok())
                        .expect("detection row median");
                    assert!(
                        med < DETECTION_CEILING_US,
                        "committed detection median {med} us blew the ceiling"
                    );
                }
                Some("ft_bfs") => {
                    assert_eq!(
                        json_field(line, "correct").as_deref(),
                        Some("true"),
                        "committed ft_bfs row is not marked correct"
                    );
                    let rec: f64 = json_field(line, "recovery_ms")
                        .and_then(|v| v.parse().ok())
                        .expect("ft_bfs row recovery");
                    assert!(
                        rec < RECOVERY_CEILING_MS,
                        "committed ft_bfs recovery {rec} ms blew the ceiling"
                    );
                }
                Some("hook_overhead") => {
                    let pct: f64 = json_field(line, "overhead_pct")
                        .and_then(|v| v.parse().ok())
                        .expect("hook_overhead row pct");
                    assert!(
                        pct <= 2.0,
                        "committed hook overhead {pct}% exceeds the 2% bound"
                    );
                }
                _ => {}
            }
        }
        println!("baseline check passed (committed rows satisfy the full-run bounds)");
    }
}
