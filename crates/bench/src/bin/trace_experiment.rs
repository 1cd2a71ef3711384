//! Tracing-overhead self-check + Perfetto trace generation (requires
//! `--features trace`).
//!
//! Part 1 — **overhead**: the tentpole's zero-overhead claim, measured
//! on the two workloads the instrumentation touches hardest, through
//! the *full* Universe stack (threads, matching engine, completion
//! subsystem), with the trace recorder toggled at runtime
//! ([`trace::set_enabled`]) so enabled and disabled runs share one
//! binary, one build, one machine moment:
//!
//! - **matching_many_senders** — ranks 1..p flood rank 0 with fat
//!   payloads; rank 0 drains with specific `(source, tag)` receives.
//!   Every message crosses the send span, the UMQ enqueue instant, the
//!   match instant and the recv span.
//! - **completion_wait_any_fanin** — rank 0 posts every receive of the
//!   run upfront in one standing [`RequestSet`] and drains it via
//!   `wait_any`: the wait/park span pair plus targeted-wakeup and
//!   claim instants on every completion.
//!
//! Runs are interleaved (disabled, enabled, disabled, ...) and reduced
//! by paired differencing — per rank, the median enabled-minus-disabled
//! delta over adjacent pairs — the estimator least sensitive to CPU
//! speed drift and scheduler noise on an oversubscribed host. The
//! full run asserts **< 2%** enabled-vs-disabled overhead per workload
//! (the PR's acceptance bound); `--smoke` keeps a looser noise bound
//! for CI containers, where `--check PATH` additionally asserts the
//! *committed* full-run rows satisfy the 2% bound — the committed
//! `BENCH_trace.json` stays self-asserting on every CI run.
//!
//! Part 2 — **export**: a p = 8 BFS (GNM graph, kamping dense
//! exchange) runs under [`Universe::run_report`](kmp_mpi::Universe::run_report); the collected
//! [`TraceData`](kmp_mpi::TraceData) is exported as Chrome trace-event JSON, validated
//! against the exporter schema (`validate_chrome`), and written next to
//! the stats JSON (`--trace-out`, default `trace_bfs_p8.json`) — load
//! it in Perfetto / `chrome://tracing` to see the run as a timeline.
//!
//! Usage: `trace_experiment [--smoke] [--out PATH] [--check PATH]
//! [--trace-out PATH]`; writes `BENCH_trace.json` + `trace_bfs_p8.json`.

use kmp_apps::bfs::{bfs_with_exchange, Exchange};
use kmp_bench::harness::{baseline_lines, json_field, write_json, BenchArgs};
use kmp_graphgen::{gnm, DistGraph};
use kmp_mpi::trace;
use kmp_mpi::{RequestSet, Universe};

// Fat payloads: the recorder's per-message cost is fixed (~6-10 events,
// measured at 35-56 ns each by `calibrate_event_costs`), so the bound
// is expressed against a transfer whose copy + consume cost dominates —
// the regime the <2% claim targets. On a single-core host every traced
// nanosecond of every thread lands on the summed-CPU metric, making
// this the *conservative* setting: any multi-core host hides more of
// the cost.
const PAYLOAD: usize = 512 * 1024;

// Senders may run at most WINDOW messages ahead of the consumer before
// blocking on an ack. Unbounded floods let the unexpected queue grow
// into the hundreds of buffered payloads, and *how deep* it gets is
// scheduler roulette — the depth decides allocator footprint and cache
// behaviour, a rep-to-rep swing far larger than the recorder's cost.
const WINDOW: usize = 8;

/// Drives `exchange` for `2 * (reps + 1)` barrier-synced repetitions
/// inside ONE universe (rank threads, rings and allocator stay warm
/// across reps), alternating the recorder state per rep — enabled and
/// disabled interleave so a load spike hits both equally. The first
/// pair is warm-up. Returns **summed thread-CPU seconds across all
/// ranks** as (disabled, enabled), reduced by paired differencing (see
/// the comment at the bottom).
///
/// CPU time is the honest metric for the overhead bound: recording an
/// event *is* CPU work, and summed CPU captures every traced
/// nanosecond on every rank — whereas wall clock on an oversubscribed
/// single-core host is dominated by which context-switch pattern the
/// scheduler happens to settle into (2x swings rep to rep, far above
/// the effect being measured). On a real multi-core machine the wall
/// impact is at most the CPU impact, so the CPU bound is conservative.
///
/// The A/B toggle is the whole point of the runtime `set_enabled`
/// switch: one binary, one build, the same warmed threads — the only
/// difference between the two measurements is the recorder.
fn ab_measure(
    p: usize,
    reps: usize,
    exchange: impl Fn(&kmp_mpi::Comm, usize) + Sync,
) -> (f64, f64) {
    let per_rank: Vec<(Vec<u64>, Vec<u64>)> = Universe::run(p, |comm| {
        let mut cpu = (Vec::new(), Vec::new()); // (disabled, enabled) per pair
        for rep in 0..2 * (reps + 1) {
            // Alternate which half of a pair runs enabled: a monotone
            // drift in CPU speed across the run then biases half the
            // pair-deltas up and the other half down, and the median
            // cancels it to first order.
            let enabled = (rep % 2 == 1) ^ ((rep / 2) % 2 == 1);
            trace::set_enabled(enabled);
            comm.barrier().unwrap();
            let c0 = kmp_mpi::sys::thread_cpu_ns();
            exchange(&comm, rep);
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
        trace::set_enabled(true);
        cpu
    });
    // Paired differencing: rep 2i (disabled) and 2i+1 (enabled) run
    // back-to-back, so the slow drift in effective CPU speed on a
    // shared host (throttling inflates CPU-seconds for identical work,
    // by tens of percent across seconds) hits both halves of a pair
    // nearly equally and cancels in the difference. Per rank we take
    // the *median* pair-delta — robust to a rep polluted by preemption
    // — and sum across ranks; the baseline is the summed per-rank
    // median disabled time.
    if std::env::var_os("KMP_TRACE_BENCH_DEBUG").is_some() {
        let n = per_rank[0].0.len();
        let sums: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                (
                    per_rank.iter().map(|r| r.0[i]).sum::<u64>(),
                    per_rank.iter().map(|r| r.1[i]).sum::<u64>(),
                )
            })
            .collect();
        for (i, (d, e)) in sums.iter().enumerate() {
            eprintln!(
                "  pair {i:2}: disabled {:9.3} ms  enabled {:9.3} ms  delta {:+8.3} ms ({:+.2}%)",
                *d as f64 / 1e6,
                *e as f64 / 1e6,
                (*e as f64 - *d as f64) / 1e6,
                (*e as f64 - *d as f64) / *d as f64 * 100.0
            );
        }
    }
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

/// Ranks 1..p each send `per_sender` payloads to rank 0; rank 0 drains
/// with specific (source, tag) receives, round-robin over the senders —
/// every message crosses the send/recv spans and the matching instants.
/// Senders pause for an ack every [`WINDOW`] messages, bounding the
/// unexpected-queue depth (see the constant's comment).
fn matching_many_senders(p: usize, per_sender: usize, reps: usize) -> (f64, f64) {
    const ACK_TAG: i32 = 2_000_000;
    assert_eq!(
        per_sender % WINDOW,
        0,
        "per_sender must be a WINDOW multiple"
    );
    ab_measure(p, reps, |comm, _| {
        if comm.rank() == 0 {
            let mut buf = vec![0u8; PAYLOAD];
            let mut sink = 0u64;
            for m in 0..per_sender {
                for s in 1..comm.size() {
                    comm.recv_into(&mut buf, s, 7).unwrap();
                    // Consume the payload the way an application would
                    // — the baseline is real per-message work.
                    sink = sink.wrapping_add(buf.iter().map(|&x| x as u64).sum::<u64>());
                }
                if m % WINDOW == WINDOW - 1 {
                    for s in 1..comm.size() {
                        comm.send(&[1u8], s, ACK_TAG).unwrap();
                    }
                }
            }
            std::hint::black_box(sink);
        } else {
            let data = vec![comm.rank() as u8; PAYLOAD];
            let mut ack = [0u8; 1];
            for m in 0..per_sender {
                comm.send(&data, 0, 7).unwrap();
                if m % WINDOW == WINDOW - 1 {
                    comm.recv_into(&mut ack, 0, ACK_TAG).unwrap();
                }
            }
        }
    })
}

/// Rank 0 posts rounds x (p-1) receives upfront in one standing set and
/// drains them via `wait_any` while ranks 1..p stream their payloads —
/// the wait/park spans plus wakeup and claim instants per completion.
/// Rank 0 consumes every payload (checksum) and releases the senders'
/// next [`WINDOW`] rounds by ack once a window fully drains: without
/// flow control the scheduler drifts between "senders batch far ahead"
/// (waiter never parks) and "ping-pong" (waiter parks every message) —
/// a 2x work difference that would bury the recorder's cost.
fn completion_wait_any_fanin(p: usize, rounds: usize, reps: usize) -> (f64, f64) {
    const ACK_TAG: i32 = 1_000_000;
    assert_eq!(rounds % WINDOW, 0, "rounds must be a WINDOW multiple");
    ab_measure(p, reps, |comm, rep| {
        // Per-rep tag block: a straggler's sends can never match a
        // later rep's receives.
        let tag_base = (rep * rounds) as i32;
        if comm.rank() == 0 {
            let mut set = RequestSet::new();
            for round in 0..rounds {
                for peer in 1..comm.size() {
                    set.push(comm.irecv(peer, tag_base + round as i32));
                }
            }
            let mut round_left = vec![comm.size() - 1; rounds];
            let mut done_through = 0; // rounds [0, done_through) fully drained
            let mut sink = 0u64;
            while !set.is_empty() {
                let (_, c) = set.wait_any().unwrap().expect("set non-empty");
                let (b, st) = c
                    .into_bytes()
                    .expect("receive completion carries a payload");
                // Consume the payload the way an application would —
                // the baseline should be real per-message work, not a
                // zero-copy pointer handoff.
                sink = sink.wrapping_add(b.iter().map(|&x| x as u64).sum::<u64>());
                round_left[(st.tag - tag_base) as usize] -= 1;
                // Release the senders' next window once every round in
                // the current window has fully drained.
                while done_through < rounds && round_left[done_through] == 0 {
                    done_through += 1;
                    if done_through % WINDOW == 0 {
                        for peer in 1..comm.size() {
                            comm.send(&[1u8], peer, ACK_TAG).unwrap();
                        }
                    }
                }
            }
            std::hint::black_box(sink);
        } else {
            let data = vec![comm.rank() as u8; PAYLOAD];
            let mut ack = [0u8; 1];
            for round in 0..rounds {
                comm.send(&data, 0, tag_base + round as i32).unwrap();
                if round % WINDOW == WINDOW - 1 {
                    comm.recv_into(&mut ack, 0, ACK_TAG).unwrap();
                }
            }
        }
    })
}

struct Row {
    workload: &'static str,
    ranks: usize,
    messages: usize,
    disabled_cpu_ms: f64,
    enabled_cpu_ms: f64,
    overhead_pct: f64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "    {{\"workload\": \"{}\", \"ranks\": {}, \"messages\": {}, \
             \"disabled_cpu_ms\": {:.3}, \"enabled_cpu_ms\": {:.3}, \"overhead_pct\": {:.2}}}",
            self.workload,
            self.ranks,
            self.messages,
            self.disabled_cpu_ms,
            self.enabled_cpu_ms,
            self.overhead_pct
        )
    }
}

fn row(workload: &'static str, p: usize, messages: usize, (off, on): (f64, f64)) -> Row {
    Row {
        workload,
        ranks: p,
        messages,
        disabled_cpu_ms: off * 1e3,
        enabled_cpu_ms: on * 1e3,
        overhead_pct: (on - off) / off * 100.0,
    }
}

/// Generates and validates the Chrome trace of a p-rank BFS run;
/// returns the JSON plus (spans, instants) from the schema validator.
fn bfs_trace(p: usize) -> (String, usize, usize) {
    let n = 512 * p;
    let parts: Vec<DistGraph> = (0..p).map(|r| gnm(n, 8 * n, 7, r, p)).collect();
    let parts = &parts;
    let (outcomes, report) = Universe::run_report(kmp_mpi::Config::new(p), move |comm| {
        let kc = kamping::Communicator::new(comm);
        bfs_with_exchange(&parts[kc.rank()], 0, &kc, Exchange::Kamping).unwrap()
    });
    for (rank, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o, kmp_mpi::RankOutcome::Completed(_)),
            "BFS rank {rank} did not complete"
        );
    }
    let json = report.trace.to_chrome_json();
    let summary = kmp_mpi::trace::export::validate_chrome(&json)
        .unwrap_or_else(|e| panic!("exported BFS trace failed schema validation: {e}"));
    assert_eq!(
        summary.pids.len(),
        p,
        "expected one Chrome pid per rank, got {:?}",
        summary.pids
    );
    assert!(summary.spans > 0, "BFS trace recorded no spans");
    println!("{}", report.trace.report());
    (json, summary.spans, summary.instants)
}

fn overhead(rows: &[Row], workload: &str) -> f64 {
    rows.iter()
        .find(|r| r.workload == workload)
        .unwrap_or_else(|| panic!("missing row {workload}"))
        .overhead_pct
}

fn main() {
    // `required-features = ["trace"]` guarantees this at build time.
    const { assert!(trace::COMPILED) };
    let args = BenchArgs::parse("BENCH_trace.json");
    let flag = |name: &str| -> Option<String> {
        let a: Vec<String> = std::env::args().collect();
        a.iter()
            .position(|x| x == name)
            .and_then(|i| a.get(i + 1).cloned())
    };
    let trace_out = flag("--trace-out").unwrap_or_else(|| "trace_bfs_p8.json".to_string());

    // Steady-state profiling ring: big enough to hold every event of a
    // measurement rep, small enough (1<<14 events, ~0.9 MiB/thread)
    // that the enabled-mode working set doesn't evict the workload's
    // own cache lines — ring sizing is part of the zero-overhead story.
    trace::set_ring_capacity(1 << 14);

    let p = 8;
    // Many short reps beat few long ones here: per-pair noise is a
    // tight core plus sparse preemption spikes, and the median over
    // ~60 small pairs ignores the spikes entirely.
    let (per_sender, rounds, reps) = if args.smoke {
        (24, 24, 9)
    } else {
        (48, 48, 61)
    };

    let rows = vec![
        row(
            "matching_many_senders",
            p,
            (p - 1) * per_sender,
            matching_many_senders(p, per_sender, reps),
        ),
        row(
            "completion_wait_any_fanin",
            p,
            (p - 1) * rounds,
            completion_wait_any_fanin(p, rounds, reps),
        ),
    ];

    println!(
        "{:<28} {:>3} {:>9} {:>15} {:>15} {:>9}",
        "workload", "p", "messages", "disabled cpu ms", "enabled cpu ms", "overhead"
    );
    for r in &rows {
        println!(
            "{:<28} {:>3} {:>9} {:>15.2} {:>15.2} {:>8.2}%",
            r.workload, r.ranks, r.messages, r.disabled_cpu_ms, r.enabled_cpu_ms, r.overhead_pct
        );
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    write_json(
        &args.out,
        "trace",
        args.mode(),
        &[("payload_bytes", PAYLOAD.to_string())],
        &body,
    );

    // --- acceptance: the zero-overhead claim, pinned -------------------

    // Full runs pin the PR's bound; smoke runs on a CI container keep a
    // noise allowance (single-core hosts can swing short runs by more
    // than the effect being measured) — the committed full-run rows are
    // re-asserted below under `--check`, so the 2% bound is still
    // enforced on every CI run.
    let bound = if args.smoke { 10.0 } else { 2.0 };
    for r in &rows {
        assert!(
            r.overhead_pct < bound,
            "{}: trace-enabled overhead {:.2}% exceeds the {bound}% bound \
             (disabled {:.2} cpu-ms, enabled {:.2} cpu-ms)",
            r.workload,
            r.overhead_pct,
            r.disabled_cpu_ms,
            r.enabled_cpu_ms
        );
    }
    println!("overhead bound holds: < {bound}% on both workloads");

    if let Some(baseline) = args.baseline.as_deref() {
        // The committed JSON must be a full run and must satisfy the
        // real acceptance bound — this is what makes the committed
        // artifact self-asserting.
        assert!(
            json_field(baseline, "mode").as_deref() == Some("full"),
            "--check: committed BENCH_trace.json must come from a full run"
        );
        let mut checked = 0;
        for line in baseline_lines(baseline, "workload") {
            let w = json_field(line, "workload").expect("baseline row without workload");
            let pct: f64 = json_field(line, "overhead_pct")
                .and_then(|v| v.parse().ok())
                .expect("baseline row without overhead_pct");
            assert!(
                pct < 2.0,
                "committed baseline row {w}: overhead {pct:.2}% violates the 2% bound"
            );
            // The workload must still exist in this binary.
            let _ = overhead(&rows, &w);
            checked += 1;
        }
        assert!(checked >= 2, "committed baseline has fewer than 2 rows");
        println!("baseline check passed ({checked} committed rows < 2% overhead)");
    }

    // --- Perfetto export of a whole BFS run ----------------------------

    let (json, spans, instants) = bfs_trace(p);
    std::fs::write(&trace_out, &json).unwrap_or_else(|e| panic!("write {trace_out}: {e}"));
    println!(
        "wrote {trace_out} ({spans} spans, {instants} instants, {} bytes) — \
         open in https://ui.perfetto.dev or chrome://tracing",
        json.len()
    );
}
