//! Message-matching microbenchmark: the two-queue engine
//! (`kmp_mpi::mailbox::Mailbox`) against the seed's linear-scan matcher
//! (`kmp_mpi::mailbox::reference::ScanMailbox`) on the transport's
//! worst-case matching patterns:
//!
//! - **many_senders_one_receiver** — p-1 producer threads flood one
//!   mailbox while the receiver drains with *specific* `(source, tag)`
//!   receives in round-robin order. The backlog of not-yet-wanted
//!   messages makes every linear scan O(queue depth); the engine's
//!   `(source, tag)` index pops in O(1).
//! - **wildcard_heavy** — same flood, drained by alternating wildcard
//!   (`ANY/ANY`) and specific receives: wildcards scan per-key FIFO
//!   heads in the engine, the whole queue in the baseline.
//! - **alltoall_storm** — p mailboxes, p threads; every round each
//!   thread sends one message to every peer, then receives p-1 with
//!   specific selectors. Senders running ahead pile later rounds into
//!   the queues, the pattern every collective round produces.
//!
//! Each scenario runs both implementations at p in {4, 8, 16} and
//! reports message rate and per-message latency. The binary enforces
//! the PR's acceptance bound (the engine must beat the baseline by at
//! least 2x message rate in many_senders_one_receiver at p = 8), and
//! with `--check PATH` additionally asserts the engine rows are not
//! slower than a committed baseline JSON (with generous tolerance for
//! machine-to-machine variance).
//!
//! Usage: `matching_experiment [--smoke] [--out PATH] [--check PATH]`;
//! writes `BENCH_matching.json`.

use std::sync::Arc;

use bytes::Bytes;
use kmp_bench::harness::{baseline_lines, json_field, write_json, BenchArgs};
use kmp_mpi::error::{MpiError, Result};
use kmp_mpi::mailbox::{reference::ScanMailbox, Mailbox};
use kmp_mpi::message::{Envelope, Src, Status, TagSel};

/// The matching surface both implementations expose; the scenarios are
/// generic over it so engine and baseline run byte-identical workloads.
trait MatchQueue: Default + Sync + Send + 'static {
    const NAME: &'static str;
    fn push(&self, env: Envelope);
    fn wait_match(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        interrupted: impl FnMut() -> Option<MpiError>,
    ) -> Result<Envelope>;
    fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status>;
}

impl MatchQueue for Mailbox {
    const NAME: &'static str = "engine";
    fn push(&self, env: Envelope) {
        Mailbox::push(self, env)
    }
    fn wait_match(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        interrupted: impl FnMut() -> Option<MpiError>,
    ) -> Result<Envelope> {
        Mailbox::wait_match(self, context, src, tag, interrupted)
    }
    fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status> {
        Mailbox::try_peek(self, context, src, tag)
    }
}

impl MatchQueue for ScanMailbox {
    const NAME: &'static str = "legacy_scan";
    fn push(&self, env: Envelope) {
        ScanMailbox::push(self, env)
    }
    fn wait_match(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        interrupted: impl FnMut() -> Option<MpiError>,
    ) -> Result<Envelope> {
        ScanMailbox::wait_match(self, context, src, tag, interrupted)
    }
    fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status> {
        ScanMailbox::try_peek(self, context, src, tag)
    }
}

fn env(src: usize, context: u64, tag: i32, payload: &Bytes) -> Envelope {
    Envelope {
        src,
        src_world: src,
        context,
        tag,
        payload: payload.clone(), // refcount clone: the bench measures matching, not memcpy
        more: None,
        arrival_ns: 0,
        ack: None,
    }
}

/// p-1 senders flood one receiver; the receiver drains with specific
/// (source, tag) receives, round-robin over the senders. Returns total
/// messages and elapsed seconds.
fn many_senders_one_receiver<Q: MatchQueue>(p: usize, per_sender: usize) -> (usize, f64) {
    let mb = Arc::new(Q::default());
    let payload = Bytes::from(vec![7u8; 64]);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for s in 1..p {
            let mb = Arc::clone(&mb);
            let payload = payload.clone();
            scope.spawn(move || {
                for _ in 0..per_sender {
                    mb.push(env(s, 0, 100 + s as i32, &payload));
                }
            });
        }
        for _ in 0..per_sender {
            for s in 1..p {
                mb.wait_match(0, Src::Rank(s), TagSel::Is(100 + s as i32), || None)
                    .unwrap();
            }
        }
    });
    ((p - 1) * per_sender, start.elapsed().as_secs_f64())
}

/// Same flood, drained by interleaving ANY/ANY wildcard receives with
/// specific receives (plus an occasional probe, the iprobe pattern).
/// Senders alternate two traffic classes: user-tagged messages for the
/// wildcards, and negative-tagged ("internal protocol") messages the
/// wildcards cannot see — so a wildcard can never steal a message a
/// specific receive is counting on, the same reason the transport keeps
/// collective traffic on negative tags.
fn wildcard_heavy<Q: MatchQueue>(p: usize, per_sender: usize) -> (usize, f64) {
    let per_sender = per_sender & !1; // even: half per traffic class
    let mb = Arc::new(Q::default());
    let payload = Bytes::from(vec![7u8; 64]);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for s in 1..p {
            let mb = Arc::clone(&mb);
            let payload = payload.clone();
            scope.spawn(move || {
                for i in 0..per_sender {
                    let tag = if i % 2 == 0 {
                        100 + s as i32
                    } else {
                        -(100 + s as i32)
                    };
                    mb.push(env(s, 0, tag, &payload));
                }
            });
        }
        for round in 0..per_sender / 2 {
            for _ in 1..p {
                mb.wait_match(0, Src::Any, TagSel::Any, || None).unwrap();
            }
            for s in 1..p {
                if round % 8 == 0 {
                    let _ = mb.try_peek(0, Src::Rank(s), TagSel::Any);
                }
                mb.wait_match(0, Src::Rank(s), TagSel::Is(-(100 + s as i32)), || None)
                    .unwrap();
            }
        }
    });
    ((p - 1) * per_sender, start.elapsed().as_secs_f64())
}

/// p mailboxes, p threads: every round each thread posts one message to
/// every peer, then drains its own mailbox with specific receives —
/// the traffic shape of a round-based collective, with senders running
/// ahead piling future rounds into the queues.
fn alltoall_storm<Q: MatchQueue>(p: usize, rounds: usize) -> (usize, f64) {
    let mbs: Arc<Vec<Q>> = Arc::new((0..p).map(|_| Q::default()).collect());
    let payload = Bytes::from(vec![7u8; 64]);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for rank in 0..p {
            let mbs = Arc::clone(&mbs);
            let payload = payload.clone();
            scope.spawn(move || {
                for round in 0..rounds {
                    let tag = round as i32;
                    for peer in 0..p {
                        if peer != rank {
                            mbs[peer].push(env(rank, 0, tag, &payload));
                        }
                    }
                    for peer in 0..p {
                        if peer != rank {
                            mbs[rank]
                                .wait_match(0, Src::Rank(peer), TagSel::Is(tag), || None)
                                .unwrap();
                        }
                    }
                }
            });
        }
    });
    (p * (p - 1) * rounds, start.elapsed().as_secs_f64())
}

#[derive(Clone, Debug)]
struct Row {
    scenario: &'static str,
    implementation: &'static str,
    ranks: usize,
    messages: usize,
    elapsed_ms: f64,
    msgs_per_sec: f64,
    ns_per_msg: f64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "    {{\"scenario\": \"{}\", \"impl\": \"{}\", \"ranks\": {}, \
             \"messages\": {}, \"elapsed_ms\": {:.3}, \"msgs_per_sec\": {:.0}, \
             \"ns_per_msg\": {:.1}}}",
            self.scenario,
            self.implementation,
            self.ranks,
            self.messages,
            self.elapsed_ms,
            self.msgs_per_sec,
            self.ns_per_msg
        )
    }
}

const SCENARIOS: [&str; 3] = [
    "many_senders_one_receiver",
    "wildcard_heavy",
    "alltoall_storm",
];

/// The scenario's workload instantiated for `Q` — the single place the
/// implementation is chosen, so a row's label can never disagree with
/// the code that produced its numbers.
fn scenario_fn<Q: MatchQueue>(scenario: &str) -> fn(usize, usize) -> (usize, f64) {
    match scenario {
        "many_senders_one_receiver" => many_senders_one_receiver::<Q>,
        "wildcard_heavy" => wildcard_heavy::<Q>,
        "alltoall_storm" => alltoall_storm::<Q>,
        other => panic!("unknown scenario {other}"),
    }
}

fn run_scenario<Q: MatchQueue>(
    scenario: &'static str,
    p: usize,
    work: usize,
    reps: usize,
    rows: &mut Vec<Row>,
) {
    let f = scenario_fn::<Q>(scenario);
    // Warm-up once, then keep the best of `reps` (the bench measures
    // the matching structure, not scheduler noise).
    let _ = f(p, work);
    let mut best: Option<(usize, f64)> = None;
    for _ in 0..reps {
        let (messages, secs) = f(p, work);
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((messages, secs));
        }
    }
    let (messages, secs) = best.unwrap();
    rows.push(Row {
        scenario,
        implementation: Q::NAME,
        ranks: p,
        messages,
        elapsed_ms: secs * 1e3,
        msgs_per_sec: messages as f64 / secs,
        ns_per_msg: secs * 1e9 / messages as f64,
    });
}

fn rate(rows: &[Row], scenario: &str, implementation: &str, p: usize) -> f64 {
    rows.iter()
        .find(|r| r.scenario == scenario && r.implementation == implementation && r.ranks == p)
        .unwrap_or_else(|| panic!("missing row {scenario}/{implementation}/p{p}"))
        .msgs_per_sec
}

/// Typed rows from a committed baseline, via the shared line-based
/// extraction (`kmp_bench::harness`).
fn baseline_rates(json: &str) -> Vec<(String, String, usize, f64)> {
    baseline_lines(json, "scenario")
        .into_iter()
        .filter_map(|l| {
            Some((
                json_field(l, "scenario")?,
                json_field(l, "impl")?,
                json_field(l, "ranks")?.parse().ok()?,
                json_field(l, "msgs_per_sec")?.parse().ok()?,
            ))
        })
        .collect()
}

fn main() {
    let args = BenchArgs::parse("BENCH_matching.json");
    let smoke = args.smoke;
    let baseline = args.baseline.as_deref().map(baseline_rates);

    let ps = [4usize, 8, 16];
    let (per_sender, storm_rounds, reps) = if smoke { (600, 150, 3) } else { (2000, 400, 5) };

    let mut rows: Vec<Row> = Vec::new();
    for &p in &ps {
        for scenario in SCENARIOS {
            let work = if scenario == "alltoall_storm" {
                storm_rounds
            } else {
                per_sender
            };
            run_scenario::<Mailbox>(scenario, p, work, reps, &mut rows);
            run_scenario::<ScanMailbox>(scenario, p, work, reps, &mut rows);
        }
    }

    println!(
        "{:<26} {:<12} {:>3} {:>9} {:>11} {:>14} {:>10}",
        "scenario", "impl", "p", "messages", "elapsed ms", "msgs/sec", "ns/msg"
    );
    for r in &rows {
        println!(
            "{:<26} {:<12} {:>3} {:>9} {:>11.2} {:>14.0} {:>10.1}",
            r.scenario,
            r.implementation,
            r.ranks,
            r.messages,
            r.elapsed_ms,
            r.msgs_per_sec,
            r.ns_per_msg
        );
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    write_json(
        &args.out,
        "matching",
        args.mode(),
        &[("payload_bytes", "64".to_string())],
        &body,
    );

    // --- acceptance: the engine's win is pinned, not asserted ----------

    for &p in &ps {
        for scenario in SCENARIOS {
            let e = rate(&rows, scenario, "engine", p);
            let l = rate(&rows, scenario, "legacy_scan", p);
            println!("{scenario} p={p}: engine/legacy = {:.2}x", e / l);
            // Sanity floor for every scenario: the storm keeps queues
            // shallow (each round drains before the next), so matching
            // cost is a small slice of its wall clock and on an
            // oversubscribed host (this container has a single core)
            // scheduler noise can put either implementation ahead at
            // small p. The floor catches real regressions — an O(n)
            // scan sneaking back in, a reintroduced poll floor — not
            // that noise.
            assert!(
                e >= l * 0.5,
                "{scenario} p={p}: engine fell past the sanity floor \
                 (engine {e:.0} vs legacy {l:.0} msgs/sec)"
            );
        }
        // The matching-pressure scenarios are where the index pays; the
        // PR's acceptance bound is >= 2x at p = 8, which the engine
        // clears several times over.
        let e = rate(&rows, "many_senders_one_receiver", "engine", p);
        let l = rate(&rows, "many_senders_one_receiver", "legacy_scan", p);
        assert!(
            e >= 2.0 * l,
            "p={p}: the acceptance bound — >= 2x message rate in \
             many_senders_one_receiver — failed: engine {e:.0} vs legacy {l:.0} msgs/sec"
        );
        let e = rate(&rows, "wildcard_heavy", "engine", p);
        let l = rate(&rows, "wildcard_heavy", "legacy_scan", p);
        assert!(
            e >= 1.2 * l,
            "p={p}: wildcard-heavy draining must beat the linear scan \
             (engine {e:.0} vs legacy {l:.0} msgs/sec)"
        );
    }
    println!(
        "matching-engine contract holds: >= 2x many-senders rate at every p, \
         wildcards ahead, storm within noise"
    );

    if let Some(baseline) = baseline {
        // CI drift guard: engine rows must stay within a generous factor
        // of the committed full-run baseline (CI machines differ from
        // the one that produced the committed numbers; this catches
        // order-of-magnitude regressions, e.g. an accidental O(n) scan
        // or a reintroduced poll floor, not percent-level noise).
        const TOLERANCE: f64 = 0.25;
        for (scenario, implementation, p, base_rate) in baseline {
            if implementation != "engine" || !ps.contains(&p) {
                continue;
            }
            let now = rate(&rows, &scenario, "engine", p);
            assert!(
                now >= base_rate * TOLERANCE,
                "{scenario} p={p}: engine rate {now:.0} msgs/sec fell below \
                 {TOLERANCE} x committed baseline ({base_rate:.0})"
            );
        }
        println!(
            "baseline check passed (>= {:.0}% of committed rates)",
            100.0 * TOLERANCE
        );
    }
}
