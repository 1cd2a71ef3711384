//! Per-layer metrics, taken from outside: timing calls into each
//! crate's public functions and reading the public per-rank counters
//! around them.
//!
//! Two sources feed the traced run's metrics:
//!
//! - [`from_workload`]: the spans and counters of the workload's own
//!   traced rounds (values differ per workload);
//! - [`probe_suite`]: a fixed set of micro-probes of every layer, run
//!   after the workload in the same process (same cells in every
//!   workload's traced run, so a noisy host shows as `ref.*` moving).
//!
//! Every name here is prefixed with the module it measures. None of
//! them carries a bound: they explain the end-to-end metrics, they do
//! not gate.

use std::collections::HashMap;
use std::time::Instant;

use kamping::prelude::*;
use kmp_apps::phylo::Model;
use kmp_apps::sample_sort::{
    sample_sort_boost, sample_sort_kamping, sample_sort_mpl, sample_sort_rwth,
};
use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{
    AllgatherAlgo, Comm, MailboxStats, NeighborhoodColl, RequestSet, Universe, ANY_SOURCE,
};
use rand::prelude::*;

use crate::harness::{round_sums, RunResult, Verdict};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::{layer, layer_totals, peer_wait_share, LayerTotal, Side};
use crate::workloads::coll::spin;

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    // -- from the workload's traced rounds
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("apps.local_compute_s", "s", "lower"),
    ("apps.local_share", "ratio", "lower"),
    ("apps.opaque_share", "ratio", "lower"),
    ("kamping.self_us_per_call", "us", "lower"),
    ("kamping.substrate_calls_per_call", "count", "lower"),
    ("kamping.extra_copied_bytes_per_call", "B", "lower"),
    ("kamping.extra_allocs_per_call", "count", "lower"),
    ("completion.peer_wait_share", "ratio", "lower"),
    ("completion.closing_barrier_share", "ratio", "lower"),
    ("completion.max_parked", "count", "lower"),
    ("completion.multi_wakeups", "count", "lower"),
    ("completion.spurious_wakeups", "count", "lower"),
    ("mailbox.max_unexpected_depth", "count", "lower"),
    ("mailbox.targeted_wakeups", "count", "lower"),
    ("mailbox.notify_registrations", "count", "lower"),
    // -- from the probe suite
    ("ref.memcpy_gib_per_s", "GiB/s", "higher"),
    ("ref.sort_melem_per_s", "M/s", "higher"),
    ("ref.park_rtt_us", "us", "lower"),
    ("universe.spawn_join_us", "us", "lower"),
    ("graphgen.gen_s", "s", "lower"),
    ("serialize.ser_mib_per_s", "MiB/s", "higher"),
    ("serialize.de_mib_per_s", "MiB/s", "higher"),
    ("serialize.bytes_per_call", "B", "lower"),
    ("plain.copied_bytes_per_op", "B", "lower"),
    ("plain.allocs_per_op", "count", "lower"),
    ("plain.copy_gib_per_s", "GiB/s", "higher"),
    ("plain.bw_fraction", "ratio", "higher"),
    ("mailbox.pingpong_rtt_us", "us", "lower"),
    ("mailbox.stream_msgs_per_s", "1/s", "higher"),
    ("mailbox.posted_match_us", "us", "lower"),
    ("mailbox.unexpected_match_us", "us", "lower"),
    ("mailbox.storm_msgs_per_s", "1/s", "higher"),
    ("completion.wait_any_us", "us", "lower"),
    ("collectives.bcast_256KiB_auto_us", "us", "lower"),
    ("collectives.bcast_256KiB_binomial_us", "us", "lower"),
    (
        "collectives.bcast_256KiB_scatter_allgather_us",
        "us",
        "lower",
    ),
    ("collectives.allgather_16KiB_auto_us", "us", "lower"),
    ("collectives.allgather_16KiB_ring_us", "us", "lower"),
    (
        "collectives.allgather_16KiB_recursive_doubling_us",
        "us",
        "lower",
    ),
    ("collectives.allgather_16KiB_bruck_us", "us", "lower"),
    ("collectives.allreduce_128KiB_auto_us", "us", "lower"),
    (
        "collectives.allreduce_128KiB_recursive_doubling_us",
        "us",
        "lower",
    ),
    (
        "collectives.allreduce_128KiB_rabenseifner_us",
        "us",
        "lower",
    ),
    ("collectives.alltoall_1KiB_auto_us", "us", "lower"),
    ("collectives.alltoall_1KiB_pairwise_us", "us", "lower"),
    ("collectives.alltoall_1KiB_bruck_us", "us", "lower"),
    (
        "collectives.auto_vs_best_ratio_bcast_256KiB",
        "ratio",
        "lower",
    ),
    (
        "collectives.auto_vs_best_ratio_allgather_16KiB",
        "ratio",
        "lower",
    ),
    ("collectives.auto_vs_best_ratio", "ratio", "lower"),
    ("collectives.init_us", "us", "lower"),
    ("collectives.overlap_share", "ratio", "higher"),
    ("tuning.decisions", "count", "lower"),
    ("tuning.model_picks", "count", "higher"),
    ("tuning.static_picks", "count", "lower"),
    ("tuning.observations", "count", "lower"),
    ("topology.create_us", "us", "lower"),
    ("neighborhood.exchange_us", "us", "lower"),
    ("neighborhood.envelopes_per_round", "count", "lower"),
    ("plugins.dense_us_per_exchange", "us", "lower"),
    ("plugins.sparse_us_per_exchange", "us", "lower"),
    ("plugins.grid_us_per_exchange", "us", "lower"),
    ("plugins.envelopes_per_exchange", "count", "lower"),
    ("kamping.allgatherv_counts_64KiB_vs_vec", "ratio", "lower"),
    ("kamping.allgatherv_counts_64KiB_vs_into", "ratio", "lower"),
    ("kamping.allgatherv_counts_1MiB_vs_vec", "ratio", "lower"),
    ("kamping.allgatherv_counts_1MiB_vs_into", "ratio", "lower"),
    ("kamping.allgatherv_counts_4MiB_vs_vec", "ratio", "lower"),
    ("kamping.allgatherv_counts_4MiB_vs_into", "ratio", "lower"),
    ("baselines.boost_ratio", "ratio", "lower"),
    ("baselines.rwth_ratio", "ratio", "lower"),
    ("baselines.mpl_ratio", "ratio", "lower"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("{name} is not in PER_LAYER"))
}

fn metric(name: &str, value: f64) -> Metric {
    Metric::new(name, value, unit_of(name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---------------------------------------------------------------------------
// From the workload's traced rounds
// ---------------------------------------------------------------------------

/// Layers whose spans are calls that communicate.
const COMM_LAYERS: [&str; 4] = [
    layer::KAMPING,
    layer::PLUGINS,
    layer::SUBSTRATE,
    layer::SERIALIZE,
];

pub fn from_workload(r: &RunResult) -> Vec<Metric> {
    let traced_rounds = r.traced_times.len().max(1) as f64;
    let totals: Vec<_> = r.spans.iter().map(|s| layer_totals(s)).collect();
    let get = |rank: usize, l: &'static str, side: Side| -> LayerTotal {
        totals[rank].get(&(l, side)).cloned().unwrap_or_default()
    };
    let all_ranks = |l: &'static str, side: Side, f: &dyn Fn(&LayerTotal) -> u64| -> f64 {
        (0..totals.len())
            .map(|rank| f(&get(rank, l, side)))
            .sum::<u64>() as f64
    };

    // Round time, untraced against traced, both sides together.
    let both = |times: &[Vec<[f64; 2]>]| -> f64 {
        let k = round_sums(times, Side::Kamping);
        let t = round_sums(times, Side::Twin);
        median(&k.iter().zip(&t).map(|(a, b)| a + b).collect::<Vec<_>>())
    };
    let trace_overhead = ratio(both(&r.traced_times), both(&r.times));

    // Rank 0's timed windows: every nanosecond inside a HARNESS root is
    // either some named layer's self time or the root's own.
    let window_ns: u64 = r.spans[0]
        .iter()
        .filter(|s| s.layer == layer::HARNESS)
        .map(|s| s.dur_ns())
        .sum();
    let unattributed: u64 = [Side::Kamping, Side::Twin]
        .iter()
        .map(|&s| get(0, layer::HARNESS, s).self_ns)
        .sum();
    let k_window_ns: u64 = r.spans[0]
        .iter()
        .filter(|s| s.layer == layer::HARNESS && s.side == Side::Kamping)
        .map(|s| s.dur_ns())
        .sum();
    let apps_k = get(0, layer::APPS, Side::Kamping).self_ns;
    let opaque_k = get(0, layer::APPS_OPAQUE, Side::Kamping).self_ns;
    let barrier: u64 = [Side::Kamping, Side::Twin]
        .iter()
        .map(|&s| get(0, layer::BARRIER, s).self_ns)
        .sum();

    // A kamping call against its substrate twin on identical inputs:
    // time in communicating calls on each side, over all ranks.
    let comm_ns = |side: Side| -> f64 {
        COMM_LAYERS
            .iter()
            .map(|&l| all_ranks(l, side, &|t| t.self_ns))
            .sum()
    };
    let kamping_calls = all_ranks(layer::KAMPING, Side::Kamping, &|t| t.spans)
        + all_ranks(layer::PLUGINS, Side::Kamping, &|t| t.spans);
    let calls_per_round = kamping_calls / traced_rounds;
    let k = Side::Kamping as usize;
    let t = Side::Twin as usize;

    let is_collective =
        |s: &crate::trace::Span| COMM_LAYERS[..3].contains(&s.layer) && s.name != "flatten";
    let rounds_total = r.rounds.max(1) as f64;
    let mailbox_delta = |f: &dyn Fn(&MailboxStats) -> u64| -> f64 {
        r.mailbox
            .iter()
            .zip(&r.mailbox_start)
            .map(|(end, start)| f(end) - f(start))
            .sum::<u64>() as f64
            / rounds_total
    };
    let mailbox_max = |f: &dyn Fn(&MailboxStats) -> usize| -> f64 {
        r.mailbox.iter().map(f).max().unwrap_or(0) as f64
    };

    vec![
        metric("trace.overhead_ratio", trace_overhead),
        metric(
            "trace.attributed_share",
            1.0 - ratio(unattributed as f64, window_ns as f64),
        ),
        metric("apps.local_compute_s", apps_k as f64 / 1e9 / traced_rounds),
        metric("apps.local_share", ratio(apps_k as f64, k_window_ns as f64)),
        metric(
            "apps.opaque_share",
            ratio(opaque_k as f64, k_window_ns as f64),
        ),
        metric(
            "kamping.self_us_per_call",
            ratio(
                comm_ns(Side::Kamping) - comm_ns(Side::Twin),
                kamping_calls * 1e3,
            ),
        ),
        metric(
            "kamping.substrate_calls_per_call",
            ratio(r.substrate_calls_per_round[k], calls_per_round),
        ),
        metric(
            "kamping.extra_copied_bytes_per_call",
            ratio(
                r.copied_bytes_per_round[k] - r.copied_bytes_per_round[t],
                calls_per_round,
            ),
        ),
        metric(
            "kamping.extra_allocs_per_call",
            ratio(
                r.allocs_per_round[k] - r.allocs_per_round[t],
                calls_per_round,
            ),
        ),
        metric(
            "completion.peer_wait_share",
            peer_wait_share(&r.spans, is_collective),
        ),
        metric(
            "completion.closing_barrier_share",
            ratio(barrier as f64, window_ns as f64),
        ),
        metric("completion.max_parked", mailbox_max(&|m| m.max_parked)),
        metric(
            "completion.multi_wakeups",
            mailbox_delta(&|m| m.multi_wakeups),
        ),
        metric(
            "completion.spurious_wakeups",
            mailbox_delta(&|m| m.spurious_wakeups),
        ),
        metric(
            "mailbox.max_unexpected_depth",
            mailbox_max(&|m| m.max_unexpected_depth),
        ),
        metric(
            "mailbox.targeted_wakeups",
            mailbox_delta(&|m| m.targeted_wakeups),
        ),
        metric(
            "mailbox.notify_registrations",
            mailbox_delta(&|m| m.notify_registrations),
        ),
    ]
}

// ---------------------------------------------------------------------------
// The probe suite
// ---------------------------------------------------------------------------

/// Back-to-back calls between two barriers of a timed sample: the
/// closing barrier is paid once per batch, not once per call.
const BATCH: usize = 8;

/// One rank's view of the probe universe.
struct Probe<'a> {
    kc: &'a Communicator,
    raw: &'a Comm,
    /// Samples per cell.
    reps: usize,
    out: Vec<Metric>,
    /// Probe results checked against what they must return.
    verdict: Verdict,
}

impl<'a> Probe<'a> {
    fn rank(&self) -> usize {
        self.raw.rank()
    }

    fn put(&mut self, name: &str, value: f64) {
        if self.rank() == 0 {
            self.out.push(metric(name, value));
        }
    }

    fn check(&mut self, ok: bool) {
        self.verdict.add(Verdict::of(ok));
    }

    /// Median microseconds per call of `f`, timed on this rank in
    /// barrier-fenced batches (the closing barrier included, as in the
    /// workloads), after one untimed batch.
    fn time_us(&mut self, batch: usize, mut f: impl FnMut(&mut Self)) -> f64 {
        let reps = self.reps;
        let mut samples = Vec::with_capacity(reps);
        for i in 0..=reps {
            self.raw.barrier().expect("barrier");
            let t = Instant::now();
            for _ in 0..batch {
                f(self);
            }
            self.raw.barrier().expect("barrier");
            if i > 0 {
                samples.push(t.elapsed().as_nanos() as f64 / 1e3 / batch as f64);
            }
        }
        median(&samples)
    }

    /// Like `time_us` but only the calling rank's own span of `f`, no
    /// closing barrier: for one-sided costs (a send that matches a
    /// posted receive, a receive that drains the unexpected queue).
    fn time_local_us(
        &mut self,
        setup: impl Fn(&mut Self),
        timed: impl Fn(&mut Self) -> usize,
    ) -> f64 {
        let mut samples = Vec::with_capacity(self.reps);
        for i in 0..=self.reps {
            setup(self);
            self.raw.barrier().expect("barrier");
            let t = Instant::now();
            let n = timed(self);
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            self.raw.barrier().expect("barrier");
            if i > 0 && n > 0 {
                samples.push(us / n as f64);
            }
        }
        median(&samples)
    }
}

fn ref_memcpy_gib_per_s(reps: usize) -> f64 {
    // 64 MiB each way: several times any last-level cache this class of
    // host has, so the copy runs at memory speed.
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            BYTES as f64 / (1u64 << 30) as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn ref_sort_melem_per_s(seed: u64, reps: usize) -> f64 {
    const N: usize = 1 << 18;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50f7);
    let input: Vec<u64> = (0..N).map(|_| rng.random()).collect();
    let samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let mut v = input.clone();
            let t = Instant::now();
            v.sort_unstable();
            std::hint::black_box(&v);
            N as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Round trip between two bare threads handing a token over with
/// `park`/`unpark`: the floor under every blocking step of the
/// substrate on this host.
fn ref_park_rtt_us(trips: usize) -> f64 {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let token = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let main = std::thread::current();
        let token = &token;
        let peer = scope.spawn(move || {
            for i in 0..trips {
                // SeqCst: the token hand-over is the only synchronisation.
                while token.load(Ordering::SeqCst) != 2 * i + 1 {
                    std::thread::park();
                }
                token.store(2 * i + 2, Ordering::SeqCst);
                main.unpark();
            }
        });
        let t = Instant::now();
        for i in 0..trips {
            token.store(2 * i + 1, Ordering::SeqCst);
            peer.thread().unpark();
            while token.load(Ordering::SeqCst) != 2 * i + 2 {
                std::thread::park();
            }
        }
        let us = t.elapsed().as_nanos() as f64 / 1e3 / trips as f64;
        peer.join().expect("park peer");
        us
    })
}

fn serialize_probe(out: &mut Vec<Metric>, reps: usize) -> Verdict {
    // The phylo model as shipped by the RAxML loop, and a large one for
    // the rates.
    let small = kmp_serialize::to_bytes(&Model::initial(16)).map_or(0, |b| b.len());
    let big = Model::initial(1 << 15);
    let bytes = kmp_serialize::to_bytes(&big).unwrap_or_default();
    let mib = bytes.len() as f64 / (1u64 << 20) as f64;
    let mut verdict = Verdict::default();
    let ser: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            let b = kmp_serialize::to_bytes(std::hint::black_box(&big));
            let s = t.elapsed().as_secs_f64();
            verdict.add(Verdict::of(b.is_ok_and(|b| b == bytes)));
            mib / s
        })
        .collect();
    let de: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            let m = kmp_serialize::from_bytes::<Model>(std::hint::black_box(&bytes));
            let s = t.elapsed().as_secs_f64();
            verdict.add(Verdict::of(m.is_ok_and(|m| m == big)));
            mib / s
        })
        .collect();
    out.push(metric("serialize.ser_mib_per_s", median(&ser)));
    out.push(metric("serialize.de_mib_per_s", median(&de)));
    out.push(metric("serialize.bytes_per_call", small as f64));
    verdict
}

fn plain_copy_probe(out: &mut Vec<Metric>, memcpy_gib: f64, reps: usize) {
    // The size of the reference memcpy, so that the fraction compares
    // like with like; the payload is allocated fresh, as a send's is.
    const BYTES: usize = 64 << 20;
    let src = vec![7u64; BYTES / 8];
    let samples: Vec<f64> = (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            let b = kmp_mpi::bytes_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&b);
            BYTES as f64 / (1u64 << 30) as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    let gib = median(&samples);
    out.push(metric("plain.copy_gib_per_s", gib));
    out.push(metric("plain.bw_fraction", ratio(gib, memcpy_gib)));
}

/// Everything that needs the p = 4 universe, in one sequence every rank
/// walks in step.
fn comm_probes(pr: &mut Probe, seed: u64) {
    let raw = pr.raw;
    let (p, rank) = (raw.size(), raw.rank());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9706e);
    let word = [rng.random_range(0..1u64 << 32)];

    // -- plain: the copy bill of moving 1 MiB between two ranks.
    {
        let data = vec![word[0]; (1 << 20) / 8];
        let before = raw.copy_stats();
        let legs = 8u64;
        for _ in 0..legs {
            if rank == 0 {
                raw.send(&data, 1, 0).expect("send");
            } else if rank == 1 {
                let (got, _) = raw.recv_vec::<u64>(0, 0).expect("recv");
                pr.check(got == data);
            }
        }
        let mine = raw.copy_stats().since(&before);
        let all = raw
            .allreduce_vec(&[mine.bytes_copied, mine.allocations], kmp_mpi::op::Sum)
            .expect("allreduce");
        pr.put("plain.copied_bytes_per_op", all[0] as f64 / legs as f64);
        pr.put("plain.allocs_per_op", all[1] as f64 / legs as f64);
    }

    // -- mailbox: ranks 0 and 1 only (p = 2); the others sit parked in
    // the barrier.
    let rtt = pr.time_us(BATCH, |pr| {
        if rank == 0 {
            raw.send(&word, 1, 0).expect("send");
            let (back, _) = raw.recv_vec::<u64>(1, 1).expect("recv");
            pr.check(back == word);
        } else if rank == 1 {
            let (got, _) = raw.recv_vec::<u64>(0, 0).expect("recv");
            raw.send(&got, 0, 1).expect("send");
        }
    });
    pr.put("mailbox.pingpong_rtt_us", rtt);

    const STREAM: usize = 256;
    let stream_us = pr.time_us(1, |pr| {
        if rank == 0 {
            for _ in 0..STREAM {
                raw.send(&word, 1, 2).expect("send");
            }
        } else if rank == 1 {
            let mut sum = 0u64;
            for _ in 0..STREAM {
                sum = sum.wrapping_add(raw.recv_one::<u64>(0, 2).expect("recv").0);
            }
            pr.check(sum == word[0].wrapping_mul(STREAM as u64));
        }
    });
    pr.put(
        "mailbox.stream_msgs_per_s",
        STREAM as f64 / (stream_us / 1e6),
    );

    // A send that finds its receive already posted: timed on the sender.
    let posted = {
        let pending = std::cell::RefCell::new(None);
        let us = pr.time_local_us(
            |_| {
                if rank == 1 {
                    let mut set = RequestSet::new();
                    for k in 0..STREAM {
                        set.push(raw.irecv(0, 100 + k as i32));
                    }
                    *pending.borrow_mut() = Some(set);
                }
            },
            |_| {
                if rank == 0 {
                    for k in 0..STREAM {
                        raw.send(&word, 1, 100 + k as i32).expect("send");
                    }
                    STREAM
                } else {
                    if let Some(set) = pending.borrow_mut().take() {
                        set.wait_all().expect("wait_all");
                    }
                    0
                }
            },
        );
        raw.bcast_one(us, 0).expect("bcast")
    };
    pr.put("mailbox.posted_match_us", posted);

    // A receive that finds its message already queued as unexpected:
    // timed on the receiver.
    let unexpected = {
        let us = pr.time_local_us(
            |_| {
                if rank == 0 {
                    for k in 0..STREAM {
                        raw.send(&word, 1, 400 + k as i32).expect("send");
                    }
                }
            },
            |pr| {
                if rank == 1 {
                    // Newest first: every match walks past queued
                    // messages instead of popping the head.
                    for k in (0..STREAM).rev() {
                        let (v, _) = raw.recv_one::<u64>(0, 400 + k as i32).expect("recv");
                        pr.check(v == word[0]);
                    }
                    STREAM
                } else {
                    0
                }
            },
        );
        raw.bcast_one(us, 1).expect("bcast")
    };
    pr.put("mailbox.unexpected_match_us", unexpected);

    // All-to-all storm at p = 4: every rank fires a burst at every other
    // rank, then drains with wildcard receives.
    const BURST: usize = 64;
    let storm_us = pr.time_us(1, |pr| {
        let mut sends = RequestSet::new();
        for dest in (0..p).filter(|&d| d != rank) {
            for _ in 0..BURST {
                sends.push(raw.isend(&word, dest, 7).expect("isend"));
            }
        }
        let mut sum = 0u64;
        for _ in 0..(p - 1) * BURST {
            sum = sum.wrapping_add(raw.recv_one::<u64>(ANY_SOURCE, 7).expect("recv").0);
        }
        sends.wait_all().expect("wait_all");
        pr.check(sum == word[0].wrapping_mul(((p - 1) * BURST) as u64));
    });
    pr.put(
        "mailbox.storm_msgs_per_s",
        (p * (p - 1) * BURST) as f64 / (storm_us / 1e6),
    );

    // -- completion: one rank waits on a set the others complete.
    let wait_any = {
        let us = pr.time_local_us(
            |_| {},
            |pr| {
                if rank == 0 {
                    let mut set = RequestSet::new();
                    for src in 1..p {
                        for k in 0..BATCH {
                            set.push(raw.irecv(src, 800 + k as i32));
                        }
                    }
                    let mut done = 0;
                    while let Some((_, c)) = set.wait_any().expect("wait_any") {
                        pr.check(c.into_vec::<u64>().is_some_and(|(v, _)| v == word));
                        done += 1;
                    }
                    done
                } else {
                    for k in 0..BATCH {
                        raw.send(&word, 0, 800 + k as i32).expect("send");
                    }
                    0
                }
            },
        );
        raw.bcast_one(us, 0).expect("bcast")
    };
    pr.put("completion.wait_any_us", wait_any);

    collective_probes(pr, &mut rng);
    topology_probes(pr, seed);
    allgatherv_gap_probes(pr);
    baseline_probes(pr, seed);
}

/// `Auto` against every forced algorithm on the pinned cells.
fn collective_probes(pr: &mut Probe, rng: &mut StdRng) {
    use kmp_mpi::{AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning};
    let raw = pr.raw;
    let (p, rank) = (raw.size(), raw.rank());
    let fill = |rng: &mut StdRng, bytes: usize| -> Vec<u64> {
        (0..bytes / 8)
            .map(|_| rng.random_range(0..1u64 << 32))
            .collect()
    };
    let base = CollTuning::default();

    /// Times one cell under each tuning; reports every time and the
    /// wasted-choice ratio auto / best forced.
    fn cell(
        pr: &mut Probe,
        prefix: &str,
        tunings: &[(&str, kmp_mpi::CollTuning)],
        call: &dyn Fn(&mut Probe),
    ) -> f64 {
        let mut auto = 0.0;
        let mut best = f64::MAX;
        for (label, tuning) in tunings {
            pr.raw.set_tuning(*tuning);
            let us = pr.time_us(BATCH / 2, |pr| call(pr));
            pr.put(&format!("collectives.{prefix}_{label}_us"), us);
            if *label == "auto" {
                auto = us;
            } else {
                best = best.min(us);
            }
        }
        pr.raw.set_tuning(kmp_mpi::CollTuning::default());
        ratio(auto, best)
    }

    let content = fill(rng, 256 << 10);
    let bcast_ratio = cell(
        pr,
        "bcast_256KiB",
        &[
            ("auto", base),
            ("binomial", base.bcast(BcastAlgo::Binomial)),
            ("scatter_allgather", base.bcast(BcastAlgo::ScatterAllgather)),
        ],
        &|pr| {
            let mut buf = if rank == 0 {
                content.clone()
            } else {
                vec![0u64; content.len()]
            };
            raw.bcast_into(&mut buf, 0).expect("bcast");
            pr.check(buf == content);
        },
    );
    let mine = fill(rng, 16 << 10);
    let checksum = raw
        .allreduce_one(mine.iter().sum::<u64>(), kmp_mpi::op::Sum)
        .expect("allreduce");
    let allgather_ratio = cell(
        pr,
        "allgather_16KiB",
        &[
            ("auto", base),
            ("ring", base.allgather(AllgatherAlgo::Ring)),
            (
                "recursive_doubling",
                base.allgather(AllgatherAlgo::RecursiveDoubling),
            ),
            ("bruck", base.allgather(AllgatherAlgo::Bruck)),
        ],
        &|pr| {
            let all = raw.allgather_vec(&mine).expect("allgather");
            pr.check(all.len() == p * mine.len() && all.iter().sum::<u64>() == checksum);
        },
    );
    let big = fill(rng, 128 << 10);
    let big_sum = raw
        .allreduce_one(big[0], kmp_mpi::op::Sum)
        .expect("allreduce");
    cell(
        pr,
        "allreduce_128KiB",
        &[
            ("auto", base),
            (
                "recursive_doubling",
                base.allreduce(AllreduceAlgo::RecursiveDoubling),
            ),
            ("rabenseifner", base.allreduce(AllreduceAlgo::Rabenseifner)),
        ],
        &|pr| {
            let sum = raw
                .allreduce_vec(&big, kmp_mpi::op::Sum)
                .expect("allreduce");
            pr.check(sum[0] == big_sum);
        },
    );
    let blocks = vec![rank as u64; p * (1 << 10) / 8];
    cell(
        pr,
        "alltoall_1KiB",
        &[
            ("auto", base),
            ("pairwise", base.alltoall(AlltoallAlgo::Pairwise)),
            ("bruck", base.alltoall(AlltoallAlgo::Bruck)),
        ],
        &|pr| {
            let mut recv = vec![0u64; blocks.len()];
            raw.alltoall_into(&blocks, &mut recv).expect("alltoall");
            let n = recv.len() / p;
            pr.check((0..p).all(|src| recv[src * n] == src as u64));
        },
    );
    pr.put("collectives.auto_vs_best_ratio_bcast_256KiB", bcast_ratio);
    pr.put(
        "collectives.auto_vs_best_ratio_allgather_16KiB",
        allgather_ratio,
    );
    pr.put(
        "collectives.auto_vs_best_ratio",
        bcast_ratio.max(allgather_ratio),
    );

    // Persistent plan build: one collective `*_init`.
    let contribution = fill(rng, 64 << 10);
    let init_us = pr.time_us(1, |_| {
        let plan = raw.allgather_init(&contribution).expect("allgather_init");
        drop(plan);
    });
    pr.put("collectives.init_us", init_us);

    // How much of a compute slice hides behind `i*`: blocking call and
    // slice back to back, against the slice between `i*` and `wait`.
    let blocking = pr.time_us(BATCH / 2, |_| {
        std::hint::black_box(raw.allgather_vec(&contribution).expect("allgather"));
    });
    // A slice about as long as the blocking call.
    let probe_iters = 1u64 << 14;
    let t = Instant::now();
    std::hint::black_box(spin(probe_iters));
    let ns_per_iter = (t.elapsed().as_nanos() as f64 / probe_iters as f64).max(1e-3);
    let iters = raw
        .bcast_one((blocking * 1e3 / ns_per_iter) as u64, 0)
        .expect("bcast");
    let slice = pr.time_us(BATCH / 2, |_| {
        std::hint::black_box(spin(iters));
    });
    let overlapped = pr.time_us(BATCH / 2, |_| {
        let req = raw.iallgather(&contribution).expect("iallgather");
        std::hint::black_box(spin(iters));
        std::hint::black_box(req.wait().expect("wait"));
    });
    pr.put(
        "collectives.overlap_share",
        ratio(blocking + slice - overlapped, blocking.min(slice)).clamp(0.0, 1.0),
    );

    // Self-tuning: what the online model decides on a mixed stream.
    let before = raw.tuning_stats();
    raw.set_tuning(base.self_tuning());
    let small = fill(rng, 1 << 10);
    for i in 0..pr.reps * 8 {
        let data = if i % 2 == 0 { &small } else { &big };
        std::hint::black_box(
            raw.allreduce_vec(data, kmp_mpi::op::Sum)
                .expect("allreduce"),
        );
    }
    raw.set_tuning(base);
    raw.reset_model();
    let after = raw.tuning_stats();
    pr.put(
        "tuning.decisions",
        (after.decisions - before.decisions) as f64,
    );
    pr.put(
        "tuning.model_picks",
        (after.model_picks - before.model_picks) as f64,
    );
    pr.put(
        "tuning.static_picks",
        (after.static_picks - before.static_picks) as f64,
    );
    pr.put(
        "tuning.observations",
        (after.observations - before.observations) as f64,
    );
}

/// Topology creation, the neighborhood exchange and the all-to-all
/// plugins on one frontier: every rank sends 1 KiB to its ring
/// neighbours.
fn topology_probes(pr: &mut Probe, seed: u64) {
    let (raw, kc) = (pr.raw, pr.kc);
    let (p, rank) = (raw.size(), raw.rank());
    let mut peers = vec![(rank + p - 1) % p, (rank + 1) % p];
    peers.sort_unstable();
    peers.dedup();
    let block: Vec<u64> = (0..128).map(|i| seed ^ (rank * 1000 + i) as u64).collect();
    let expect_from =
        |src: usize| -> Vec<u64> { (0..128).map(|i| seed ^ (src * 1000 + i) as u64).collect() };
    let envelopes = |raw: &Comm| raw.mailbox_stats().envelopes_posted;
    let sum_over_ranks = |raw: &Comm, v: u64| -> f64 {
        raw.allreduce_one(v, kmp_mpi::op::Sum).expect("allreduce") as f64
    };

    let create = pr.time_us(1, |_| {
        std::hint::black_box(
            raw.create_dist_graph_adjacent(&peers, &peers)
                .expect("topology"),
        );
    });
    pr.put("topology.create_us", create);

    let topo = raw
        .create_dist_graph_adjacent(&peers, &peers)
        .expect("topology");
    let sends: Vec<Vec<u64>> = peers.iter().map(|_| block.clone()).collect();
    let rounds = std::cell::Cell::new(0u64);
    let env0 = envelopes(raw);
    let exchange = pr.time_us(BATCH / 2, |pr| {
        let got = topo
            .neighbor_alltoall_vecs(&sends)
            .expect("neighbor exchange");
        rounds.set(rounds.get() + 1);
        pr.check(
            got.len() == peers.len()
                && got
                    .iter()
                    .zip(&peers)
                    .all(|(b, &src)| *b == expect_from(src)),
        );
    });
    let posted = envelopes(raw) - env0;
    pr.put("neighborhood.exchange_us", exchange);
    // The timing loop's barriers post envelopes too; a round of barriers
    // alone is measured and taken off.
    let env1 = envelopes(raw);
    for _ in 0..pr.reps + 1 {
        raw.barrier().expect("barrier");
        raw.barrier().expect("barrier");
    }
    let barrier_env = envelopes(raw) - env1;
    let per_round = sum_over_ranks(raw, posted.saturating_sub(barrier_env)) / rounds.get() as f64;
    pr.put("neighborhood.envelopes_per_round", per_round);

    // The same frontier through dense alltoallv and the two plugins.
    let mut counts = vec![0usize; p];
    for &d in &peers {
        counts[d] = block.len();
    }
    let dense_data: Vec<u64> = peers.iter().flat_map(|_| block.iter().copied()).collect();
    let check = |pr: &mut Probe, mut got: Vec<u64>| {
        let mut want: Vec<u64> = peers.iter().flat_map(|&s| expect_from(s)).collect();
        got.sort_unstable();
        want.sort_unstable();
        pr.check(got == want);
    };
    let dense = pr.time_us(BATCH / 2, |pr| {
        let got: Vec<u64> = kc
            .alltoallv((send_buf(&dense_data), send_counts(&counts)))
            .expect("alltoallv");
        check(pr, got);
    });
    pr.put("plugins.dense_us_per_exchange", dense);

    let msgs: HashMap<usize, Vec<u64>> = peers.iter().map(|&d| (d, block.clone())).collect();
    let exchanges = std::cell::Cell::new(0u64);
    let env2 = envelopes(raw);
    let sparse = pr.time_us(BATCH / 2, |pr| {
        let got = kc.sparse_alltoallv(&msgs).expect("sparse");
        exchanges.set(exchanges.get() + 1);
        check(pr, got.into_iter().flat_map(|(_, v)| v).collect());
    });
    let sparse_env = (envelopes(raw) - env2).saturating_sub(barrier_env);
    pr.put("plugins.sparse_us_per_exchange", sparse);
    pr.put(
        "plugins.envelopes_per_exchange",
        sum_over_ranks(raw, sparse_env) / exchanges.get() as f64,
    );

    let grid = kc.make_grid().expect("grid");
    let grid_us = pr.time_us(BATCH / 2, |pr| {
        let got = grid.alltoallv(&dense_data, &counts).expect("grid");
        check(pr, got);
    });
    pr.put("plugins.grid_us_per_exchange", grid_us);
}

/// ROADMAP's first measured gap, pinned: `allgatherv` with counts given
/// against both `allgather_vec` (what `BENCH_overhead` compares with)
/// and `allgatherv_into` (what the call lowers to).
fn allgatherv_gap_probes(pr: &mut Probe) {
    let (raw, kc) = (pr.raw, pr.kc);
    let (p, rank) = (raw.size(), raw.rank());
    for (bytes, label) in [(64 << 10, "64KiB"), (1 << 20, "1MiB"), (4 << 20, "4MiB")] {
        let n = bytes / 8;
        let mine = vec![rank as u64 + 1; n];
        let counts = vec![n; p];
        let displs = displacements_from_counts(&counts);
        let ok = |all: &[u64]| all.len() == n * p && (0..p).all(|r| all[r * n] == r as u64 + 1);
        // Fewer samples for the multi-millisecond rungs.
        let saved = pr.reps;
        pr.reps = (saved / 2).max(2);
        let kamping = pr.time_us(1, |pr| {
            let all: Vec<u64> = kc
                .allgatherv((send_buf(&mine), recv_counts(&counts)))
                .expect("allgatherv");
            pr.check(ok(&all));
        });
        let vec = pr.time_us(1, |pr| {
            let all = raw.allgather_vec(&mine).expect("allgather_vec");
            pr.check(ok(&all));
        });
        let into = pr.time_us(1, |pr| {
            let mut all = vec![0u64; n * p];
            raw.allgatherv_into(&mine, &mut all, &counts, &displs)
                .expect("allgatherv_into");
            pr.check(ok(&all));
        });
        pr.reps = saved;
        pr.put(
            &format!("kamping.allgatherv_counts_{label}_vs_vec"),
            ratio(kamping, vec),
        );
        pr.put(
            &format!("kamping.allgatherv_counts_{label}_vs_into"),
            ratio(kamping, into),
        );
    }
}

/// Fig. 8's other bindings on one sample sort, as ratios to kamping.
fn baseline_probes(pr: &mut Probe, seed: u64) {
    let (raw, kc) = (pr.raw, pr.kc);
    let mut rng = StdRng::seed_from_u64(seed ^ (0xba5e + raw.rank() as u64));
    let input: Vec<u64> = (0..1 << 14).map(|_| rng.random()).collect();
    let total = raw
        .allreduce_one(input.len() as u64, kmp_mpi::op::Sum)
        .expect("allreduce");
    let sorted = |pr: &mut Probe, data: &[u64]| {
        let n = raw
            .allreduce_one(data.len() as u64, kmp_mpi::op::Sum)
            .expect("allreduce");
        pr.check(n == total && data.is_sorted());
    };
    let saved = pr.reps;
    pr.reps = (saved / 2).max(2);
    let kamping = pr.time_us(1, |pr| {
        let mut data = input.clone();
        sample_sort_kamping(&mut data, kc).expect("sort");
        sorted(pr, &data);
    });
    type SortFn = fn(&mut Vec<u64>, &Comm) -> kmp_mpi::Result<()>;
    let others: [(&str, SortFn); 3] = [
        ("baselines.boost_ratio", sample_sort_boost::<u64>),
        ("baselines.rwth_ratio", sample_sort_rwth::<u64>),
        ("baselines.mpl_ratio", sample_sort_mpl::<u64>),
    ];
    for (name, sort) in others {
        let us = pr.time_us(1, |pr| {
            let mut data = input.clone();
            sort(&mut data, raw).expect("sort");
            sorted(pr, &data);
        });
        pr.put(name, ratio(us, kamping));
    }
    pr.reps = saved;
}

/// Runs every probe once; returns the metrics and how many probe
/// results passed their own checks.
pub fn probe_suite(seed: u64, smoke: bool) -> (Vec<Metric>, Verdict) {
    let reps = if smoke { 3 } else { 15 };
    let mut out = Vec::new();

    let memcpy = ref_memcpy_gib_per_s(reps / 3);
    out.push(metric("ref.memcpy_gib_per_s", memcpy));
    out.push(metric(
        "ref.sort_melem_per_s",
        ref_sort_melem_per_s(seed, reps / 3),
    ));
    out.push(metric(
        "ref.park_rtt_us",
        ref_park_rtt_us(if smoke { 200 } else { 2000 }),
    ));

    let spawn: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Universe::run(4, |comm| comm.rank()));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push(metric("universe.spawn_join_us", median(&spawn)));

    let t = Instant::now();
    let n = if smoke { 1 << 10 } else { 1 << 14 };
    let parts: Vec<_> = (0..4)
        .map(|r| kmp_graphgen::gnm(n, 8 * n, seed, r, 4))
        .collect();
    out.push(metric("graphgen.gen_s", t.elapsed().as_secs_f64()));
    let mut verdict = Verdict::of(parts.iter().map(|g| g.local_n()).sum::<usize>() == n);

    verdict.add(serialize_probe(&mut out, reps / 3));
    plain_copy_probe(&mut out, memcpy, reps / 3);

    let per_rank = Universe::run(4, |comm| {
        let kc = Communicator::new(comm);
        let mut pr = Probe {
            kc: &kc,
            raw: kc.raw(),
            reps,
            out: Vec::new(),
            verdict: Verdict::default(),
        };
        comm_probes(&mut pr, seed);
        (pr.out, pr.verdict)
    });
    for (metrics, v) in per_rank {
        out.extend(metrics);
        verdict.add(v);
    }
    (out, verdict)
}
