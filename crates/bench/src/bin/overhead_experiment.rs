//! Overhead trajectory harness: proves the "(near) zero overhead" claim
//! (§IV, Fig. 7) on the shared-`Bytes` datapath and records it as
//! `BENCH_overhead.json` so every PR can be compared against the last.
//!
//! For each workload the harness runs the **raw substrate** path and the
//! **kamping binding** path on identical payloads and reports
//!
//! - wall-clock time per operation (median of repetitions),
//! - the binding/substrate overhead ratio (the paper's figure of merit),
//! - per-rank payload bytes copied per operation (from
//!   `kmp_mpi::metrics`), the datapath's copy bill.
//!
//! Usage: `overhead_experiment [--smoke] [--out PATH]`. `--smoke` runs a
//! reduced matrix for CI; the default writes `BENCH_overhead.json` into
//! the current directory.

use kmp_bench::harness::{write_json, BenchArgs};
use kmp_mpi::{metrics, Universe};

#[derive(Clone, Debug)]
struct Row {
    name: String,
    ranks: usize,
    payload_bytes: usize,
    reps: usize,
    raw_us: f64,
    kamping_us: f64,
    raw_copied_per_op: u64,
    kamping_copied_per_op: u64,
}

impl Row {
    fn overhead_ratio(&self) -> f64 {
        if self.raw_us > 0.0 {
            self.kamping_us / self.raw_us
        } else {
            1.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"ranks\": {}, \"payload_bytes\": {}, \"reps\": {}, \
             \"raw_us_per_op\": {:.3}, \"kamping_us_per_op\": {:.3}, \
             \"overhead_ratio\": {:.4}, \"raw_bytes_copied_per_op\": {}, \
             \"kamping_bytes_copied_per_op\": {}, \"copies_per_payload_byte\": {:.3}}}",
            self.name,
            self.ranks,
            self.payload_bytes,
            self.reps,
            self.raw_us,
            self.kamping_us,
            self.overhead_ratio(),
            self.raw_copied_per_op,
            self.kamping_copied_per_op,
            self.kamping_copied_per_op as f64 / self.payload_bytes.max(1) as f64,
        )
    }
}

/// Reduces per-rank `(times, copied/op)` samples to (max-over-ranks
/// median wall-clock microseconds per op, max-over-ranks copied bytes
/// per op).
fn reduce_samples(per_rank: Vec<(Vec<u64>, u64)>) -> (f64, u64) {
    let median_us_max = per_rank
        .iter()
        .map(|(times, _)| {
            let mut t = times.clone();
            t.sort_unstable();
            t[t.len() / 2] as f64 / 1e3
        })
        .fold(0.0f64, f64::max);
    let copied_max = per_rank.iter().map(|&(_, c)| c).max().unwrap_or(0);
    (median_us_max, copied_max)
}

/// Times `reps` barrier-aligned runs of `f` on this rank, tracking the
/// per-op copy bill (warm-up rep excluded).
fn sample<C>(comm: &kmp_mpi::Comm, reps: usize, mut f: impl FnMut(&C), ctx: &C) -> (Vec<u64>, u64) {
    comm.barrier().unwrap();
    f(ctx);
    let mut times = Vec::with_capacity(reps);
    let copy_before = metrics::snapshot();
    for _ in 0..reps {
        comm.barrier().unwrap();
        let t = std::time::Instant::now();
        f(ctx);
        times.push(t.elapsed().as_nanos() as u64);
    }
    let copied = metrics::snapshot().since(&copy_before).bytes_copied;
    (times, copied / reps as u64)
}

/// Runs `f` on `p` ranks against the raw substrate.
fn measure<F>(p: usize, reps: usize, f: F) -> (f64, u64)
where
    F: Fn(&kmp_mpi::Comm) + Sync,
{
    reduce_samples(Universe::run(p, |comm| sample(&comm, reps, &f, &comm)))
}

/// Runs `f` on `p` ranks against the kamping binding (the communicator
/// wrap happens once per rank, outside the timed region, exactly as an
/// application would hold it).
fn measure_kamping<F>(p: usize, reps: usize, f: F) -> (f64, u64)
where
    F: Fn(&kamping::Communicator) + Sync,
{
    reduce_samples(Universe::run(p, |comm| {
        let kc = kamping::Communicator::new(comm);
        sample(kc.raw(), reps, &f, &kc)
    }))
}

fn pingpong(bytes: usize, reps: usize) -> Row {
    let n = bytes / 8;
    let (raw_us, raw_copied) = measure(2, reps, |comm| {
        if comm.rank() == 0 {
            let data = vec![1u64; n];
            comm.send(&data, 1, 0).unwrap();
            let (_back, _) = comm.recv_vec::<u64>(1, 1).unwrap();
        } else {
            let (back, _) = comm.recv_vec::<u64>(0, 0).unwrap();
            comm.send_vec(back, 0, 1).unwrap();
        }
    });
    let (kamping_us, kamping_copied) = measure_kamping(2, reps, |comm| {
        use kamping::prelude::*;
        if comm.rank() == 0 {
            let data = vec![1u64; n];
            comm.send((send_buf(data), destination(1), tag(0))).unwrap();
            let _back: Vec<u64> = comm.recv((source(1), tag(1))).unwrap();
        } else {
            let back: Vec<u64> = comm.recv((source(0), tag(0))).unwrap();
            comm.send((send_buf(back), destination(0), tag(1))).unwrap();
        }
    });
    Row {
        name: format!("p2p_pingpong_{}KiB", bytes / 1024),
        ranks: 2,
        payload_bytes: bytes,
        reps,
        raw_us,
        kamping_us,
        raw_copied_per_op: raw_copied,
        kamping_copied_per_op: kamping_copied,
    }
}

fn bcast(bytes: usize, p: usize, reps: usize) -> Row {
    let (raw_us, raw_copied) = measure(p, reps, |comm| {
        let mut buf = vec![comm.rank() as u8; bytes];
        comm.bcast_into(&mut buf, 0).unwrap();
    });
    let (kamping_us, kamping_copied) = measure_kamping(p, reps, |comm| {
        use kamping::prelude::*;
        let mut buf = if comm.rank() == 0 {
            vec![1u8; bytes]
        } else {
            Vec::new()
        };
        comm.bcast((send_recv_buf(&mut buf),)).unwrap();
    });
    Row {
        name: format!("bcast_{}KiB_p{p}", bytes / 1024),
        ranks: p,
        payload_bytes: bytes,
        reps,
        raw_us,
        kamping_us,
        raw_copied_per_op: raw_copied,
        kamping_copied_per_op: kamping_copied,
    }
}

fn allgatherv(bytes_per_rank: usize, p: usize, reps: usize) -> Row {
    let n = bytes_per_rank / 8;
    let (raw_us, raw_copied) = measure(p, reps, |comm| {
        let mine = vec![comm.rank() as u64; n];
        let _all = comm.allgather_vec(&mine).unwrap();
    });
    let (kamping_us, kamping_copied) = measure_kamping(p, reps, |comm| {
        use kamping::prelude::*;
        let mine = vec![comm.rank() as u64; n];
        // Counts provided: identical semantics to the raw path (omitted
        // counts would add the Fig. 2 count-discovery round, a feature,
        // not datapath overhead).
        let counts = vec![n; comm.size()];
        let _all: Vec<u64> = comm
            .allgatherv((send_buf(&mine), recv_counts(&counts)))
            .unwrap();
    });
    Row {
        name: format!("allgatherv_{}KiB_p{p}", bytes_per_rank / 1024),
        ranks: p,
        payload_bytes: bytes_per_rank,
        reps,
        raw_us,
        kamping_us,
        raw_copied_per_op: raw_copied,
        kamping_copied_per_op: kamping_copied,
    }
}

/// Default-receive `allgather` against the substrate's `allgather_vec`:
/// both build the result once, from the delivered blocks.
fn allgather(bytes_per_rank: usize, p: usize, reps: usize) -> Row {
    let n = bytes_per_rank / 8;
    let (raw_us, raw_copied) = measure(p, reps, |comm| {
        let mine = vec![comm.rank() as u64; n];
        let _all = comm.allgather_vec(&mine).unwrap();
    });
    let (kamping_us, kamping_copied) = measure_kamping(p, reps, |comm| {
        use kamping::prelude::*;
        let mine = vec![comm.rank() as u64; n];
        let _all: Vec<u64> = comm.allgather(send_buf(&mine)).unwrap();
    });
    Row {
        name: format!("allgather_{}KiB_p{p}", bytes_per_rank / 1024),
        ranks: p,
        payload_bytes: bytes_per_rank,
        reps,
        raw_us,
        kamping_us,
        raw_copied_per_op: raw_copied,
        kamping_copied_per_op: kamping_copied,
    }
}

/// Default-receive `allreduce` against the substrate's `allreduce_vec`:
/// both hand out the algorithm's accumulator.
fn allreduce(bytes: usize, p: usize, reps: usize) -> Row {
    let n = bytes / 8;
    let (raw_us, raw_copied) = measure(p, reps, |comm| {
        let mine = vec![comm.rank() as u64; n];
        let _sum = comm.allreduce_vec(&mine, kmp_mpi::op::Sum).unwrap();
    });
    let (kamping_us, kamping_copied) = measure_kamping(p, reps, |comm| {
        use kamping::prelude::*;
        let mine = vec![comm.rank() as u64; n];
        let _sum: Vec<u64> = comm.allreduce((send_buf(&mine), op(ops::Sum))).unwrap();
    });
    Row {
        name: format!("allreduce_{}KiB_p{p}", bytes / 1024),
        ranks: p,
        payload_bytes: bytes,
        reps,
        raw_us,
        kamping_us,
        raw_copied_per_op: raw_copied,
        kamping_copied_per_op: kamping_copied,
    }
}

/// What a hand-written substrate caller does with a block completion.
fn concat(done: kmp_mpi::request::Completion) -> Vec<u64> {
    use kmp_mpi::lower::{Delivered, Layout};
    let blocks = Delivered::Blocks(done.into_blocks().unwrap_or_default());
    let uncounted = Layout {
        uncounted: true,
        ..Layout::default()
    };
    blocks.into_vec(uncounted).unwrap()
}

/// The owned rows: the caller gives its buffer away on both sides — the
/// twin adopts it with `bytes_from_vec` into the byte-level substrate
/// call — and the binding must not copy more than that hand-written
/// code does. `p` is 4 throughout (the benchmark's communicator size).
fn owned(bytes: usize, reps: usize) -> Vec<Row> {
    use kamping::prelude::*;
    use kmp_mpi::{bytes_from_vec, bytes_into_vec};
    const P: usize = 4;
    let n = bytes / 8;
    let mine = move |rank: usize| vec![rank as u64; n];
    let counts = [n / P; P];
    let row = |name: &str, (raw_us, raw_copied): (f64, u64), (kamping_us, kamping_copied)| Row {
        name: format!("{name}_{}KiB_owned_p{P}", bytes / 1024),
        ranks: P,
        payload_bytes: bytes,
        reps,
        raw_us,
        kamping_us,
        raw_copied_per_op: raw_copied,
        kamping_copied_per_op: kamping_copied,
    };
    vec![
        row(
            "iallgather",
            measure(P, reps, |comm| {
                let own = bytes_from_vec(mine(comm.rank()));
                let _all = concat(comm.iallgather_bytes(own).unwrap().wait().unwrap());
            }),
            measure_kamping(P, reps, |comm| {
                let fut = comm.iallgather(send_buf(mine(comm.rank()))).unwrap();
                let (_all, _mine): (Vec<u64>, _) = fut.wait().unwrap();
            }),
        ),
        row(
            "ialltoallv",
            measure(P, reps, |comm| {
                let packed = bytes_from_vec(mine(comm.rank()));
                let req = comm.ialltoallv_bytes(packed, &counts.map(|c| 8 * c));
                let _got = concat(req.unwrap().wait().unwrap());
            }),
            measure_kamping(P, reps, |comm| {
                let args = (send_buf(mine(comm.rank())), send_counts(&counts));
                let (_got, _mine): (Vec<u64>, _) = comm.ialltoallv(args).unwrap().wait().unwrap();
            }),
        ),
        row(
            "bcast",
            measure(P, reps, |comm| {
                let payload = (comm.rank() == 0).then(|| bytes_from_vec(mine(0)));
                let _data: Vec<u64> = bytes_into_vec(comm.bcast_bytes(payload, 0).unwrap());
            }),
            measure_kamping(P, reps, |comm| {
                let buf = if comm.rank() == 0 {
                    mine(0)
                } else {
                    Vec::new()
                };
                let _data: Vec<u64> = comm.bcast((send_recv_buf(buf),)).unwrap();
            }),
        ),
        row(
            "allreduce",
            measure(P, reps, |comm| {
                let _sum = comm.allreduce_vec(mine(comm.rank()), kmp_mpi::op::Sum);
            }),
            measure_kamping(P, reps, |comm| {
                let args = (send_buf(mine(comm.rank())), op(ops::Sum));
                let _sum: Vec<u64> = comm.allreduce(args).unwrap();
            }),
        ),
    ]
}

/// Runtime probe: true when the substrate was built with copy counters.
fn copy_metrics_enabled() -> bool {
    let before = metrics::snapshot();
    let _ = kmp_mpi::bytes_from_slice(&[0u8; 8]);
    metrics::snapshot().since(&before).bytes_copied > 0
}

fn main() {
    let args = BenchArgs::parse("BENCH_overhead.json");
    let smoke = args.smoke;

    let (sizes, reps, p) = if smoke {
        (vec![64 * 1024], 5, 4)
    } else {
        (vec![64 * 1024, 1 << 20, 4 << 20], 15, 8)
    };

    let mut rows: Vec<Row> = Vec::new();
    for &bytes in &sizes {
        rows.push(pingpong(bytes, reps));
        rows.push(bcast(bytes, p, reps));
        rows.push(allgatherv(bytes, p.min(4), reps));
        // The implicit receive buffer (§III-B) on the two collectives
        // whose result the substrate already owns; 4 MiB adds nothing
        // the 1 MiB rows do not show.
        if bytes <= 1 << 20 {
            rows.push(allgather(bytes, p.min(4), reps));
            rows.push(allreduce(bytes, p.min(4), reps));
            rows.extend(owned(bytes, reps));
        }
    }

    println!(
        "{:<30} {:>10} {:>12} {:>12} {:>9} {:>14} {:>14}",
        "experiment", "bytes", "raw us/op", "kmp us/op", "ratio", "raw cp/op", "kmp cp/op"
    );
    for r in &rows {
        println!(
            "{:<30} {:>10} {:>12.1} {:>12.1} {:>9.3} {:>14} {:>14}",
            r.name,
            r.payload_bytes,
            r.raw_us,
            r.kamping_us,
            r.overhead_ratio(),
            r.raw_copied_per_op,
            r.kamping_copied_per_op
        );
    }

    let body: Vec<String> = rows.iter().map(Row::to_json).collect();
    write_json(
        &args.out,
        "overhead",
        args.mode(),
        &[("copy_metrics", copy_metrics_enabled().to_string())],
        &body,
    );

    // The claim this harness guards: the binding adds no copies beyond
    // the substrate (equal copy bills) and stays within a small factor
    // on wall-clock for large messages.
    for r in &rows {
        // Tiny slack for per-op metadata (e.g. a counts vector), which
        // is O(p) words, not O(payload).
        let slack = 64 * r.ranks as u64;
        assert!(
            r.kamping_copied_per_op <= r.raw_copied_per_op + slack,
            "{}: binding copies more than the substrate ({} > {} + {slack})",
            r.name,
            r.kamping_copied_per_op,
            r.raw_copied_per_op
        );
    }
}
