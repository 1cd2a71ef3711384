//! The fault plane and ULFM recovery, at p = 4:
//!
//! - **detection** — every survivor parks in a blocking receive on the
//!   victim, which records a timestamp and crashes (`Comm::fail_here`);
//!   the figure is the median over [`DETECTION_REPS`] of the slowest
//!   survivor's wake after the mark. A correct wake is microseconds; the
//!   ceiling allows an oversubscribed host to preempt a survivor.
//! - **bfs_ft recovery** — a rank crashes at BFS level 2, the survivors
//!   revoke, agree, shrink, re-partition and restart
//!   (`kmp_apps::bfs::bfs_ft`), and must reproduce the sequential
//!   oracle of their partitioning; the figure is crash to the last
//!   survivor's finish.
//! - **hook overhead** — the hook-dense p2p ring (every message crosses
//!   `mailbox/push`, `mailbox/match` and the completion points) under an
//!   inert plan (every rank armed with an unreachable crash count), the
//!   runtime toggle `fault::set_enabled` alternating: summed thread-CPU
//!   time, paired-differenced as the trace probe does. The off side is
//!   one relaxed load per hook, an upper bound on a run without a plan,
//!   whose hooks bail on the live-plan count alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kmp_apps::bfs::{bfs_ft, bfs_sequential, UNDEF};
use kmp_graphgen::{gnm, DistGraph};
use kmp_mpi::{fault, Comm, Config, FaultPlan, MpiError, RankOutcome, Universe};

use crate::{paired_cpu_ms, toggled_cpu, Bound, Floor};

const P: usize = 4;
const DETECTION_REPS: usize = 7;
const DETECTION_CEILING_US: f64 = 250_000.0;
const RECOVERY_CEILING_MS: f64 = 10_000.0;
const VERTICES: usize = 200;
const EDGES: usize = 800;
const SEED: u64 = 17;
const HOOK_REPS: usize = 8;
const RING_MSGS: usize = 48;
const RING_PAYLOAD: usize = 128 * 1024;

/// One detection rep: the slowest survivor's wake after the mark, µs.
fn detection_rep() -> f64 {
    let t0 = Instant::now();
    let mark = AtomicU64::new(0);
    let victim = P - 1;
    let out = Universe::run_with(Config::new(P), |comm: Comm| {
        if comm.rank() == victim {
            // Let the survivors park first: a survivor that is not
            // parked yet would time the fast path instead.
            std::thread::sleep(std::time::Duration::from_millis(2));
            mark.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            comm.fail_here();
        }
        let err = comm.recv_vec::<u8>(victim, 9).unwrap_err();
        let woke = t0.elapsed().as_nanos() as u64;
        assert!(
            matches!(err, MpiError::ProcessFailed { .. }),
            "survivor woke with {err:?}"
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

/// Crash to the last survivor's finish, ms, the result checked against
/// the survivors' sequential oracle.
fn recovery_ms() -> f64 {
    let t0 = Instant::now();
    let crash = AtomicU64::new(0);
    let parts_after: Vec<DistGraph> = (0..P - 1)
        .map(|r| gnm(VERTICES, EDGES, SEED, r, P - 1))
        .collect();
    let reference = bfs_sequential(&parts_after, 0);
    let out = Universe::run_with(Config::new(P), |comm: Comm| {
        let (dist, active) = bfs_ft(
            comm,
            0,
            |rank, size| gnm(VERTICES, EDGES, SEED, rank, size),
            |level, c| {
                if level == 2 && c.size() == P && c.rank() == P - 1 {
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
    let crashed_at = crash.load(Ordering::SeqCst);
    assert!(crashed_at > 0, "the planned crash never fired");
    let mut got = vec![UNDEF; reference.len()];
    let mut slowest = 0u64;
    for (world_rank, o) in out.into_iter().enumerate() {
        match o {
            RankOutcome::Failed => assert_eq!(world_rank, P - 1),
            RankOutcome::Completed((finished, dist, new_rank, new_size)) => {
                assert_eq!(new_size, P - 1, "survivor {world_rank}");
                slowest = slowest.max(finished);
                let lo = parts_after[new_rank].vertex_ranges[new_rank];
                got[lo..lo + dist.len()].copy_from_slice(&dist);
            }
            RankOutcome::Panicked(m) => panic!("rank {world_rank} panicked: {m}"),
        }
    }
    assert_eq!(got, reference, "survivors diverged from the oracle");
    slowest.saturating_sub(crashed_at) as f64 / 1e6
}

/// Summed CPU ms (off, on) of the ring under the armed-hook toggle.
fn hook_overhead() -> (f64, f64) {
    // Inert: every rank armed, no arm can ever fire, so switched-on
    // hooks do their full count-and-scan work at every point.
    let plan = (0..P).fold(FaultPlan::new(), |plan, r| plan.crash(r, u64::MAX));
    let out = Universe::run_with(Config::new(P).faults(plan), |comm: Comm| {
        let me = comm.rank();
        let (next, prev) = ((me + 1) % P, (me + P - 1) % P);
        let data = vec![me as u8; RING_PAYLOAD];
        toggled_cpu(&comm, HOOK_REPS, fault::set_enabled, |_| {
            let mut sink = 0u64;
            for m in 0..RING_MSGS {
                comm.send(&data, next, m as i32).unwrap();
                let (buf, _) = comm.recv_vec::<u8>(prev, m as i32).unwrap();
                sink = sink.wrapping_add(buf.iter().map(|&x| x as u64).sum::<u64>());
            }
            std::hint::black_box(sink);
        })
    });
    fault::set_enabled(true);
    let per_rank: Vec<_> = out
        .into_iter()
        .map(|o| match o {
            RankOutcome::Completed(c) => c,
            o => panic!("hook-overhead rank did not complete: {o:?}"),
        })
        .collect();
    paired_cpu_ms(&per_rank)
}

pub fn floors() -> Vec<Floor> {
    let mut wakes: Vec<f64> = (0..DETECTION_REPS).map(|_| detection_rep()).collect();
    wakes.sort_by(f64::total_cmp);
    let (median, worst) = (wakes[wakes.len() / 2], wakes[wakes.len() - 1]);
    println!("   detection p={P}: slowest survivor woke {median:.1} us after the crash (worst {worst:.1} us)");
    let recovery = recovery_ms();
    println!("   bfs_ft p={P}: recovered {recovery:.2} ms after the crash at level 2");
    let (off, on) = hook_overhead();
    println!(
        "   hook overhead p={P}: {:+.2} % CPU with the hooks on",
        (on - off) / off * 100.0
    );
    vec![
        Floor::new(
            format!("fault detection p={P} ceiling"),
            median,
            DETECTION_CEILING_US,
            "us",
            Bound::AtMost(1.0, 0.0),
        ),
        Floor::new(
            format!("fault bfs_ft recovery p={P} ceiling"),
            recovery,
            RECOVERY_CEILING_MS,
            "ms",
            Bound::AtMost(1.0, 0.0),
        ),
        Floor::new(
            format!("fault hook overhead p={P}"),
            on,
            off,
            "cpu ms",
            Bound::AtMost(1.1, 0.0),
        ),
    ]
}
