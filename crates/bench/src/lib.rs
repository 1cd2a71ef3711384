//! # kmp-bench — harnesses regenerating the paper's tables and figures
//!
//! Binaries, one per artifact:
//!
//! | binary                  | paper artifact                        |
//! |-------------------------|---------------------------------------|
//! | `table1_loc`            | Table I (lines of code)               |
//! | `fig8_sample_sort`      | Fig. 8 (sample sort weak scaling)     |
//! | `fig10_bfs`             | Fig. 10 (BFS exchange strategies)     |
//! | `sa_experiment`         | §IV-A suffix array LoC + parity       |
//! | `label_prop_experiment` | §IV-B label propagation LoC + parity  |
//! | `raxml_proxy`           | §IV-C RAxML-NG integration parity     |
//!
//! and `floors`, which measures every subsystem's wall-clock contract
//! against its in-tree reference in one run (its module doc lists each
//! floor and its bound).
//!
//! Criterion benches (`cargo bench -p kmp_bench`) back the paper's
//! central "(near) zero overhead" claim and the §III-D4 serialization /
//! datatype ablations.
//!
//! Scaling experiments report **virtual time** (see `kmp_mpi::clock`):
//! explicitly charged compute plus an alpha-beta model for messages,
//! with the maximum over ranks as the figure of merit — the substitute
//! for the paper's 256-node testbed.

use kmp_mpi::{Comm, Config, CostModel, Universe};

/// What a timed closure receives: the substrate [`Comm`] itself, or a
/// handle built from it once per rank, outside the timed region.
trait RankHandle: From<Comm> {
    fn comm(&self) -> &Comm;
}

impl RankHandle for Comm {
    fn comm(&self) -> &Comm {
        self
    }
}

impl RankHandle for kamping::Communicator {
    fn comm(&self) -> &Comm {
        self.raw()
    }
}

/// The timing loop of both entry points below.
fn measure_virtual<H: RankHandle, F: Fn(&H) + Sync>(p: usize, reps: usize, f: F) -> f64 {
    let per_rank: Vec<Vec<u64>> =
        Universe::run_with(Config::new(p).cost(CostModel::cluster()), |comm| {
            let handle = H::from(comm);
            let comm = handle.comm();
            let mut times = Vec::with_capacity(reps);
            for _ in 0..reps {
                comm.barrier().expect("barrier");
                comm.clock_reset();
                f(&handle);
                times.push(comm.clock_now_ns());
            }
            times
        })
        .into_iter()
        .map(|o| o.unwrap())
        .collect();

    let mut maxima: Vec<u64> = (0..reps)
        .map(|rep| per_rank.iter().map(|t| t[rep]).max().unwrap_or(0))
        .collect();
    maxima.sort_unstable();
    maxima[maxima.len() / 2] as f64 / 1e6
}

/// Runs `f` on `p` ranks `reps` times under the cluster cost model and
/// returns the median over repetitions of the maximum virtual time over
/// ranks, in milliseconds.
pub fn measure_virtual_ms<F>(p: usize, reps: usize, f: F) -> f64
where
    F: Fn(&Comm) + Sync,
{
    measure_virtual(p, reps, f)
}

/// Like [`measure_virtual_ms`], but hands the closure a kamping
/// [`Communicator`](kamping::Communicator): the wrap happens once per
/// rank *outside* the timed region, exactly as an application would hold
/// its communicator across iterations.
pub fn measure_virtual_kamping_ms<F>(p: usize, reps: usize, f: F) -> f64
where
    F: Fn(&kamping::Communicator) + Sync,
{
    measure_virtual(p, reps, f)
}

/// Formats one scaling row: `label, p, time` aligned for terminal tables.
pub fn row(label: &str, p: usize, ms: f64) -> String {
    format!("{label:<16} p={p:<4} {ms:>12.3} ms")
}

/// The rank counts used by the weak-scaling harnesses (powers of two, as
/// in the paper's figures, capped for a laptop-class host).
pub fn scaling_ranks(max_p: usize) -> Vec<usize> {
    let mut ps = Vec::new();
    let mut p = 1;
    while p <= max_p {
        ps.push(p);
        p *= 2;
    }
    ps
}

/// Median wall-clock nanoseconds of `f` over `reps` single-threaded
/// runs — the calibration source for explicitly charged compute (the
/// host's thread-CPU clock ticks at ~10 ms and cannot be used; see
/// `CostModel::cluster`).
pub fn calibrate_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut times: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Parses `--max-p N` style overrides from argv (tiny hand-rolled flags
/// so the binaries stay dependency-free).
pub fn arg_usize(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            if let Some(v) = args.next() {
                return v.parse().unwrap_or(default);
            }
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_ranks_powers_of_two() {
        assert_eq!(scaling_ranks(8), vec![1, 2, 4, 8]);
        assert_eq!(scaling_ranks(1), vec![1]);
        assert_eq!(scaling_ranks(6), vec![1, 2, 4]);
    }

    #[test]
    fn measure_virtual_returns_positive_time_for_communication() {
        let ms = measure_virtual_ms(4, 3, |comm| {
            let mine = vec![comm.rank() as u64; 100];
            let _ = comm.allgather_vec(&mine).unwrap();
        });
        assert!(ms > 0.0, "communication must cost virtual time, got {ms}");
    }

    #[test]
    fn dense_exchange_costs_grow_with_p() {
        // Sanity of the cost model: an alltoallv over more ranks costs
        // more startups.
        let small = measure_virtual_ms(2, 3, |comm| {
            let counts = vec![1usize; comm.size()];
            let data = vec![0u64; comm.size()];
            let mut recv = vec![0u64; comm.size()];
            let displs: Vec<usize> = (0..comm.size()).collect();
            comm.alltoallv_into(&data, &counts, &displs, &mut recv, &counts, &displs)
                .unwrap();
        });
        let large = measure_virtual_ms(16, 3, |comm| {
            let counts = vec![1usize; comm.size()];
            let data = vec![0u64; comm.size()];
            let mut recv = vec![0u64; comm.size()];
            let displs: Vec<usize> = (0..comm.size()).collect();
            comm.alltoallv_into(&data, &counts, &displs, &mut recv, &counts, &displs)
                .unwrap();
        });
        assert!(
            large > small,
            "16-rank dense exchange ({large} ms) should cost more than 2-rank ({small} ms)"
        );
    }

    #[test]
    fn arg_parsing_default() {
        assert_eq!(arg_usize("--definitely-absent", 7), 7);
    }
}
