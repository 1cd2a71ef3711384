//! Regenerates **Fig. 8** of the paper: sample sort weak scaling across
//! the five bindings. The paper sorts 1e6 64-bit integers per rank on up
//! to 256 ranks and finds all bindings indistinguishable except MPL.
//!
//! This harness sorts `--n-per-rank` (default 20000) integers per rank on
//! 1..=`--max-p` (default 32) ranks, reporting virtual time (see the crate doc).

use kmp_apps::sample_sort::*;
use kmp_bench::{
    arg_usize, calibrate_ns, measure_virtual_kamping_ms, measure_virtual_ms, row, scaling_ranks,
};
use rand::prelude::*;

fn input(rank: usize, n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(42 + rank as u64);
    (0..n).map(|_| rng.random()).collect()
}

fn main() {
    let max_p = arg_usize("--max-p", 32);
    let n = arg_usize("--n-per-rank", 20_000);
    let reps = arg_usize("--reps", 3);
    // Compute charge per rank: two local sorts (bucket build + final),
    // calibrated single-threaded (see kmp_mpi::clock).
    let sort_ns = calibrate_ns(5, || {
        let mut v = input(0, n);
        v.sort_unstable();
        std::hint::black_box(&v);
    });
    let compute_ns = 2 * sort_ns + (n as u64) / 2;
    println!("FIG. 8 — SAMPLE SORT WEAK SCALING ({n} x u64 per rank, virtual time)");
    println!(
        "(calibrated local compute: {:.3} ms per rank)",
        compute_ns as f64 / 1e6
    );

    for p in scaling_ranks(max_p) {
        let mpi = measure_virtual_ms(p, reps, |comm| {
            let mut data = input(comm.rank(), n);
            sample_sort_mpi(&mut data, comm).unwrap();
            comm.clock_add_ns(compute_ns);
        });
        let boost = measure_virtual_ms(p, reps, |comm| {
            let mut data = input(comm.rank(), n);
            sample_sort_boost(&mut data, comm).unwrap();
            comm.clock_add_ns(compute_ns);
        });
        let rwth = measure_virtual_ms(p, reps, |comm| {
            let mut data = input(comm.rank(), n);
            sample_sort_rwth(&mut data, comm).unwrap();
            comm.clock_add_ns(compute_ns);
        });
        let mpl = measure_virtual_ms(p, reps, |comm| {
            let mut data = input(comm.rank(), n);
            sample_sort_mpl(&mut data, comm).unwrap();
            comm.clock_add_ns(compute_ns);
        });
        let kamping = measure_virtual_kamping_ms(p, reps, |comm| {
            let mut data = input(comm.rank(), n);
            sample_sort_kamping(&mut data, comm).unwrap();
            comm.raw().clock_add_ns(compute_ns);
        });
        println!("{}", row("mpi", p, mpi));
        println!("{}", row("boost", p, boost));
        println!("{}", row("rwth", p, rwth));
        println!("{}", row("mpl", p, mpl));
        println!("{}", row("kamping", p, kamping));
        let base = mpi.min(boost).min(rwth).min(kamping);
        println!(
            "  -> kamping overhead vs fastest baseline: {:+.1}%  |  mpl vs fastest: {:+.1}%",
            (kamping / base - 1.0) * 100.0,
            (mpl / base - 1.0) * 100.0
        );
    }
}
