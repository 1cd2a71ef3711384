//! The frontier-exchange idiom on low-degree chord rings (neighbors at
//! offsets `±1..=h`, degree `2h`: 4 at p = 8, 8 at p = 16): one
//! self-sizing `ineighbor_alltoallv` over the declared topology, which
//! posts `degree` envelopes and exchanges no counts, against the
//! topology-blind dense idiom, a count transpose (`alltoall`) plus an
//! `alltoallv` with zeroed non-neighbor counts. One op = one round of 64
//! `u64` per neighbor.

use kmp_mpi::{NeighborhoodColl, Universe};

use crate::{best_rate, timed_loop, Bound, Floor};

const ELEMS: usize = 64;
const ITERS: usize = 60;
const REPS: usize = 2;

fn chord_neighbors(rank: usize, p: usize, h: usize) -> Vec<usize> {
    let mut nbrs: Vec<usize> = (1..=h)
        .flat_map(|k| [(rank + k) % p, (rank + p - k) % p])
        .filter(|&r| r != rank)
        .collect();
    nbrs.sort_unstable();
    nbrs.dedup();
    nbrs
}

fn exchange(sparse: bool, p: usize, h: usize) -> (usize, f64) {
    let secs = Universe::run(p, move |comm| {
        let nbrs = chord_neighbors(comm.rank(), p, h);
        if sparse {
            let data = vec![comm.rank() as u64; ELEMS * nbrs.len()];
            let counts = vec![ELEMS; nbrs.len()];
            let g = comm.create_dist_graph_adjacent(&nbrs, &nbrs).unwrap();
            timed_loop(&comm, ITERS, || {
                let blocks = g.ineighbor_alltoallv(&data, &counts)?.wait()?.into_blocks();
                assert_eq!(blocks.expect("blocks completion").len(), nbrs.len());
                Ok(())
            })
        } else {
            let mut counts = vec![0usize; p];
            for &r in &nbrs {
                counts[r] = ELEMS;
            }
            let data = vec![comm.rank() as u64; ELEMS * p];
            let displs: Vec<usize> = (0..p).map(|r| r * ELEMS).collect();
            let mut rcounts = vec![0usize; p];
            let mut recv = vec![0u64; ELEMS * p];
            timed_loop(&comm, ITERS, || {
                comm.alltoall_into(&counts, &mut rcounts)?;
                let rdispls = kmp_mpi::collectives::displacements_from_counts(&rcounts);
                comm.alltoallv_into(&data, &counts, &displs, &mut recv, &rcounts, &rdispls)
            })
        }
    });
    (ITERS, secs.into_iter().fold(0.0, f64::max))
}

pub fn floors() -> Vec<Floor> {
    let mut floors = Vec::new();
    for (p, h) in [(8, 2), (16, 4)] {
        let sparse = best_rate(REPS, || exchange(true, p, h));
        let dense = best_rate(REPS, || exchange(false, p, h));
        println!("   exchange p={p}: sparse / dense = {:.2}x", sparse / dense);
        let name = format!("neighborhood exchange p={p} win");
        floors.push(Floor::new(
            name,
            sparse,
            dense,
            "rounds/s",
            Bound::AtLeast(2.0),
        ));
    }
    floors
}
