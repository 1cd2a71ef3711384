//! MPI-4 persistent plans (`*_init`, then `start`/`wait` per cycle)
//! against regular per-call posting on small messages (64 `u64`), where
//! per-call setup dominates transport cost:
//!
//! - **ping_ring** — each rank sends [`RING_BATCH`] messages to its
//!   successor and receives as many from its predecessor per cycle:
//!   frozen `send_init` / `recv_init` plans re-armed by `start_all`,
//!   against `isend` / `irecv` into one `RequestSet`. One op = one
//!   message.
//! - **allreduce** / **alltoallv** — [`COLL_BATCH`] collectives per
//!   cycle: a batch of frozen plans started together (their frozen tags
//!   make the in-flight batch safe) against as many blocking calls, each
//!   re-running selection, tag allocation and engine construction. One
//!   op = one collective.

use kmp_mpi::{op, Universe};

use crate::{best_rate, timed_loop, Bound, Floor};

const ELEMS: usize = 64;
const RING_ITERS: usize = 60;
const COLL_ITERS: usize = 80;
const REPS: usize = 3;
const RING_BATCH: usize = 64;
const COLL_BATCH: usize = 4;

/// The slowest rank's seconds.
fn slowest(secs: Vec<f64>) -> f64 {
    secs.into_iter().fold(0.0, f64::max)
}

fn ping_ring(persistent: bool, p: usize) -> (usize, f64) {
    let secs = Universe::run(p, move |comm| {
        let r = comm.rank();
        let (dest, src) = ((r + 1) % p, (r + p - 1) % p);
        let data = vec![r as u64; ELEMS];
        if persistent {
            let mut sends: Vec<_> = (0..RING_BATCH)
                .map(|k| comm.send_init(&data, dest, k as i32).unwrap())
                .collect();
            let mut recvs: Vec<_> = (0..RING_BATCH)
                .map(|k| comm.recv_init(src, k as i32).unwrap())
                .collect();
            timed_loop(&comm, RING_ITERS, || {
                kmp_mpi::start_all(&mut sends)?;
                kmp_mpi::start_all(&mut recvs)?;
                for s in &mut sends {
                    s.wait()?;
                }
                for rv in &mut recvs {
                    rv.wait()?;
                }
                Ok(())
            })
        } else {
            timed_loop(&comm, RING_ITERS, || {
                let mut reqs = kmp_mpi::RequestSet::new();
                for k in 0..RING_BATCH {
                    reqs.push(comm.isend(&data, dest, k as i32)?);
                }
                for k in 0..RING_BATCH {
                    reqs.push(comm.irecv(src, k as i32));
                }
                reqs.wait_all()?;
                Ok(())
            })
        }
    });
    (RING_ITERS * p * RING_BATCH, slowest(secs))
}

fn allreduce(persistent: bool, p: usize) -> (usize, f64) {
    let secs = Universe::run(p, move |comm| {
        let data = vec![comm.rank() as u64 + 1; ELEMS];
        if persistent {
            let mut batch: Vec<_> = (0..COLL_BATCH)
                .map(|_| comm.allreduce_init(&data, op::Sum).unwrap())
                .collect();
            timed_loop(&comm, COLL_ITERS, || {
                batch.iter_mut().try_for_each(|plan| plan.start())?;
                batch.iter_mut().try_for_each(|plan| plan.wait().map(drop))
            })
        } else {
            timed_loop(&comm, COLL_ITERS, || {
                for _ in 0..COLL_BATCH {
                    comm.allreduce_vec(&data, op::Sum)?;
                }
                Ok(())
            })
        }
    });
    (COLL_ITERS * COLL_BATCH, slowest(secs))
}

fn alltoallv(persistent: bool, p: usize) -> (usize, f64) {
    let secs = Universe::run(p, move |comm| {
        let data = vec![comm.rank() as u64; ELEMS * p];
        let counts = vec![ELEMS; p];
        let displs: Vec<usize> = (0..p).map(|r| r * ELEMS).collect();
        if persistent {
            let mut batch: Vec<_> = (0..COLL_BATCH)
                .map(|_| comm.alltoallv_init(&data, &counts).unwrap())
                .collect();
            timed_loop(&comm, COLL_ITERS, || {
                batch.iter_mut().try_for_each(|plan| plan.start())?;
                batch.iter_mut().try_for_each(|plan| plan.wait().map(drop))
            })
        } else {
            let mut recv = vec![0u64; ELEMS * p];
            timed_loop(&comm, COLL_ITERS, || {
                for _ in 0..COLL_BATCH {
                    comm.alltoallv_into(&data, &counts, &displs, &mut recv, &counts, &displs)?;
                }
                Ok(())
            })
        }
    });
    (COLL_ITERS * COLL_BATCH, slowest(secs))
}

pub fn floors() -> Vec<Floor> {
    let mut floors = Vec::new();
    for p in [4, 8, 16] {
        for (scenario, run) in [
            ("ping_ring", ping_ring as fn(bool, usize) -> (usize, f64)),
            ("allreduce", allreduce),
            ("alltoallv", alltoallv),
        ] {
            let pers = best_rate(REPS, || run(true, p));
            let reg = best_rate(REPS, || run(false, p));
            println!(
                "   {scenario} p={p}: persistent / regular = {:.2}x",
                pers / reg
            );
            let floor = |what: &str, x| {
                let name = format!("persistent {scenario} p={p} {what}");
                Floor::new(name, pers, reg, "ops/s", Bound::AtLeast(x))
            };
            floors.push(floor("sanity", 0.8));
            if p == 8 {
                floors.push(floor("win", 1.5));
            }
        }
    }
    floors
}
