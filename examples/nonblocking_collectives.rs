//! Non-blocking collectives with ownership-safe futures (§III-E of the
//! paper, extended from point-to-point to collectives): a
//! compute/communicate overlap loop.
//!
//! Each iteration starts the exchange of the *current* chunk, computes
//! the *next* chunk while the collective is in flight, and only then
//! completes the exchange — the software-pipelining pattern non-blocking
//! collectives exist for. The send buffer is moved into the future and
//! comes back with `wait()` — as a handle that is free to read or drop
//! and `take()`s into the vector — so no in-flight buffer can be touched.
//!
//! Run with: `cargo run --example nonblocking_collectives`

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::Universe;

const ROUNDS: usize = 4;
const CHUNK: usize = 1 << 14;

/// "Compute" one chunk: each rank contributes a slice derived from the
/// round number.
fn compute_chunk(rank: usize, round: usize) -> Vec<u64> {
    (0..CHUNK)
        .map(|i| (rank * 1_000_000 + round * 1_000 + i % 97) as u64)
        .collect()
}

fn main() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let p = comm.size();

        // Pipeline: exchange chunk r while computing chunk r + 1.
        let mut chunk = compute_chunk(comm.rank(), 0);
        let mut total = 0u64;
        for round in 0..ROUNDS {
            // The chunk is *moved* into the future — it is inaccessible
            // (and unmodifiable) while the collective is in flight.
            let fut = comm.iallgatherv(send_buf(chunk)).unwrap();

            // Overlapped local work: produce the next round's chunk.
            let next = if round + 1 < ROUNDS {
                compute_chunk(comm.rank(), round + 1)
            } else {
                Vec::new()
            };

            // Completion yields everyone's data and the handle of the
            // moved-in buffer: reading it costs nothing, `mine.take()`
            // would give the vector back for reuse (the original
            // allocation once every peer has decoded its view of it).
            let (all, mine) = fut.wait().unwrap();
            assert_eq!(all.len(), p * CHUNK);
            assert_eq!(mine[..], all[comm.rank() * CHUNK..][..CHUNK]);
            total = total.wrapping_add(all.iter().sum::<u64>());

            chunk = next;
        }

        // A termination-style check overlapping a reduction with work,
        // as the BFS app does per level (see `kmp_apps::bfs`).
        // (mix the rank in: all ranks hold the same `total`, and a pure
        // xor of identical values would cancel to zero)
        let fut = comm
            .iallreduce((
                send_buf(vec![total.rotate_left(comm.rank() as u32)]),
                op(ops::BitXor),
            ))
            .unwrap();
        let local_digest = total.rotate_left(17); // work under the reduction
        let (global, _) = fut.wait().unwrap();
        std::hint::black_box(local_digest);

        if comm.is_root() {
            println!(
                "rank 0: pipelined {ROUNDS} rounds of {CHUNK}-element allgatherv, \
                 global xor digest = {:#x}",
                global[0]
            );
        }
    });
}
