//! Allocation pins: heap allocations per rank per call, counted by this
//! binary's own `#[global_allocator]` on each rank's thread after a
//! warm-up, over the grid {barrier, bcast, allreduce, counted
//! `allgatherv`, `alltoallv`, send + `recv_vec`} × {8 B, 4 KiB} ×
//! {blocking, `i*` + `wait`, `*_init` `start` + `wait`} at p ∈ {4, 16},
//! through the substrate API. A cell is the maximum over ranks of the
//! per-call mean; it exists where the substrate has that lifecycle:
//! the barrier has no `*_init` (and no payload, so it is one size), and
//! the substrate's `iallgatherv` / `allgatherv_init` are self-sizing,
//! so the counted `allgatherv` is blocking only.
//!
//! Each pin is an upper bound. Lowering one is a recorded test change;
//! raising one needs a reason. Where a count depends on whether a
//! message arrived before its receive was posted (an unexpected
//! envelope queues, a posted receive parks its owner until the payload
//! lands), the pin covers the larger path: the maximum over twelve runs
//! in debug and release, on two cores and on one, plus headroom (see
//! [`PINS`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kamping_repro::mpi::op::Sum;
use kamping_repro::mpi::{Comm, PersistentRequest, Universe};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations (a `realloc` counts as
/// one) on the calling thread.
struct Counting;

fn count() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const WARM: usize = 20;
const CALLS: usize = 100;
/// Payload bytes per rank (per block for `alltoallv`), in `PINS` order.
const SIZES: [usize; 2] = [8, 4096];

/// `(cell, pin at p = 4, pin at p = 16)`: allocations per rank per
/// call, the maximum over ranks of the mean. A cell whose mean repeats
/// from run to run (within 0.1) is pinned half an allocation above it:
/// a rare queue growth adds a hundredth. The broadcasts and the
/// persistent collectives depend on arrival order (the larger path is
/// the receive posted first, whose owner parks), and their means spread
/// by up to 1.2 over runs: they are pinned one allocation above the
/// largest mean seen, rounded up, the same for both sizes.
const PINS: [(&str, f64, f64); 28] = [
    ("barrier blocking", 0.5, 0.5),
    ("barrier i*", 1.5, 1.5),
    ("bcast blocking 8 B", 7.0, 9.0),
    ("bcast i* 8 B", 7.0, 7.0),
    ("bcast init 8 B", 2.0, 3.0),
    ("bcast blocking 4 KiB", 7.0, 9.0),
    ("bcast i* 4 KiB", 7.0, 7.0),
    ("bcast init 4 KiB", 2.0, 3.0),
    ("allreduce blocking 8 B", 7.5, 11.5),
    ("allreduce i* 8 B", 7.5, 11.5),
    ("allreduce init 8 B", 8.0, 13.0),
    ("allreduce blocking 4 KiB", 7.5, 11.5),
    ("allreduce i* 4 KiB", 7.5, 11.5),
    ("allreduce init 4 KiB", 8.0, 13.0),
    ("allgatherv blocking 8 B", 6.5, 8.5),
    ("allgatherv blocking 4 KiB", 6.5, 8.5),
    ("alltoallv blocking 8 B", 7.5, 7.5),
    ("alltoallv i* 8 B", 9.5, 9.5),
    ("alltoallv init 8 B", 3.0, 7.0),
    ("alltoallv blocking 4 KiB", 7.5, 7.5),
    ("alltoallv i* 4 KiB", 9.5, 9.5),
    ("alltoallv init 4 KiB", 3.0, 7.0),
    ("send + recv_vec blocking 8 B", 2.5, 2.5),
    ("send + recv_vec i* 8 B", 2.5, 2.5),
    ("send + recv_vec init 8 B", 1.0, 1.0),
    ("send + recv_vec blocking 4 KiB", 2.5, 2.5),
    ("send + recv_vec i* 4 KiB", 2.5, 2.5),
    ("send + recv_vec init 4 KiB", 1.0, 1.0),
];

/// This rank's mean allocations per call of `call`, after `WARM` calls
/// that fill whatever the call caches. The barriers around the counted
/// calls keep every rank inside the same cell.
fn per_call(comm: &Comm, mut call: impl FnMut()) -> f64 {
    (0..WARM).for_each(|_| call());
    comm.barrier().unwrap();
    let before = allocations();
    (0..CALLS).for_each(|_| call());
    let counted = allocations() - before;
    comm.barrier().unwrap();
    counted as f64 / CALLS as f64
}

/// One persistent cycle.
fn cycle(plan: &mut PersistentRequest<'_>) {
    plan.start().unwrap();
    drop(plan.wait().unwrap());
}

/// Every cell of the grid on this rank, in `PINS` order.
fn cells(comm: &Comm) -> Vec<f64> {
    let (p, rank) = (comm.size(), comm.rank());
    let mut out = vec![
        per_call(comm, || comm.barrier().unwrap()),
        per_call(comm, || drop(comm.ibarrier().unwrap().wait().unwrap())),
    ];
    for bytes in SIZES {
        let mine = vec![rank as u64; bytes / 8];
        let root_data = (rank == 0).then_some(&mine[..]);
        let mut buf = mine.clone();
        out.push(per_call(comm, || comm.bcast_into(&mut buf, 0).unwrap()));
        out.push(per_call(comm, || {
            drop(comm.ibcast(root_data, 0).unwrap().wait().unwrap())
        }));
        let mut plan = comm.bcast_init(root_data, 0).unwrap();
        out.push(per_call(comm, || cycle(&mut plan)));
        drop(plan);
    }
    for bytes in SIZES {
        let mine = vec![rank as u64; bytes / 8];
        out.push(per_call(comm, || {
            drop(comm.allreduce_vec(&mine[..], Sum).unwrap())
        }));
        out.push(per_call(comm, || {
            drop(comm.iallreduce(&mine, Sum).unwrap().wait().unwrap())
        }));
        let mut plan = comm.allreduce_init(&mine, Sum).unwrap();
        out.push(per_call(comm, || cycle(&mut plan)));
        drop(plan);
    }
    for bytes in SIZES {
        let n = bytes / 8;
        let mine = vec![rank as u64; n];
        let (counts, displs): (Vec<usize>, Vec<usize>) = (0..p).map(|r| (n, r * n)).unzip();
        let mut recv = vec![0u64; n * p];
        out.push(per_call(comm, || {
            comm.allgatherv_into(&mine, &mut recv, &counts, &displs)
                .unwrap()
        }));
    }
    for bytes in SIZES {
        // `bytes` to every rank, this one included.
        let n = bytes / 8;
        let send = vec![rank as u64; n * p];
        let (counts, displs): (Vec<usize>, Vec<usize>) = (0..p).map(|r| (n, r * n)).unzip();
        let mut recv = vec![0u64; n * p];
        out.push(per_call(comm, || {
            comm.alltoallv_into(&send, &counts, &displs, &mut recv, &counts, &displs)
                .unwrap()
        }));
        out.push(per_call(comm, || {
            drop(comm.ialltoallv(&send, &counts).unwrap().wait().unwrap())
        }));
        let mut plan = comm.alltoallv_init(&send, &counts).unwrap();
        out.push(per_call(comm, || cycle(&mut plan)));
        drop(plan);
    }
    for bytes in SIZES {
        // Pairs of ranks exchange one message each way.
        let (peer, tag) = (rank ^ 1, 7);
        let mine = vec![rank as u64; bytes / 8];
        out.push(per_call(comm, || {
            comm.send(&mine, peer, tag).unwrap();
            drop(comm.recv_vec::<u64>(peer, tag).unwrap());
        }));
        out.push(per_call(comm, || {
            let send = comm.isend(&mine, peer, tag).unwrap();
            let recv = comm.irecv(peer, tag);
            drop(send.wait().unwrap());
            drop(recv.wait().unwrap());
        }));
        let mut send = comm.send_init(&mine, peer, tag).unwrap();
        let mut recv = comm.recv_init(peer, tag).unwrap();
        out.push(per_call(comm, || {
            send.start().unwrap();
            recv.start().unwrap();
            drop(send.wait().unwrap());
            drop(recv.wait().unwrap());
        }));
    }
    out
}

/// Every cell against its pin at `p` (`column` 0 for p = 4, 1 for
/// p = 16); the failure message lists the whole measured column.
fn check(p: usize, column: usize) {
    let per_rank = Universe::run(p, |comm| cells(&comm));
    let worst: Vec<f64> = (0..PINS.len())
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max))
        .collect();
    let table: Vec<String> = (PINS.iter().zip(&worst))
        .map(|((cell, ..), got)| format!("{cell}: {got}"))
        .collect();
    let over: Vec<String> = (PINS.iter().zip(&worst))
        .filter(|((_, at4, at16), got)| **got > [*at4, *at16][column])
        .map(|((cell, at4, at16), got)| {
            let pin = [at4, at16][column];
            format!("{cell}: {got} > {pin}")
        })
        .collect();
    assert!(
        over.is_empty(),
        "p = {p}: over the pin:\n{}\nmeasured:\n{}",
        over.join("\n"),
        table.join("\n")
    );
}

#[test]
fn allocations_per_call_at_p4_stay_within_their_pins() {
    check(4, 0);
}

#[test]
fn allocations_per_call_at_p16_stay_within_their_pins() {
    check(16, 1);
}
