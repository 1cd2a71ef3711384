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
//! raising one needs a reason. No count depends on whether a message
//! arrived before its receive was posted: an unexpected envelope costs
//! the queue nothing a posted receive does not, and no broadcast copy
//! depends on which rank drops its view of the payload last
//! (`a_broadcast_allocates_the_same_whether_its_messages_wait_or_are_awaited`
//! pins the pair). What still moves a mean by a few hundredths is growth:
//! a queue that gets deeper than ever before grows its storage once.

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

const CALLS: usize = 100;
/// As many as are counted: a root that runs ahead of its children
/// deepens their queues over the warm-up as far as it can over the
/// counted calls, so their storage has grown before counting starts.
const WARM: usize = CALLS;
/// Payload bytes per rank (per block for `alltoallv`), in `PINS` order.
const SIZES: [usize; 2] = [8, 4096];

/// `(cell, pin at p = 4, pin at p = 16)`: allocations per rank per
/// call, the maximum over ranks of the mean. Each pin is 0.1 above the
/// largest mean of 48 runs: twelve each in debug and release, on two
/// cores and on one. No cell spread by more than 0.1 over them.
const PINS: [(&str, f64, f64); 28] = [
    ("barrier blocking", 0.1, 0.12),
    ("barrier i*", 1.11, 1.11),
    ("bcast blocking 8 B", 4.17, 4.21),
    ("bcast i* 8 B", 4.14, 4.11),
    ("bcast init 8 B", 1.12, 1.14),
    ("bcast blocking 4 KiB", 4.11, 4.14),
    ("bcast i* 4 KiB", 4.11, 4.11),
    ("bcast init 4 KiB", 1.12, 1.13),
    ("allreduce blocking 8 B", 7.1, 11.1),
    ("allreduce i* 8 B", 7.1, 11.1),
    ("allreduce init 8 B", 5.1, 9.11),
    ("allreduce blocking 4 KiB", 7.1, 11.1),
    ("allreduce i* 4 KiB", 7.1, 11.11),
    ("allreduce init 4 KiB", 5.11, 9.11),
    ("allgatherv blocking 8 B", 6.1, 8.1),
    ("allgatherv blocking 4 KiB", 6.1, 8.1),
    ("alltoallv blocking 8 B", 7.11, 7.11),
    ("alltoallv i* 8 B", 9.11, 9.11),
    ("alltoallv init 8 B", 1.11, 1.13),
    ("alltoallv blocking 4 KiB", 7.1, 7.1),
    ("alltoallv i* 4 KiB", 9.1, 9.1),
    ("alltoallv init 4 KiB", 1.11, 1.12),
    ("send + recv_vec blocking 8 B", 2.1, 2.1),
    ("send + recv_vec i* 8 B", 2.1, 2.1),
    ("send + recv_vec init 8 B", 0.11, 0.11),
    ("send + recv_vec blocking 4 KiB", 2.1, 2.1),
    ("send + recv_vec i* 4 KiB", 2.1, 2.1),
    ("send + recv_vec init 4 KiB", 0.11, 0.11),
];

/// This rank's mean allocations per call of `call`, after `WARM` calls
/// that fill whatever the call caches and grow the queues to the depth
/// the counted calls reach. The barriers around the counted
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

/// Arrival order moves no counter: p = 4 `bcast_into` of 8 B, counted
/// two ways under one pin. First the root runs all `CALLS` calls before
/// its children start theirs — far more than a cache of queue buffers
/// would hold — so every message it sends waits in an unexpected queue;
/// then the root pauses before each call, so every child has posted its
/// receive when the message arrives.
#[test]
fn a_broadcast_allocates_the_same_whether_its_messages_wait_or_are_awaited() {
    const PIN: f64 = 4.12;
    const GO: i32 = 9;
    let per_rank = Universe::run(4, |comm| {
        let is_root = comm.rank() == 0;
        let mut buf = vec![comm.rank() as u64];
        // A point-to-point `go` holds the children back: a collective
        // would take the next internal tag out of order.
        let mut counted = |root_first: bool| {
            if root_first && !is_root {
                comm.recv_vec::<u8>(0, GO).unwrap();
            }
            let before = allocations();
            for _ in 0..CALLS {
                if is_root && !root_first {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                comm.bcast_into(&mut buf, 0).unwrap();
            }
            let mean = (allocations() - before) as f64 / CALLS as f64;
            if root_first && is_root {
                (1..4).for_each(|child| comm.send(&[1u8], child, GO).unwrap());
            }
            comm.barrier().unwrap();
            mean
        };
        // The first round of each fills whatever the calls cache.
        [true, false, true, false].map(&mut counted)[2..].to_vec()
    });
    let worst = |i: usize| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max);
    let (waiting, awaited) = (worst(0), worst(1));
    assert!(
        waiting <= PIN && awaited <= PIN,
        "allocations per call over the pin {PIN}: messages waiting {waiting}, awaited {awaited} \
         (per rank: {per_rank:?})"
    );
}
