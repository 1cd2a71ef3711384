//! The trace recorder's cost, on and off inside one universe (the
//! runtime toggle `trace::set_enabled`: one binary, one build, the same
//! warmed threads), on the two workloads it instruments hardest, with
//! 512 KiB payloads whose copy and consumption the per-message events
//! are priced against:
//!
//! - **matching_many_senders** — ranks 1..p send to rank 0, which drains
//!   with specific `(source, tag)` receives round-robin: send and recv
//!   spans plus the matching instants on every message.
//! - **completion_wait_any_fanin** — rank 0 drains a standing set of
//!   every receive of the rep through `wait_any`: park spans plus
//!   wakeup and claim instants on every completion.
//!
//! Senders run at most [`WINDOW`] messages ahead of an ack: an unbounded
//! flood makes the unexpected queue's depth, and with it the allocator
//! footprint, scheduler roulette. The figure is summed thread-CPU time
//! over ranks, paired-differenced (`paired_cpu_ms`): recording an event
//! is CPU work, while wall time on an oversubscribed host mostly shows
//! which context-switch pattern the scheduler settled into.

use kmp_mpi::{trace, Comm, RequestSet, Universe};

use crate::{paired_cpu_ms, toggled_cpu, Bound, Floor};

const P: usize = 8;
const PAYLOAD: usize = 512 * 1024;
const WINDOW: usize = 8;
/// Per sender per rep.
const MESSAGES: usize = 24;
const REPS: usize = 9;
const _: () = assert!(
    MESSAGES.is_multiple_of(WINDOW),
    "acks come once per full window"
);

/// Summed CPU ms (off, on) of `exchange` under the recorder toggle.
fn measure(exchange: impl Fn(&Comm, usize) + Sync) -> (f64, f64) {
    let per_rank = Universe::run(P, |comm| {
        toggled_cpu(&comm, REPS, trace::set_enabled, |rep| exchange(&comm, rep))
    });
    trace::set_enabled(false);
    paired_cpu_ms(&per_rank)
}

/// What an application does with a payload: read every byte.
fn consume(bytes: &[u8]) -> u64 {
    bytes.iter().map(|&x| x as u64).sum()
}

fn matching_many_senders(comm: &Comm, _rep: usize) {
    const ACK_TAG: i32 = 2_000_000;
    if comm.rank() == 0 {
        let mut buf = vec![0u8; PAYLOAD];
        let mut sink = 0u64;
        for m in 0..MESSAGES {
            for s in 1..comm.size() {
                comm.recv_into(&mut buf, s, 7).unwrap();
                sink = sink.wrapping_add(consume(&buf));
            }
            if m % WINDOW == WINDOW - 1 {
                for s in 1..comm.size() {
                    comm.send(&[1u8], s, ACK_TAG).unwrap();
                }
            }
        }
        std::hint::black_box(sink);
    } else {
        let data = vec![comm.rank() as u8; PAYLOAD];
        let mut ack = [0u8; 1];
        for m in 0..MESSAGES {
            comm.send(&data, 0, 7).unwrap();
            if m % WINDOW == WINDOW - 1 {
                comm.recv_into(&mut ack, 0, ACK_TAG).unwrap();
            }
        }
    }
}

/// Rank 0 releases the senders' next window once every round of the
/// current one has drained: without that flow control the scheduler
/// drifts between senders batching far ahead (the waiter never parks)
/// and ping-pong (it parks on every message), a 2x swing in work.
fn completion_wait_any_fanin(comm: &Comm, rep: usize) {
    const ACK_TAG: i32 = 1_000_000;
    // A tag block per rep: a straggler cannot match a later rep.
    let tag_base = (rep * MESSAGES) as i32;
    if comm.rank() == 0 {
        let mut set = RequestSet::new();
        for round in 0..MESSAGES {
            for peer in 1..comm.size() {
                set.push(comm.irecv(peer, tag_base + round as i32));
            }
        }
        let mut round_left = [comm.size() - 1; MESSAGES];
        let mut done_through = 0; // rounds [0, done_through) fully drained
        let mut sink = 0u64;
        while !set.is_empty() {
            let (_, c) = set.wait_any().unwrap().expect("set non-empty");
            let (b, st) = c.into_bytes().expect("a receive carries a payload");
            sink = sink.wrapping_add(consume(&b));
            round_left[(st.tag - tag_base) as usize] -= 1;
            while done_through < MESSAGES && round_left[done_through] == 0 {
                done_through += 1;
                if done_through % WINDOW == 0 {
                    for peer in 1..comm.size() {
                        comm.send(&[1u8], peer, ACK_TAG).unwrap();
                    }
                }
            }
        }
        std::hint::black_box(sink);
    } else {
        let data = vec![comm.rank() as u8; PAYLOAD];
        let mut ack = [0u8; 1];
        for round in 0..MESSAGES {
            comm.send(&data, 0, tag_base + round as i32).unwrap();
            if round % WINDOW == WINDOW - 1 {
                comm.recv_into(&mut ack, 0, ACK_TAG).unwrap();
            }
        }
    }
}

pub fn floors() -> Vec<Floor> {
    // A ring that holds every event of a rep, small enough (~0.9 MiB a
    // thread) not to evict the workload's own cache lines.
    trace::set_ring_capacity(1 << 14);
    [
        (
            "matching_many_senders",
            matching_many_senders as fn(&Comm, usize),
        ),
        ("completion_wait_any_fanin", completion_wait_any_fanin),
    ]
    .into_iter()
    .map(|(workload, exchange)| {
        let (off, on) = measure(exchange);
        println!(
            "   {workload} p={P}: {:+.2} % CPU with the recorder on",
            (on - off) / off * 100.0
        );
        Floor::new(
            format!("trace {workload} p={P} overhead"),
            on,
            off,
            "cpu ms",
            Bound::AtMost(1.1, 0.0),
        )
    })
    .collect()
}
