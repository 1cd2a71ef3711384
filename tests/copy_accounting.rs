//! End-to-end copy accounting through the **binding layer**: the named-
//! parameter API must add no copies on top of the substrate datapath —
//! the testable form of the paper's "(near) zero overhead" claim (§IV).
//!
//! Counters are per-rank (thread-local, see `kmp_mpi::metrics`); deltas
//! are measured inside the rank closure.

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::{metrics, Universe};

/// An owned send buffer moves into the transport at call time with zero
/// copies (§III-E meets zero-copy), and the fan-out to all peers is
/// refcount cloning.
#[test]
fn iallgatherv_owned_send_is_zero_copy_at_call() {
    const N: usize = 1 << 18; // u64 elements
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u64; N];
        let before = metrics::snapshot();
        let fut = comm.iallgatherv(send_buf(mine)).unwrap();
        let call_delta = metrics::snapshot().since(&before);
        assert_eq!(
            call_delta.bytes_copied,
            0,
            "rank {}: posting an owned send_buf must not copy",
            comm.rank()
        );
        let (all, mine) = fut.wait().unwrap();
        assert_eq!(all.len(), 4 * N);
        assert_eq!(mine.len(), N, "moved-in buffer handed back");
    });
}

/// Same call-time zero-copy for the non-blocking personalized exchange.
#[test]
fn ialltoallv_owned_send_is_zero_copy_at_call() {
    const PER_PEER: usize = 1 << 14;
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let send = vec![comm.rank() as u32; 4 * PER_PEER];
        let counts = vec![PER_PEER; 4];
        let before = metrics::snapshot();
        let fut = comm
            .ialltoallv((send_buf(send), send_counts(&counts)))
            .unwrap();
        let call_delta = metrics::snapshot().since(&before);
        assert_eq!(
            call_delta.bytes_copied,
            0,
            "rank {}: owned ialltoallv send must not copy at call time",
            comm.rank()
        );
        let (data, send) = fut.wait().unwrap();
        assert_eq!(data.len(), 4 * PER_PEER);
        assert_eq!(send.len(), 4 * PER_PEER, "moved-in buffer handed back");
    });
}

/// The root of a non-blocking broadcast moves its vector into the
/// transport (zero call-time copies) and gets it back from `wait()`.
#[test]
fn ibcast_owned_root_buffer_is_zero_copy_at_call() {
    const N: usize = 1 << 18;
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let data = if comm.rank() == 1 {
            vec![42u64; N]
        } else {
            vec![]
        };
        let before = metrics::snapshot();
        let fut = comm.ibcast((send_recv_buf(data), root(1))).unwrap();
        let call_delta = metrics::snapshot().since(&before);
        assert_eq!(
            call_delta.bytes_copied,
            0,
            "rank {}: ibcast must not copy at call time on any rank",
            comm.rank()
        );
        let data = fut.wait().unwrap();
        assert_eq!(data.len(), N);
        assert_eq!(data[0], 42);
    });
}

/// The blocking bcast adopts the delivered payload straight into the
/// caller's buffer: non-root ranks copy exactly N bytes, independent of
/// their number of binomial-tree children. The root's buffer is the wire
/// payload: it copies nothing before its sends, and N bytes in one
/// allocation afterwards, whether its children lag (its messages wait
/// in their unexpected queues while it copies back) or lead (their
/// receives are posted, and they may drop their views before it copies).
#[test]
fn bcast_binding_single_copy_per_rank() {
    const N: usize = 1 << 20; // u8 payload
    const CALLS: usize = 5;
    Universe::run(8, |comm| {
        let comm = Communicator::new(comm);
        let is_root = comm.rank() == 0;
        for children_lead in [false, true] {
            for call in 0..CALLS {
                if is_root == children_lead {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                let mut data = if is_root { vec![5u8; N] } else { Vec::new() };
                let before = metrics::snapshot();
                comm.bcast((send_recv_buf(&mut data),)).unwrap();
                let delta = metrics::snapshot().since(&before);
                assert_eq!(data, vec![5u8; N]);
                let at = format!(
                    "rank {}, children lead: {children_lead}, call {call}",
                    comm.rank()
                );
                assert_eq!(
                    delta.bytes_copied, N as u64,
                    "{at}: one copy of the payload"
                );
                if is_root {
                    assert_eq!(delta.allocations, 1, "{at}");
                }
            }
        }
    });
}

/// A serialized send moves the encoder's output buffer into the
/// transport: the payload bytes are written once by serialization and
/// never copied again before delivery.
#[test]
fn serialized_send_does_not_recopy_encoder_output() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            let payload: Vec<(u64, String)> = (0..512).map(|i| (i, format!("value-{i}"))).collect();
            let before = metrics::snapshot();
            comm.send((send_buf(as_serialized(&payload)), destination(1), tag(3)))
                .unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(
                delta.bytes_copied, 0,
                "the encoder's output buffer moves into the transport"
            );
        } else {
            let got: Vec<(u64, String)> = comm
                .recv((source(0), tag(3), recv_buf(as_deserializable())))
                .unwrap();
            assert_eq!(got.len(), 512);
            assert_eq!(got[9].1, "value-9");
        }
    });
}

/// A binding ping-pong bills no more than the substrate's: an owned send
/// and a typed default receive one way, the received vector sent back
/// owned, against `send` / `recv_vec` / `send_vec` (the hand-written
/// side borrows its first buffer). The slack is the per-operation
/// metadata allowance, 64 bytes per rank.
#[test]
fn binding_ping_pong_copies_no_more_than_the_substrate() {
    const N: usize = 1 << 13; // u64: 64 KiB
    let bills = Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let raw = comm.raw();
        let bill = |f: &dyn Fn()| {
            raw.barrier().unwrap();
            let before = metrics::snapshot();
            f();
            metrics::snapshot().since(&before).bytes_copied
        };
        let substrate = bill(&|| {
            if raw.rank() == 0 {
                raw.send(&vec![1u64; N], 1, 0).unwrap();
                let (back, _) = raw.recv_vec::<u64>(1, 1).unwrap();
                assert_eq!(back.len(), N);
            } else {
                let (back, _) = raw.recv_vec::<u64>(0, 0).unwrap();
                raw.send_vec(back, 0, 1).unwrap();
            }
        });
        let binding = bill(&|| {
            if comm.rank() == 0 {
                comm.send((send_buf(vec![1u64; N]), destination(1), tag(0)))
                    .unwrap();
                let back: Vec<u64> = comm.recv((source(1), tag(1))).unwrap();
                assert_eq!(back.len(), N);
            } else {
                let back: Vec<u64> = comm.recv((source(0), tag(0))).unwrap();
                comm.send((send_buf(back), destination(0), tag(1))).unwrap();
            }
        });
        (substrate, binding)
    });
    for (rank, (substrate, binding)) in bills.into_iter().enumerate() {
        assert!(
            binding <= substrate + 64 * 2,
            "rank {rank}: {binding} B against {substrate} B"
        );
    }
}

/// The blocking allgatherv binding writes every delivered block straight
/// into the caller's buffer: s + r copies total, through the full
/// named-parameter path.
#[test]
fn allgatherv_binding_copies_s_plus_r() {
    const N: usize = 1 << 16; // u8 per rank
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u8; N];
        let counts = vec![N; p];
        let mut out = vec![0u8; p * N];
        let before = metrics::snapshot();
        comm.allgatherv((send_buf(&mine), recv_counts(&counts), recv_buf(&mut out)))
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        // own into recv + own serialization + (p-1) delivered blocks.
        assert_eq!(
            delta.bytes_copied,
            (2 * N + (p - 1) * N) as u64,
            "rank {}: the binding must add no copies over the substrate",
            comm.rank()
        );
    });
}

/// Supplied receive counts select the row by their total, and the copy
/// bill follows the row. At p = 4, 512 B per rank (2 KiB in all) runs
/// recursive doubling and pays equal-block doubling's bill: `s`
/// serialized and `r = 4s` assembled — 5s, the second round's two
/// blocks travelling as the parts of one message, unpacked. 4 KiB per
/// rank (16 KiB in all) stays on the eager fan-out at `s + r` = 5s too,
/// and so does 64 KiB per rank. The counts travel in no header.
#[test]
fn counted_allgatherv_binding_copy_bill_follows_its_row() {
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        for (s, bill) in [(512usize, 5), (4096, 5), (65536, 5)] {
            let mine = vec![comm.rank() as u64; s / 8];
            let counts = vec![s / 8; p];
            let before = metrics::snapshot();
            let all: Vec<u64> = comm
                .allgatherv((send_buf(&mine), recv_counts(&counts)))
                .unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(all.len(), p * s / 8);
            let at = format!("rank {}, {s} B per rank", comm.rank());
            assert_eq!(delta.bytes_copied, (bill * s) as u64, "{at}");
        }
    });
}

/// Receive counts omitted: the self-sizing exchange serializes the send
/// buffer once (s) and copies every delivered block once, straight into
/// the exactly-sized result (r) — no count exchange, no zero-fill, and
/// two allocations: the packed payload and the result.
#[test]
fn alltoallv_counts_absent_copies_s_plus_r_into_one_allocation() {
    const PER_PEER: usize = 1 << 12; // u64 elements
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        // Rank r sends (r + 1) * PER_PEER elements to every peer.
        let n = (comm.rank() + 1) * PER_PEER;
        let send = vec![comm.rank() as u64; p * n];
        let counts = vec![n; p];
        let before = metrics::snapshot();
        let got: Vec<u64> = comm
            .alltoallv((send_buf(&send), send_counts(&counts)))
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(got.len(), (1 + 2 + 3 + 4) * PER_PEER);
        let (s, r) = (8 * send.len() as u64, 8 * got.len() as u64);
        assert_eq!(delta.bytes_copied, s + r, "rank {}", comm.rank());
        assert_eq!(delta.allocations, 2, "rank {}", comm.rank());
    });
}

/// One grid exchange on a 2 x 2 grid: a payload byte is copied twice
/// end to end (pack for the row hop, unpack into the result) and its
/// 24-byte routing header once (the pack); the row hop moves an adopted
/// buffer and the column hop forwards each record it delivered as a
/// refcount part, so the exchanges themselves copy nothing. Two
/// allocations: the row hop's buffer and the result.
#[test]
fn grid_exchange_copies_each_payload_byte_twice() {
    const PER_PEER: usize = 1 << 10; // u32 elements
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        let grid = comm.make_grid().unwrap();
        let send = vec![comm.rank() as u32; p * PER_PEER];
        let counts = vec![PER_PEER; p];
        comm.barrier().unwrap();
        let before = metrics::snapshot();
        let got = grid.alltoallv(&send, &counts).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(got.len(), p * PER_PEER);
        // Uniform traffic: p blocks leave on the row hop, p blocks (this
        // column's, from both rows) on the column hop, p blocks arrive.
        let (payload, header) = ((4 * p * PER_PEER) as u64, 24 * p as u64);
        assert_eq!(delta.bytes_copied, 2 * payload + header);
        assert_eq!(delta.allocations, 2);
    });
}

/// Default-receive `allgather` builds its result once: one serialization
/// of the contribution (s) and one copy of each of the p delivered
/// blocks into the exactly-sized result (p·s) — no zero-fill, no second
/// vector, the substrate `allgather_vec`'s bill to the byte and the
/// allocation. An owned contribution moves into the transport and drops
/// the serialization too.
#[test]
fn allgather_default_receive_copies_s_plus_ps_and_owned_send_only_ps() {
    const N: usize = 1 << 13; // u64 per rank: 64 KiB, the ring regime
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u64; N];
        let s = (8 * N) as u64;

        let before = metrics::snapshot();
        let twin = comm.raw().allgather_vec(&mine).unwrap();
        let substrate = metrics::snapshot().since(&before);

        let before = metrics::snapshot();
        let all: Vec<u64> = comm.allgather(send_buf(&mine)).unwrap();
        let binding = metrics::snapshot().since(&before);
        assert_eq!(all, twin);
        assert_eq!(
            binding.bytes_copied,
            s + p as u64 * s,
            "rank {}",
            comm.rank()
        );
        assert_eq!(
            binding, substrate,
            "the binding adds 0 bytes / 0 allocations"
        );

        let before = metrics::snapshot();
        let owned: Vec<u64> = comm.allgather(send_buf(mine)).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(owned, twin);
        assert_eq!(
            delta.bytes_copied,
            p as u64 * s,
            "owned send_buf is not serialized"
        );
        assert_eq!(delta.allocations, 1, "the result and nothing else");
    });
}

/// The reductions hand the substrate's accumulator to the caller: the
/// binding's `allreduce` and `reduce` bills equal the substrate
/// `allreduce_vec` / `reduce_vec` bills on the same input, in both
/// algorithm regimes and on root and non-root ranks alike.
#[test]
fn reduction_bindings_add_no_copies_and_no_allocations() {
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        // 4 KiB: recursive doubling / binomial tree; 64 KiB and 1 MiB:
        // Rabenseifner.
        for n in [1usize << 9, 1 << 13, 1 << 17] {
            let mine = vec![comm.rank() as u64 + 1; n];

            let before = metrics::snapshot();
            let twin = comm.raw().allreduce_vec(&mine, ops::Sum).unwrap();
            let substrate = metrics::snapshot().since(&before);
            let before = metrics::snapshot();
            let total: Vec<u64> = comm.allreduce((send_buf(&mine), op(ops::Sum))).unwrap();
            let binding = metrics::snapshot().since(&before);
            assert_eq!(total, twin);
            assert_eq!(
                binding,
                substrate,
                "allreduce, n = {n}, rank {}",
                comm.rank()
            );

            let before = metrics::snapshot();
            let twin = comm.raw().reduce_vec(&mine, ops::Sum, 1).unwrap();
            let substrate = metrics::snapshot().since(&before);
            let before = metrics::snapshot();
            let total: Vec<u64> = comm
                .reduce((send_buf(&mine), op(ops::Sum), root(1)))
                .unwrap();
            let binding = metrics::snapshot().since(&before);
            assert_eq!(total, twin.unwrap_or_default());
            assert_eq!(binding, substrate, "reduce, n = {n}, rank {}", comm.rank());
        }
    });
}

/// The send half of the same rule: a blocking `alltoallv` with default
/// (packed) send displacements adopts an owned `send_buf` as the wire
/// payload — the call copies the delivered blocks into the result (r)
/// and nothing on the send side, in one allocation. User-supplied send
/// displacements keep the one serializing copy.
#[test]
fn alltoallv_owned_packed_send_is_not_serialized() {
    const PER_PEER: usize = 1 << 12; // u64 elements
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        let send = vec![comm.rank() as u64; p * PER_PEER];
        let counts = vec![PER_PEER; p];
        let displs: Vec<usize> = (0..p).map(|r| r * PER_PEER).collect();
        let (s, r) = (8 * send.len() as u64, 8 * (p * PER_PEER) as u64);

        let before = metrics::snapshot();
        let got: Vec<u64> = comm
            .alltoallv((
                send_buf(send.clone()),
                send_counts(&counts),
                send_displs(&displs),
            ))
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(got.len(), p * PER_PEER);
        assert_eq!(
            delta.bytes_copied,
            s + r,
            "user displacements: one serialization"
        );

        let before = metrics::snapshot();
        let got: Vec<u64> = comm
            .alltoallv((send_buf(send), send_counts(&counts)))
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(got.len(), p * PER_PEER);
        assert_eq!(delta.bytes_copied, r, "rank {}", comm.rank());
        assert_eq!(delta.allocations, 1, "rank {}", comm.rank());
    });
}

/// Completing an owned `i*` collective copies what it delivers and
/// nothing else: the send buffer comes back as a handle, so the bill of
/// call + `wait()` does not depend on whether a peer has decoded its
/// view yet. (Reclaiming eagerly inside `wait()` lost that race on about
/// every third call and then paid `s` bytes and an allocation for a
/// vector most callers drop.) The result vector itself is allocated by
/// the binding's decode, which `CopyStats` does not count.
#[test]
fn owned_nonblocking_collectives_bill_only_what_they_deliver() {
    const N: usize = 1 << 10; // u64 per rank (and per peer)
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        let (s, counts) = (8 * N as u64, vec![N; p]);
        let bill = |run: &dyn Fn() -> usize| {
            let before = metrics::snapshot();
            let delivered = run();
            (metrics::snapshot().since(&before), delivered)
        };
        for rep in 0..200 {
            let (delta, n) = bill(&|| {
                let fut = comm.iallgatherv(send_buf(vec![rep as u64; N])).unwrap();
                fut.wait().unwrap().0.len()
            });
            assert_eq!(n, p * N);
            assert_eq!((delta.bytes_copied, delta.allocations), (p as u64 * s, 0));

            let (delta, n) = bill(&|| {
                let send = send_buf(vec![rep as u64; p * N]);
                let fut = comm.ialltoallv((send, send_counts(&counts))).unwrap();
                fut.wait().unwrap().0.len()
            });
            assert_eq!(n, p * N);
            assert_eq!((delta.bytes_copied, delta.allocations), (p as u64 * s, 0));

            let (delta, n) = bill(&|| {
                let send = send_buf(vec![rep as u64; N]);
                let fut = comm.iallreduce((send, op(ops::Sum))).unwrap();
                fut.wait().unwrap().0.len()
            });
            assert_eq!(n, N);
            // Recursive doubling: round 0 sends a copy, the last round
            // folds into a fresh vector (the handle still reads the
            // contribution), and `wait()` takes the result back.
            assert_eq!(
                (delta.bytes_copied, delta.allocations),
                (s, 2),
                "iallreduce, rank {}, repetition {rep}",
                comm.rank()
            );
        }
    });
}

/// The handle is the moved-in vector once its last reader is done, and
/// an equal copy before that. After a barrier every peer has completed
/// its `wait()`, hence released its view: `take()` returns the original
/// allocation for nothing. A message nobody has received yet is a view:
/// `take()` does not wait for its reader, it pays one counted copy.
#[test]
fn handle_take_is_the_allocation_once_no_peer_reads_it_and_one_copy_before() {
    const N: usize = 1 << 12;
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u64; N];
        let at = mine.as_ptr();
        let fut = comm.iallgatherv(send_buf(mine)).unwrap();
        let (_all, handle) = fut.wait().unwrap();
        comm.barrier().unwrap();
        assert_eq!(handle[0], comm.rank() as u64, "reading needs no take");
        let before = metrics::snapshot();
        let mine = handle.take();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(mine.as_ptr(), at, "rank {}", comm.rank());
        assert_eq!((delta.bytes_copied, delta.allocations), (0, 0));

        // Rank 1 receives only after rank 0 has taken its buffer back.
        if comm.rank() == 0 {
            let sent = comm.isend((send_buf(mine), destination(1))).unwrap();
            let handle = sent.wait().unwrap();
            let before = metrics::snapshot();
            let mine = handle.take();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(mine, vec![0u64; N]);
            assert_ne!(mine.as_ptr(), at);
            assert_eq!((delta.bytes_copied, delta.allocations), (8 * N as u64, 1));
        }
        comm.barrier().unwrap();
        if comm.rank() == 1 {
            let got: Vec<u64> = comm.recv((source(0),)).unwrap();
            assert_eq!(got, vec![0u64; N]);
        }
    });
}

/// An owned `send_buf` is consumed by the reductions: it is the
/// accumulator. Under recursive doubling the result of `allreduce` *is*
/// the moved-in allocation — the last round folds into it — and the
/// bill is the copy the first round sends, nothing else. In the
/// binomial `reduce` no rank copies anything: a leaf's buffer is its
/// message, an inner rank's buffer is folded into and forwarded, the
/// root's is the result.
#[test]
fn owned_send_buf_is_the_reductions_accumulator() {
    use kamping_repro::mpi::{AllreduceAlgo, CollTuning, ReduceAlgo};
    const N: usize = 1 << 10;
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let s = 8 * N as u64;
        comm.set_tuning(
            CollTuning::default()
                .allreduce(AllreduceAlgo::RecursiveDoubling)
                .reduce(ReduceAlgo::BinomialTree),
        );
        let mine = vec![comm.rank() as u64 + 1; N];
        let at = mine.as_ptr();
        let before = metrics::snapshot();
        let total: Vec<u64> = comm.allreduce((send_buf(mine), op(ops::Sum))).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(total, vec![10; N]);
        assert_eq!(total.as_ptr(), at, "rank {}", comm.rank());
        assert_eq!(
            (delta.bytes_copied, delta.allocations),
            (s, 1),
            "round 0's copy"
        );

        let mine = vec![comm.rank() as u64 + 1; N];
        let at = mine.as_ptr();
        let before = metrics::snapshot();
        let total: Vec<u64> = comm.reduce((send_buf(mine), op(ops::Sum))).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(delta.bytes_copied, 0, "rank {}", comm.rank());
        if comm.rank() == 0 {
            assert_eq!((total.as_ptr(), &total[..]), (at, &[10u64; N][..]));
        }
        // The borrowed leaf keeps its one serialization.
        let mine = vec![comm.rank() as u64 + 1; N];
        let before = metrics::snapshot();
        let _: Vec<u64> = comm.reduce((send_buf(&mine), op(ops::Sum))).unwrap();
        let delta = metrics::snapshot().since(&before);
        let leaf = comm.rank() % 2 == 1;
        assert_eq!(delta.bytes_copied, if leaf { s } else { 0 });
    });
}

/// The blocking `bcast` root puts its buffer on the wire as it is and
/// copies it back after the sends: one allocation and one copy of `s`,
/// alone or among peers — after the children's messages have left, not
/// before — and a failed broadcast leaves a borrowed buffer holding its
/// data.
#[test]
fn bcast_root_sends_its_buffer_before_it_copies_it() {
    const N: usize = 1 << 12;
    let bill = (8 * N as u64, 1);
    Universe::run(1, |comm| {
        let comm = Communicator::new(comm);
        let data = vec![3u64; N];
        let before = metrics::snapshot();
        let back: Vec<u64> = comm.bcast((send_recv_buf(data),)).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(back, [3u64; N]);
        assert_eq!((delta.bytes_copied, delta.allocations), bill);
    });
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        for sized in [false, true] {
            let mut data = if comm.rank() == 2 {
                vec![7u64; N]
            } else {
                vec![]
            };
            let before = metrics::snapshot();
            if sized {
                comm.bcast((send_recv_buf(&mut data), root(2), recv_count(N)))
                    .unwrap();
            } else {
                comm.bcast((send_recv_buf(&mut data), root(2))).unwrap();
            }
            let delta = metrics::snapshot().since(&before);
            assert_eq!(data, vec![7u64; N], "rank {}", comm.rank());
            if comm.rank() == 2 {
                assert_eq!((delta.bytes_copied, delta.allocations), bill);
            }
        }
        // Revocation is not collective: revoke a duplicate, once every
        // rank holds it, so the barrier itself runs undisturbed.
        let doomed = comm.dup().unwrap();
        comm.barrier().unwrap();
        doomed.revoke();
        let mut data = vec![comm.rank() as u64; N];
        let err = doomed.bcast((send_recv_buf(&mut data), root(2)));
        assert!(err.is_err(), "a revoked communicator broadcasts nothing");
        assert_eq!(data, vec![comm.rank() as u64; N], "rank {}", comm.rank());
    });
}

/// A pool discards what its operations carry, so a pooled receive must
/// not decode a payload it is about to drop: draining a pool of
/// `irecv::<u64>` — by `wait_all` or by `wait_any` — bills the receiver
/// nothing, and a `recv_count` the message does not meet still surfaces
/// as `Truncated` from the pool (the check reads the status).
#[test]
fn pooled_receives_are_discarded_undecoded() {
    const N: usize = 1 << 10;
    const K: usize = 6;
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        for one_by_one in [false, true] {
            if comm.rank() == 0 {
                let mut pool = RequestPool::new();
                for k in 0..K as i32 {
                    let args = (source(1), tag(k), recv_count(N));
                    pool.submit_recv(comm.irecv::<u64, _>(args).unwrap());
                }
                let before = metrics::snapshot();
                if one_by_one {
                    while pool.wait_any().unwrap().is_some() {}
                } else {
                    pool.wait_all().unwrap();
                }
                let delta = metrics::snapshot().since(&before);
                assert_eq!(delta.bytes_copied, 0, "one_by_one: {one_by_one}");
            } else {
                for k in 0..K as i32 {
                    let data = vec![k as u64; N];
                    comm.send((send_buf(&data), destination(0), tag(k)))
                        .unwrap();
                }
            }
        }
        for one_by_one in [false, true] {
            if comm.rank() == 0 {
                let mut pool = RequestPool::new();
                let args = (source(1), recv_count(N + 1));
                pool.submit_recv(comm.irecv::<u64, _>(args).unwrap());
                let drained = if one_by_one {
                    pool.wait_any().map(drop)
                } else {
                    pool.wait_all()
                };
                let truncated = kamping_repro::kamping::MpiError::Truncated {
                    message_bytes: 8 * N,
                    buffer_bytes: 8 * (N + 1),
                };
                assert_eq!(drained, Err(truncated), "one_by_one: {one_by_one}");
            } else {
                comm.send((send_buf(&vec![1u64; N]), destination(0)))
                    .unwrap();
            }
        }
    });
}

/// An owned buffer moves into a persistent plan: `allreduce_init`,
/// `allgather_init` and `alltoallv_init` with `send_buf(vec)`, and
/// `bcast_init` with the root's `send_recv_buf(vec)`, copy 0 bytes at
/// init — a borrowed buffer costs one copy of it, 128 KiB for 16 Ki
/// `u64` — and the plan serves its first cycle from that vector.
#[test]
fn owned_buffers_move_into_persistent_plans_without_a_copy() {
    const N: usize = 1 << 14; // u64 elements
    let p = 4usize;
    Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        let s = 8 * N as u64;
        let mine = || vec![comm.rank() as u64; N];
        let counts = vec![N / p; p];
        macro_rules! copied_at_init {
            ($init:expr) => {{
                let before = metrics::snapshot();
                let plan = $init.unwrap();
                (metrics::snapshot().since(&before).bytes_copied, plan)
            }};
        }
        let (copied, _) = copied_at_init!(comm.allreduce_init((send_buf(&mine()), op(ops::Sum))));
        assert_eq!(copied, s, "a borrowed buffer is copied into the plan");

        let buf = mine();
        let (copied, mut plan) =
            copied_at_init!(comm.allreduce_init((send_buf(buf), op(ops::Sum))));
        assert_eq!(copied, 0, "allreduce_init, rank {}", comm.rank());
        plan.start().unwrap();
        assert_eq!(plan.wait().unwrap(), vec![6u64; N]);

        let buf = mine();
        let (copied, mut plan) = copied_at_init!(comm.allgather_init(send_buf(buf)));
        assert_eq!(copied, 0, "allgather_init, rank {}", comm.rank());
        plan.start().unwrap();
        assert_eq!(plan.wait().unwrap().len(), p * N);

        let buf = mine();
        let (copied, mut plan) =
            copied_at_init!(comm.alltoallv_init((send_buf(buf), send_counts(&counts))));
        assert_eq!(copied, 0, "alltoallv_init, rank {}", comm.rank());
        plan.start().unwrap();
        let want: Vec<u64> = (0..p as u64).flat_map(|r| vec![r; N / p]).collect();
        assert_eq!(plan.wait().unwrap(), want);

        let buf = if comm.rank() == 2 { mine() } else { Vec::new() };
        let (copied, mut plan) = copied_at_init!(comm.bcast_init((send_recv_buf(buf), root(2))));
        assert_eq!(copied, 0, "bcast_init, rank {}", comm.rank());
        plan.start().unwrap();
        assert_eq!(plan.wait().unwrap(), vec![2u64; N]);
    });
}

/// Van de Geijn's chunks split a payload at byte offsets: 13 `u64`s
/// over p = 5 break at bytes 20, 41, 62 and 83, so every non-root joins
/// elements cut in two. Every receive shape — the substrate's
/// `bcast_vec`, `bcast_into` and `bcast_bytes`; the binding's `bcast`
/// into a borrowed and into an owned vector, each with and without
/// `recv_count`; `ibcast`; `bcast_init` — lands the root's values with
/// one counted copy of the payload `r` on each non-root, and allocates
/// only where the library owns the result.
#[test]
fn chunks_cut_mid_element_land_once_in_every_receive_shape() {
    use kamping_repro::mpi::request::Completion;
    use kamping_repro::mpi::{bytes_from_slice, BcastAlgo, CollTuning};
    const N: usize = 13;
    const ROOT: usize = 2;
    Universe::run(5, |comm| {
        let comm = Communicator::new(comm);
        comm.set_tuning(CollTuning::default().bcast(BcastAlgo::ScatterAllgather));
        let want: Vec<u64> = (1..=N as u64).map(|i| i * 0x0102_0304_0506_0708).collect();
        let (raw, rank, r) = (comm.raw(), comm.rank(), 8 * N as u64);
        let is_root = rank == ROOT;
        let mine = || if is_root { want.clone() } else { Vec::new() };
        let check = |what: &str, allocations: u64, run: &mut dyn FnMut() -> Vec<u64>| {
            let before = metrics::snapshot();
            let got = run();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(got, want, "{what}, rank {rank}");
            if !is_root {
                let bill = (delta.bytes_copied, delta.allocations);
                assert_eq!(bill, (r, allocations), "{what}, rank {rank}");
            }
        };
        let data = is_root.then_some(&want[..]);
        let parts = raw.bcast_parts(data.map(bytes_from_slice), None, ROOT);
        let chunked = matches!(parts.unwrap(), Completion::Blocks(_));
        assert!(
            is_root || chunked,
            "rank {rank} joins van de Geijn's chunks"
        );
        check("bcast_vec", 1, &mut || raw.bcast_vec(data, ROOT).unwrap());
        check("bcast_into", 0, &mut || {
            let mut buf = if is_root { want.clone() } else { vec![0; N] };
            raw.bcast_into(&mut buf, ROOT).unwrap();
            buf
        });
        let payload = is_root.then(|| bytes_from_slice(&want));
        let mut payload = Some(payload);
        check("bcast_bytes", 1, &mut || {
            let got = raw.bcast_bytes(payload.take().unwrap(), ROOT).unwrap();
            let word = |c: &[u8]| u64::from_ne_bytes(c.try_into().unwrap());
            got.chunks_exact(8).map(word).collect()
        });
        for sized in [false, true] {
            let what = |shape| format!("bcast {shape}, recv_count: {sized}");
            check(&what("&mut Vec"), 0, &mut || {
                let mut buf = mine();
                let args = (send_recv_buf(&mut buf), root(ROOT));
                if sized {
                    comm.bcast((args.0, args.1, recv_count(N))).unwrap();
                } else {
                    comm.bcast(args).unwrap();
                }
                buf
            });
            check(&what("Vec"), 0, &mut || {
                let args = (send_recv_buf(mine()), root(ROOT));
                if sized {
                    comm.bcast((args.0, args.1, recv_count(N))).unwrap()
                } else {
                    comm.bcast(args).unwrap()
                }
            });
        }
        check("ibcast", 1, &mut || {
            let fut = comm.ibcast((send_recv_buf(mine()), root(ROOT))).unwrap();
            fut.wait().unwrap()
        });
        let mut plan = comm
            .bcast_init((send_recv_buf(mine()), root(ROOT)))
            .unwrap();
        check("bcast_init", 1, &mut || {
            plan.start().unwrap();
            plan.wait().unwrap()
        });
    });
}
