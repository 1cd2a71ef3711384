//! Copy-accounting bounds: the substrate's shared-`Bytes` datapath must
//! not copy payloads more often than the algorithm requires — the
//! testable core of the paper's "(near) zero overhead" claim.
//!
//! Counters are per-rank (thread-local); every test snapshots/diffs
//! inside the rank closure, exactly like the PMPI-style call counters.

use kmp_mpi::{metrics, AllreduceAlgo, CollTuning, Universe};

/// Non-root bcast ranks copy O(N) bytes for an N-byte payload no matter
/// how many children they forward to; the root pays exactly one
/// serialization. At p = 8 the root forwards to 3 children and vrank 4
/// to 2 — with per-hop re-serialization those ranks would copy 4N / 3N.
#[test]
fn bcast_copies_payload_once_regardless_of_children() {
    const N: usize = 1 << 20;
    Universe::run(8, |comm| {
        let mut buf = vec![comm.rank() as u8; N];
        let before = metrics::snapshot();
        comm.bcast_into(&mut buf, 0).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(
            delta.bytes_copied,
            N as u64,
            "rank {}: bcast of {N} bytes must copy exactly {N} (root: pack; \
             non-root: unpack; forwarding is refcount cloning)",
            comm.rank()
        );
    });
}

/// The allgather ring forwards each block as the same shared payload: a
/// rank copies its own block once (serialization) plus the full result
/// (assembly) — per-hop re-serialization would triple that.
#[test]
fn allgather_ring_forwards_blocks_without_reserialization() {
    const N: usize = 64 * 1024; // bytes per rank
    let p = 8usize;
    Universe::run(p, move |comm| {
        let mine = vec![comm.rank() as u8; N];
        let before = metrics::snapshot();
        let all = comm.allgather_vec(&mine).unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(all.len(), p * N);
        let bound = (N + p * N) as u64; // own serialization + assembly
        assert_eq!(
            delta.bytes_copied,
            bound,
            "rank {}: ring allgather must copy s + r = {bound} bytes, \
             not O(p) copies per block",
            comm.rank()
        );
    });
}

/// Recursive-doubling allgather wins its latency without packing: each
/// round's block group travels as the parts of one message, so the bill
/// is the ring's, exactly — own serialization `s` and assembly
/// `r = p·s`, nothing per round.
#[test]
fn allgather_recursive_doubling_copies_what_the_ring_copies() {
    use kmp_mpi::AllgatherAlgo;
    const N: usize = 1024; // bytes per rank, under the 12 KiB allgather ceiling
    for p in [4usize, 8] {
        Universe::run(p, move |comm| {
            let mine = vec![comm.rank() as u8; N];
            let bound = (N + p * N) as u64;
            // Auto resolves to RD here (power of two, small blocks).
            let forced = [AllgatherAlgo::Ring, AllgatherAlgo::RecursiveDoubling];
            let tunings = forced.map(|algo| CollTuning::default().allgather(algo));
            for tuning in tunings.into_iter().chain([CollTuning::default()]) {
                comm.set_tuning(tuning);
                let before = metrics::snapshot();
                let all = comm.allgather_vec(&mine).unwrap();
                let delta = metrics::snapshot().since(&before);
                assert_eq!(all.len(), p * N);
                assert_eq!(
                    delta.bytes_copied,
                    bound,
                    "rank {} p={p} {:?}: exact copy bill s + r",
                    comm.rank(),
                    tuning.allgather
                );
            }
        });
    }
}

/// Bruck `alltoall` forwards each round's blocks as the parts of one
/// message, never repacking them: the exchange copies only the send
/// buffer's serialization, `s`, what the pairwise exchange copies.
#[test]
fn alltoall_bruck_copies_what_pairwise_copies() {
    use kmp_mpi::AlltoallAlgo;
    const N: usize = 64; // bytes per block, under the 1 KiB Bruck ceiling
    for p in [3usize, 4, 5, 8] {
        Universe::run(p, move |comm| {
            let send = vec![comm.rank() as u8; p * N];
            for algo in [AlltoallAlgo::Pairwise, AlltoallAlgo::Bruck] {
                comm.set_tuning(CollTuning::default().alltoall(algo));
                let before = metrics::snapshot();
                let blocks = comm.alltoall_blocks(&send).unwrap();
                let delta = metrics::snapshot().since(&before);
                assert!(blocks.iter().all(|b| b.len() == N));
                let at = format!("rank {} p={p} {algo:?}", comm.rank());
                assert_eq!(delta.bytes_copied, (p * N) as u64, "{at}");
                assert_eq!(delta.allocations, 1, "{at}: the serialization only");
            }
        });
    }
}

/// The Bruck allgather forwards every round's blocks as parts too, the
/// multi-block rounds of non-power-of-two sizes included: own
/// serialization `s` and assembly `r = p·s`, exactly, at every `p`.
#[test]
fn allgather_bruck_copies_what_the_ring_copies() {
    use kmp_mpi::AllgatherAlgo;
    const N: usize = 1024; // bytes per rank, under the 12 KiB allgather ceiling
    for p in [3usize, 5, 6, 8] {
        Universe::run(p, move |comm| {
            let mine = vec![comm.rank() as u8; N];
            let bound = (N + p * N) as u64;
            comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Bruck));
            let before = metrics::snapshot();
            let all = comm.allgather_vec(&mine).unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(all.len(), p * N);
            assert_eq!(
                delta.bytes_copied,
                bound,
                "rank {} p={p} Bruck: exact copy bill s + r",
                comm.rank()
            );
            // Auto resolves to Bruck on small non-power-of-two
            // communicators (p >= 4): same bill as the forced run.
            if p >= 4 && !p.is_power_of_two() {
                comm.set_tuning(CollTuning::default());
                let before = metrics::snapshot();
                comm.allgather_vec(&mine).unwrap();
                let delta = metrics::snapshot().since(&before);
                assert_eq!(delta.bytes_copied, bound);
            }
        });
    }
}

/// Same bound for allgatherv into a user buffer (plus the up-front copy
/// of the own block into the receive buffer).
#[test]
fn allgatherv_into_is_single_copy_per_block() {
    const N: usize = 32 * 1024;
    let p = 4usize;
    Universe::run(p, move |comm| {
        let mine = vec![comm.rank() as u64; N / 8];
        let counts = vec![N / 8; p];
        let displs: Vec<usize> = (0..p).map(|r| r * (N / 8)).collect();
        let mut recv = vec![0u64; p * (N / 8)];
        let before = metrics::snapshot();
        comm.allgatherv_into(&mine, &mut recv, &counts, &displs)
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        // own into recv + own serialization + each *other* block into recv.
        let bound = (2 * N + (p - 1) * N) as u64;
        assert_eq!(delta.bytes_copied, bound, "rank {}", comm.rank());
    });
}

/// An owned vector moves into the transport without any copy, and a
/// `Vec<u8>`-shaped receive adopts the delivered allocation without any
/// copy either: a zero-copy end-to-end point-to-point path.
#[test]
fn owned_send_and_byte_recv_are_zero_copy_end_to_end() {
    const N: usize = 1 << 20;
    Universe::run(2, |comm| {
        if comm.rank() == 0 {
            let data = vec![7u8; N];
            let before = metrics::snapshot();
            comm.send_vec(data, 1, 0).unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(delta.bytes_copied, 0, "owned send must not copy");
        } else {
            let before = metrics::snapshot();
            let (got, _) = comm.recv_vec::<u8>(0, 0).unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(got.len(), N);
            assert_eq!(got[0], 7);
            assert_eq!(
                delta.bytes_copied, 0,
                "byte-shaped receive must adopt the delivered allocation"
            );
        }
    });
}

/// A typed (non-u8) receive takes a delivered vector of its own element
/// type back without a copy — the sender's moved-in `Vec<u64>`, or the
/// one its borrowed send serialized — and copies anything else exactly
/// once, here `u64`s sent as bytes.
#[test]
fn typed_recv_reclaims_its_own_element_type_and_copies_anything_else_once() {
    const N: usize = 128 * 1024;
    Universe::run(2, |comm| {
        let data: Vec<u64> = (0..N as u64 / 8).collect();
        if comm.rank() == 0 {
            let before = metrics::snapshot();
            comm.send_vec(data.clone(), 1, 0).unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(delta.bytes_copied, 0, "owned typed send must not copy");
            comm.send(&data, 1, 0).unwrap();
            comm.send_vec(kmp_mpi::plain::as_bytes(&data).to_vec(), 1, 0)
                .unwrap();
        } else {
            for (what, copied) in [("owned", 0), ("borrowed", 0), ("as bytes", N as u64)] {
                let before = metrics::snapshot();
                let (got, _) = comm.recv_vec::<u64>(0, 0).unwrap();
                let delta = metrics::snapshot().since(&before);
                assert_eq!(got, data, "{what}");
                assert_eq!(delta.bytes_copied, copied, "{what}");
            }
        }
    });
}

/// The pairwise alltoallv packs the send buffer once and slices per-peer
/// blocks by refcount: total copies are s + r, and the whole exchange
/// performs one payload allocation per rank.
#[test]
fn alltoallv_packs_once_and_slices() {
    let p = 4usize;
    const PER_PEER: usize = 8 * 1024; // u32 elements per destination
    Universe::run(p, move |comm| {
        let send: Vec<u32> = vec![comm.rank() as u32; p * PER_PEER];
        let counts = vec![PER_PEER; p];
        let displs: Vec<usize> = (0..p).map(|r| r * PER_PEER).collect();
        let mut recv = vec![0u32; p * PER_PEER];
        let before = metrics::snapshot();
        comm.alltoallv_into(&send, &counts, &displs, &mut recv, &counts, &displs)
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        let s = (p * PER_PEER * 4) as u64;
        let r = s;
        assert_eq!(
            delta.bytes_copied,
            s + r,
            "rank {}: pack-once exchange copies s + r",
            comm.rank()
        );
        assert_eq!(
            delta.allocations,
            1,
            "rank {}: one packed payload, per-peer blocks are slices",
            comm.rank()
        );
    });
}

/// The non-blocking allgatherv posts the same shared payload to every
/// peer: zero copies at call time for an adopted owned payload, and the
/// eager fan-out to p-1 peers costs no copies at all.
#[test]
fn iallgatherv_bytes_fan_out_is_copy_free() {
    const N: usize = 256 * 1024;
    let p = 4usize;
    Universe::run(p, move |comm| {
        let own = kmp_mpi::bytes_from_vec(vec![comm.rank() as u8; N]);
        let before = metrics::snapshot();
        let req = comm.iallgatherv_bytes(own).unwrap();
        let call_delta = metrics::snapshot().since(&before);
        assert_eq!(
            call_delta.bytes_copied,
            0,
            "rank {}: posting an adopted payload to {} peers must not copy",
            comm.rank(),
            p - 1
        );
        let blocks = req.wait().unwrap().into_blocks().unwrap();
        assert_eq!(blocks.len(), p);
        assert!(blocks.iter().all(|b| b.len() == N));
    });
}

/// Neither allreduce engine serializes an accumulator every round: it
/// travels as a refcount payload (Rabenseifner: slices of one). A rank
/// copies its contribution when it is borrowed (`s`), and `s` once more
/// — recursive doubling the copy its first round sends, Rabenseifner
/// the assembly of its chunks — where the blocking loops serialized the
/// full vector every doubling round (`s·log2 p`) and packed
/// Rabenseifner's halves and own chunk (`~2s`). Doubling's last round
/// folds into the contribution, so an owned one comes back as the
/// result.
#[test]
fn rabenseifner_allreduce_copies_two_s_per_rank() {
    const ELEMS: usize = 128 * 1024; // u64 -> s = 1 MiB, divisible by p
    let p = 8usize;
    let s = (ELEMS * 8) as u64;
    Universe::run(p, move |comm| {
        let mine = vec![comm.rank() as u64 + 1; ELEMS];
        let sum = (p * (p + 1) / 2) as u64;
        for algo in [
            AllreduceAlgo::Rabenseifner,
            AllreduceAlgo::RecursiveDoubling,
        ] {
            comm.set_tuning(CollTuning::default().allreduce(algo));
            let before = metrics::snapshot();
            let borrowed = comm.allreduce_vec(&mine, kmp_mpi::op::Sum).unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(borrowed, vec![sum; ELEMS]);
            let rank = comm.rank();
            assert_eq!(delta.bytes_copied, 2 * s, "rank {rank}, {algo:?}, borrowed");
            let owned = mine.clone();
            let at = owned.as_ptr();
            let before = metrics::snapshot();
            let result = comm.allreduce_vec(owned, kmp_mpi::op::Sum).unwrap();
            let delta = metrics::snapshot().since(&before);
            assert_eq!(result, borrowed);
            assert_eq!(delta.bytes_copied, s, "rank {rank}, {algo:?}, owned");
            if algo == AllreduceAlgo::RecursiveDoubling {
                assert_eq!(result.as_ptr(), at, "rank {rank}");
            }
        }
    });
}

/// Recursive doubling on two or three ranks (`p2 = 2`) runs one step,
/// which is its first and its last: it sends the accumulator as a
/// refcount payload and folds into the spare or a fresh vector, so no
/// rank copies a message for its partner to fold into. A borrowed
/// contribution costs its serialization (`s`), an owned one nothing —
/// but the low rank of the fix-up (rank 0 at p = 3) also copies the
/// result it hands back to rank 2.
#[test]
fn doubling_allreduce_on_two_or_three_ranks_copies_no_step_message() {
    const ELEMS: usize = 1024; // u64 -> s = 8 KiB
    let s = (ELEMS * 8) as u64;
    for p in [2usize, 3] {
        Universe::run(p, move |comm| {
            comm.set_tuning(CollTuning::default().allreduce(AllreduceAlgo::RecursiveDoubling));
            let rank = comm.rank();
            let mine = vec![rank as u64 + 1; ELEMS];
            let sum = vec![(p * (p + 1) / 2) as u64; ELEMS];
            let bill = |run: &mut dyn FnMut() -> Vec<u64>| {
                let before = metrics::snapshot();
                assert_eq!(run(), sum, "rank {rank}, p = {p}");
                metrics::snapshot().since(&before).bytes_copied
            };
            let borrowed = bill(&mut || comm.allreduce_vec(&mine, kmp_mpi::op::Sum).unwrap());
            let owned = bill(&mut || comm.allreduce_vec(mine.clone(), kmp_mpi::op::Sum).unwrap());
            let handback = if p == 3 && rank == 0 { s } else { 0 };
            let want = [s + handback, handback];
            assert_eq!([borrowed, owned], want, "rank {rank}, p = {p}");
        });
    }
}

/// The allreduce plan's bill in the overlap and persistent lifecycles,
/// exact per rank and read back the way a caller reads it (`into_vec`,
/// which takes the result back without a copy): one copy of `s` — the
/// doubling's first message, or Rabenseifner's assembled chunks — plus
/// the serialization of a borrowed contribution (`iallreduce(&[T])`,
/// or `set_data` before a persistent cycle). Under both rows that is
/// `s` owned and `2s` borrowed per rank — below the flat gather +
/// broadcast they replace (`1.25 s` / `2.25 s` per rank at p = 4). Off
/// powers of two a low rank also copies the result it hands back, and
/// its high partner copies nothing: still `s` per rank on average.
#[test]
fn iallreduce_and_allreduce_init_copy_the_result_once() {
    use kmp_mpi::request::Completion;
    fn read(done: Completion) -> Vec<u64> {
        done.into_vec().expect("one message").0
    }
    for p in [4usize, 6] {
        // Recursive doubling and, from `rabenseifner_min_bytes`, Rabenseifner.
        for elems in [128usize, 32 * 1024] {
            let s = (elems * 8) as u64;
            Universe::run(p, move |comm| {
                let mine = vec![comm.rank() as u64; elems];
                let expected = vec![(p * (p - 1) / 2) as u64; elems];
                let bill = |run: &mut dyn FnMut() -> Vec<u64>| {
                    let before = metrics::snapshot();
                    assert_eq!(run(), expected);
                    metrics::snapshot().since(&before).bytes_copied
                };
                let sum = kmp_mpi::op::Sum;
                let owned = bill(&mut || {
                    let own = kmp_mpi::bytes_from_vec(mine.clone());
                    read(
                        comm.iallreduce_bytes::<u64, _>(own, sum)
                            .unwrap()
                            .wait()
                            .unwrap(),
                    )
                });
                let borrowed =
                    bill(&mut || read(comm.iallreduce(&mine, sum).unwrap().wait().unwrap()));
                let mut plan = comm.allreduce_init(&mine, sum).unwrap();
                let replay = bill(&mut || {
                    plan.start().unwrap();
                    read(plan.wait().unwrap())
                });
                let refreshed = bill(&mut || {
                    plan.set_data(&mine).unwrap();
                    plan.start().unwrap();
                    read(plan.wait().unwrap())
                });
                // p2 = 4, the largest power of two <= p, for both p.
                let own = match comm.rank() {
                    r if r + 4 < p => 2 * s,
                    r if r >= 4 => 0,
                    _ => s,
                };
                let want = [own, own + s, own, own + s];
                let rank = comm.rank();
                assert_eq!(
                    [owned, borrowed, replay, refreshed],
                    want,
                    "rank {rank}, p = {p}"
                );
            });
        }
    }
}

/// The default thresholds select by size: small payloads stay on
/// recursive doubling (s·log2 p bill), large ones switch to
/// Rabenseifner (~2s) without any tuning call.
#[test]
fn auto_allreduce_switches_algorithms_by_size() {
    let p = 4usize;
    Universe::run(p, move |comm| {
        // 1 KiB: below every threshold -> recursive doubling (2 rounds).
        let small = vec![1u64; 128];
        let before = metrics::snapshot();
        comm.allreduce_vec(&small, kmp_mpi::op::Sum).unwrap();
        let d = metrics::snapshot().since(&before);
        assert_eq!(d.bytes_copied, 2 * 1024, "rank {}", comm.rank());

        // 256 KiB: above the Rabenseifner threshold -> ~2s.
        let big = vec![1u64; 32 * 1024];
        let s = (32 * 1024 * 8) as u64;
        let before = metrics::snapshot();
        comm.allreduce_vec(&big, kmp_mpi::op::Sum).unwrap();
        let d = metrics::snapshot().since(&before);
        assert_eq!(d.bytes_copied, 2 * s, "rank {}", comm.rank());
    });
}

/// The binomial reduce folds delivered payloads in place: a leaf's whole
/// bill is the single serialization towards its parent (`s`), an inner
/// node pays nothing — its accumulator *moves* into the message to its
/// parent — and the root pays only the copy into the caller's receive
/// buffer. Previously the root of p = 4 paid `3s` (two materialized
/// children + the output copy). The inner node's bill dropped from `s`
/// to `0` when blocking `reduce` became a driver of the engine `ireduce`
/// resumes: the blocking loop re-serialized its accumulator
/// (`send_slice_internal(&acc)`) where the engine hands it over.
#[test]
fn inplace_binomial_reduce_halves_the_bill() {
    const ELEMS: usize = 64 * 1024; // u64 -> s = 512 KiB
    let p = 4usize;
    let s = (ELEMS * 8) as u64;
    Universe::run(p, move |comm| {
        let mine = vec![comm.rank() as u64; ELEMS];
        let mut out = vec![0u64; ELEMS];
        let before = metrics::snapshot();
        comm.reduce_into(&mine, &mut out, kmp_mpi::op::Sum, 0)
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        // Rank 2 is the one inner node of the p = 4 tree (child: 3).
        let expected = if comm.rank() == 2 { 0 } else { s };
        assert_eq!(
            delta.bytes_copied,
            expected,
            "rank {}: leaf = one send, inner = none, root = one output copy",
            comm.rank()
        );
        if comm.rank() == 0 {
            assert_eq!(out[0], 6); // 0 + 1 + 2 + 3
        }
    });
}

/// The doubling scan's copy bill, exact per rank. Folds read the
/// delivered prefix in place (no per-round `Vec` materialization), so a
/// rank copies only what it serializes: `s` per round `k` that has both
/// a left partner (`2^k <= rank`, the prefix is still growing) and a
/// right one (`rank + 2^k < p`), plus `s` once for every later right
/// partner together (the finished prefix is one shared payload —
/// `exscan` moves it out instead) — at most `s·ceil(log2 p)`. On top
/// of that rank 0 of `scan` copies a borrowed contribution into its
/// result. Every other rank of `exscan` seeds its result with the first
/// prefix it receives and takes it back without a copy where it is the
/// one view of its vector: the serialized prefix of rank `r - 1 >= 1`,
/// or rank 0's finished prefix at `p = 2`. From `p = 3` rank 1 shares
/// that payload with rank 0's other right partners and copies it by
/// rule, whenever they release it: the bill is exact at every `p`. An
/// owned contribution is folded in place and seeds nothing.
#[test]
fn scan_and_exscan_copy_one_prefix_per_sending_round() {
    const ELEMS: usize = 4 * 1024; // u64 -> s = 32 KiB
    let s = (ELEMS * 8) as u64;
    for p in [2usize, 4, 5, 8, 13] {
        Universe::run(p, move |comm| {
            let rank = comm.rank();
            let log = p.next_power_of_two().trailing_zeros() as usize;
            let growing = (0..log).filter(|k| 1 << k <= rank && rank + (1 << k) < p);
            let finished = (0..log).any(|k| 1 << k > rank && rank + (1 << k) < p);
            let (growing, finished) = (growing.count() as u64, u64::from(finished));
            assert!(growing + finished <= log as u64);
            let first = u64::from(rank == 0);
            let mine = vec![rank as u64 + 1; ELEMS];
            let copied = |run: &mut dyn FnMut()| {
                let before = metrics::snapshot();
                run();
                metrics::snapshot().since(&before).bytes_copied / s
            };
            let sum = kmp_mpi::op::Sum;

            let r = rank as u64 + 1;
            let borrowed = copied(&mut || {
                assert_eq!(comm.scan_vec(&mine, sum).unwrap()[0], r * (r + 1) / 2);
            });
            assert_eq!(
                borrowed,
                growing + finished + first,
                "scan_vec, rank {rank}"
            );
            let owned = copied(&mut || drop(comm.scan_vec(mine.clone(), sum).unwrap()));
            assert_eq!(owned, growing + finished, "owned scan_vec, rank {rank}");

            // Rank 1's seed, a view rank 0's other right partners share.
            let shared = u64::from(rank == 1 && p > 2);
            let borrowed = copied(&mut || drop(comm.exscan_vec(&mine, sum).unwrap()));
            let bill = growing + first * finished + shared;
            assert_eq!(borrowed, bill, "exscan, rank {rank}");
            let owned = copied(&mut || drop(comm.exscan_vec(mine.clone(), sum).unwrap()));
            assert_eq!(owned, growing + shared, "owned exscan, rank {rank}");
        });
    }
}

/// Scatter packs the root's buffer once; every per-destination block is
/// a refcount slice of it.
#[test]
fn scatter_root_packs_once() {
    let p = 4usize;
    const PER_RANK: usize = 16 * 1024;
    Universe::run(p, move |comm| {
        let before = metrics::snapshot();
        let got = comm
            .scatter_vec(
                (comm.rank() == 0)
                    .then(|| vec![9u8; p * PER_RANK])
                    .as_deref(),
                0,
            )
            .unwrap();
        let delta = metrics::snapshot().since(&before);
        assert_eq!(got.len(), PER_RANK);
        if comm.rank() == 0 {
            // One pack of the whole buffer + materializing the own block.
            assert_eq!(delta.bytes_copied, (p * PER_RANK + PER_RANK) as u64);
            assert!(
                delta.allocations <= 2,
                "pack + own-block vector, not one allocation per peer"
            );
        } else {
            assert_eq!(delta.bytes_copied, PER_RANK as u64);
        }
    });
}

/// One definition ⇒ one bill: each round-structured algorithm is a
/// single engine that the blocking call drives on its stack and the
/// `i*` call resumes on `wait`, so both lifecycles must charge every
/// rank the same bytes *and* the same allocations for the same input.
/// (Before the engines were shared the binomial tree failed this at
/// inner nodes and the root: `ireduce` materialized the accumulator
/// twice.)
#[test]
fn blocking_and_nonblocking_lifecycles_pay_the_same_bill() {
    use kmp_mpi::op::Sum;
    use kmp_mpi::{AllgatherAlgo, AlltoallAlgo, CopyStats, NeighborhoodColl, ReduceAlgo};
    const N: usize = 512; // u64 elements per block
    fn bill(f: impl FnOnce()) -> CopyStats {
        let before = metrics::snapshot();
        f();
        metrics::snapshot().since(&before)
    }
    for p in [4usize, 5, 8] {
        Universe::run(p, move |comm| {
            let rank = comm.rank();
            let mine = vec![rank as u64; N];
            for algo in [AllgatherAlgo::RecursiveDoubling, AllgatherAlgo::Bruck] {
                comm.set_tuning(CollTuning::default().allgather(algo));
                let own = || kmp_mpi::bytes_from_vec(mine.clone());
                let (a, b) = (own(), own());
                let blocking = bill(|| drop(comm.allgather_blocks(a).unwrap()));
                let nonblocking = bill(|| drop(comm.iallgather_bytes(b).unwrap().wait().unwrap()));
                assert_eq!(
                    blocking, nonblocking,
                    "rank {rank} p={p} allgather {algo:?}"
                );
            }

            comm.set_tuning(CollTuning::default().alltoall(AlltoallAlgo::Bruck));
            let send = vec![rank as u64; p * N];
            let blocking = bill(|| drop(comm.alltoall_blocks(&send).unwrap()));
            let nonblocking = bill(|| drop(comm.ialltoall(&send).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} alltoall Bruck");

            // Root 1 puts leaves, inner nodes and the root on distinct
            // ranks of every p here.
            comm.set_tuning(CollTuning::default().reduce(ReduceAlgo::BinomialTree));
            let blocking = bill(|| drop(comm.reduce_vec(&mine, Sum, 1).unwrap()));
            let nonblocking = bill(|| drop(comm.ireduce(&mine, Sum, 1).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} binomial reduce");

            let blocking = bill(|| comm.barrier().unwrap());
            let nonblocking = bill(|| drop(comm.ibarrier().unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} barrier");
            assert_eq!(blocking, CopyStats::default(), "a barrier moves no payload");

            // The flat rows: one `Exchange` under both drivers.
            comm.set_tuning(CollTuning::default().allgather(AllgatherAlgo::Ring));
            let own = || kmp_mpi::bytes_from_vec(mine.clone());
            let (a, b) = (own(), own());
            let blocking = bill(|| drop(comm.allgather_blocks(a).unwrap()));
            let nonblocking = bill(|| drop(comm.iallgather_bytes(b).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} allgather ring");
            let (a, b) = (own(), own());
            let blocking = bill(|| drop(comm.allgatherv_blocks(a, None).unwrap()));
            let nonblocking = bill(|| drop(comm.iallgatherv_bytes(b).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} allgatherv");

            let packed = || kmp_mpi::bytes_from_vec(send.clone());
            let (a, b, counts) = (packed(), packed(), vec![N * 8; p]);
            let blocking = bill(|| drop(comm.alltoallv_blocks_bytes(a, &counts).unwrap()));
            let nonblocking =
                bill(|| drop(comm.ialltoallv_bytes(b, &counts).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} alltoallv");

            comm.set_tuning(CollTuning::default().reduce(ReduceAlgo::FlatGather));
            let blocking = bill(|| drop(comm.reduce_vec(&mine, Sum, 1).unwrap()));
            let nonblocking = bill(|| drop(comm.ireduce(&mine, Sum, 1).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} flat reduce");
            if rank == 1 {
                // The root serializes its own block once and reclaims
                // rank 0's as the accumulator: rank 0's last send hands
                // the payload over by move, so no view of it is left.
                let own = CopyStats {
                    bytes_copied: N as u64 * 8,
                    allocations: 1,
                };
                assert_eq!(blocking, own, "rank 1 p={p} flat reduce root");
            }

            let next = [(rank + 1) % p, (rank + 2) % p];
            let prev = [(rank + p - 1) % p, (rank + p - 2) % p];
            let g = comm.create_dist_graph_adjacent(&prev, &next).unwrap();
            let blocking =
                bill(|| drop(g.neighbor_alltoallv_blocks(&mine, &[N / 2; 2], &[0, N / 2])));
            let nonblocking = bill(|| {
                let req = g.ineighbor_alltoallv(&mine, &[N / 2; 2]).unwrap();
                drop(req.wait().unwrap())
            });
            assert_eq!(
                blocking, nonblocking,
                "rank {rank} p={p} sparse neighborhood"
            );

            // The scatter and broadcast plans: the blocking forms drive
            // what `i*` starts. Scatter: root `s + r`, everyone else `r`.
            let all = vec![rank as u64; p * N];
            let root_data = (rank == 1).then_some(&all[..]);
            let blocking = bill(|| drop(comm.scatter_vec(root_data, 1).unwrap()));
            let nonblocking = bill(|| {
                let req = comm.iscatter(root_data, 1).unwrap();
                drop(req.wait().unwrap().into_vec::<u64>())
            });
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} scatter");
            let s = if rank == 1 { p * N * 8 } else { 0 };
            assert_eq!(
                blocking.bytes_copied,
                (s + N * 8) as u64,
                "rank {rank} p={p}"
            );
            let own = || (rank == 1).then(|| kmp_mpi::bytes_from_vec(mine.clone()));
            let (a, b) = (own(), own());
            let blocking = bill(|| drop(comm.bcast_bytes(a, 1).unwrap()));
            let nonblocking = bill(|| drop(comm.ibcast_bytes(b, 1).unwrap().wait().unwrap()));
            assert_eq!(blocking, nonblocking, "rank {rank} p={p} bcast");
            assert_eq!(
                blocking,
                CopyStats::default(),
                "an adopted bcast copies nothing"
            );
        });
    }
}

/// A partitioned cycle's exact bill. The sender's `pready` serializes
/// each partition into one fresh envelope: one allocation and
/// `part_bytes` copied per partition. The receiver copies each
/// partition into its reassembly buffer once and hands that buffer out
/// as the cycle's result, so `wait` copies nothing; the one allocation
/// is the next cycle's buffer.
#[test]
fn partitioned_cycle_copies_each_partition_once_per_side() {
    use kmp_mpi::CopyStats;
    const PARTS: usize = 2;
    const ELEMS: usize = 4;
    const BYTES: u64 = (PARTS * ELEMS * 8) as u64;
    let data =
        |cycle: u64| -> Vec<u64> { (0..(PARTS * ELEMS) as u64).map(|i| i + cycle).collect() };
    Universe::run(2, move |comm| {
        if comm.rank() == 0 {
            let mut send = comm.psend_init::<u64>(PARTS, ELEMS, 1, 4).unwrap();
            let w = send.writer();
            for cycle in 0..3 {
                send.start().unwrap();
                let before = metrics::snapshot();
                for (p, part) in data(cycle).chunks(ELEMS).enumerate() {
                    w.pready(p, part).unwrap();
                }
                let bill = metrics::snapshot().since(&before);
                send.wait().unwrap();
                let want = CopyStats {
                    bytes_copied: BYTES,
                    allocations: PARTS as u64,
                };
                assert_eq!(bill, want, "sender, cycle {cycle}");
            }
        } else {
            let mut recv = comm.precv_init::<u64>(PARTS, ELEMS, 0, 4).unwrap();
            for cycle in 0..3 {
                let before = metrics::snapshot();
                recv.start().unwrap();
                let got = recv.wait().unwrap();
                let bill = metrics::snapshot().since(&before);
                assert_eq!(got, data(cycle));
                let want = CopyStats {
                    bytes_copied: BYTES,
                    allocations: 1,
                };
                assert_eq!(bill, want, "receiver, cycle {cycle}");
            }
        }
    });
}
