//! Property-based tests: collective results against sequential oracles
//! for arbitrary rank counts, payload sizes and values; serialization
//! round-trips; sorting and reduction invariants.

use kamping_repro::kamping::plugins::repro_reduce::ReproducibleReduce;
use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::Universe;
use proptest::prelude::*;

/// What provided receive storage holds before a call.
const STALE: u64 = u64::MAX;

/// Runs `$comm.$op(($args.., recv_buf-shape))` once per receive-buffer
/// shape — absent, `&mut` exact, `&mut` oversized, `resize_to_fit` (from
/// too large and from empty), `grow_only` (from empty and from too
/// large), owned — and checks each against `$expected`: the result is
/// the storage's prefix, what lies behind it is left as it was. With
/// `$check` false the calls are made (collectives must match up across
/// ranks) and nothing is asserted.
macro_rules! every_recv_shape {
    ($comm:ident.$op:ident($($arg:expr),+), $expected:expr, $check:expr) => {{
        let (expected, check): (&[u64], bool) = ($expected, $check);
        let n = expected.len();
        let verify = |shape: &str, got: &[u64], tail: usize| {
            if check {
                assert_eq!(got.len(), n + tail, "{}: {shape}", stringify!($op));
                assert_eq!(&got[..n], expected, "{}: {shape}", stringify!($op));
                assert!(got[n..].iter().all(|&v| v == STALE), "{}: {shape} tail", stringify!($op));
            }
        };
        let got: Vec<u64> = $comm.$op(($($arg,)+)).unwrap();
        verify("absent", &got, 0);
        let mut v = vec![STALE; n];
        $comm.$op(($($arg,)+ recv_buf(&mut v))).unwrap();
        verify("&mut exact", &v, 0);
        let mut v = vec![STALE; n + 3];
        $comm.$op(($($arg,)+ recv_buf(&mut v))).unwrap();
        verify("&mut oversized", &v, 3);
        let mut v = vec![STALE; n + 3];
        $comm.$op(($($arg,)+ recv_buf(&mut v).resize_to_fit())).unwrap();
        verify("resize_to_fit shrinks", &v, 0);
        let mut v = Vec::new();
        $comm.$op(($($arg,)+ recv_buf(&mut v).resize_to_fit())).unwrap();
        verify("resize_to_fit grows", &v, 0);
        let mut v = Vec::new();
        $comm.$op(($($arg,)+ recv_buf(&mut v).grow_only())).unwrap();
        verify("grow_only grows", &v, 0);
        let mut v = vec![STALE; n + 3];
        $comm.$op(($($arg,)+ recv_buf(&mut v).grow_only())).unwrap();
        verify("grow_only keeps", &v, 3);
        let got: Vec<u64> = $comm.$op(($($arg,)+ recv_buf(vec![STALE; n + 3]))).unwrap();
        verify("owned oversized", &got, 3);
        let got: Vec<u64> = $comm
            .$op(($($arg,)+ recv_buf(Vec::new()).resize_to_fit()))
            .unwrap();
        verify("owned resize_to_fit", &got, 0);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every regular collective equals its sequential oracle under every
    /// receive-buffer shape, empty contributions included.
    #[test]
    fn regular_collectives_match_oracle_for_every_recv_buf_shape(
        p in 1usize..9,
        n in 0usize..4,
        seed in any::<u64>()
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        // data[u][v * n + i]: what u sends to v in the personalized
        // exchanges; its first n elements are u's contribution elsewhere.
        // Below 2^32, so sums are exact.
        let data: Vec<Vec<u64>> = (0..p)
            .map(|_| (0..p * n).map(|_| rng.random_range(0..1u64 << 32)).collect())
            .collect();
        let at_root = rng.random_range(0..p);
        let data = &data;
        Universe::run(p, move |comm| {
            use kamping_repro::kamping::params::root as at;
            let comm = Communicator::new(comm);
            let me = comm.rank();
            let (all, mine) = (&data[me], &data[me][..n]);
            let is_root = me == at_root;
            let sum_below = |end: usize| -> Vec<u64> {
                (0..n).map(|i| data[..end].iter().map(|d| d[i]).sum()).collect()
            };
            let concat: Vec<u64> = data.iter().flat_map(|d| d[..n].iter().copied()).collect();
            let transposed: Vec<u64> = data
                .iter()
                .flat_map(|d| d[me * n..(me + 1) * n].iter().copied())
                .collect();
            let rooted = |full: Vec<u64>| if is_root { full } else { Vec::new() };

            every_recv_shape!(comm.allgather(send_buf(mine)), &concat, true);
            every_recv_shape!(comm.gather(send_buf(mine), at(at_root)), &rooted(concat.clone()), true);
            every_recv_shape!(comm.alltoall(send_buf(all)), &transposed, true);
            every_recv_shape!(
                comm.scatter(send_buf(all), at(at_root)),
                &data[at_root][me * n..(me + 1) * n],
                true
            );
            every_recv_shape!(comm.allreduce(send_buf(mine), op(ops::Sum)), &sum_below(p), true);
            every_recv_shape!(
                comm.reduce(send_buf(mine), op(ops::Sum), at(at_root)),
                &rooted(sum_below(p)),
                true
            );
            every_recv_shape!(comm.scan(send_buf(mine), op(ops::Sum)), &sum_below(me + 1), true);
            // Rank 0's exclusive prefix is undefined in MPI: pinned below.
            every_recv_shape!(comm.exscan(send_buf(mine), op(ops::Sum)), &sum_below(me), me > 0);
            if me == 0 {
                let fresh: Vec<u64> = comm.exscan((send_buf(mine), op(ops::Sum))).unwrap();
                assert_eq!(fresh, vec![0; n], "library storage is zeroed");
            } else {
                let _: Vec<u64> = comm.exscan((send_buf(mine), op(ops::Sum))).unwrap();
            }
        });
    }

    #[test]
    fn allgatherv_concatenates_any_distribution(
        blocks in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..20), 1..6)
    ) {
        let p = blocks.len();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mine = blocks[comm.rank()].clone();
            comm.allgatherv(send_buf(&mine)).unwrap()
        });
        let expected: Vec<u64> = blocks.iter().flatten().copied().collect();
        for got in out {
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // counts built in rank order
    fn alltoallv_is_a_permutation_router(
        p in 1usize..5,
        seed in any::<u64>()
    ) {
        // Every rank sends (rank, dest, k) records; receivers must get
        // exactly the records addressed to them, grouped by sender.
        use rand::prelude::*;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mut rng = StdRng::seed_from_u64(seed ^ comm.rank() as u64);
            let mut send: Vec<u64> = Vec::new();
            let mut counts = vec![0usize; p];
            for dest in 0..p {
                let k = rng.random_range(0..5);
                counts[dest] = k;
                for i in 0..k {
                    send.push((comm.rank() * 1_000_000 + dest * 1_000 + i) as u64);
                }
            }
            let got: Vec<u64> = comm.alltoallv((send_buf(&send), send_counts(&counts))).unwrap();
            (comm.rank(), got)
        });
        for (rank, got) in out {
            for v in got {
                let dest = (v / 1_000 % 1_000) as usize;
                prop_assert_eq!(dest, rank, "record routed to the wrong rank");
            }
        }
    }

    #[test]
    fn allreduce_sum_matches_oracle(
        blocks in prop::collection::vec(prop::collection::vec(0u64..1_000_000, 1..8), 1..6)
    ) {
        let p = blocks.len();
        let width = blocks.iter().map(Vec::len).min().unwrap();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mine = blocks[comm.rank()][..width].to_vec();
            let total: Vec<u64> = comm.allreduce((send_buf(&mine), op(ops::Sum))).unwrap();
            total
        });
        let expected: Vec<u64> = (0..width)
            .map(|i| blocks.iter().map(|b| b[i]).sum())
            .collect();
        for got in out {
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn scan_prefixes_match_oracle(values in prop::collection::vec(any::<u32>(), 1..6)) {
        let p = values.len();
        let values = &values;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![values[comm.rank()] as u64];
            let running: Vec<u64> = comm.scan((send_buf(&mine), op(ops::Sum))).unwrap();
            running[0]
        });
        let mut acc = 0u64;
        for (r, got) in out.into_iter().enumerate() {
            acc += values[r] as u64;
            prop_assert_eq!(got, acc);
        }
    }

    #[test]
    fn sorter_produces_globally_sorted_permutation(
        blocks in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..60), 1..6)
    ) {
        let p = blocks.len();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mut data = blocks[comm.rank()].clone();
            comm.sort(&mut data).unwrap();
            data
        });
        let got: Vec<u64> = out.concat();
        let mut expected: Vec<u64> = blocks.iter().flatten().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn reproducible_reduce_independent_of_partition(
        values in prop::collection::vec(-1e6f64..1e6, 1..80),
        p1 in 1usize..5,
        p2 in 1usize..5,
    ) {
        let run = |p: usize, values: &Vec<f64>| -> u64 {
            let values = &values;
            let out = Universe::run(p, move |comm| {
                let comm = Communicator::new(comm);
                let lo = comm.rank() * values.len() / p;
                let hi = (comm.rank() + 1) * values.len() / p;
                comm.reproducible_reduce(&values[lo..hi], ops::Sum).unwrap()
            });
            let bits = out[0].to_bits();
            assert!(out.iter().all(|v| v.to_bits() == bits));
            bits
        };
        prop_assert_eq!(run(p1, &values), run(p2, &values));
    }

    #[test]
    fn serialization_roundtrip_arbitrary_maps(
        entries in prop::collection::btree_map(".{0,12}", any::<i64>(), 0..10)
    ) {
        let entries = &entries;
        Universe::run(2, move |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(as_serialized(entries)), destination(1))).unwrap();
            } else {
                let got: std::collections::BTreeMap<String, i64> =
                    comm.recv((recv_buf(as_deserializable()), source(0))).unwrap();
                assert_eq!(&got, entries);
            }
        });
    }

    #[test]
    fn bcast_delivers_root_content_from_any_root(
        data in prop::collection::vec(any::<u32>(), 0..50),
        p in 1usize..6,
        root_pick in any::<usize>(),
    ) {
        let root = root_pick % p;
        let data = &data;
        Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mut buf = if comm.rank() == root { data.clone() } else { Vec::new() };
            comm.bcast((send_recv_buf(&mut buf), kamping_repro::kamping::params::root(root)))
                .unwrap();
            assert_eq!(&buf, data);
        });
    }

    #[test]
    fn iallgatherv_matches_blocking_for_any_distribution(
        blocks in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..20), 1..6)
    ) {
        let p = blocks.len();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mine = blocks[comm.rank()].clone();
            let blocking: Vec<u64> = comm.allgatherv(send_buf(&mine)).unwrap();
            // Ownership handback (§III-E): `mine` moves in and comes back.
            let fut = comm.iallgatherv(send_buf(mine)).unwrap();
            let (nonblocking, counts, mine) = fut.wait_with_counts().unwrap();
            (blocking, nonblocking, counts, mine)
        });
        let expected: Vec<u64> = blocks.iter().flatten().copied().collect();
        let expected_counts: Vec<usize> = blocks.iter().map(Vec::len).collect();
        for (rank, (blocking, nonblocking, counts, mine)) in out.into_iter().enumerate() {
            prop_assert_eq!(&blocking, &expected);
            prop_assert_eq!(&nonblocking, &expected);
            prop_assert_eq!(&counts, &expected_counts);
            prop_assert_eq!(&mine[..], &blocks[rank][..], "moved-in buffer readable, unchanged");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // counts built in rank order
    fn ialltoallv_matches_blocking_router(
        p in 1usize..5,
        seed in any::<u64>()
    ) {
        use rand::prelude::*;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mut rng = StdRng::seed_from_u64(seed ^ (comm.rank() as u64).wrapping_mul(0x9E37));
            let mut send: Vec<u64> = Vec::new();
            let mut counts = vec![0usize; p];
            for dest in 0..p {
                let k = rng.random_range(0..5);
                counts[dest] = k;
                for i in 0..k {
                    send.push((comm.rank() * 1_000_000 + dest * 1_000 + i) as u64);
                }
            }
            let blocking: Vec<u64> =
                comm.alltoallv((send_buf(&send), send_counts(&counts))).unwrap();
            let fut = comm.ialltoallv((send_buf(send), send_counts(&counts))).unwrap();
            let (nonblocking, rcounts, _send) = fut.wait_with_counts().unwrap();
            (blocking, nonblocking, rcounts)
        });
        for (blocking, nonblocking, rcounts) in out {
            prop_assert_eq!(&blocking, &nonblocking, "non-blocking must route identically");
            prop_assert_eq!(rcounts.iter().sum::<usize>(), nonblocking.len());
        }
    }

    #[test]
    fn iallreduce_matches_blocking_sum(
        blocks in prop::collection::vec(prop::collection::vec(0u64..1_000_000, 1..8), 1..6)
    ) {
        let p = blocks.len();
        let width = blocks.iter().map(Vec::len).min().unwrap();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mine = blocks[comm.rank()][..width].to_vec();
            let blocking: Vec<u64> = comm.allreduce((send_buf(&mine), op(ops::Sum))).unwrap();
            let fut = comm.iallreduce((send_buf(mine), op(ops::Sum))).unwrap();
            let (nonblocking, _mine) = fut.wait().unwrap();
            (blocking, nonblocking)
        });
        for (blocking, nonblocking) in out {
            prop_assert_eq!(blocking, nonblocking);
        }
    }

    #[test]
    fn ibcast_delivers_root_content(
        data in prop::collection::vec(any::<u32>(), 0..50),
        p in 1usize..6,
        root_pick in any::<usize>(),
    ) {
        let root = root_pick % p;
        let data = &data;
        Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let buf = if comm.rank() == root { data.clone() } else { Vec::new() };
            let fut = comm
                .ibcast((send_recv_buf(buf), kamping_repro::kamping::params::root(root)))
                .unwrap();
            let got = fut.wait().unwrap();
            assert_eq!(&got, data);
        });
    }

    /// Owned means moved, never different: wherever an owned `send_buf`
    /// (or `send_recv_buf`) is consumed, `v.clone()` and `&v` give equal
    /// results, and the handle a non-blocking operation hands back reads
    /// as `v`. The forced algorithms put an owned accumulator on every
    /// role, the fixup ranks of non-power-of-two `p` included.
    #[test]
    fn owned_send_buf_equals_borrowed_wherever_it_is_consumed(
        p in 1usize..9,
        n in 0usize..5,
        seed in any::<u64>()
    ) {
        use kamping_repro::kamping::params::root;
        use kamping_repro::mpi::{AllreduceAlgo, CollTuning, ReduceAlgo};
        use rand::prelude::*;
        let at_root = (seed % p as u64) as usize;
        Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let rank = comm.rank();
            let mut rng = StdRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E37));
            let v: Vec<u64> = (0..n).map(|_| rng.random_range(0..1u64 << 32)).collect();
            let to_each: Vec<u64> = (0..p * n).map(|_| rng.random()).collect();
            // x -> a x + b over u32, packed as (a, b): composition is
            // associative and not commutative.
            let compose = || {
                ops::non_commutative(|f: &u64, g: &u64| {
                    let (a1, b1, a2, b2) = ((f >> 32) as u32, *f as u32, (g >> 32) as u32, *g as u32);
                    (u64::from(a1.wrapping_mul(a2)) << 32)
                        | u64::from(a2.wrapping_mul(b1).wrapping_add(b2))
                })
            };

            let at = |r: usize| if rank == r { v.clone() } else { Vec::new() };
            let mut borrowed = at(at_root);
            comm.bcast((send_recv_buf(&mut borrowed), root(at_root))).unwrap();
            let owned: Vec<u64> = comm.bcast((send_recv_buf(at(at_root)), root(at_root))).unwrap();
            assert_eq!(owned, borrowed, "bcast");
            let mut sized = at(at_root);
            comm.bcast((send_recv_buf(&mut sized), root(at_root), recv_count(n))).unwrap();
            let owned: Vec<u64> = comm
                .bcast((send_recv_buf(at(at_root)), root(at_root), recv_count(n)))
                .unwrap();
            assert_eq!((&owned, &sized), (&borrowed, &borrowed), "sized bcast");

            for tuning in [
                CollTuning::default(),
                CollTuning::default()
                    .allreduce(AllreduceAlgo::RecursiveDoubling)
                    .reduce(ReduceAlgo::BinomialTree),
                CollTuning::default()
                    .allreduce(AllreduceAlgo::Rabenseifner)
                    .reduce(ReduceAlgo::FlatGather),
            ] {
                comm.raw().set_tuning(tuning);
                macro_rules! same {
                    ($op:ident($($arg:expr),+)) => {{
                        let borrowed: Vec<u64> = comm.$op((send_buf(&v), $($arg),+)).unwrap();
                        let owned: Vec<u64> = comm.$op((send_buf(v.clone()), $($arg),+)).unwrap();
                        assert_eq!(owned, borrowed, "{} under {tuning:?}", stringify!($op($($arg),+)));
                    }};
                }
                same!(allreduce(op(ops::Sum)));
                same!(allreduce(op(compose())));
                same!(reduce(op(ops::Sum), root(at_root)));
                same!(reduce(op(compose()), root(at_root)));
                same!(scan(op(ops::Sum)));
                same!(scan(op(compose())));
                same!(exscan(op(ops::Sum)));
                same!(exscan(op(compose())));
                macro_rules! same_nonblocking {
                    ($op:ident($($arg:expr),*)) => {{
                        let (borrowed, ()) = comm.$op((send_buf(&v), $($arg),*)).unwrap().wait().unwrap();
                        let fut = comm.$op((send_buf(v.clone()), $($arg),*)).unwrap();
                        let (owned, handle): (Vec<u64>, _) = fut.wait().unwrap();
                        assert_eq!(owned, borrowed, "{} under {tuning:?}", stringify!($op));
                        assert_eq!(&handle[..], &v[..], "{}: the handle reads as v", stringify!($op));
                        assert_eq!(handle.take(), v, "{}: and takes as v", stringify!($op));
                    }};
                }
                same_nonblocking!(iallreduce(op(ops::Sum)));
                same_nonblocking!(iallreduce(op(compose())));
                same_nonblocking!(iallgather());
                same_nonblocking!(iallgatherv());
            }
            comm.raw().set_tuning(CollTuning::default());

            let counts = vec![n; p];
            let fut = comm.ialltoallv((send_buf(&to_each), send_counts(&counts))).unwrap();
            let (borrowed, ()) = fut.wait().unwrap();
            let fut = comm.ialltoallv((send_buf(to_each.clone()), send_counts(&counts))).unwrap();
            let (owned, handle): (Vec<u64>, _) = fut.wait().unwrap();
            assert_eq!(owned, borrowed, "ialltoallv");
            assert_eq!(&handle[..], &to_each[..], "ialltoallv: the handle reads as the buffer");

            let (next, prev) = ((rank + 1) % p, (rank + p - 1) % p);
            let sent = comm.isend((send_buf(&v), destination(next))).unwrap();
            let borrowed: Vec<u64> = comm.recv((source(prev),)).unwrap();
            sent.wait().unwrap();
            let sent = comm.isend((send_buf(v.clone()), destination(next))).unwrap();
            let owned: Vec<u64> = comm.recv((source(prev),)).unwrap();
            let handle = sent.wait().unwrap();
            assert_eq!(owned, borrowed, "isend");
            assert_eq!(&handle[..], &v[..], "isend: the handle reads as v");

            // The persistent twins take the same owned or borrowed buffer
            // as the first cycle's data; fresh data is set before each
            // later one. Every cycle equals the blocking call on its data.
            let fresh = |base: &[u64], k: u64| -> Vec<u64> {
                base.iter().map(|x| x.wrapping_add(k * 7919)).collect()
            };
            let forced = CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner);
            macro_rules! same_persistent {
                ($init:ident / $blocking:ident, $base:expr, ($($arg:expr),*)) => {{
                    let base: &Vec<u64> = $base;
                    let borrowed = comm.$init((send_buf(base), $($arg),*)).unwrap();
                    let owned = comm.$init((send_buf(base.clone()), $($arg),*)).unwrap();
                    for (shape, mut plan) in [("borrowed", borrowed), ("owned", owned)] {
                        for k in 0..3 {
                            let data = fresh(base, k);
                            if k > 0 {
                                plan.set_data(&data).unwrap();
                            }
                            let want: Vec<u64> =
                                comm.$blocking((send_buf(&data), $($arg),*)).unwrap();
                            plan.start().unwrap();
                            let got = plan.wait().unwrap();
                            assert_eq!(got, want, "{} ({shape}), cycle {k}", stringify!($init));
                        }
                    }
                }};
            }
            same_persistent!(allreduce_init / allreduce, &v, (op(ops::Sum)));
            same_persistent!(allreduce_init / allreduce, &v, (op(compose())));
            same_persistent!(allreduce_init / allreduce, &v, (op(ops::Sum), tuning(forced)));
            same_persistent!(allgather_init / allgather, &v, ());
            same_persistent!(allgatherv_init / allgatherv, &v, ());
            same_persistent!(alltoallv_init / alltoallv, &to_each, (send_counts(&counts)));
            let mut plan = comm.bcast_init((send_recv_buf(at(at_root)), root(at_root))).unwrap();
            for k in 0..3 {
                let mut want = if rank == at_root { fresh(&v, k) } else { Vec::new() };
                if k > 0 && rank == at_root {
                    plan.set_data(&want).unwrap();
                }
                comm.bcast((send_recv_buf(&mut want), root(at_root))).unwrap();
                plan.start().unwrap();
                assert_eq!(plan.wait().unwrap(), want, "bcast_init, cycle {k}");
            }
        });
    }

    #[test]
    fn gatherv_then_scatterv_is_identity(
        blocks in prop::collection::vec(prop::collection::vec(any::<u16>(), 0..16), 1..5)
    ) {
        let p = blocks.len();
        let blocks = &blocks;
        Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            let mine = blocks[comm.rank()].clone();
            let (all, counts) = comm
                .gatherv((send_buf(&mine), recv_counts_out()))
                .unwrap();
            // Root redistributes exactly what it collected.
            let back: Vec<u16> = comm
                .scatterv((send_buf(&all), send_counts(&counts)))
                .unwrap();
            assert_eq!(back, mine);
        });
    }

    /// Receive counts omitted (read off the delivered blocks) and receive
    /// counts supplied must be indistinguishable — data, `recv_counts_out`
    /// and `recv_displs_out` — for all five blocking v-collectives, with
    /// empty blocks and ranks that send nothing at all.
    #[test]
    fn recv_counts_absent_equals_recv_counts_provided(
        p in 1usize..9,
        seed in any::<u64>()
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        // m[u][v]: elements u sends to v. About a third of the blocks and
        // every block of about a quarter of the ranks are empty.
        let m: Vec<Vec<usize>> = (0..p)
            .map(|_| {
                let silent = rng.random_range(0..4) == 0;
                (0..p)
                    .map(|_| rng.random_range(0..6usize).saturating_sub(2))
                    .map(|n| if silent { 0 } else { n })
                    .collect()
            })
            .collect();
        // A random directed topology, self-edges included.
        let edge: Vec<Vec<bool>> = (0..p)
            .map(|_| (0..p).map(|_| rng.random_range(0..3) != 0).collect())
            .collect();
        let root = rng.random_range(0..p);
        let (m, edge) = (&m, &edge);
        Universe::run(p, move |comm| {
            use kamping_repro::kamping::params::root as at;
            let comm = Communicator::new(comm);
            let me = comm.rank();
            let value = |to: usize, i: usize| (me * 10_000 + to * 100 + i) as u32;
            let (rc_out, rd_out) = (recv_counts_out, recv_displs_out);

            // alltoallv
            let sc = m[me].clone();
            let send: Vec<u32> = (0..p)
                .flat_map(|v| (0..sc[v]).map(move |i| value(v, i)))
                .collect();
            let rc: Vec<usize> = (0..p).map(|u| m[u][me]).collect();
            let absent = comm
                .alltoallv((send_buf(&send), send_counts(&sc), rc_out(), rd_out()))
                .unwrap();
            let (data, rd) = comm
                .alltoallv((send_buf(&send), send_counts(&sc), recv_counts(&rc), rd_out()))
                .unwrap();
            assert_eq!(absent, (data, rc, rd), "alltoallv");

            // allgatherv / gatherv: rank u contributes its block for rank 0.
            let mine = &send[..sc[0]];
            let lens: Vec<usize> = (0..p).map(|u| m[u][0]).collect();
            let absent = comm
                .allgatherv((send_buf(mine), rc_out(), rd_out()))
                .unwrap();
            let (data, rd) = comm
                .allgatherv((send_buf(mine), recv_counts(&lens), rd_out()))
                .unwrap();
            assert_eq!(absent, (data, lens.clone(), rd), "allgatherv");
            let absent = comm
                .gatherv((send_buf(mine), rc_out(), rd_out(), at(root)))
                .unwrap();
            let (data, rd) = comm
                .gatherv((send_buf(mine), recv_counts(&lens), rd_out(), at(root)))
                .unwrap();
            let lens = if me == root { lens } else { Vec::new() };
            assert_eq!(absent, (data, lens, rd), "gatherv");

            // The neighborhood pair over the random topology.
            let sources: Vec<usize> = (0..p).filter(|&u| edge[u][me]).collect();
            let dests: Vec<usize> = (0..p).filter(|&v| edge[me][v]).collect();
            let g = comm.create_dist_graph_adjacent(&sources, &dests).unwrap();
            let sc: Vec<usize> = dests.iter().map(|&v| m[me][v]).collect();
            let send: Vec<u32> = dests
                .iter()
                .flat_map(|&v| (0..m[me][v]).map(move |i| value(v, i)))
                .collect();
            let rc: Vec<usize> = sources.iter().map(|&u| m[u][me]).collect();
            let absent = g
                .neighbor_alltoallv((send_buf(&send), send_counts(&sc), rc_out(), rd_out()))
                .unwrap();
            let (data, rd) = g
                .neighbor_alltoallv((send_buf(&send), send_counts(&sc), recv_counts(&rc), rd_out()))
                .unwrap();
            assert_eq!(absent, (data, rc, rd), "neighbor_alltoallv");
            let lens: Vec<usize> = sources.iter().map(|&u| m[u][0]).collect();
            let absent = g
                .neighbor_allgatherv((send_buf(mine), rc_out(), rd_out()))
                .unwrap();
            let (data, rd) = g
                .neighbor_allgatherv((send_buf(mine), recv_counts(&lens), rd_out()))
                .unwrap();
            assert_eq!(absent, (data, lens, rd), "neighbor_allgatherv");
        });
    }
}
