//! Parameter-combination matrix (§III-H of the paper: "All wrapped MPI
//! functionality has been extensively tested using a large number of
//! parameter combinations").
//!
//! Each test exercises one distinct combination of named parameters —
//! in/out roles, ordering, resize policies, ownership modes — and checks
//! the result against the ground truth.

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::Universe;

// --- allgatherv ------------------------------------------------------------

#[test]
fn allgatherv_send_only() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![comm.rank() as u32; comm.rank()];
        let all: Vec<u32> = comm.allgatherv(send_buf(&v)).unwrap();
        assert_eq!(all, vec![1, 2, 2]);
    });
}

#[test]
fn allgatherv_params_in_reversed_order() {
    // Named parameters are order-free (§III-A).
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![comm.rank() as u32; comm.rank()];
        let (all, counts) = comm.allgatherv((recv_counts_out(), send_buf(&v))).unwrap();
        assert_eq!(all, vec![1, 2, 2]);
        assert_eq!(counts, vec![0, 1, 2]);
    });
}

#[test]
fn allgatherv_counts_in_displs_out() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![comm.rank() as u8; 2];
        let counts = vec![2usize, 2];
        let (all, displs) = comm
            .allgatherv((send_buf(&v), recv_counts(&counts), recv_displs_out()))
            .unwrap();
        assert_eq!(all, vec![0, 0, 1, 1]);
        assert_eq!(displs, vec![0, 2]);
    });
}

#[test]
fn allgatherv_custom_displacements_with_gaps() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![comm.rank() as u16 + 1];
        let counts = vec![1usize, 1];
        let displs = vec![1usize, 3];
        let mut out = vec![9u16; 4];
        comm.allgatherv((
            send_buf(&v),
            recv_counts(&counts),
            recv_displs(&displs),
            recv_buf(&mut out),
        ))
        .unwrap();
        assert_eq!(out, vec![9, 1, 9, 2]);
    });
}

#[test]
fn allgatherv_grow_only_keeps_excess() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![5u8];
        let mut out = vec![7u8; 10];
        comm.allgatherv((send_buf(&v), recv_buf(&mut out).grow_only()))
            .unwrap();
        assert_eq!(&out[..2], &[5, 5]);
        assert_eq!(out.len(), 10, "grow_only must not shrink");
    });
}

#[test]
fn allgatherv_no_resize_rejects_small_buffer() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![1u8, 2];
        let mut out = vec![0u8; 1]; // too small, default policy
        let err = comm
            .allgatherv((send_buf(&v), recv_buf(&mut out)))
            .unwrap_err();
        // Undersized no_resize buffers are a recoverable error, not a
        // panic (§III-C upgraded from KaMPIng's unchecked default).
        assert!(matches!(
            err,
            kamping_repro::mpi::MpiError::Truncated { .. }
        ));
    });
}

// --- resize policies across collectives (§III-C) ---------------------------
//
// Each v-collective × {grow_only, resize_to_fit, no_resize}, including the
// undersized-no_resize case, which must surface as a recoverable error
// (MpiError::Truncated), never a panic.

#[test]
fn gatherv_resize_policies_matrix() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u32; comm.rank() + 1]; // 6 total at root

        // grow_only: an oversized buffer keeps its excess.
        let mut grow = vec![77u32; 10];
        comm.gatherv((send_buf(&mine), recv_buf(&mut grow).grow_only()))
            .unwrap();
        if comm.rank() == 0 {
            assert_eq!(&grow[..6], &[0, 1, 1, 2, 2, 2]);
            assert_eq!(grow.len(), 10, "grow_only must not shrink");
        }

        // resize_to_fit: exact fit from any starting size.
        let mut fit = vec![0u32; 1];
        comm.gatherv((send_buf(&mine), recv_buf(&mut fit).resize_to_fit()))
            .unwrap();
        if comm.rank() == 0 {
            assert_eq!(fit, vec![0, 1, 1, 2, 2, 2]);
        } else {
            assert!(fit.is_empty(), "non-roots need no storage");
        }

        // no_resize with a large-enough buffer succeeds…
        let mut exact = vec![0u32; if comm.rank() == 0 { 6 } else { 0 }];
        comm.gatherv((send_buf(&mine), recv_buf(&mut exact)))
            .unwrap();

        // …and an undersized root buffer errors (only the root needs
        // storage; its failure is root-local and non-roots have already
        // completed their eager sends).
        let mut small = vec![0u32; if comm.rank() == 0 { 2 } else { 0 }];
        let res = comm.gatherv((send_buf(&mine), recv_buf(&mut small)));
        if comm.rank() == 0 {
            assert!(matches!(
                res.unwrap_err(),
                kamping_repro::mpi::MpiError::Truncated { .. }
            ));
        } else {
            res.unwrap();
        }
    });
}

#[test]
fn allgatherv_resize_policies_matrix() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u8; comm.rank() + 1]; // 6 total

        let mut grow = vec![9u8; 8];
        comm.allgatherv((send_buf(&mine), recv_buf(&mut grow).grow_only()))
            .unwrap();
        assert_eq!(&grow[..6], &[0, 1, 1, 2, 2, 2]);
        assert_eq!(grow.len(), 8);

        let mut fit = Vec::new();
        comm.allgatherv((send_buf(&mine), recv_buf(&mut fit).resize_to_fit()))
            .unwrap();
        assert_eq!(fit, vec![0, 1, 1, 2, 2, 2]);

        let mut exact = vec![0u8; 6];
        comm.allgatherv((send_buf(&mine), recv_buf(&mut exact)))
            .unwrap();
        assert_eq!(exact, fit);

        // Undersized no_resize: every rank errors symmetrically, once
        // the exchange has completed.
        let mut small = vec![0u8; 3];
        let err = comm
            .allgatherv((send_buf(&mine), recv_buf(&mut small)))
            .unwrap_err();
        assert!(matches!(
            err,
            kamping_repro::mpi::MpiError::Truncated { .. }
        ));
    });
}

#[test]
fn alltoallv_resize_policies_matrix() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let send = vec![comm.rank() as u16; 4];
        let counts = vec![2usize, 2];

        let mut grow = vec![8u16; 6];
        comm.alltoallv((
            send_buf(&send),
            send_counts(&counts),
            recv_buf(&mut grow).grow_only(),
        ))
        .unwrap();
        assert_eq!(&grow[..4], &[0, 0, 1, 1]);
        assert_eq!(grow.len(), 6);

        let mut fit = vec![0u16; 9];
        comm.alltoallv((
            send_buf(&send),
            send_counts(&counts),
            recv_buf(&mut fit).resize_to_fit(),
        ))
        .unwrap();
        assert_eq!(fit, vec![0, 0, 1, 1]);

        let mut exact = vec![0u16; 4];
        comm.alltoallv((send_buf(&send), send_counts(&counts), recv_buf(&mut exact)))
            .unwrap();
        assert_eq!(exact, fit);

        // Undersized no_resize with recv_counts supplied: the same typed
        // error, raised once the exchange has completed.
        let mut small = vec![0u16; 1];
        let err = comm
            .alltoallv((
                send_buf(&send),
                send_counts(&counts),
                recv_counts(&counts),
                recv_buf(&mut small),
            ))
            .unwrap_err();
        assert!(matches!(
            err,
            kamping_repro::mpi::MpiError::Truncated { .. }
        ));
    });
}

/// An undersized `no_resize` buffer on one rank only: that rank gets
/// `Truncated` *after* the exchange has completed — storage is prepared
/// once the bytes exist — so its peers succeed (none is left waiting for
/// a rank that bailed out before sending) and no message of the failed
/// call is left queued: the same operation, repeated at once on the same
/// communicator, delivers exactly its own data. Covers the v-collectives
/// with counts omitted and the regular collectives alike.
#[test]
fn undersized_buffer_fails_alone_and_leaves_no_stray_messages() {
    use kamping_repro::mpi::MpiError;
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let (p, me) = (comm.size(), comm.rank());
        let g = comm
            .create_dist_graph_adjacent(&[(me + p - 1) % p], &[(me + 1) % p])
            .unwrap();
        let counts = vec![1usize; p];
        // Round 0 fails on rank 0, round 1 must be unaffected by it.
        for round in 0..2u32 {
            let send = vec![round * 10 + me as u32; p];
            let small = |rank: usize| vec![0u32; if round == 0 && rank == 0 { 0 } else { p }];
            let expect = |res: kamping_repro::mpi::Result<()>, got: &[u32], want: &[u32]| {
                if round == 0 && me == 0 {
                    assert!(matches!(res, Err(MpiError::Truncated { .. })), "{res:?}");
                } else {
                    res.unwrap();
                    assert_eq!(&got[..want.len()], want);
                }
            };
            let all: Vec<u32> = (0..p as u32).map(|r| round * 10 + r).collect();

            let mut out = small(me);
            let res = comm.alltoallv((send_buf(&send), send_counts(&counts), recv_buf(&mut out)));
            expect(res, &out, &all);

            let mut out = small(me);
            let res = comm.allgatherv((send_buf(&send[..1]), recv_buf(&mut out)));
            expect(res, &out, &all);

            let mut out = small(me);
            let res = comm.gatherv((send_buf(&send[..1]), recv_buf(&mut out)));
            expect(res, &out, if me == 0 { &all } else { &[] });

            let left = [all[(me + p - 1) % p]];
            let mut out = small(me);
            let res =
                g.neighbor_alltoallv((send_buf(&send[..1]), send_counts(&[1]), recv_buf(&mut out)));
            expect(res, &out, &left);

            let mut out = small(me);
            let res = g.neighbor_allgatherv((send_buf(&send[..1]), recv_buf(&mut out)));
            expect(res, &out, &left);

            let mut out = small(me);
            let res = comm.allgather((send_buf(&send[..1]), recv_buf(&mut out)));
            expect(res, &out, &all);

            let mut out = small(me);
            let res = comm.gather((send_buf(&send[..1]), recv_buf(&mut out)));
            expect(res, &out, if me == 0 { &all } else { &[] });

            let mut out = small(me);
            let res = comm.alltoall((send_buf(&send), recv_buf(&mut out)));
            expect(res, &out, &all);

            let mut out = small(me);
            let res = comm.allreduce((send_buf(&send[..1]), op(ops::Sum), recv_buf(&mut out)));
            expect(res, &out, &[all.iter().sum()]);
        }
    });
}

/// A sized `bcast` whose root holds something else than `recv_count`
/// elements communicates first and fails after: the root broadcasts what
/// it has and then reports `InvalidLayout` (its buffer intact), its
/// peers see a payload of the wrong length — nobody is left waiting for
/// a root that bailed out — and the next collective on the communicator
/// is unaffected. Under both broadcast algorithms, and under a deadline:
/// the failure this guards against is a hang.
#[test]
fn sized_bcast_with_a_wrong_root_buffer_fails_after_the_broadcast() {
    use kamping_repro::mpi::{BcastAlgo, CollTuning, MpiError};
    let (done, deadline) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            for algo in [BcastAlgo::Binomial, BcastAlgo::ScatterAllgather] {
                comm.set_tuning(CollTuning::default().bcast(algo));
                let mut buf = vec![comm.rank() as u32; 3];
                let res = comm.bcast((send_recv_buf(&mut buf), root(1), recv_count(4)));
                if comm.rank() == 1 {
                    assert!(matches!(res, Err(MpiError::InvalidLayout(_))), "{res:?}");
                    assert_eq!(buf, vec![1; 3], "the root keeps its data");
                } else {
                    assert!(matches!(res, Err(MpiError::Truncated { .. })), "{res:?}");
                }
                let all: Vec<u32> = comm.allgather(send_buf(&[comm.rank() as u32])).unwrap();
                assert_eq!(all, vec![0, 1, 2], "{algo:?}");
            }
        });
        let _ = done.send(());
    });
    deadline
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("a rank is still waiting for the root's broadcast");
}

/// Supplied receive counts are verified against the delivered blocks
/// after the exchange: the rank whose counts are wrong gets `Truncated`,
/// its peers are served, and the next call is unaffected.
#[test]
fn wrong_supplied_recv_counts_are_truncated_after_the_exchange() {
    use kamping_repro::mpi::MpiError;
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let (p, me) = (comm.size(), comm.rank());
        let ones = vec![1usize; p];
        let all: Vec<u32> = (0..p as u32).collect();
        for round in 0..2 {
            let wrong = round == 0 && me == 0;
            let claimed = if wrong { vec![2usize; p] } else { ones.clone() };
            let expect = |res: kamping_repro::mpi::Result<Vec<u32>>, want: &[u32]| {
                if wrong {
                    assert!(matches!(res, Err(MpiError::Truncated { .. })), "{res:?}");
                } else {
                    assert_eq!(res.unwrap(), want);
                }
            };
            let send = vec![me as u32; p];
            let args = (send_buf(&send), send_counts(&ones), recv_counts(&claimed));
            expect(comm.alltoallv(args), &all);
            let args = (send_buf(&send[..1]), recv_counts(&claimed));
            expect(comm.allgatherv(args), &all);
            let args = (send_buf(&send[..1]), recv_counts(&claimed));
            expect(comm.gatherv(args), if me == 0 { &all } else { &[] });
        }
    });
}

/// A delivered message that is not whole elements of the receive type is
/// a typed error, not a panic — in point-to-point receives and in the
/// assembled blocks of a collective alike, in every lifecycle: blocking,
/// `i*` and `*_init`, and at a broadcast's non-root. The failing rank's
/// next collective succeeds, and a persistent plan runs its next cycle.
#[test]
fn element_size_mismatch_is_truncated_not_a_panic() {
    use kamping_repro::mpi::{MpiError, Result};
    fn truncated<T: std::fmt::Debug>(res: Result<T>) {
        assert!(
            matches!(
                res,
                Err(MpiError::Truncated {
                    message_bytes: 3,
                    ..
                })
            ),
            "{res:?}"
        );
    }
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let next_collective = || {
            let all: Vec<u32> = comm.allgather(send_buf(&[comm.rank() as u32])).unwrap();
            assert_eq!(all, vec![0, 1]);
        };
        if comm.rank() == 0 {
            for _ in 0..4 {
                comm.send((send_buf(&[1u8, 2, 3][..]), destination(1)))
                    .unwrap();
            }
            comm.send((send_buf(&[4u8, 0, 0, 0][..]), destination(1)))
                .unwrap();
        } else {
            let err = comm.recv::<u32, _>((source(0),)).unwrap_err();
            assert_eq!(
                err,
                MpiError::Truncated {
                    message_bytes: 3,
                    buffer_bytes: 0
                }
            );
            let mut out = vec![0u16; 4];
            truncated(comm.recv::<u16, _>((source(0), recv_buf(&mut out).resize_to_fit())));
            assert_eq!(
                out,
                vec![0; 4],
                "a rejected message leaves the buffer as it was"
            );
            truncated(comm.irecv::<u32, _>(source(0)).unwrap().wait());
            let mut plan = comm.recv_init::<u32, _>(source(0)).unwrap();
            plan.start().unwrap();
            truncated(plan.wait());
            plan.start().unwrap();
            assert_eq!(plan.wait().unwrap(), vec![4]);
        }
        next_collective();
        // A broadcast of three bytes, which a `u32` non-root cannot take.
        if comm.rank() == 0 {
            comm.bcast((send_recv_buf(&mut vec![1u8, 2, 3]),)).unwrap();
        } else {
            let mut data = vec![9u32];
            truncated(comm.bcast((send_recv_buf(&mut data),)));
            assert_eq!(data, vec![9]);
        }
        next_collective();
        // Ranks disagreeing on the element type: rank 0 contributes three
        // bytes, which rank 1 cannot assemble into u16s.
        if comm.rank() == 0 {
            let mine = [7u8, 8, 9];
            let all: Vec<u8> = comm.allgatherv(send_buf(&mine[..])).unwrap();
            assert_eq!((&all[..3], all.len()), (&[7, 8, 9][..], 5));
            let (all, ()) = comm
                .iallgatherv(send_buf(&mine[..]))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(all.len(), 5);
            let mut plan = comm.allgatherv_init(send_buf(&mine[..])).unwrap();
            for data in [&mine[..], &mine[..2]] {
                plan.set_data(data).unwrap();
                plan.start().unwrap();
                assert_eq!(plan.wait().unwrap().len(), data.len() + 2);
            }
            // Three bytes to rank 1, one to itself.
            let (send, counts) = ([1u8, 2, 3, 4], [1usize, 3]);
            let all: Vec<u8> = comm
                .alltoallv((send_buf(&send), send_counts(&counts)))
                .unwrap();
            assert_eq!(all.len(), 3);
            let fut = comm.ialltoallv((send_buf(&send), send_counts(&counts)));
            assert_eq!(fut.unwrap().wait().unwrap().0.len(), 3);
            let mut plan = comm
                .alltoallv_init((send_buf(&send), send_counts(&counts)))
                .unwrap();
            for _ in 0..2 {
                plan.start().unwrap();
                assert_eq!(plan.wait().unwrap().len(), 3);
            }
        } else {
            let mine = [1u16];
            truncated(comm.allgatherv::<u16, _>(send_buf(&mine[..])));
            truncated(comm.iallgatherv(send_buf(&mine[..])).unwrap().wait());
            let mut plan = comm.allgatherv_init(send_buf(&mine[..])).unwrap();
            plan.start().unwrap();
            truncated(plan.wait());
            plan.start().unwrap();
            assert_eq!(
                plan.wait().unwrap(),
                vec![0x0807, 1],
                "the next cycle is whole"
            );
            let (send, counts) = ([5u16, 6], [1usize, 1]);
            truncated(comm.alltoallv::<u16, _>((send_buf(&send), send_counts(&counts))));
            truncated(
                comm.ialltoallv((send_buf(&send), send_counts(&counts)))
                    .unwrap()
                    .wait(),
            );
            let mut plan = comm
                .alltoallv_init((send_buf(&send), send_counts(&counts)))
                .unwrap();
            for _ in 0..2 {
                plan.start().unwrap();
                truncated(plan.wait());
            }
        }
        next_collective();
    });
}

// --- gather / scatter roots ------------------------------------------------

#[test]
fn gather_root_param_any_position() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let a: Vec<u8> = comm
            .gather((root(3), send_buf(&[comm.rank() as u8])))
            .unwrap();
        let b: Vec<u8> = comm
            .gather((send_buf(&[comm.rank() as u8]), root(3)))
            .unwrap();
        assert_eq!(a, b);
        if comm.rank() == 3 {
            assert_eq!(a, vec![0, 1, 2, 3]);
        }
    });
}

#[test]
fn gatherv_with_recv_buf_and_both_outs() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let v = vec![comm.rank() as u64; comm.rank() + 1];
        let mut store = Vec::new();
        let (counts, displs) = comm
            .gatherv((
                send_buf(&v),
                recv_buf(&mut store).resize_to_fit(),
                recv_counts_out(),
                recv_displs_out(),
            ))
            .unwrap();
        if comm.rank() == 0 {
            assert_eq!(store, vec![0, 1, 1, 2, 2, 2]);
            assert_eq!(counts, vec![1, 2, 3]);
            assert_eq!(displs, vec![0, 1, 3]);
        } else {
            assert!(store.is_empty());
        }
    });
}

#[test]
fn scatterv_counts_and_explicit_displs() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let send: Vec<u32> = if comm.rank() == 0 {
            vec![1, 2, 3, 4]
        } else {
            vec![]
        };
        let counts = vec![1usize, 2];
        let displs = vec![0usize, 2]; // skip element 1
        let mine: Vec<u32> = comm
            .scatterv((send_buf(&send), send_counts(&counts), send_displs(&displs)))
            .unwrap();
        if comm.rank() == 0 {
            assert_eq!(mine, vec![1]);
        } else {
            assert_eq!(mine, vec![3, 4]);
        }
    });
}

// --- alltoallv -------------------------------------------------------------

#[test]
fn alltoallv_owned_send_with_explicit_send_displs() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        // Send buffer has a junk prefix; displacements skip it.
        let send = vec![99u64, comm.rank() as u64, comm.rank() as u64 + 10];
        let counts = vec![1usize, 1];
        let displs = vec![1usize, 2];
        let got: Vec<u64> = comm
            .alltoallv((send_buf(send), send_counts(&counts), send_displs(&displs)))
            .unwrap();
        // Rank 0 receives each sender's displ-1 element (the sender's
        // rank); rank 1 each sender's displ-2 element (rank + 10).
        let offset = comm.rank() as u64 * 10;
        assert_eq!(got, vec![offset, offset + 1]);
    });
}

#[test]
fn alltoallv_recv_into_owned_moved_container() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let send = vec![comm.rank() as u16; 2];
        let counts = vec![1usize, 1];
        let reused = Vec::with_capacity(32);
        let got: Vec<u16> = comm
            .alltoallv((
                send_buf(&send),
                send_counts(&counts),
                recv_buf(reused).resize_to_fit(),
            ))
            .unwrap();
        assert_eq!(got, vec![0, 1]);
        assert!(got.capacity() >= 32, "moved-in allocation is reused");
    });
}

// --- reductions ------------------------------------------------------------

#[test]
fn reduce_with_recv_buf_at_root() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let mut out = vec![0u64; 2];
        comm.reduce((
            send_buf(&[1u64, comm.rank() as u64][..]),
            op(ops::Sum),
            recv_buf(&mut out).grow_only(),
            root(1),
        ))
        .unwrap();
        if comm.rank() == 1 {
            assert_eq!(out, vec![3, 3]);
        }
    });
}

#[test]
fn allreduce_min_max_pair() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let mine = [comm.rank() as i64 - 1];
        let lo: Vec<i64> = comm.allreduce((send_buf(&mine[..]), op(ops::Min))).unwrap();
        let hi: Vec<i64> = comm.allreduce((send_buf(&mine[..]), op(ops::Max))).unwrap();
        assert_eq!((lo[0], hi[0]), (-1, 2));
    });
}

/// A reused receive buffer that is *larger* than the result: `no_resize`
/// and `grow_only` promise "error only if too small", so the reductions
/// write the prefix and leave the tail alone (they used to reject the
/// buffer — `reduce` on the root only, after the communication);
/// `resize_to_fit` cuts it to size. Borrowed and owned storage alike.
#[test]
fn reductions_accept_exact_and_oversized_storage_under_every_policy() {
    const STALE: u64 = 99;
    // `$fits`: the policy cuts oversized storage down to the result.
    // `$defined` is false where MPI leaves the result undefined.
    macro_rules! check {
        ($comm:ident.$op:ident($($arg:expr),+).$policy:ident(), $fits:expr, $want:expr, $defined:expr) => {
            for extra in [0usize, 3] {
                let want: &[u64] = $want;
                let mut v = vec![STALE; want.len() + extra];
                $comm.$op(($($arg,)+ recv_buf(&mut v).$policy())).unwrap();
                let owned: Vec<u64> = $comm
                    .$op(($($arg,)+ recv_buf(vec![STALE; want.len() + extra]).$policy()))
                    .unwrap();
                let what = format!("{}.{} + {extra}", stringify!($op), stringify!($policy));
                assert_eq!(v, owned, "{what}: borrowed and owned agree");
                let tail = if $fits { 0 } else { extra };
                assert_eq!(v.len(), want.len() + tail, "{what}");
                assert_eq!(&v[want.len()..], &vec![STALE; tail][..], "{what}: tail untouched");
                if $defined {
                    assert_eq!(&v[..want.len()], want, "{what}");
                }
            }
        };
    }
    macro_rules! every_policy {
        ($comm:ident.$op:ident($($arg:expr),+), $want:expr, $defined:expr) => {
            check!($comm.$op($($arg),+).no_resize(), false, $want, $defined);
            check!($comm.$op($($arg),+).grow_only(), false, $want, $defined);
            check!($comm.$op($($arg),+).resize_to_fit(), true, $want, $defined);
        };
    }
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let me = comm.rank() as u64;
        let mine = vec![me + 1, 10];
        let at_root = |v: Vec<u64>| if me == 1 { v } else { Vec::new() };
        every_policy!(
            comm.allreduce(send_buf(&mine), op(ops::Sum)),
            &[6, 30],
            true
        );
        every_policy!(
            comm.reduce(send_buf(&mine), op(ops::Sum), root(1)),
            &at_root(vec![6, 30]),
            true
        );
        let inclusive = [(me + 1) * (me + 2) / 2, 10 * (me + 1)];
        every_policy!(comm.scan(send_buf(&mine), op(ops::Sum)), &inclusive, true);
        let exclusive = [me * (me + 1) / 2, 10 * me];
        every_policy!(
            comm.exscan(send_buf(&mine), op(ops::Sum)),
            &exclusive,
            me > 0
        );
    });
}

#[test]
fn scan_and_exscan_with_non_commutative_lambda() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        // Decimal concatenation of positive integers: non-commutative,
        // associative.
        let concat = ops::non_commutative(|a: &u64, b: &u64| a * 10u64.pow(b.ilog10() + 1) + b);
        let mine = [comm.rank() as u64 + 1];
        let inc: Vec<u64> = comm.scan((send_buf(&mine[..]), op(concat))).unwrap();
        let expected = [1u64, 12, 123][comm.rank()];
        assert_eq!(inc[0], expected);
    });
}

// --- p2p -------------------------------------------------------------------

#[test]
fn send_from_array_and_slice_shapes() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            comm.send((send_buf([1u32, 2]), destination(1), tag(1)))
                .unwrap();
            comm.send((send_buf(&[3u32, 4]), destination(1), tag(2)))
                .unwrap();
            let v = [5u32, 6];
            comm.send((send_buf(&v[..]), destination(1), tag(3)))
                .unwrap();
        } else {
            let a: Vec<u32> = comm.recv((source(0), tag(1))).unwrap();
            let b: Vec<u32> = comm.recv((source(0), tag(2))).unwrap();
            let c: Vec<u32> = comm.recv((source(0), tag(3))).unwrap();
            assert_eq!((a, b, c), (vec![1, 2], vec![3, 4], vec![5, 6]));
        }
    });
}

#[test]
fn recv_wildcards_and_filters() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            // Two messages from different sources; receive in tag order.
            let t9: Vec<u8> = comm.recv((any_source(), tag(9))).unwrap();
            let t8: Vec<u8> = comm.recv((any_source(), tag(8))).unwrap();
            assert_eq!(t9, vec![2]);
            assert_eq!(t8, vec![1]);
        } else if comm.rank() == 1 {
            comm.send((send_buf(&[1u8][..]), destination(0), tag(8)))
                .unwrap();
        } else {
            comm.send((send_buf(&[2u8][..]), destination(0), tag(9)))
                .unwrap();
        }
    });
}

#[test]
fn irecv_with_source_and_count() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            comm.send((send_buf(&vec![1u64; 8]), destination(1)))
                .unwrap();
        } else {
            let r = comm.irecv::<u64, _>((source(0), recv_count(8))).unwrap();
            assert_eq!(r.wait().unwrap(), vec![1; 8]);
        }
    });
}

#[test]
fn issend_owned_array_comes_back() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        if comm.rank() == 0 {
            let r = comm
                .issend((send_buf(vec![9u8; 3]), destination(1)))
                .unwrap();
            let v = r.wait().unwrap().take();
            assert_eq!(v, vec![9; 3]);
        } else {
            let v: Vec<u8> = comm.recv((source(0),)).unwrap();
            assert_eq!(v, vec![9; 3]);
        }
    });
}

// --- non-blocking collectives ----------------------------------------------

#[test]
fn iallgatherv_owned_send_buf_comes_back() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        // §III-E for collectives: the moved-in container is handed back
        // by wait(), alongside data that did not exist before completion.
        let mine = vec![comm.rank() as u32; comm.rank()];
        let fut = comm.iallgatherv(send_buf(mine)).unwrap();
        let (all, mine) = fut.wait().unwrap();
        assert_eq!(all, vec![1, 2, 2]);
        assert_eq!(mine.take(), vec![comm.rank() as u32; comm.rank()]);
    });
}

#[test]
fn iallgatherv_borrowed_send_buf_stays_usable() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![comm.rank() as u16 + 1];
        let fut = comm.iallgatherv(send_buf(&mine)).unwrap();
        let (all, ()) = fut.wait().unwrap();
        assert_eq!(all, vec![1, 2]);
        assert_eq!(mine, vec![comm.rank() as u16 + 1]);
    });
}

#[test]
fn iallgatherv_counts_without_extra_exchange() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let mine = vec![7u8; comm.rank() + 1];
        let before = comm.call_counts();
        let fut = comm.iallgatherv(send_buf(&mine)).unwrap();
        let (all, counts, ()) = fut.wait_with_counts().unwrap();
        let delta = comm.call_counts().since(&before);
        assert_eq!(all.len(), 6);
        assert_eq!(counts, vec![1, 2, 3]);
        // Exactly one operation: counts are discovered, never exchanged.
        assert_eq!(delta.total(), 1);
        assert_eq!(delta.get("iallgatherv"), 1);
    });
}

#[test]
fn ialltoallv_params_in_any_order() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let send = vec![comm.rank() as u64; 2];
        let counts = vec![1usize, 1];
        let a = comm
            .ialltoallv((send_buf(&send), send_counts(&counts)))
            .unwrap();
        let b = comm
            .ialltoallv((send_counts(&counts), send_buf(&send)))
            .unwrap();
        let (va, ()) = a.wait().unwrap();
        let (vb, ()) = b.wait().unwrap();
        assert_eq!(va, vec![0, 1]);
        assert_eq!(va, vb);
    });
}

#[test]
fn ialltoallv_owned_send_with_explicit_displs() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        // Junk prefix at index 0, skipped via send_displs.
        let send = vec![77u64, comm.rank() as u64, comm.rank() as u64 + 10];
        let counts = vec![1usize, 1];
        let displs = vec![1usize, 2];
        let fut = comm
            .ialltoallv((send_buf(send), send_counts(&counts), send_displs(&displs)))
            .unwrap();
        let (got, sent_back) = fut.wait().unwrap();
        let offset = comm.rank() as u64 * 10;
        assert_eq!(got, vec![offset, offset + 1]);
        assert_eq!(sent_back.len(), 3, "moved-in buffer returned intact");
        assert_eq!(sent_back[0], 77);
    });
}

#[test]
fn ibcast_owned_move_through_any_root() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let data = if comm.rank() == 2 {
            vec![9u8, 8]
        } else {
            vec![]
        };
        let fut = comm.ibcast((send_recv_buf(data), root(2))).unwrap();
        let data = fut.wait().unwrap();
        assert_eq!(data, vec![9, 8]);
    });
}

#[test]
fn iallreduce_op_and_buf_any_order() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let fut = comm
            .iallreduce((op(ops::Max), send_buf(vec![comm.rank() as i64])))
            .unwrap();
        let (hi, _) = fut.wait().unwrap();
        assert_eq!(hi, vec![3]);
    });
}

#[test]
fn icollectives_test_polling_and_pool() {
    Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        // test()-driven completion.
        let mut fut = comm
            .iallreduce((send_buf(vec![2u64]), op(ops::Prod)))
            .unwrap();
        let (prod, _) = loop {
            match fut.test().unwrap() {
                Ok(done) => break done,
                Err(pending) => {
                    fut = pending;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(prod, vec![4]);
        // Pool composition: collectives + p2p drained together.
        let mut pool = RequestPool::new();
        pool.submit_collective(comm.iallgatherv(send_buf(vec![comm.rank() as u8])).unwrap());
        pool.submit_bcast(
            comm.ibcast((send_recv_buf(if comm.rank() == 0 {
                vec![1u32]
            } else {
                vec![]
            }),))
                .unwrap(),
        );
        assert_eq!(pool.len(), 2);
        pool.wait_all().unwrap();
    });
}

// --- bcast / in-place ------------------------------------------------------

#[test]
fn bcast_owned_and_borrowed_roundtrip() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        // Borrowed form.
        let mut a = if comm.rank() == 0 {
            vec![1u32, 2]
        } else {
            vec![]
        };
        comm.bcast((send_recv_buf(&mut a),)).unwrap();
        assert_eq!(a, vec![1, 2]);
        // Owned (move-through) form.
        let b = if comm.rank() == 0 { vec![3u32] } else { vec![] };
        let b: Vec<u32> = comm.bcast((send_recv_buf(b),)).unwrap();
        assert_eq!(b, vec![3]);
    });
}

#[test]
fn in_place_allgather_owned_matches_borrowed() {
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let mut borrowed = vec![0u64; 3];
        borrowed[comm.rank()] = comm.rank() as u64 + 1;
        comm.allgather(send_recv_buf(&mut borrowed)).unwrap();

        let mut owned_in = vec![0u64; 3];
        owned_in[comm.rank()] = comm.rank() as u64 + 1;
        let owned: Vec<u64> = comm.allgather(send_recv_buf(owned_in)).unwrap();

        assert_eq!(borrowed, owned);
        assert_eq!(owned, vec![1, 2, 3]);
    });
}
