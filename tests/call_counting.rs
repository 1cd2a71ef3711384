//! PMPI-style verification (§III-H of the paper): "We use MPI's profiling
//! interface to ensure that only the expected MPI calls are issued if
//! KaMPIng calls MPI internally to compute default values."
//!
//! Each test pins down the exact substrate-call footprint of a kamping
//! operation for one parameter combination.

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::{CallCounts, Universe};

fn footprint(f: impl Fn(&Communicator) + Sync) -> CallCounts {
    let out = Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let before = comm.call_counts();
        f(&comm);
        comm.call_counts().since(&before)
    });
    // All ranks must issue the identical footprint for these collectives.
    for other in &out[1..] {
        assert_eq!(other, &out[0], "ranks disagree on call footprint");
    }
    out.into_iter().next().unwrap()
}

#[test]
fn allgatherv_with_all_defaults() {
    let d = footprint(|comm| {
        let mine = vec![comm.rank() as u64; comm.rank() + 1];
        let _: Vec<u64> = comm.allgatherv(send_buf(&mine)).unwrap();
    });
    assert_eq!(d.get("allgatherv"), 1, "payload exchange");
    assert_eq!(
        d.total(),
        1,
        "the counts ride the blocks, nothing else: {d}"
    );
}

#[test]
fn allgatherv_fully_specified_is_single_call() {
    let d = footprint(|comm| {
        let mine = vec![7u8; 2];
        let counts = vec![2usize; comm.size()];
        let displs: Vec<usize> = (0..comm.size()).map(|r| r * 2).collect();
        let mut out = vec![0u8; 2 * comm.size()];
        comm.allgatherv((
            send_buf(&mine),
            recv_buf(&mut out),
            recv_counts(&counts),
            recv_displs(&displs),
        ))
        .unwrap();
    });
    assert_eq!(d.get("allgatherv"), 1);
    assert_eq!(
        d.total(),
        1,
        "fully specified call must not communicate extra: {d}"
    );
}

#[test]
fn alltoallv_defaults_are_single_call() {
    let d = footprint(|comm| {
        let counts = vec![1usize; comm.size()];
        let data = vec![comm.rank() as u32; comm.size()];
        let _: Vec<u32> = comm
            .alltoallv((send_buf(&data), send_counts(&counts)))
            .unwrap();
    });
    assert_eq!(d.get("alltoallv"), 1);
    assert_eq!(d.total(), 1, "no count transpose: {d}");
}

#[test]
fn alltoallv_with_recv_side_given_is_single_call() {
    let d = footprint(|comm| {
        let counts = vec![1usize; comm.size()];
        let data = vec![comm.rank() as u32; comm.size()];
        let mut out = vec![0u32; comm.size()];
        comm.alltoallv((
            send_buf(&data),
            send_counts(&counts),
            recv_counts(&counts),
            recv_buf(&mut out),
        ))
        .unwrap();
    });
    assert_eq!(d.get("alltoallv"), 1);
    assert_eq!(d.get("alltoall"), 0);
    assert_eq!(d.total(), 1, "{d}");
}

#[test]
fn gatherv_defaults_are_single_call() {
    let d = footprint(|comm| {
        let mine = vec![1u8; comm.rank()];
        let _: Vec<u8> = comm.gatherv(send_buf(&mine)).unwrap();
    });
    assert_eq!(d.get("gatherv"), 1);
    assert_eq!(d.total(), 1, "no count gather: {d}");
}

#[test]
fn neighbor_v_collectives_with_defaults_are_single_calls() {
    Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let p = comm.size();
        let (left, right) = ((comm.rank() + p - 1) % p, (comm.rank() + 1) % p);
        let g = comm
            .create_dist_graph_adjacent(&[left, right], &[left, right])
            .unwrap();
        let data = vec![comm.rank() as u32; comm.rank() + 2];
        let counts = [1, comm.rank() + 1];
        let before = comm.call_counts();
        let _: Vec<u32> = g
            .neighbor_alltoallv((send_buf(&data), send_counts(&counts[..])))
            .unwrap();
        let _: Vec<u32> = g.neighbor_allgatherv(send_buf(&data)).unwrap();
        let d = comm.call_counts().since(&before);
        assert_eq!(d.get("neighbor_alltoallv"), 1);
        assert_eq!(d.get("neighbor_allgatherv"), 1);
        assert_eq!(d.total(), 2, "no edge count exchange: {d}");
    });
}

#[test]
fn simple_wrappers_are_one_to_one() {
    let d = footprint(|comm| {
        let mine = [comm.rank() as u64];
        let _: Vec<u64> = comm.allgather(send_buf(&mine)).unwrap();
        let _: Vec<u64> = comm.allreduce((send_buf(&mine[..]), op(ops::Sum))).unwrap();
        let mut b = vec![0u8; 1];
        comm.bcast((send_recv_buf(&mut b),)).unwrap();
        comm.barrier().unwrap();
        let _: Vec<u64> = comm.scan((send_buf(&mine[..]), op(ops::Sum))).unwrap();
    });
    assert_eq!(d.get("allgather"), 1);
    assert_eq!(d.get("allreduce"), 1);
    assert_eq!(d.get("bcast"), 1);
    assert_eq!(d.get("barrier"), 1);
    assert_eq!(d.get("scan"), 1);
    assert_eq!(d.total(), 5, "{d}");
}

/// The block- and accumulator-delivered lowerings, and the owned send
/// buffers that move into the transport, still cost one substrate call
/// of their own name each.
#[test]
fn block_and_accumulator_lowerings_are_one_to_one() {
    let d = footprint(|comm| {
        let mine = vec![comm.rank() as u64; 2];
        let per_peer = vec![comm.rank() as u64; comm.size()];
        let ones = vec![1usize; comm.size()];
        let mut out = vec![0u64; 2 * comm.size()];
        comm.allgather((send_buf(mine.clone()), recv_buf(&mut out)))
            .unwrap();
        let _: Vec<u64> = comm.gather((send_buf(&mine), root(1))).unwrap();
        let _: Vec<u64> = comm.alltoall(send_buf(&per_peer)).unwrap();
        let _: Vec<u64> = comm
            .alltoallv((send_buf(per_peer.clone()), send_counts(&ones)))
            .unwrap();
        let _: Vec<u64> = comm.allgatherv(send_buf(mine.clone())).unwrap();
        let _: Vec<u64> = comm
            .reduce((send_buf(&mine), op(ops::Sum), root(2)))
            .unwrap();
        let _: Vec<u64> = comm.exscan((send_buf(&mine), op(ops::Sum))).unwrap();
    });
    for name in [
        "allgather",
        "gather",
        "alltoall",
        "alltoallv",
        "allgatherv",
        "reduce",
        "exscan",
    ] {
        assert_eq!(d.get(name), 1, "{name}: {d}");
    }
    assert_eq!(d.total(), 7, "{d}");
}

#[test]
fn in_place_allgather_is_one_call() {
    let d = footprint(|comm| {
        let mut rc = vec![0usize; comm.size()];
        rc[comm.rank()] = 1;
        comm.allgather(send_recv_buf(&mut rc)).unwrap();
    });
    assert_eq!(d.get("allgather"), 1);
    assert_eq!(d.total(), 1, "{d}");
}

#[test]
fn sparse_alltoallv_issues_only_partner_sends() {
    let out = Universe::run(6, |comm| {
        let comm = Communicator::new(comm);
        let before = comm.call_counts();
        let mut msgs = std::collections::HashMap::new();
        msgs.insert((comm.rank() + 1) % comm.size(), vec![1u8]);
        msgs.insert((comm.rank() + 2) % comm.size(), vec![2u8]);
        comm.sparse_alltoallv(&msgs).unwrap();
        comm.call_counts().since(&before)
    });
    for d in out {
        assert_eq!(d.get("issend"), 2, "one synchronous send per partner");
        assert_eq!(d.get("ibarrier"), 1);
        assert_eq!(d.get("alltoall"), 0);
        assert_eq!(d.get("alltoallv"), 0);
    }
}

#[test]
fn grid_alltoall_uses_two_sub_exchanges() {
    let out = Universe::run(4, |comm| {
        let comm = Communicator::new(comm);
        let grid = comm.make_grid().unwrap();
        let before = comm.call_counts();
        let counts = vec![1usize; comm.size()];
        let data: Vec<u8> = (0..comm.size() as u8).collect();
        let _ = grid.alltoallv(&data, &counts).unwrap();
        comm.call_counts().since(&before)
    });
    for d in out {
        // One self-sizing alltoallv in the row communicator, one in the
        // column communicator, and no count transpose ahead of either.
        assert_eq!(d.get("alltoallv"), 2, "{d}");
        assert_eq!(d.total(), 2, "{d}");
    }
}

#[test]
fn send_recv_are_one_to_one() {
    let out = Universe::run(2, |comm| {
        let comm = Communicator::new(comm);
        let before = comm.call_counts();
        if comm.rank() == 0 {
            comm.send((send_buf(&[1u8][..]), destination(1))).unwrap();
        } else {
            let _: Vec<u8> = comm.recv((source(0),)).unwrap();
        }
        comm.call_counts().since(&before)
    });
    assert_eq!(out[0].get("send"), 1);
    assert_eq!(out[0].total(), 1);
    assert_eq!(out[1].get("recv"), 1);
    assert_eq!(out[1].total(), 1);
}
