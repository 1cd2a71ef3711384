//! Cross-crate integration tests: graph generators feeding kamping BFS,
//! the sorter plugin on application data, suffix arrays, serialization
//! through collectives — the full stack working together.

use kamping_repro::apps::bfs::{bfs_kamping, bfs_sequential, bfs_with_exchange, Exchange};
use kamping_repro::apps::suffix::{blocks, suffix_array_kamping, suffix_array_sequential};
use kamping_repro::graphgen::{gnm, rgg2d, rhg, DistGraph};
use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::Universe;
use rand::prelude::*;

#[test]
fn bfs_on_generated_graphs_matches_sequential() {
    let p = 5; // deliberately not a power of two
    let families: Vec<Vec<DistGraph>> = vec![
        (0..p).map(|r| gnm(250, 1_000, 11, r, p)).collect(),
        (0..p).map(|r| rgg2d(250, 0.1, 11, r, p)).collect(),
        (0..p).map(|r| rhg(250, 8.0, 0.8, 11, r, p)).collect(),
    ];
    for parts in &families {
        let reference = bfs_sequential(parts, 0);
        let out = Universe::run(p, |comm| {
            let comm = Communicator::new(comm);
            bfs_kamping(&parts[comm.rank()], 0, &comm).unwrap()
        });
        assert_eq!(out.concat(), reference);
    }
}

#[test]
fn every_exchange_strategy_agrees_on_odd_rank_counts() {
    let p = 6;
    let parts: Vec<DistGraph> = (0..p).map(|r| gnm(180, 720, 5, r, p)).collect();
    let reference = bfs_sequential(&parts, 7);
    for ex in [
        Exchange::MpiDense,
        Exchange::MpiNeighbor,
        Exchange::Kamping,
        Exchange::KampingSparse,
        Exchange::KampingGrid,
    ] {
        let parts = &parts;
        let out = Universe::run(p, move |comm| {
            let comm = Communicator::new(comm);
            bfs_with_exchange(&parts[comm.rank()], 7, &comm, ex).unwrap()
        });
        assert_eq!(out.concat(), reference, "strategy {ex:?}");
    }
}

#[test]
fn sorter_plugin_sorts_bfs_distances() {
    // Chain two subsystems: BFS output distances sorted globally.
    let p = 4;
    let parts: Vec<DistGraph> = (0..p).map(|r| rgg2d(400, 0.08, 23, r, p)).collect();
    let out = Universe::run(p, |comm| {
        let comm = Communicator::new(comm);
        let mut dist = bfs_kamping(&parts[comm.rank()], 0, &comm).unwrap();
        comm.sort(&mut dist).unwrap();
        dist
    });
    let mut all: Vec<u64> = out.concat();
    assert!(all.is_sorted(), "concatenation of sorted buckets is sorted");
    let mut expected = bfs_sequential(&parts, 0);
    expected.sort_unstable();
    all.sort_unstable(); // no-op if already sorted; guards empty-bucket edge
    assert_eq!(all, expected);
}

/// The reproducible-reduce plugin (§V-C) returns the same bits on every
/// rank and for every rank count from 1 to 32, on 100 000 values whose
/// magnitudes span twenty orders (where a plain sum's order shows).
#[test]
fn reproducible_reduce_is_bit_identical_from_1_to_32_ranks() {
    use kamping_repro::kamping::plugins::repro_reduce::ReproducibleReduce;
    let mut rng = StdRng::seed_from_u64(1234);
    let values: Vec<f64> = (0..100_000)
        .map(|_| {
            let mag = rng.random_range(-10..10);
            rng.random::<f64>() * 10f64.powi(mag) * if rng.random() { 1.0 } else { -1.0 }
        })
        .collect();
    let values = &values;
    let bits: Vec<u64> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|p| {
            let out = Universe::run(p, move |comm| {
                let comm = Communicator::new(comm);
                let (lo, hi) = (
                    comm.rank() * values.len() / p,
                    (comm.rank() + 1) * values.len() / p,
                );
                comm.reproducible_reduce(&values[lo..hi], ops::Sum).unwrap()
            });
            assert!(
                out.iter().all(|r| r.to_bits() == out[0].to_bits()),
                "p = {p}"
            );
            out[0].to_bits()
        })
        .collect();
    assert!(bits.iter().all(|&b| b == bits[0]), "{bits:?}");
}

#[test]
fn suffix_array_on_dna_like_text() {
    let mut rng = StdRng::seed_from_u64(2024);
    let text: Vec<u8> = (0..600).map(|_| b"ACGT"[rng.random_range(0..4)]).collect();
    let p = 4;
    let n = text.len();
    let ranges = blocks(n, p);
    let parts: Vec<Vec<u8>> = (0..p)
        .map(|r| text[ranges[r]..ranges[r + 1]].to_vec())
        .collect();
    let parts = &parts;
    let out = Universe::run(p, move |comm| {
        let comm = Communicator::new(comm);
        suffix_array_kamping(&parts[comm.rank()], n, &comm).unwrap()
    });
    assert_eq!(out.concat(), suffix_array_sequential(&text));
}

#[test]
fn serialized_objects_flow_through_collectives_and_p2p() {
    #[derive(serde::Serialize, serde::Deserialize, Clone, Debug, PartialEq, Default)]
    struct Payload {
        name: String,
        values: Vec<f64>,
        tags: Vec<(String, u32)>,
    }
    Universe::run(3, |comm| {
        let comm = Communicator::new(comm);
        let mut obj = if comm.is_root() {
            Payload {
                name: "state".into(),
                values: vec![1.0, 2.0],
                tags: vec![("a".into(), 1), ("b".into(), 2)],
            }
        } else {
            Payload::default()
        };
        comm.bcast_serialized::<Payload, _>((send_recv_buf(as_serialized_inout(&mut obj)),))
            .unwrap();
        assert_eq!(obj.tags.len(), 2);

        // Ring-forward the object via serialized p2p.
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send((send_buf(as_serialized(&obj)), destination(next), tag(5)))
            .unwrap();
        let got: Payload = comm
            .recv((recv_buf(as_deserializable()), source(prev), tag(5)))
            .unwrap();
        assert_eq!(got, obj);
    });
}

#[test]
fn mixed_binding_layers_interoperate_on_one_communicator() {
    // §III-F: kamping coexists with raw substrate calls and the baseline
    // layers on the same communicator.
    Universe::run(4, |comm| {
        let total_raw = comm
            .allreduce_one(1u64, kamping_repro::mpi::op::Sum)
            .unwrap();
        let boost = kamping_repro::baselines::boost_like::BoostComm::new(&comm);
        let total_boost = kamping_repro::baselines::boost_like::all_reduce(
            &boost,
            &1u64,
            kamping_repro::mpi::op::Sum,
        )
        .unwrap();
        let kc = Communicator::new(comm);
        let total_kamping = kc
            .allreduce_single((send_buf(&[1u64]), op(ops::Sum)))
            .unwrap();
        assert_eq!(total_raw, 4);
        assert_eq!(total_boost, 4);
        assert_eq!(total_kamping, 4);
    });
}

#[test]
fn subcommunicators_run_independent_algorithms() {
    // Split the world and run different pipelines per half.
    Universe::run(6, |comm| {
        let comm = Communicator::new(comm);
        let half = comm.rank() % 2;
        let sub = comm.split(Some(half as u64), 0).unwrap().unwrap();
        if half == 0 {
            let mut data: Vec<u64> = vec![comm.rank() as u64 * 7 % 5, 3, 1];
            sub.sort(&mut data).unwrap();
            assert!(data.is_sorted());
        } else {
            let all: Vec<u64> = sub.allgatherv(send_buf(&[comm.rank() as u64])).unwrap();
            assert_eq!(all.len(), sub.size());
        }
        // The parent communicator still works afterwards.
        let n = comm
            .allreduce_single((send_buf(&[1u64]), op(ops::Sum)))
            .unwrap();
        assert_eq!(n, 6);
    });
}
