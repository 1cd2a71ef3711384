//! Property-based tests on the substrate itself: byte-view round-trips
//! for plain data, collective results against sequential oracles, and
//! message-ordering invariants under randomized payloads.

use kmp_mpi::{op, plain, plain_struct, NeighborhoodColl, Rank, Universe};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Cell {
    a: u64,
    b: f64,
    c: u32,
    d: u32,
}
plain_struct!(Cell {
    a: u64,
    b: f64,
    c: u32,
    d: u32
});

fn cell_strategy() -> impl Strategy<Value = Cell> {
    (any::<u64>(), any::<f64>(), any::<u32>(), any::<u32>()).prop_map(|(a, b, c, d)| Cell {
        a,
        b,
        c,
        d,
    })
}

/// Exclusive prefix sum — displacements for a counted exchange.
fn displs(counts: &[usize]) -> Vec<usize> {
    let mut d = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in counts {
        d.push(acc);
        acc += c;
    }
    d
}

/// Deterministic payload for the `(u, v)` edge, so the sparse and dense
/// sides can construct identical send blocks independently.
fn edge_block(u: Rank, v: Rank, n: usize) -> Vec<u64> {
    (0..n).map(|i| (u * 289 + v * 17 + i) as u64).collect()
}

/// A random directed graph on `p` ranks (adjacency matrix, row-major)
/// plus a random element count per ordered pair, `p ∈ 1..17`.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<bool>, Vec<usize>)> {
    (1usize..17).prop_flat_map(|p| {
        (
            Just(p),
            prop::collection::vec(any::<bool>(), p * p..p * p + 1),
            prop::collection::vec(0usize..4, p * p..p * p + 1),
        )
    })
}

/// Random cart grids with `p = Π dims ∈ 1..17`. Periodic wraparound on
/// extents < 3 lists the same neighbor twice (one block per occurrence),
/// which a dense alltoallv cannot express — keep those dims open.
fn cart_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<bool>, Vec<usize>)> {
    prop::collection::vec((1usize..5, any::<bool>()), 1..3).prop_flat_map(|spec| {
        let dims: Vec<usize> = spec.iter().map(|&(d, _)| d).collect();
        let periods: Vec<bool> = spec.iter().map(|&(d, w)| w && d >= 3).collect();
        let p: usize = dims.iter().product();
        (
            Just(dims),
            Just(periods),
            prop::collection::vec(0usize..4, p * p..p * p + 1),
        )
    })
}

/// Runs both sides on one rank and checks them block-by-block: the
/// sparse exchange over the topology's neighbor lists must deliver
/// exactly what a dense alltoallv with zeroed non-neighbor counts does.
/// `in_edge(u)` says whether rank `u` sends to this rank.
fn assert_sparse_matches_masked_dense<N: NeighborhoodColl>(
    comm: &kmp_mpi::Comm,
    topo: &N,
    p: usize,
    cnt: &[usize],
    in_edge: impl Fn(Rank) -> bool,
) {
    let r = comm.rank();
    // Sparse side: blocks in neighbor declaration order.
    let sc: Vec<usize> = topo
        .destinations()
        .iter()
        .map(|&d| cnt[r * p + d])
        .collect();
    let sd = displs(&sc);
    let send: Vec<u64> = topo
        .destinations()
        .iter()
        .flat_map(|&d| edge_block(r, d, cnt[r * p + d]))
        .collect();
    let rc: Vec<usize> = topo.sources().iter().map(|&u| cnt[u * p + r]).collect();
    let rd = displs(&rc);
    let mut sparse = vec![0u64; rc.iter().sum()];
    topo.neighbor_alltoallv_into(&send, &sc, &sd, &mut sparse, &rc, &rd)
        .unwrap();

    // Dense side: one block per rank, zero for non-neighbors.
    let out_degree = topo.destinations().len();
    let dsc: Vec<usize> = (0..p)
        .map(|v| {
            if topo.destinations().contains(&v) {
                cnt[r * p + v]
            } else {
                0
            }
        })
        .collect();
    let dsd = displs(&dsc);
    let dense_send: Vec<u64> = (0..p).flat_map(|v| edge_block(r, v, dsc[v])).collect();
    let drc: Vec<usize> = (0..p)
        .map(|u| if in_edge(u) { cnt[u * p + r] } else { 0 })
        .collect();
    let drd = displs(&drc);
    let mut dense = vec![0u64; drc.iter().sum()];
    comm.alltoallv_into(&dense_send, &dsc, &dsd, &mut dense, &drc, &drd)
        .unwrap();

    assert_eq!(
        rc.iter().sum::<usize>(),
        drc.iter().sum::<usize>(),
        "rank {r}: sparse and masked-dense receive volumes differ"
    );
    assert_eq!(out_degree, topo.destinations().len());
    for (j, &u) in topo.sources().iter().enumerate() {
        assert_eq!(
            &sparse[rd[j]..rd[j] + rc[j]],
            &dense[drd[u]..drd[u] + drc[u]],
            "rank {r}: block from source {u} diverges"
        );
    }
}

/// The graphs of the envelope test, as rank `r`'s `(sources,
/// destinations)` of `p`.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Neighbors at `±1..=h`: degree 4 at p = 8 (h = 2), 8 at p = 16
    /// (h = 4).
    Chord(usize),
    /// Every other rank.
    Complete,
    /// Every other rank, but rank 1 does not send to rank 0: rank 0
    /// hears from `p - 2` peers, every other rank from `p - 1`.
    NearComplete,
}

impl Shape {
    fn edges(self, p: usize, r: Rank) -> (Vec<Rank>, Vec<Rank>) {
        let others = (0..p).filter(|&u| u != r);
        match self {
            Shape::Chord(h) => {
                let mut nbrs: Vec<Rank> = (1..=h)
                    .flat_map(|k| [(r + k) % p, (r + p - k) % p])
                    .collect();
                nbrs.sort_unstable();
                nbrs.dedup();
                (nbrs.clone(), nbrs)
            }
            Shape::Complete => (others.clone().collect(), others.collect()),
            Shape::NearComplete => (
                others.clone().filter(|&u| (r, u) != (0, 1)).collect(),
                others.filter(|&u| (r, u) != (1, 0)).collect(),
            ),
        }
    }
}

/// The blocking neighborhood forms, by index: `form` run once on `g`,
/// one 8-element block per edge.
const FORMS: [&str; 6] = [
    "neighbor_allgather_vecs",
    "neighbor_allgatherv_blocks",
    "neighbor_allgatherv_into",
    "neighbor_alltoall_vecs",
    "neighbor_alltoallv_blocks",
    "neighbor_alltoallv_into",
];

fn run_form(g: &kmp_mpi::DistGraphComm, form: usize) {
    let (d_out, d_in) = (g.destinations().len(), g.sources().len());
    let block = vec![7u64; 8];
    let (packed, counts) = (vec![7u64; 8 * d_out], vec![8usize; d_out]);
    let displs: Vec<usize> = (0..d_out).map(|k| 8 * k).collect();
    let (rc, rd) = (
        vec![8usize; d_in],
        (0..d_in).map(|j| 8 * j).collect::<Vec<_>>(),
    );
    let mut recv = vec![0u64; 8 * d_in];
    match form {
        0 => drop(g.neighbor_allgather_vecs(&block).unwrap()),
        1 => drop(g.neighbor_allgatherv_blocks(&block).unwrap()),
        2 => g
            .neighbor_allgatherv_into(&block, &mut recv, &rc, &rd)
            .unwrap(),
        3 => drop(g.neighbor_alltoall_vecs(&vec![block; d_out]).unwrap()),
        4 => drop(
            g.neighbor_alltoallv_blocks(&packed, &counts, &displs)
                .unwrap(),
        ),
        _ => (g.neighbor_alltoallv_into(&packed, &counts, &displs, &mut recv, &rc, &rd)).unwrap(),
    }
}

/// Every blocking neighborhood form posts exactly one envelope per
/// edge per round — `envelopes_posted` grows by each rank's in-degree,
/// the edges it receives on — on chord rings, on the complete graph and
/// on a near-complete one, where the largest degree is `p - 1` and one
/// rank's is lower (a dense exchange would post `p` to every rank, self
/// included). Each rank reads its counter at closure end, when every
/// envelope destined to it has arrived, and a zero-round run of the
/// same program is subtracted.
#[test]
fn sparse_exchange_posts_degree_envelopes_on_chord_rings() {
    fn envelopes(p: usize, shape: Shape, form: usize, rounds: usize) -> Vec<(u64, usize)> {
        Universe::run(p, move |comm| {
            let (sources, destinations) = shape.edges(p, comm.rank());
            let g = comm
                .create_dist_graph_adjacent(&sources, &destinations)
                .unwrap();
            for _ in 0..rounds {
                run_form(&g, form);
            }
            (comm.mailbox_stats().envelopes_posted, sources.len())
        })
    }
    for (p, h) in [(8usize, 2usize), (16, 4)] {
        for shape in [Shape::Chord(h), Shape::Complete, Shape::NearComplete] {
            let base = envelopes(p, shape, 0, 0);
            for (form, name) in FORMS.iter().enumerate() {
                let run = envelopes(p, shape, form, 5);
                for (rank, ((b, _), (r, d_in))) in base.iter().zip(&run).enumerate() {
                    let at = format!("{name} p={p} {shape:?} rank {rank}");
                    assert_eq!(r - b, 5 * *d_in as u64, "{at}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn neighbor_alltoallv_matches_masked_dense_on_dist_graph(
        (p, adj, cnt) in graph_strategy()
    ) {
        // The general constructor: every rank contributes the full edge
        // list; redistribution must hand each rank its own neighbors.
        let edges: Vec<(Rank, Rank)> = (0..p * p)
            .filter(|&e| adj[e])
            .map(|e| (e / p, e % p))
            .collect();
        let edges = &edges;
        let adj = &adj;
        let cnt = &cnt;
        Universe::run(p, move |comm| {
            let g = comm.create_dist_graph(edges).unwrap();
            let r = comm.rank();
            assert_sparse_matches_masked_dense(&comm, &g, p, cnt, |u| adj[u * p + r]);
        });
    }

    #[test]
    fn neighbor_alltoallv_matches_masked_dense_on_cart(
        (dims, periods, cnt) in cart_strategy()
    ) {
        let p: usize = dims.iter().product();
        let dims = &dims;
        let periods = &periods;
        let cnt = &cnt;
        Universe::run(p, move |comm| {
            let cart = comm.create_cart(dims, periods, false).unwrap();
            // Symmetric grid: u sends to us iff we send to u.
            let dests = kmp_mpi::Neighborhood::destinations(&cart).to_vec();
            assert_sparse_matches_masked_dense(&comm, &cart, p, cnt, |u| dests.contains(&u));
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn plain_bytes_roundtrip(v in prop::collection::vec(cell_strategy(), 0..50)) {
        let bytes = plain::as_bytes(&v);
        let back: Vec<Cell> = plain::bytes_to_vec(bytes);
        // f64 NaNs compare unequal; compare bit patterns instead.
        prop_assert_eq!(v.len(), back.len());
        for (x, y) in v.iter().zip(&back) {
            prop_assert_eq!(x.a, y.a);
            prop_assert_eq!(x.b.to_bits(), y.b.to_bits());
            prop_assert_eq!((x.c, x.d), (y.c, y.d));
        }
    }

    #[test]
    fn p2p_preserves_arbitrary_payloads(payloads in prop::collection::vec(
        prop::collection::vec(any::<u64>(), 0..40), 1..10))
    {
        // Rank 0 sends each payload in order; rank 1 must receive them
        // unchanged and in order (non-overtaking).
        let payloads = &payloads;
        Universe::run(2, move |comm| {
            if comm.rank() == 0 {
                for p in payloads {
                    comm.send(p, 1, 3).unwrap();
                }
            } else {
                for p in payloads {
                    let (got, _) = comm.recv_vec::<u64>(0, 3).unwrap();
                    assert_eq!(&got, p);
                }
            }
        });
    }

    #[test]
    fn substrate_allreduce_matches_fold(
        blocks in prop::collection::vec(any::<u32>(), 1..7)
    ) {
        let p = blocks.len();
        let blocks = &blocks;
        let out = Universe::run(p, move |comm| {
            comm.allreduce_one(blocks[comm.rank()] as u64, op::Sum).unwrap()
        });
        let expected: u64 = blocks.iter().map(|&b| b as u64).sum();
        for got in out {
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn scatter_gather_inverse(
        data in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        // gather(scatter(x)) == x for any block-divisible layout.
        let p = data.len();
        let data = &data;
        let out = Universe::run(p, move |comm| {
            let send: Vec<u64> = if comm.rank() == 0 { data.clone() } else { vec![] };
            let mine = comm.scatter_vec((comm.rank() == 0).then_some(&send[..]), 0).unwrap();
            let mut gathered = if comm.rank() == 0 { vec![0u64; p] } else { vec![] };
            comm.gather_into(&mine, &mut gathered, 0).unwrap();
            gathered
        });
        prop_assert_eq!(&out[0], data);
    }

    #[test]
    fn split_partitions_the_world(colors in prop::collection::vec(0u64..3, 1..8)) {
        let p = colors.len();
        let colors = &colors;
        let out = Universe::run(p, move |comm| {
            let sub = comm.split(Some(colors[comm.rank()]), 0).unwrap().unwrap();
            (colors[comm.rank()], sub.size(), sub.rank())
        });
        for (color, size, sub_rank) in &out {
            let expected = colors.iter().filter(|&&c| c == *color).count();
            prop_assert_eq!(*size, expected, "subcommunicator size");
            prop_assert!(sub_rank < size);
        }
    }

    #[test]
    fn scan_is_prefix_of_allreduce(values in prop::collection::vec(any::<u16>(), 1..7)) {
        let p = values.len();
        let values = &values;
        let out = Universe::run(p, move |comm| {
            let mine = [values[comm.rank()] as u64];
            let inc = comm.scan_vec(&mine, op::Sum).unwrap();
            let total = comm.allreduce_one(mine[0], op::Sum).unwrap();
            (inc[0], total)
        });
        // The last rank's inclusive scan equals the allreduce total.
        let total: u64 = values.iter().map(|&v| v as u64).sum();
        prop_assert_eq!(out[p - 1].0, total);
        for (_, t) in &out {
            prop_assert_eq!(*t, total);
        }
    }
}
