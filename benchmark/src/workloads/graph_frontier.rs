//! `graph_frontier` — Fig. 10 BFS under four frontier exchanges plus
//! §IV-B label propagation.
//!
//! Why it exists: many levels of small irregular messages and one
//! termination `allreduce` per level put the mailbox, parked
//! completion, topology/neighborhood collectives and the plugins on the
//! blocking steps; payload copies barely matter.

use std::collections::HashMap;

use kamping::prelude::*;
use kmp_apps::bfs::{
    bfs_mpi, bfs_sequential, bfs_with_exchange, comm_graph_peers, expand_frontier, Exchange, VId,
    UNDEF,
};
use kmp_apps::label_prop::{label_prop_kamping, label_prop_mpi, LabelUpdate, LpState};
use kmp_graphgen::{gnm, rgg2d, DistGraph};
use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{NeighborhoodColl, Rank};
use rand::prelude::*;

use crate::harness::{Ctx, Phase, Phases, Scale, Verdict, Workload};
use crate::trace::{layer, Side};

pub struct GraphFrontier;

const LP_ROUNDS: usize = 3;
/// The BFS source is peripheral: the vertex farthest from a vertex drawn
/// from the seed. A peripheral vertex's eccentricity is close to the
/// diameter in every graph of a family (96 +- 1 levels on the RGG here),
/// where a uniformly drawn vertex's swings by a third with where it
/// lands — and the level count sets the per-edge rate. Of three such
/// sources the one with the median eccentricity is used, which also
/// steps over a draw that fell into a tiny component.
const SOURCE_DRAWS: usize = 3;

pub struct Graph {
    parts: Vec<DistGraph>,
    source: VId,
    /// Sequential BFS distances from `source`, all vertices.
    dist: Vec<u64>,
}

pub struct Inputs {
    gnm: Graph,
    rgg: Graph,
    /// Label propagation runs on a GNM graph of its own, a quarter of
    /// the BFS size: its local rounds are compute-heavy and would
    /// otherwise crowd the level exchanges out of the round.
    lp: Vec<DistGraph>,
    lp_max_size: u64,
}

fn graph(parts: Vec<DistGraph>, rng: &mut StdRng) -> Graph {
    let n = parts[0].global_n;
    let reached = |dist: &[u64]| dist.iter().filter(|&&d| d != UNDEF).count();
    let mut runs: Vec<(u64, VId, Vec<u64>)> = (0..SOURCE_DRAWS)
        .map(|_| {
            let drawn = rng.random_range(0..n as u64);
            let from_drawn = bfs_sequential(&parts, drawn);
            let source = (0..n as u64)
                .filter(|&v| from_drawn[v as usize] != UNDEF)
                .max_by_key(|&v| (from_drawn[v as usize], std::cmp::Reverse(v)))
                .unwrap_or(drawn);
            let dist = bfs_sequential(&parts, source);
            let ecc = dist.iter().filter(|&&d| d != UNDEF).max().copied();
            // A source in a tiny component would make the run trivial.
            let key = if reached(&dist) * 2 > n {
                ecc.unwrap_or(0)
            } else {
                0
            };
            (key, source, dist)
        })
        .collect();
    runs.sort_by_key(|r| (r.0, r.1));
    let (_, source, dist) = runs.swap_remove(SOURCE_DRAWS / 2);
    Graph {
        parts,
        source,
        dist,
    }
}

impl Graph {
    /// Edges scanned by one BFS: the degrees of the reached vertices.
    fn edges_scanned(&self, rank: Option<Rank>) -> u64 {
        self.parts
            .iter()
            .filter(|g| rank.is_none_or(|r| r == g.rank))
            .map(|g| {
                (0..g.local_n())
                    .filter(|&li| self.dist[g.first_vertex() + li] != UNDEF)
                    .map(|li| g.neighbors(li).len() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    fn levels(&self) -> u64 {
        self.dist
            .iter()
            .filter(|&&d| d != UNDEF)
            .max()
            .map_or(0, |&d| d + 1)
    }
}

impl Workload for GraphFrontier {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "graph_frontier"
    }

    fn unit(&self) -> &'static str {
        "edges scanned"
    }

    fn make_inputs(&self, seed: u64, p: usize, scale: Scale) -> Inputs {
        // The same graphs at every p (4096 vertices per rank at p = 4):
        // the model run at p = 16 then walks the same number of levels
        // as the measured run. Grown with p, the GNM graph's
        // eccentricity would sit between 5 and 6 and flip with the seed.
        let n = match scale {
            Scale::Smoke => 1 << 10,
            _ => 1 << 14,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6f47);
        // Average degree 16 in both families (Fig. 10's setting).
        let gnm_parts = (0..p).map(|r| gnm(n, 8 * n, seed, r, p)).collect();
        let radius = (16.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let rgg_parts = (0..p).map(|r| rgg2d(n, radius, seed, r, p)).collect();
        let lp_n = n / 4;
        Inputs {
            gnm: graph(gnm_parts, &mut rng),
            rgg: graph(rgg_parts, &mut rng),
            lp: (0..p)
                .map(|r| gnm(lp_n, 8 * lp_n, seed ^ 0x1ab5, r, p))
                .collect(),
            lp_max_size: (lp_n / 16).max(4) as u64,
        }
    }

    fn phases<'a>(&self, inputs: &'a Inputs, kc: &'a Communicator) -> Phases<'a> {
        let bfs = |name, graph, exchange, twin| {
            Box::new(BfsPhase {
                name,
                graph,
                rank: kc.rank(),
                exchange,
                twin,
                dist: Vec::new(),
            }) as Box<dyn Phase + 'a>
        };
        vec![
            bfs(
                "bfs_gnm_dense",
                &inputs.gnm,
                Exchange::Kamping,
                Twin::BfsMpi,
            ),
            bfs(
                "bfs_gnm_sparse",
                &inputs.gnm,
                Exchange::KampingSparse,
                Twin::BfsMpi,
            ),
            bfs(
                "bfs_gnm_grid",
                &inputs.gnm,
                Exchange::KampingGrid,
                Twin::BfsMpi,
            ),
            bfs(
                "bfs_rgg_neighbor",
                &inputs.rgg,
                Exchange::KampingNeighbor,
                Twin::MpiNeighbor,
            ),
            Box::new(LabelPropPhase {
                g: &inputs.lp[kc.rank()],
                max_size: inputs.lp_max_size,
                labels: [None, None],
                total_m: inputs.lp.iter().map(|g| g.local_m() as u64).sum(),
            }),
        ]
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Twin {
    /// `bfs_mpi`: every call on the substrate, counts transposed by hand.
    BfsMpi,
    /// `bfs_with_exchange(MpiNeighbor)`: substrate topology and
    /// exchange; the app keeps kamping's `allreduce_single` for
    /// termination, as the library's Fig. 10 harness does.
    MpiNeighbor,
}

struct BfsPhase<'a> {
    name: &'static str,
    graph: &'a Graph,
    rank: usize,
    exchange: Exchange,
    twin: Twin,
    dist: Vec<u64>,
}

/// `pack_by_peers` of the app (private there): the self block stays
/// local, the rest is packed in `peers` order.
fn pack_by_peers(
    peers: &[Rank],
    own_rank: Rank,
    mut next: HashMap<Rank, Vec<VId>>,
) -> (Vec<VId>, Vec<VId>, Vec<usize>) {
    let own = next.remove(&own_rank).unwrap_or_default();
    let mut counts = Vec::with_capacity(peers.len());
    let mut data = Vec::new();
    for r in peers {
        let block = next.remove(r).unwrap_or_default();
        counts.push(block.len());
        data.extend_from_slice(&block);
    }
    (own, data, counts)
}

/// Rank-ordered flattening as `bfs_mpi` and `label_prop_mpi` write it
/// out.
fn pack_dense<T: Copy>(p: usize, next: &HashMap<Rank, Vec<T>>) -> (Vec<T>, Vec<usize>) {
    let mut counts = vec![0usize; p];
    let mut data = Vec::new();
    for (r, count) in counts.iter_mut().enumerate() {
        if let Some(msgs) = next.get(&r) {
            *count = msgs.len();
            data.extend_from_slice(msgs);
        }
    }
    (data, counts)
}

impl BfsPhase<'_> {
    /// The app's BFS loop re-composed from `expand_frontier` and the
    /// exchange calls, one span per call into a layer.
    fn traced(&self, side: Side, cx: &Ctx) -> kmp_mpi::Result<Vec<u64>> {
        let g = &self.graph.parts[self.rank];
        let (kc, raw, p) = (cx.kc, cx.raw(), cx.size());
        let mut dist = vec![UNDEF; g.local_n()];
        let mut frontier: Vec<VId> = Vec::new();
        if g.is_local(self.graph.source) {
            frontier.push(self.graph.source);
        }
        let dense_twin = side == Side::Twin && self.twin == Twin::BfsMpi;
        let exchange = match side {
            Side::Kamping => self.exchange,
            Side::Twin => Exchange::MpiNeighbor,
        };
        // Strategy-specific one-time setup, as the app does it.
        let peers = if dense_twin {
            Vec::new()
        } else {
            cx.span(layer::APPS, "comm_graph_peers", || comm_graph_peers(g))
        };
        let topo = (!dense_twin && exchange == Exchange::MpiNeighbor)
            .then(|| {
                cx.span(layer::SUBSTRATE, "create_dist_graph_adjacent", || {
                    raw.create_dist_graph_adjacent(&peers, &peers)
                })
            })
            .transpose()?;
        let ktopo = (exchange == Exchange::KampingNeighbor && side == Side::Kamping)
            .then(|| {
                cx.span(layer::KAMPING, "create_dist_graph_adjacent", || {
                    kc.create_dist_graph_adjacent(&peers, &peers)
                })
            })
            .transpose()?;
        let grid = (exchange == Exchange::KampingGrid && side == Side::Kamping)
            .then(|| cx.span(layer::PLUGINS, "make_grid", || kc.make_grid()))
            .transpose()?;

        let mut level = 0u64;
        loop {
            let empty = u8::from(frontier.is_empty());
            let done = if dense_twin {
                let mut all = [0u8];
                cx.span(layer::SUBSTRATE, "allreduce_into", || {
                    raw.allreduce_into(&[empty], &mut all, kmp_mpi::op::LogicalAnd)
                })?;
                all[0]
            } else {
                cx.span(layer::KAMPING, "allreduce_single", || {
                    kc.allreduce_single((send_buf(&[empty]), op(ops::LogicalAnd)))
                })?
            };
            if done != 0 {
                break;
            }
            let next = cx.span(layer::APPS, "expand_frontier", || {
                expand_frontier(g, &frontier, &mut dist, level)
            });
            frontier = if dense_twin {
                let (data, scounts) = cx.span(layer::APPS, "pack", || pack_dense(p, &next));
                let sdispls = displacements_from_counts(&scounts);
                let mut rcounts = vec![0usize; p];
                cx.span(layer::SUBSTRATE, "alltoall_into", || {
                    raw.alltoall_into(&scounts, &mut rcounts)
                })?;
                let rdispls = displacements_from_counts(&rcounts);
                let mut recv = vec![0u64; rcounts.iter().sum()];
                cx.span(layer::SUBSTRATE, "alltoallv_into", || {
                    raw.alltoallv_into(&data, &scounts, &sdispls, &mut recv, &rcounts, &rdispls)
                })?;
                recv
            } else {
                match exchange {
                    Exchange::Kamping => {
                        let (data, counts) =
                            cx.span(layer::KAMPING, "flatten", || flatten(next, p));
                        cx.span(layer::KAMPING, "alltoallv", || {
                            kc.alltoallv((send_buf(data), send_counts(counts)))
                        })?
                    }
                    Exchange::KampingSparse => {
                        let received = cx.span(layer::PLUGINS, "sparse_alltoallv", || {
                            kc.sparse_alltoallv(&next)
                        })?;
                        received.into_iter().flat_map(|(_, v)| v).collect()
                    }
                    Exchange::KampingGrid => {
                        let (data, counts) =
                            cx.span(layer::KAMPING, "flatten", || flatten(next, p));
                        let grid = grid.as_ref().expect("grid built");
                        cx.span(layer::PLUGINS, "grid_alltoallv", || {
                            grid.alltoallv(&data, &counts)
                        })?
                    }
                    Exchange::KampingNeighbor => {
                        let t = ktopo.as_ref().expect("topology built");
                        let (own, data, counts) = cx.span(layer::APPS, "pack", || {
                            pack_by_peers(&peers, self.rank, next)
                        });
                        let mut got: Vec<VId> =
                            cx.span(layer::KAMPING, "neighbor_alltoallv", || {
                                t.neighbor_alltoallv((send_buf(&data), send_counts(&counts)))
                            })?;
                        let mut merged = own;
                        merged.append(&mut got);
                        merged
                    }
                    _ => {
                        let t = topo.as_ref().expect("topology built");
                        let mut next = next;
                        let own = next.remove(&self.rank).unwrap_or_default();
                        let send: Vec<Vec<VId>> = cx.span(layer::APPS, "pack", || {
                            peers
                                .iter()
                                .map(|r| next.remove(r).unwrap_or_default())
                                .collect()
                        });
                        let received =
                            cx.span(layer::SUBSTRATE, "neighbor_alltoall_vecs", || {
                                t.neighbor_alltoall_vecs(&send)
                            })?;
                        let mut merged = own;
                        for block in received {
                            merged.extend_from_slice(&block);
                        }
                        merged
                    }
                }
            };
            level += 1;
        }
        Ok(dist)
    }
}

impl Phase for BfsPhase<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn unit_ops(&self) -> f64 {
        self.graph.edges_scanned(None) as f64
    }

    /// One vertex id per scanned edge goes into the level's exchange
    /// (the self-destined ones included: they are part of the frontier
    /// handed over, even where a variant keeps them local), plus one
    /// byte per level for termination.
    fn payload_bytes(&self) -> u64 {
        8 * self.graph.edges_scanned(Some(self.rank)) + self.graph.levels() + 2
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let g = &self.graph.parts[self.rank];
        let source = self.graph.source;
        self.dist = match (side, self.twin) {
            (Side::Kamping, _) => bfs_with_exchange(g, source, cx.kc, self.exchange)?,
            (Side::Twin, Twin::BfsMpi) => bfs_mpi(g, source, cx.raw())?,
            (Side::Twin, Twin::MpiNeighbor) => {
                bfs_with_exchange(g, source, cx.kc, Exchange::MpiNeighbor)?
            }
        };
        Ok(())
    }

    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        self.dist = self.traced(side, cx)?;
        Ok(())
    }

    fn verify(&mut self, _side: Side, _cx: &Ctx) -> Verdict {
        let g = &self.graph.parts[self.rank];
        let lo = g.first_vertex();
        Verdict::of(self.dist[..] == self.graph.dist[lo..lo + g.local_n()])
    }
}

struct LabelPropPhase<'a> {
    g: &'a DistGraph,
    max_size: u64,
    /// Last output per side; the two layers must agree label for label.
    labels: [Option<Vec<u64>>; 2],
    total_m: u64,
}

impl LabelPropPhase<'_> {
    fn traced(&self, side: Side, cx: &Ctx) -> kmp_mpi::Result<Vec<u64>> {
        let (g, kc, raw, p) = (self.g, cx.kc, cx.raw(), cx.size());
        let mut st = cx.span(layer::APPS, "LpState::new", || LpState::new(g));
        for _ in 0..LP_ROUNDS {
            let next = cx.span(layer::APPS, "local_round", || {
                st.local_round(g, self.max_size)
            });
            let recv: Vec<LabelUpdate> = match side {
                Side::Kamping => {
                    let (data, counts) = cx.span(layer::KAMPING, "flatten", || flatten(next, p));
                    cx.span(layer::KAMPING, "alltoallv", || {
                        kc.alltoallv((send_buf(data), send_counts(counts)))
                    })?
                }
                Side::Twin => {
                    let (data, scounts) = cx.span(layer::APPS, "pack", || pack_dense(p, &next));
                    let sdispls = displacements_from_counts(&scounts);
                    let mut rcounts = vec![0usize; p];
                    cx.span(layer::SUBSTRATE, "alltoall_into", || {
                        raw.alltoall_into(&scounts, &mut rcounts)
                    })?;
                    let rdispls = displacements_from_counts(&rcounts);
                    let mut recv = vec![
                        LabelUpdate {
                            vertex: 0,
                            label: 0
                        };
                        rcounts.iter().sum()
                    ];
                    cx.span(layer::SUBSTRATE, "alltoallv_into", || {
                        raw.alltoallv_into(&data, &scounts, &sdispls, &mut recv, &rcounts, &rdispls)
                    })?;
                    recv
                }
            };
            cx.span(layer::APPS, "apply_updates", || st.apply_updates(recv));
            match side {
                Side::Kamping => {
                    st.sizes = cx.span(layer::KAMPING, "allreduce", || {
                        kc.allreduce((send_buf(&st.sizes), op(ops::Max)))
                    })?;
                }
                Side::Twin => {
                    let local = st.sizes.clone();
                    cx.span(layer::SUBSTRATE, "allreduce_into", || {
                        raw.allreduce_into(&local, &mut st.sizes, kmp_mpi::op::Max)
                    })?;
                }
            }
        }
        Ok(st.labels)
    }
}

impl Phase for LabelPropPhase<'_> {
    fn name(&self) -> &'static str {
        "label_prop"
    }

    /// Every round scans every edge once.
    fn unit_ops(&self) -> f64 {
        (LP_ROUNDS as u64 * self.total_m) as f64
    }

    /// Per round: the labels of this rank's boundary vertices, once per
    /// peer that sees them, and the size vector.
    fn payload_bytes(&self) -> u64 {
        let st = LpState::new(self.g);
        let updates: usize = st.boundary.iter().map(|(_, v)| v.len()).sum();
        let per_round = updates * std::mem::size_of::<LabelUpdate>() + st.sizes.len() * 8;
        (LP_ROUNDS * per_round) as u64
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        self.labels[side as usize] = Some(match side {
            Side::Kamping => label_prop_kamping(self.g, LP_ROUNDS, self.max_size, cx.kc)?,
            Side::Twin => label_prop_mpi(self.g, LP_ROUNDS, self.max_size, cx.raw())?,
        });
        Ok(())
    }

    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        self.labels[side as usize] = Some(self.traced(side, cx)?);
        Ok(())
    }

    /// No sequential oracle exists for the distributed heuristic; the
    /// check is that the two layers agree label for label (the first
    /// run of a process has nothing to compare against yet).
    fn verify(&mut self, _side: Side, _cx: &Ctx) -> Verdict {
        match &self.labels {
            [Some(k), Some(t)] => Verdict::of(k == t),
            _ => Verdict::default(),
        }
    }
}
