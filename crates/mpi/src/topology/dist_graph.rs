//! Distributed-graph communicators.
//!
//! Two constructors mirror MPI's pair: `create_dist_graph_adjacent`
//! (every rank declares its own in/out edge lists; construction
//! *validates* consistency) and the general `create_dist_graph`
//! (ranks contribute arbitrary edges; construction *redistributes* each
//! edge to both endpoints). Both cost `Θ(p)` messages per rank — the
//! setup bill that makes per-iteration graph rebuilds unscalable
//! (§V-A) — while each subsequent neighborhood exchange costs only
//! `deg` messages ([`crate::collectives::neighborhood`]).

use super::{finish_topology, Neighborhood};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::Rank;

/// A communicator with an attached directed communication graph
/// (mirrors `MPI_Dist_graph_create_adjacent` /
/// `MPI_Dist_graph_create`).
pub struct DistGraphComm {
    /// The private dup neighborhood traffic runs on.
    comm: Comm,
    /// Ranks this rank receives from, in declaration order.
    sources: Vec<Rank>,
    /// Ranks this rank sends to, in declaration order.
    destinations: Vec<Rank>,
}

impl Comm {
    /// Creates a distributed-graph communicator from adjacency lists.
    /// Every rank declares its in-neighbors (`sources`) and out-neighbors
    /// (`destinations`); construction validates that the declarations
    /// agree — `u` lists `v` as a destination exactly as many times as
    /// `v` lists `u` as a source — with a dense all-to-all of per-peer
    /// edge counts, the `Θ(p)` setup cost that makes per-iteration graph
    /// rebuilds unscalable (§V-A). A disagreement is
    /// [`MpiError::InvalidLayout`] on every rank.
    pub fn create_dist_graph_adjacent(
        &self,
        sources: &[Rank],
        destinations: &[Rank],
    ) -> Result<DistGraphComm> {
        self.count_op("dist_graph_create_adjacent");
        let p = self.size();
        for &r in sources.iter().chain(destinations) {
            self.check_rank(r)?;
        }
        // Dense consistency exchange: the edges declared to each peer,
        // against the times that peer is listed as a source here. A
        // `u32` count per peer: no list declares 2^32 edges.
        let (ones, ident) = (vec![1usize; p], (0..p).collect::<Vec<_>>());
        let mut out_edges = vec![0u32; p];
        for &d in destinations {
            out_edges[d] += 1;
        }
        let mut in_edges = vec![0u32; p];
        crate::collectives::alltoallv_internal(
            self,
            &out_edges,
            &ones,
            &ident,
            &mut in_edges,
            &ones,
            &ident,
        )?;
        let mut listed = vec![0u32; p];
        for &s in sources {
            listed[s] += 1;
        }
        let local_mismatch = (0..p).find(|&r| in_edges[r] != listed[r]);
        // Graph construction is collective: every rank must agree on
        // whether the declarations were consistent, otherwise the ranks
        // would diverge (some building the communicator, some erroring).
        let any_mismatch = crate::collectives::allreduce_internal(
            self,
            (&[u8::from(local_mismatch.is_some())]).into(),
            crate::op::LogicalOr,
        )?[0];
        if any_mismatch != 0 {
            return Err(MpiError::InvalidLayout(match local_mismatch {
                Some(r) => format!(
                    "dist graph: rank {r} declares {} edges to rank {}, which lists it {} times",
                    in_edges[r],
                    self.rank(),
                    listed[r]
                ),
                None => "dist graph: declarations disagree on another rank".to_string(),
            }));
        }
        Ok(DistGraphComm {
            comm: finish_topology(self)?,
            sources: sources.to_vec(),
            destinations: destinations.to_vec(),
        })
    }

    /// Creates a distributed-graph communicator from arbitrary edge
    /// contributions (mirrors `MPI_Dist_graph_create`): any rank may
    /// contribute any `(source, destination)` edge; construction
    /// redistributes each edge to both endpoints with a dense exchange,
    /// so every rank learns exactly its own in- and out-neighbors. The
    /// resulting neighbor lists are sorted and duplicate-free
    /// (contributing an edge twice is allowed and idempotent).
    pub fn create_dist_graph(&self, edges: &[(Rank, Rank)]) -> Result<DistGraphComm> {
        self.count_op("dist_graph_create");
        let p = self.size();
        for &(u, v) in edges {
            self.check_rank(u)?;
            self.check_rank(v)?;
        }
        // Each edge (u, v) becomes two notifications: u gains the
        // out-neighbor v, v gains the in-neighbor u. Encoded as one u64
        // per notification — direction in the high bit, peer below.
        const IN_EDGE: u64 = 1 << 63;
        let mut for_peer: Vec<Vec<u64>> = vec![Vec::new(); p];
        for &(u, v) in edges {
            for_peer[u].push(v as u64);
            for_peer[v].push(u as u64 | IN_EDGE);
        }
        let send_counts: Vec<usize> = for_peer.iter().map(Vec::len).collect();
        let send_displs = crate::collectives::displacements_from_counts(&send_counts);
        let packed: Vec<u64> = for_peer.into_iter().flatten().collect();

        // Count exchange, then the notification payloads themselves.
        let mut recv_counts = vec![0usize; p];
        let unit: Vec<usize> = vec![1; p];
        let ident: Vec<usize> = (0..p).collect();
        crate::collectives::alltoallv_internal(
            self,
            &send_counts,
            &unit,
            &ident,
            &mut recv_counts,
            &unit,
            &ident,
        )?;
        let recv_displs = crate::collectives::displacements_from_counts(&recv_counts);
        let total: usize = recv_counts.iter().sum();
        let mut notes = vec![0u64; total];
        crate::collectives::alltoallv_internal(
            self,
            &packed,
            &send_counts,
            &send_displs,
            &mut notes,
            &recv_counts,
            &recv_displs,
        )?;

        let mut sources: Vec<Rank> = Vec::new();
        let mut destinations: Vec<Rank> = Vec::new();
        for note in notes {
            if note & IN_EDGE != 0 {
                sources.push((note & !IN_EDGE) as Rank);
            } else {
                destinations.push(note as Rank);
            }
        }
        sources.sort_unstable();
        sources.dedup();
        destinations.sort_unstable();
        destinations.dedup();

        Ok(DistGraphComm {
            comm: finish_topology(self)?,
            sources,
            destinations,
        })
    }
}

impl Neighborhood for DistGraphComm {
    fn comm(&self) -> &Comm {
        &self.comm
    }

    fn sources(&self) -> &[Rank] {
        &self.sources
    }

    fn destinations(&self) -> &[Rank] {
        &self.destinations
    }
}

impl DistGraphComm {
    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Declared in-neighbors.
    pub fn sources(&self) -> &[Rank] {
        &self.sources
    }

    /// Declared out-neighbors.
    pub fn destinations(&self) -> &[Rank] {
        &self.destinations
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::neighborhood::NeighborhoodColl;
    use crate::plain::bytes_to_vec;
    use crate::topology::Neighborhood;
    use crate::{MpiError, Rank, Universe};

    #[test]
    fn ring_topology_exchange() {
        Universe::run(4, |comm| {
            let left = (comm.rank() + 3) % 4;
            let right = (comm.rank() + 1) % 4;
            // Receive from left, send to right.
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            let got = g
                .neighbor_alltoall_vecs(&[vec![comm.rank() as u32]])
                .unwrap();
            assert_eq!(got, vec![vec![left as u32]]);
        });
    }

    #[test]
    fn star_topology() {
        // Rank 0 receives from everyone; leaves send to 0 only.
        Universe::run(4, |comm| {
            if comm.rank() == 0 {
                let g = comm.create_dist_graph_adjacent(&[1, 2, 3], &[]).unwrap();
                let got = g.neighbor_alltoall_vecs::<u8>(&[]).unwrap();
                assert_eq!(got, vec![vec![1], vec![2], vec![3]]);
            } else {
                let g = comm.create_dist_graph_adjacent(&[], &[0]).unwrap();
                let got = g
                    .neighbor_alltoall_vecs(&[vec![comm.rank() as u8]])
                    .unwrap();
                assert!(got.is_empty());
            }
        });
    }

    #[test]
    fn inconsistent_graph_rejected() {
        Universe::run(2, |comm| {
            // Rank 0 claims it sends to 1, but rank 1 does not list 0 as a
            // source.
            let r = if comm.rank() == 0 {
                comm.create_dist_graph_adjacent(&[], &[1])
            } else {
                comm.create_dist_graph_adjacent(&[], &[])
            };
            assert!(r.is_err());
        });
    }

    #[test]
    fn neighbor_alltoallv_with_layout() {
        Universe::run(3, |comm| {
            // Complete graph.
            let others: Vec<usize> = (0..3).filter(|&r| r != comm.rank()).collect();
            let g = comm.create_dist_graph_adjacent(&others, &others).unwrap();
            let send: Vec<u64> = vec![comm.rank() as u64; 4];
            let send_counts = [2usize, 2];
            let send_displs = [0usize, 2];
            let mut recv = [u64::MAX; 4];
            let recv_counts = [2usize, 2];
            let recv_displs = [0usize, 2];
            g.neighbor_alltoallv_into(
                &send,
                &send_counts,
                &send_displs,
                &mut recv,
                &recv_counts,
                &recv_displs,
            )
            .unwrap();
            let expected: Vec<u64> = others.iter().flat_map(|&r| [r as u64, r as u64]).collect();
            assert_eq!(&recv[..], &expected[..]);
        });
    }

    #[test]
    fn repeated_exchanges_on_same_graph() {
        Universe::run(3, |comm| {
            let right = (comm.rank() + 1) % 3;
            let left = (comm.rank() + 2) % 3;
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            for round in 0..5u32 {
                let got = g
                    .neighbor_alltoall_vecs(&[vec![round * 10 + comm.rank() as u32]])
                    .unwrap();
                assert_eq!(got[0], vec![round * 10 + left as u32]);
            }
        });
    }

    #[test]
    fn general_create_redistributes_edges() {
        // Rank 0 contributes the whole ring; every rank still learns
        // exactly its own neighbors.
        Universe::run(4, |comm| {
            let edges: Vec<(usize, usize)> = if comm.rank() == 0 {
                (0..4).map(|r| (r, (r + 1) % 4)).collect()
            } else {
                Vec::new()
            };
            let g = comm.create_dist_graph(&edges).unwrap();
            assert_eq!(g.destinations(), &[(comm.rank() + 1) % 4]);
            assert_eq!(g.sources(), &[(comm.rank() + 3) % 4]);
            let got = g
                .neighbor_alltoall_vecs(&[vec![comm.rank() as u32]])
                .unwrap();
            assert_eq!(got, vec![vec![((comm.rank() + 3) % 4) as u32]]);
        });
    }

    #[test]
    fn general_create_dedups_and_sorts() {
        // The same edge contributed by several ranks collapses to one;
        // neighbor lists come out sorted.
        Universe::run(3, |comm| {
            let edges: Vec<(usize, usize)> = vec![(1, 0), (2, 0), (1, 0)];
            let g = comm.create_dist_graph(&edges).unwrap();
            if comm.rank() == 0 {
                assert_eq!(g.sources(), &[1, 2]);
                assert!(g.destinations().is_empty());
            } else {
                assert!(g.sources().is_empty());
                assert_eq!(g.destinations(), &[0]);
            }
        });
    }

    #[test]
    fn self_loop_edges_are_allowed() {
        Universe::run(2, |comm| {
            let me = comm.rank();
            let g = comm.create_dist_graph(&[(0, 0), (1, 1)]).unwrap();
            assert_eq!(g.sources(), &[me]);
            assert_eq!(g.destinations(), &[me]);
            let got = g.neighbor_alltoall_vecs(&[vec![me as u8]]).unwrap();
            assert_eq!(got, vec![vec![me as u8]]);
        });
    }

    /// An edge declared twice on one side and once on the other is a
    /// disagreement, in either direction: every rank refuses the graph.
    /// (A check of existence alone builds such a graph: the surplus
    /// message of each cycle then lands in the next cycle, or the
    /// surplus receive waits forever.)
    #[test]
    fn edge_multiplicities_must_agree() {
        let cases: [(&[Rank], &[Rank]); 2] = [(&[1, 1], &[0]), (&[1], &[0, 0])];
        for (dests, srcs) in cases {
            Universe::run(2, move |comm| {
                let r = if comm.rank() == 0 {
                    comm.create_dist_graph_adjacent(&[], dests)
                } else {
                    comm.create_dist_graph_adjacent(srcs, &[])
                };
                let err = r.err().expect("the graph is refused");
                assert!(matches!(err, MpiError::InvalidLayout(_)), "{err:?}");
            });
        }
    }

    /// Duplicate edges declared alike on both sides build and exchange,
    /// cycle after cycle, the duplicate slots in declaration order: the
    /// periodic cartesian dimension of extent 2, whose one neighbor is
    /// both the negative and the positive one.
    #[test]
    fn consistent_duplicate_edges_exchange_in_order() {
        Universe::run(2, |comm| {
            let me = comm.rank() as u32;
            let cart = comm.create_cart(&[2], &[true], false).unwrap();
            let peer = 1 - me;
            assert_eq!(cart.sources(), &[peer as usize; 2]);
            let mut plan = cart.neighbor_alltoallv_init(&[0u32, 0], &[1, 1]).unwrap();
            for cycle in 1..=3u32 {
                plan.set_data(&[100 * cycle + me, 100 * cycle + 10 + me])
                    .unwrap();
                plan.start().unwrap();
                let blocks = plan.wait().unwrap().into_blocks().unwrap();
                let got: Vec<u32> = blocks.iter().flat_map(|b| bytes_to_vec(b)).collect();
                assert_eq!(got, [100 * cycle + peer, 100 * cycle + 10 + peer]);
            }
            let got = cart.neighbor_alltoall_vecs(&[vec![me], vec![me + 2]]);
            assert_eq!(got.unwrap(), [vec![peer], vec![peer + 2]]);
        });
    }
}
