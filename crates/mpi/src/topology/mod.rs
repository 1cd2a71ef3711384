//! Process topologies: cartesian grids and distributed graphs.
//!
//! MPI-3.0's topology machinery exists to make one fact visible to the
//! library: *who actually talks to whom*. A communicator with an
//! attached topology lets the neighborhood collectives
//! ([`crate::collectives::neighborhood`]) exchange along declared edges
//! only, replacing the dense `alltoallv` a topology-blind code would
//! issue. The paper's Fig. 10 uses `MPI_Neighbor_alltoallv` as the
//! strongest sparse-exchange baseline for exactly this reason.
//!
//! # The degree-vs-p cost model
//!
//! With `p` ranks, out-degree `d_out` and in-degree `d_in` per rank,
//! and the alpha-beta message cost `alpha + beta * bytes`:
//!
//! ```text
//!   dense alltoallv (pairwise):  (p-1) * alpha + beta * bytes_total
//!   neighborhood exchange:       d_out * alpha + beta * bytes_total
//! ```
//!
//! The byte term is identical — both paths pack once and slice
//! refcounts per peer — so the whole difference is the envelope count:
//! `p-1` posted envelopes (and `p-1` matching-engine slots) per rank
//! per round versus `d_out`. On a degree-8 graph at `p = 1024`, that is
//! a 127x reduction in per-round messages;
//! `sparse_exchange_posts_degree_envelopes_on_chord_rings` pins the
//! counts via [`MailboxStats::envelopes_posted`](crate::MailboxStats). The flip
//! side is setup: graph construction costs `Θ(p)` messages per rank
//! (a dense consistency or redistribution exchange before the private
//! communicator's dup), which is why rebuilding the graph every
//! iteration destroys the win — construct once, exchange `deg` messages
//! forever. On a near-complete graph (`d ≈ p-1`) sparsity saves nothing
//! and costs nothing either: the exchange still posts one message per
//! declared edge, never more than the dense path's `p-1`.
//!
//! # Shapes
//!
//! - [`CartComm`] (`Comm::create_cart`): an n-dimensional grid with
//!   per-dimension periodicity, `cart_shift` / `cart_coords` /
//!   `cart_rank` navigation, and the standard per-dimension
//!   (negative neighbor, then positive) neighbor order.
//! - [`DistGraphComm`]: a general directed graph, built either from
//!   adjacent-style local edge lists
//!   (`Comm::create_dist_graph_adjacent`) or from arbitrary edge
//!   contributions redistributed to their endpoints
//!   (`Comm::create_dist_graph`, mirroring `MPI_Dist_graph_create`).
//!
//! Both implement [`Neighborhood`], the one seam the neighborhood
//! collectives are written against: a communicator plus frozen,
//! declaration-ordered source and destination lists.

mod cart;
mod dist_graph;

pub use cart::CartComm;
pub use dist_graph::DistGraphComm;

use crate::comm::Comm;
use crate::error::Result;
use crate::Rank;

/// A communicator with an attached sparse communication topology: the
/// seam the neighborhood collectives
/// ([`crate::collectives::neighborhood::NeighborhoodColl`]) are written
/// against, implemented by [`CartComm`] and [`DistGraphComm`].
///
/// The neighbor lists are frozen at construction (the MPI model:
/// topologies describe *static* patterns) and ordered — block `k` of a
/// neighborhood send goes to `destinations()[k]`, block `j` of a
/// receive comes from `sources()[j]`. A peer may appear more than once
/// (a periodic cartesian dimension of extent 2 lists its one neighbor
/// twice): each occurrence is an edge of its own, and the edges between
/// one pair match in declaration order. The lists are all there is —
/// no exchange reads another rank's degree, so construction agrees on
/// none.
pub trait Neighborhood {
    /// The underlying communicator (a private dup of the parent, so
    /// neighborhood traffic never collides with other collectives).
    fn comm(&self) -> &Comm;

    /// Ranks this rank receives from, in declaration order.
    fn sources(&self) -> &[Rank];

    /// Ranks this rank sends to, in declaration order.
    fn destinations(&self) -> &[Rank];
}

/// Shared tail of every topology constructor: dup the parent into the
/// topology's private context. Nothing about the edge lists needs
/// agreeing on — every exchange posts this rank's own declared edges.
pub(crate) fn finish_topology(parent: &Comm) -> Result<Comm> {
    // A planned crash here dies after a constructor's validation or
    // redistribution and before the dup — peers must surface the
    // failure, not hang.
    crate::fault::point("topology/build");
    parent.dup_uncounted()
}

impl Comm {
    /// Communicator duplication without bumping call counters (used for
    /// derived communicators inside other operations).
    pub(crate) fn dup_uncounted(&self) -> Result<Comm> {
        let base = if self.rank() == 0 {
            self.world.alloc_private_dup(self.context)
        } else {
            0
        };
        let base = crate::collectives::bcast_one_internal(self, base, 0)?;
        Ok(self.derived(std::sync::Arc::clone(&self.group), self.rank(), base))
    }
}

#[cfg(test)]
mod tests {
    use crate::{op, Comm, Universe};

    /// The envelopes a run of `build` on `p` ranks posts beyond an
    /// empty run, summed over the ranks. Each rank reads its counter at
    /// closure end, when every envelope destined to it has arrived.
    fn posted(p: usize, build: fn(&Comm)) -> u64 {
        let run = |f: fn(&Comm)| -> u64 {
            let per_rank = Universe::run(p, move |comm| {
                f(&comm);
                comm.mailbox_stats().envelopes_posted
            });
            per_rank.iter().sum()
        };
        run(build) - run(|_| {})
    }

    /// A constructor's own traffic, pinned. The cartesian one only dups
    /// its parent: a binomial broadcast, `p - 1` messages. The adjacent
    /// graph one adds its validation: the dense exchange of per-peer
    /// edge counts, `p (p - 1)` messages, and one allreduce that agrees
    /// on the verdict. Nothing else is agreed on.
    #[test]
    fn constructors_post_their_validation_and_dup_only() {
        for p in [2u64, 4, 6, 8] {
            let n = p as usize;
            let allreduce = posted(n, |c| {
                c.allreduce_vec(&[0u8][..], op::LogicalOr).unwrap();
            });
            let cart = posted(n, |c| {
                c.create_cart(&[c.size()], &[true], false).unwrap();
            });
            assert_eq!(cart, p - 1, "create_cart, p = {p}");
            let graph = posted(n, |c| {
                c.create_dist_graph_adjacent(&[], &[]).unwrap();
            });
            let want = p * (p - 1) + allreduce + p - 1;
            assert_eq!(graph, want, "create_dist_graph_adjacent, p = {p}");
        }
    }
}
