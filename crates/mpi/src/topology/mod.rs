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
//! a 127x reduction in per-round messages; the `neighborhood_experiment`
//! bench pins the counts via
//! [`MailboxStats::envelopes_posted`](crate::MailboxStats). The flip
//! side is setup: topology construction costs `Θ(p)` messages per rank
//! (a dense consistency/redistribution exchange plus collective
//! agreement), which is why rebuilding the graph every iteration
//! destroys the win — construct once, exchange `deg` messages forever.
//! Near-complete graphs (`d ≈ p-1`) gain nothing from sparsity; the
//! [`CollTuning`](crate::CollTuning) `neighborhood` slot switches those
//! back to the dense pairwise path by the collectively-agreed
//! degree/p ratio.
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
/// receive comes from `sources()[j]`.
pub trait Neighborhood {
    /// The underlying communicator (a private dup of the parent, so
    /// neighborhood traffic never collides with other collectives).
    fn comm(&self) -> &Comm;

    /// Ranks this rank receives from, in declaration order.
    fn sources(&self) -> &[Rank];

    /// Ranks this rank sends to, in declaration order.
    fn destinations(&self) -> &[Rank];

    /// The maximum per-rank degree over the whole topology, agreed
    /// collectively at construction. Algorithm selection consults this
    /// instead of the local degree because the sparse/dense choice must
    /// be symmetric across ranks (all-or-nothing, like every tuning
    /// decision).
    fn max_degree(&self) -> usize;

    /// True when every rank's neighbor lists are duplicate-free —
    /// agreed collectively at construction. Only then can the dense
    /// fallback express the exchange (one alltoallv block per peer);
    /// duplicated edges (e.g. a periodic cartesian dimension of extent
    /// 2, where the left and right neighbor coincide) always take the
    /// sparse path.
    fn dense_eligible(&self) -> bool;
}

/// Collectively-agreed topology metadata computed at construction:
/// the tuning inputs of [`Neighborhood::max_degree`] /
/// [`Neighborhood::dense_eligible`] plus the private communicator dup.
pub(crate) struct TopologyBase {
    pub(crate) comm: Comm,
    pub(crate) max_degree: usize,
    pub(crate) dense_eligible: bool,
}

/// Shared tail of every topology constructor: agree on the global
/// maximum degree and duplicate-freeness (the symmetric tuning inputs),
/// then dup the parent into a private context. Runs two collectives —
/// part of the `Θ(p)`-ish setup bill the per-exchange savings amortize.
pub(crate) fn finish_topology(
    parent: &Comm,
    sources: &[Rank],
    destinations: &[Rank],
) -> Result<TopologyBase> {
    // A planned crash here dies between a topology constructor's
    // setup collectives — peers must surface the failure, not hang.
    crate::fault::point("topology/build");
    let local_max = sources.len().max(destinations.len()) as u64;
    let max_degree =
        crate::collectives::allreduce_internal(parent, (&[local_max]).into(), crate::op::Max)?[0]
            as usize;
    let local_dup = u8::from(has_duplicates(sources) || has_duplicates(destinations));
    let any_dup = crate::collectives::allreduce_internal(
        parent,
        (&[local_dup]).into(),
        crate::op::LogicalOr,
    )?[0];
    Ok(TopologyBase {
        comm: parent.dup_uncounted()?,
        max_degree,
        dense_eligible: any_dup == 0,
    })
}

fn has_duplicates(ranks: &[Rank]) -> bool {
    let mut sorted = ranks.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
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
