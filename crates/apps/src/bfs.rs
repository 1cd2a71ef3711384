//! Distributed breadth-first search (§IV-B, Fig. 9, Table I row 3,
//! Fig. 10).
//!
//! The graph is distributed as in [`kmp_graphgen::DistGraph`]; each BFS
//! level expands the local frontier and exchanges the next frontier's
//! vertices with their owner ranks. The paper's Fig. 10 compares five
//! strategies for that exchange:
//!
//! - dense `MPI_Alltoallv` (plain substrate and kamping),
//! - `MPI_Neighbor_alltoallv` on a pre-built graph topology,
//! - kamping's **sparse** (NBX) plugin,
//! - kamping's **grid** plugin.
//!
//! As in the paper, "the implementations only differ for the frontier
//! exchange and completion logic" — everything else is shared.

use std::collections::HashMap;

use kmp_baselines::{boost_like, mpl_like, rwth_like};
use kmp_graphgen::DistGraph;
use kmp_mpi::{Comm, Rank, Result};

use kamping::prelude::*;

/// Vertex id (global).
pub type VId = u64;
/// Distance marker for unreached vertices.
pub const UNDEF: u64 = u64::MAX;

/// Expands the current frontier: marks newly visited local vertices with
/// `level` and buckets their neighbours by owner rank. Shared by every
/// variant (the paper extracts exactly this part).
pub fn expand_frontier(
    g: &DistGraph,
    frontier: &[VId],
    dist: &mut [u64],
    level: u64,
) -> HashMap<Rank, Vec<VId>> {
    let mut next: HashMap<Rank, Vec<VId>> = HashMap::new();
    for &v in frontier {
        debug_assert!(g.is_local(v));
        let li = g.local_index(v);
        if dist[li] != UNDEF {
            continue;
        }
        dist[li] = level;
        for &u in g.neighbors(li) {
            next.entry(g.owner(u)).or_default().push(u);
        }
    }
    next
}

/// Plain substrate ("MPI") BFS: counts flattened, transposed and
/// exchanged by hand every level (Table I: 46 LoC).
#[allow(clippy::needless_range_loop)] // counts and payload are built in rank order
pub fn bfs_mpi(g: &DistGraph, source: VId, comm: &Comm) -> Result<Vec<u64>> {
    // loc:begin:bfs_mpi
    let p = comm.size();
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let empty = [u8::from(frontier.is_empty())];
        let mut all_empty = [0u8];
        comm.allreduce_into(&empty, &mut all_empty, kmp_mpi::op::LogicalAnd)?;
        if all_empty[0] != 0 {
            break;
        }
        let next = expand_frontier(g, &frontier, &mut dist, level);
        let mut scounts = vec![0usize; p];
        let mut data: Vec<VId> = Vec::new();
        for r in 0..p {
            if let Some(msgs) = next.get(&r) {
                scounts[r] = msgs.len();
                data.extend_from_slice(msgs);
            }
        }
        let sdispls = kmp_mpi::collectives::displacements_from_counts(&scounts);
        let mut rcounts = vec![0usize; p];
        comm.alltoall_into(&scounts, &mut rcounts)?;
        let rdispls = kmp_mpi::collectives::displacements_from_counts(&rcounts);
        let mut recv = vec![0u64; rcounts.iter().sum()];
        comm.alltoallv_into(&data, &scounts, &sdispls, &mut recv, &rcounts, &rdispls)?;
        frontier = recv;
        level += 1;
    }
    Ok(dist)
    // loc:end:bfs_mpi
}

/// kamping BFS (Fig. 9): `with_flattened` + `alltoallv` with inferred
/// receive side, `allreduce_single` for termination (22 LoC).
pub fn bfs_kamping(g: &DistGraph, source: VId, comm: &Communicator) -> Result<Vec<u64>> {
    // loc:begin:bfs_kamping
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let empty = u8::from(frontier.is_empty());
        let done = comm.allreduce_single((send_buf(&[empty]), op(ops::LogicalAnd)))?;
        if done != 0 {
            break;
        }
        let next = expand_frontier(g, &frontier, &mut dist, level);
        frontier = with_flattened(next, comm.size(), |data, counts| {
            comm.alltoallv((send_buf(data), send_counts(counts)))
        })?;
        level += 1;
    }
    Ok(dist)
    // loc:end:bfs_kamping
}

/// Splits the next-frontier buckets into the self-destined block and a
/// packed per-peer payload in `peers` order (the layout every
/// neighborhood exchange consumes).
fn pack_by_peers<T: Copy>(
    peers: &[Rank],
    own_rank: Rank,
    mut next: HashMap<Rank, Vec<T>>,
) -> (Vec<T>, Vec<T>, Vec<usize>) {
    let own = next.remove(&own_rank).unwrap_or_default();
    let mut counts = Vec::with_capacity(peers.len());
    let mut data: Vec<T> = Vec::new();
    for r in peers {
        let block = next.remove(r).unwrap_or_default();
        counts.push(block.len());
        data.extend_from_slice(&block);
    }
    debug_assert!(
        next.is_empty(),
        "message to a rank outside the communication graph"
    );
    (own, data, counts)
}

/// kamping BFS with **communication/computation overlap** via the
/// non-blocking collectives (§III-E extended to collectives), riding the
/// rank-communication graph's **neighborhood topology** instead of a
/// dense alltoallv:
///
/// - the level's termination check (`iallreduce`) is in flight while the
///   frontier is expanded — expansion is a no-op on an empty local
///   frontier, so running it before the global verdict is known is safe
///   (a non-empty local frontier already implies "not done");
/// - the next frontier travels over the generator's actual adjacency —
///   `ineighbor_alltoallv` posts exactly out-degree sends, O(degree)
///   envelopes instead of O(p), and block sizes are discovered from the
///   messages, so no count exchange happens at all;
/// - self-destined vertices never touch the wire: they merge locally
///   while the sparse exchange is in flight.
pub fn bfs_kamping_overlap(g: &DistGraph, source: VId, comm: &Communicator) -> Result<Vec<u64>> {
    // loc:begin:bfs_kamping_overlap
    let peers = comm_graph_peers(g);
    let topo = comm.create_dist_graph_adjacent(&peers, &peers)?;
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let _lvl = kamping::trace_span("bfs_level");
        let empty = u8::from(frontier.is_empty());
        let done_fut = comm.iallreduce((send_buf(vec![empty]), op(ops::LogicalAnd)))?;
        // Overlap 1: expand the frontier while the reduction is in flight.
        let next = expand_frontier(g, &frontier, &mut dist, level);
        let (done, _) = done_fut.wait()?;
        if done[0] != 0 {
            break;
        }
        // Overlap 2: the sparse exchange is in flight while the local
        // vertices merge.
        let (own, data, counts) = pack_by_peers(&peers, comm.rank(), next);
        let exchange = topo.topology().ineighbor_alltoallv(&data, &counts)?;
        let mut merged = own; // local work under the in-flight exchange
        for block in exchange.wait()?.into_blocks().expect("blocks completion") {
            merged.extend_from_slice(&kmp_mpi::plain::bytes_to_vec::<VId>(&block));
        }
        frontier = merged;
        level += 1;
    }
    Ok(dist)
    // loc:end:bfs_kamping_overlap
}

/// Boost.MPI-style BFS: no alltoallv binding, the exchange is hand-rolled
/// (42 LoC).
#[allow(clippy::needless_range_loop)] // counts and payload are built in rank order
pub fn bfs_boost(g: &DistGraph, source: VId, comm: &Comm) -> Result<Vec<u64>> {
    // loc:begin:bfs_boost
    let c = boost_like::BoostComm::new(comm);
    let p = c.size();
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let done =
            boost_like::all_reduce(&c, &u8::from(frontier.is_empty()), kmp_mpi::op::LogicalAnd)?;
        if done != 0 {
            break;
        }
        let next = expand_frontier(g, &frontier, &mut dist, level);
        let mut scounts = vec![0usize; p];
        let mut data: Vec<VId> = Vec::new();
        for r in 0..p {
            if let Some(msgs) = next.get(&r) {
                scounts[r] = msgs.len();
                data.extend_from_slice(msgs);
            }
        }
        // Boost.MPI has no alltoallv binding: hand-roll the exchange
        // (receives size themselves, as Boost's serialization does).
        let displs = kmp_mpi::collectives::displacements_from_counts(&scounts);
        for dest in 0..p {
            boost_like::send(
                &c,
                dest,
                0,
                &data[displs[dest]..displs[dest] + scounts[dest]],
            )?;
        }
        frontier = Vec::new();
        let mut block = Vec::new();
        for src in 0..p {
            boost_like::recv(&c, src, 0, &mut block)?;
            frontier.append(&mut block);
        }
        level += 1;
    }
    Ok(dist)
    // loc:end:bfs_boost
}

/// RWTH-MPI-style BFS: explicit counts/displacements every level (32 LoC).
#[allow(clippy::needless_range_loop)] // counts and payload are built in rank order
pub fn bfs_rwth(g: &DistGraph, source: VId, comm: &Comm) -> Result<Vec<u64>> {
    // loc:begin:bfs_rwth
    let c = rwth_like::RwthComm::new(comm);
    let p = c.size();
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let done = c.all_reduce(u8::from(frontier.is_empty()), kmp_mpi::op::LogicalAnd)?;
        if done != 0 {
            break;
        }
        let next = expand_frontier(g, &frontier, &mut dist, level);
        let mut scounts = vec![0usize; p];
        let mut data: Vec<VId> = Vec::new();
        for r in 0..p {
            if let Some(msgs) = next.get(&r) {
                scounts[r] = msgs.len();
                data.extend_from_slice(msgs);
            }
        }
        let sdispls = kmp_mpi::collectives::displacements_from_counts(&scounts);
        let mut rcounts = vec![0usize; p];
        c.all_to_all(&scounts, &mut rcounts)?;
        let rdispls = kmp_mpi::collectives::displacements_from_counts(&rcounts);
        let mut recv = vec![0u64; rcounts.iter().sum()];
        c.all_to_all_varying(&data, &scounts, &sdispls, &mut recv, &rcounts, &rdispls)?;
        frontier = recv;
        level += 1;
    }
    Ok(dist)
    // loc:end:bfs_rwth
}

/// MPL-style BFS: layouts for both sides of every exchange (49 LoC — the
/// longest, and the slowest due to the alltoallw-path v-collectives).
#[allow(clippy::needless_range_loop)] // counts and payload are built in rank order
pub fn bfs_mpl(g: &DistGraph, source: VId, comm: &Comm) -> Result<Vec<u64>> {
    // loc:begin:bfs_mpl
    let c = mpl_like::MplComm::new(comm);
    let p = c.size();
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }
    let mut level = 0u64;
    loop {
        let mut done = [0u8];
        c.allreduce(
            &[u8::from(frontier.is_empty())],
            &mut done,
            kmp_mpi::op::LogicalAnd,
        )?;
        if done[0] != 0 {
            break;
        }
        let next = expand_frontier(g, &frontier, &mut dist, level);
        let mut scounts = vec![0usize; p];
        let mut data: Vec<VId> = Vec::new();
        for r in 0..p {
            if let Some(msgs) = next.get(&r) {
                scounts[r] = msgs.len();
                data.extend_from_slice(msgs);
            }
        }
        let unit = mpl_like::Layouts::from_counts(&vec![1usize; p]);
        let unit_recv = mpl_like::Layouts::from_counts(&vec![1usize; p]);
        let mut rcounts = vec![0usize; p];
        c.alltoallv(&scounts, &unit, &mut rcounts, &unit_recv)?;
        let send_layouts = mpl_like::Layouts::from_counts(&scounts);
        let recv_layouts = mpl_like::Layouts::from_counts(&rcounts);
        let mut recv = vec![0u64; rcounts.iter().sum()];
        c.alltoallv(&data, &send_layouts, &mut recv, &recv_layouts)?;
        frontier = recv;
        level += 1;
    }
    Ok(dist)
    // loc:end:bfs_mpl
}

/// The frontier-exchange strategies of Fig. 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// Dense `alltoallv` through the substrate ("mpi" line).
    MpiDense,
    /// `neighbor_alltoallv` on a pre-built graph topology
    /// ("mpi_neighbor" line).
    MpiNeighbor,
    /// Dense `alltoallv` through kamping ("kamping" line).
    Kamping,
    /// kamping's sparse NBX plugin ("kamping sparse" line).
    KampingSparse,
    /// kamping's 2D grid plugin ("kamping grid" line).
    KampingGrid,
    /// Named-parameter `neighbor_alltoallv` on a kamping
    /// [`NeighborhoodCommunicator`] over the rank-communication graph
    /// ("kamping neighborhood" line): O(degree) envelopes, receive side
    /// inferred along the edges.
    KampingNeighbor,
    /// Neighborhood exchange with the topology re-built every level —
    /// the dynamic-pattern configuration the paper notes does not scale.
    MpiNeighborRebuild,
}

/// The rank-communication graph of `g`: ranks owning a neighbour of a
/// local vertex (symmetric for undirected graphs).
pub fn comm_graph_peers(g: &DistGraph) -> Vec<Rank> {
    let mut peers: Vec<Rank> = (0..g.vertex_ranges.len() - 1)
        .filter(|&r| {
            r != g.rank
                && g.iter_local()
                    .any(|(_, nbrs)| nbrs.iter().any(|&u| g.owner(u) == r))
        })
        .collect();
    peers.sort_unstable();
    peers
}

/// BFS with a selectable frontier exchange (the Fig. 10 harness).
pub fn bfs_with_exchange(
    g: &DistGraph,
    source: VId,
    comm: &Communicator,
    exchange: Exchange,
) -> Result<Vec<u64>> {
    let p = comm.size();
    let mut dist = vec![UNDEF; g.local_n()];
    let mut frontier: Vec<VId> = Vec::new();
    if g.is_local(source) {
        frontier.push(source);
    }

    // Strategy-specific one-time setup.
    let peers = comm_graph_peers(g);
    let topo = match exchange {
        Exchange::MpiNeighbor => Some(comm.raw().create_dist_graph_adjacent(&peers, &peers)?),
        _ => None,
    };
    let ktopo = match exchange {
        Exchange::KampingNeighbor => Some(comm.create_dist_graph_adjacent(&peers, &peers)?),
        _ => None,
    };
    let grid = match exchange {
        Exchange::KampingGrid => Some(comm.make_grid()?),
        _ => None,
    };

    let mut level = 0u64;
    loop {
        // One user span per BFS level: the whole Fig. 10 run renders as
        // a per-level timeline in the exported Chrome trace.
        let _lvl = kamping::trace_span("bfs_level");
        let empty = u8::from(frontier.is_empty());
        let done = comm.allreduce_single((send_buf(&[empty]), op(ops::LogicalAnd)))?;
        if done != 0 {
            break;
        }
        let next = expand_frontier(g, &frontier, &mut dist, level);
        frontier = match exchange {
            Exchange::MpiDense => with_flattened(next, p, |data, counts| {
                let sdispls = kmp_mpi::collectives::displacements_from_counts(&counts);
                let mut rcounts = vec![0usize; p];
                comm.raw().alltoall_into(&counts, &mut rcounts)?;
                let rdispls = kmp_mpi::collectives::displacements_from_counts(&rcounts);
                let mut recv = vec![0u64; rcounts.iter().sum()];
                comm.raw()
                    .alltoallv_into(&data, &counts, &sdispls, &mut recv, &rcounts, &rdispls)?;
                Ok(recv)
            })?,
            Exchange::Kamping => with_flattened(next, p, |data, counts| {
                comm.alltoallv((send_buf(data), send_counts(counts)))
            })?,
            Exchange::KampingSparse => {
                let msgs: HashMap<Rank, Vec<VId>> = next;
                let received = comm.sparse_alltoallv(&msgs)?;
                received.into_iter().flat_map(|(_, v)| v).collect()
            }
            Exchange::KampingGrid => with_flattened(next, p, |data, counts| {
                grid.as_ref().expect("grid built").alltoallv(&data, &counts)
            })?,
            Exchange::MpiNeighbor => {
                neighbor_exchange(topo.as_ref().expect("topology built"), &peers, next)?
            }
            Exchange::KampingNeighbor => {
                let t = ktopo.as_ref().expect("topology built");
                let (own, data, counts) = pack_by_peers(&peers, comm.rank(), next);
                let mut got: Vec<VId> =
                    t.neighbor_alltoallv((send_buf(&data), send_counts(&counts)))?;
                let mut merged = own;
                merged.append(&mut got);
                merged
            }
            Exchange::MpiNeighborRebuild => {
                let topo = comm.raw().create_dist_graph_adjacent(&peers, &peers)?;
                neighbor_exchange(&topo, &peers, next)?
            }
        };
        level += 1;
    }
    Ok(dist)
}

fn neighbor_exchange(
    topo: &kmp_mpi::DistGraphComm,
    peers: &[Rank],
    mut next: HashMap<Rank, Vec<VId>>,
) -> Result<Vec<VId>> {
    // Self-messages do not travel through the topology.
    let own = next.remove(&topo.comm().rank()).unwrap_or_default();
    let send: Vec<Vec<VId>> = peers
        .iter()
        .map(|r| next.remove(r).unwrap_or_default())
        .collect();
    debug_assert!(
        next.is_empty(),
        "message to a rank outside the communication graph"
    );
    let received = topo.neighbor_alltoall_vecs(&send)?;
    let mut frontier = own;
    for block in received {
        frontier.extend_from_slice(&block);
    }
    Ok(frontier)
}

/// Fault-tolerant BFS: survives rank crashes mid-traversal by
/// shrink-and-continue (the ULFM recovery pattern of
/// [`kmp_mpi::ulfm`]).
///
/// The graph partition is a function of the membership — `generate(rank,
/// size)` builds this rank's partition for the *current* communicator —
/// because vertex ownership must be re-balanced over the survivors after
/// a failure. Each level runs as one fault-tolerant step: attempt the
/// termination check + expansion + dense exchange, **revoke on local
/// error**, then `agree_and` on success. On disagreement every survivor
/// shrinks and the traversal restarts from the source on the
/// re-partitioned graph (distances are membership-relative state, so a
/// level-granular checkpoint would be meaningless across a
/// re-partition). `on_level` is a per-level hook — the seam where tests
/// and the `fault` probe of the `floors` bench inject crashes
/// ([`Comm::fail_here`](kmp_mpi::Comm::fail_here) simply unwinds out of
/// it).
///
/// Returns this rank's distances for its *final* partition plus the
/// final (possibly shrunken) communicator, so the caller can stitch the
/// global result by the surviving membership.
pub fn bfs_ft(
    comm: Comm,
    source: VId,
    generate: impl Fn(usize, usize) -> DistGraph,
    mut on_level: impl FnMut(u64, &Comm),
) -> Result<(Vec<u64>, Comm)> {
    let mut active = comm;
    'restart: loop {
        let p = active.size();
        let g = generate(active.rank(), p);
        let mut dist = vec![UNDEF; g.local_n()];
        let mut frontier: Vec<VId> = Vec::new();
        if g.is_local(source) {
            frontier.push(source);
        }
        let mut level = 0u64;
        loop {
            // One fault-tolerant step: `None` means globally done.
            let r: Result<Option<Vec<VId>>> = (|| {
                on_level(level, &active);
                let empty = [u8::from(frontier.is_empty())];
                let mut all_empty = [0u8];
                active.allreduce_into(&empty, &mut all_empty, kmp_mpi::op::LogicalAnd)?;
                if all_empty[0] != 0 {
                    return Ok(None);
                }
                let next = expand_frontier(&g, &frontier, &mut dist, level);
                let mut scounts = vec![0usize; p];
                let mut data: Vec<VId> = Vec::new();
                for (rank, count) in scounts.iter_mut().enumerate() {
                    if let Some(msgs) = next.get(&rank) {
                        *count = msgs.len();
                        data.extend_from_slice(msgs);
                    }
                }
                let sdispls = kmp_mpi::collectives::displacements_from_counts(&scounts);
                let mut rcounts = vec![0usize; p];
                active.alltoall_into(&scounts, &mut rcounts)?;
                let rdispls = kmp_mpi::collectives::displacements_from_counts(&rcounts);
                let mut recv = vec![0u64; rcounts.iter().sum()];
                active.alltoallv_into(&data, &scounts, &sdispls, &mut recv, &rcounts, &rdispls)?;
                Ok(Some(recv))
            })();
            // Canonical recovery: revoke on local error (a peer may be
            // parked on a live rank that errored — only revocation
            // reaches it), then agree; shrink together on disagreement.
            if r.is_err() && !active.is_revoked() {
                active.revoke();
            }
            if active.agree_and(r.is_ok()).unwrap_or(false) {
                match r.expect("agreed ok") {
                    None => return Ok((dist, active)),
                    Some(next) => {
                        frontier = next;
                        level += 1;
                    }
                }
            } else {
                if !active.is_revoked() {
                    active.revoke();
                }
                active = active.shrink()?;
                continue 'restart;
            }
        }
    }
}

/// Sequential reference BFS over the assembled global graph (for tests).
pub fn bfs_sequential(parts: &[DistGraph], source: VId) -> Vec<u64> {
    let n = parts[0].global_n;
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for g in parts {
        for (u, nbrs) in g.iter_local() {
            adj[u as usize] = nbrs.to_vec();
        }
    }
    let mut dist = vec![UNDEF; n];
    let mut queue = std::collections::VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v as usize] {
            if dist[u as usize] == UNDEF {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Source text of this module (for the Table I harness).
pub const SOURCE: &str = include_str!("bfs.rs");

#[cfg(test)]
mod tests {
    use super::*;
    use kmp_graphgen::{gnm, rgg2d, rhg};
    use kmp_mpi::Universe;

    fn check_bfs(
        parts: Vec<DistGraph>,
        run: impl Fn(&DistGraph, kmp_mpi::Comm) -> Vec<u64> + Sync,
    ) {
        let p = parts.len();
        let reference = bfs_sequential(&parts, 0);
        let out = Universe::run(p, |comm| {
            let g = &parts[comm.rank()];
            run(g, comm)
        });
        let mut got = vec![UNDEF; reference.len()];
        for (r, dists) in out.iter().enumerate() {
            let lo = parts[r].vertex_ranges[r];
            got[lo..lo + dists.len()].copy_from_slice(dists);
        }
        assert_eq!(got, reference);
    }

    fn gnm_parts(p: usize) -> Vec<DistGraph> {
        (0..p).map(|r| gnm(120, 480, 17, r, p)).collect()
    }

    #[test]
    fn mpi_variant_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| bfs_mpi(g, 0, &comm).unwrap());
    }

    #[test]
    fn boost_variant_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| bfs_boost(g, 0, &comm).unwrap());
    }

    #[test]
    fn rwth_variant_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| bfs_rwth(g, 0, &comm).unwrap());
    }

    #[test]
    fn mpl_variant_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| bfs_mpl(g, 0, &comm).unwrap());
    }

    #[test]
    fn kamping_variant_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| {
            let c = Communicator::new(comm);
            bfs_kamping(g, 0, &c).unwrap()
        });
    }

    #[test]
    fn overlap_variant_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| {
            let c = Communicator::new(comm);
            bfs_kamping_overlap(g, 0, &c).unwrap()
        });
    }

    #[test]
    fn overlap_variant_matches_on_all_families() {
        let p = 4;
        let graphs: Vec<Vec<DistGraph>> = vec![
            (0..p).map(|r| gnm(100, 400, 3, r, p)).collect(),
            (0..p).map(|r| rgg2d(150, 0.12, 3, r, p)).collect(),
            (0..p).map(|r| rhg(120, 8.0, 0.75, 3, r, p)).collect(),
        ];
        for parts in graphs {
            let reference = bfs_sequential(&parts, 0);
            let out = Universe::run(p, |comm| {
                let c = Communicator::new(comm);
                bfs_kamping_overlap(&parts[c.rank()], 0, &c).unwrap()
            });
            let mut got = vec![UNDEF; reference.len()];
            for (r, dists) in out.iter().enumerate() {
                let lo = parts[r].vertex_ranges[r];
                got[lo..lo + dists.len()].copy_from_slice(dists);
            }
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn all_exchanges_match_on_all_families() {
        let p = 4;
        let graphs: Vec<Vec<DistGraph>> = vec![
            (0..p).map(|r| gnm(100, 400, 3, r, p)).collect(),
            (0..p).map(|r| rgg2d(150, 0.12, 3, r, p)).collect(),
            (0..p).map(|r| rhg(120, 8.0, 0.75, 3, r, p)).collect(),
        ];
        for parts in graphs {
            let reference = bfs_sequential(&parts, 0);
            for ex in [
                Exchange::MpiDense,
                Exchange::MpiNeighbor,
                Exchange::Kamping,
                Exchange::KampingSparse,
                Exchange::KampingGrid,
                Exchange::KampingNeighbor,
                Exchange::MpiNeighborRebuild,
            ] {
                let out = Universe::run(p, |comm| {
                    let c = Communicator::new(comm);
                    bfs_with_exchange(&parts[c.rank()], 0, &c, ex).unwrap()
                });
                let mut got = vec![UNDEF; reference.len()];
                for (r, dists) in out.iter().enumerate() {
                    let lo = parts[r].vertex_ranges[r];
                    got[lo..lo + dists.len()].copy_from_slice(dists);
                }
                assert_eq!(got, reference, "exchange {ex:?} diverged");
            }
        }
    }

    #[test]
    fn ft_bfs_survives_crash_at_level_two() {
        let p = 4;
        // After the crash the survivors re-partition over 3 ranks, so
        // the oracle is the sequential BFS of the 3-way partitioning.
        let parts3: Vec<DistGraph> = (0..3).map(|r| gnm(120, 480, 17, r, 3)).collect();
        let reference = bfs_sequential(&parts3, 0);
        let out = kmp_mpi::Universe::run_with(kmp_mpi::Config::new(p), |comm| {
            let (dist, active) = bfs_ft(
                comm,
                0,
                |rank, size| gnm(120, 480, 17, rank, size),
                |level, c| {
                    if level == 2 && c.size() == 4 && c.rank() == 3 {
                        c.fail_here();
                    }
                },
            )
            .unwrap();
            (dist, active.rank(), active.size())
        });
        assert!(
            matches!(out[3], kmp_mpi::RankOutcome::Failed),
            "{:?}",
            out[3]
        );
        let mut got = vec![UNDEF; reference.len()];
        for (world_rank, o) in out.into_iter().enumerate() {
            if world_rank == 3 {
                continue;
            }
            match o {
                kmp_mpi::RankOutcome::Completed((dist, new_rank, new_size)) => {
                    assert_eq!(new_size, 3, "survivor {world_rank}");
                    let lo = parts3[new_rank].vertex_ranges[new_rank];
                    got[lo..lo + dist.len()].copy_from_slice(&dist);
                }
                o => panic!("survivor {world_rank} did not complete: {o:?}"),
            }
        }
        assert_eq!(got, reference, "survivors diverged from the oracle");
    }

    #[test]
    fn ft_bfs_fault_free_matches_sequential() {
        check_bfs(gnm_parts(4), |g, comm| {
            let _ = g;
            bfs_ft(
                comm,
                0,
                |rank, size| gnm(120, 480, 17, rank, size),
                |_, _| {},
            )
            .unwrap()
            .0
        });
    }

    #[test]
    fn unreachable_vertices_stay_undef() {
        // A graph with an isolated component: n=10, no edges at all.
        let p = 2;
        let parts: Vec<DistGraph> = (0..p).map(|r| gnm(10, 0, 1, r, p)).collect();
        let out = Universe::run(p, |comm| {
            let c = Communicator::new(comm);
            bfs_kamping(&parts[c.rank()], 0, &c).unwrap()
        });
        assert_eq!(out[0][0], 0, "source at distance 0");
        assert!(out[0][1..].iter().all(|&d| d == UNDEF));
        assert!(out[1].iter().all(|&d| d == UNDEF));
    }

    #[test]
    fn loc_ordering_matches_table1() {
        // Table I: MPI 46, Boost 42, RWTH 32, MPL 49, KaMPIng 22.
        let mpi = crate::count_loc(SOURCE, "bfs_mpi");
        let boost = crate::count_loc(SOURCE, "bfs_boost");
        let rwth = crate::count_loc(SOURCE, "bfs_rwth");
        let mpl = crate::count_loc(SOURCE, "bfs_mpl");
        let kamping = crate::count_loc(SOURCE, "bfs_kamping");
        // Robust orderings (see EXPERIMENTS.md for the boost/mpi
        // deviation explained in the sample-sort counterpart).
        assert!(kamping < rwth, "kamping ({kamping}) < rwth ({rwth})");
        assert!(rwth < boost, "rwth ({rwth}) < boost ({boost})");
        assert!(rwth <= mpi, "rwth ({rwth}) <= mpi ({mpi})");
        assert!(mpi <= mpl + 10, "mpi ({mpi}) in the mpl ({mpl}) ballpark");
        assert!(kamping * 3 <= mpl + mpi, "kamping clearly shortest");
    }
}
