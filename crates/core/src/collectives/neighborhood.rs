//! Neighborhood collectives with named parameters (MPI-3 §7.6 shape,
//! KaMPIng §III interface).
//!
//! A [`NeighborhoodCommunicator`] wraps one of the substrate's topology
//! communicators ([`kmp_mpi::CartComm`] / [`kmp_mpi::DistGraphComm`]) and
//! offers `neighbor_alltoallv` / `neighbor_allgatherv` with the same
//! named-parameter surface as their dense counterparts — any subset of
//! the parameters, in any order, with defaults computed only for omitted
//! slots. As in the dense calls, omitted receive counts are read off the
//! delivered blocks — no count travels ahead of the payload — so a
//! sparse exchange posts exactly its O(degree) payload messages even
//! when the user lets the library compute the receive side.
//!
//! Counts and displacements are indexed by *neighbor position*, not by
//! rank: `send_counts[k]` belongs to `destinations()[k]`, and the block
//! from `sources()[j]` lands at `recv[recv_displs[j]..][..recv_counts[j]]`.

use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{CartComm, DistGraphComm, Neighborhood, NeighborhoodColl, Plain, Rank, Result};

use super::receive_v;
use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, Push2, Push3, Push4, PushComponent};
use crate::params::slots::{CountsSlot, ProvidedCounts, ProvidesSendData, RecvBufSpec};
use crate::params::{Absent, SendBuf};

/// A communicator with an attached virtual topology. Created by
/// [`Communicator::create_cart`], [`Communicator::create_dist_graph`] or
/// [`Communicator::create_dist_graph_adjacent`]; generic over the
/// topology kind so the same builders serve both.
pub struct NeighborhoodCommunicator<N: Neighborhood> {
    topo: N,
}

impl<N: Neighborhood> NeighborhoodCommunicator<N> {
    /// Wraps an already-constructed substrate topology.
    pub fn new(topo: N) -> Self {
        Self { topo }
    }

    /// The underlying topology communicator, for substrate-level calls
    /// (`cart_shift`, `ineighbor_*`, `neighbor_*_init`, …).
    pub fn topology(&self) -> &N {
        &self.topo
    }

    /// Unwraps back into the substrate topology.
    pub fn into_inner(self) -> N {
        self.topo
    }

    /// This rank's id in the topology's communicator.
    pub fn rank(&self) -> Rank {
        self.topo.comm().rank()
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.topo.comm().size()
    }

    /// Number of in-neighbors (ranks this rank receives from).
    pub fn in_degree(&self) -> usize {
        self.topo.sources().len()
    }

    /// Number of out-neighbors (ranks this rank sends to).
    pub fn out_degree(&self) -> usize {
        self.topo.destinations().len()
    }

    /// Sparse personalized exchange along the topology's edges (mirrors
    /// `MPI_Neighbor_alltoallv`).
    ///
    /// Accepted parameters: `send_buf` and `send_counts` (required, one
    /// count per out-neighbor), `send_displs`(`_out`), `recv_buf`,
    /// `recv_counts`(`_out`), `recv_displs`(`_out`), `tuning`. Omitted
    /// displacements are prefix sums; omitted receive counts are read
    /// off the delivered messages — no extra communication, O(degree)
    /// messages in total.
    pub fn neighbor_alltoallv<T, A>(
        &self,
        args: A,
    ) -> Result<<A::Out as NeighborAlltoallvArgs<T, N>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: NeighborAlltoallvArgs<T, N>,
    {
        args.into_args().run(self)
    }

    /// Gathers each neighbor's (possibly differently-sized) contribution
    /// (mirrors `MPI_Neighbor_allgatherv`): sends `send_buf` to every
    /// out-neighbor, receives one block per in-neighbor.
    ///
    /// Accepted parameters: `send_buf` (required), `recv_buf`,
    /// `recv_counts`(`_out`), `recv_displs`(`_out`), `tuning`. Omitted
    /// receive counts are read off the delivered messages — no extra
    /// communication.
    pub fn neighbor_allgatherv<T, A>(
        &self,
        args: A,
    ) -> Result<<A::Out as NeighborAllgathervArgs<T, N>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: NeighborAllgathervArgs<T, N>,
    {
        args.into_args().run(self)
    }
}

impl Communicator {
    /// Attaches a cartesian grid topology (mirrors `MPI_Cart_create`)
    /// and returns a neighborhood communicator over it; the grid's
    /// neighbor lists are the ±1 shifts along every dimension.
    pub fn create_cart(
        &self,
        dims: &[usize],
        periods: &[bool],
        reorder: bool,
    ) -> Result<NeighborhoodCommunicator<CartComm>> {
        Ok(NeighborhoodCommunicator::new(
            self.raw().create_cart(dims, periods, reorder)?,
        ))
    }

    /// Attaches a general distributed graph topology (mirrors
    /// `MPI_Dist_graph_create`): every rank may contribute any subset of
    /// the edges; the union is distributed collectively.
    pub fn create_dist_graph(
        &self,
        edges: &[(Rank, Rank)],
    ) -> Result<NeighborhoodCommunicator<DistGraphComm>> {
        Ok(NeighborhoodCommunicator::new(
            self.raw().create_dist_graph(edges)?,
        ))
    }

    /// Attaches a distributed graph topology from each rank's own
    /// adjacency (mirrors `MPI_Dist_graph_create_adjacent`).
    pub fn create_dist_graph_adjacent(
        &self,
        sources: &[Rank],
        destinations: &[Rank],
    ) -> Result<NeighborhoodCommunicator<DistGraphComm>> {
        Ok(NeighborhoodCommunicator::new(
            self.raw()
                .create_dist_graph_adjacent(sources, destinations)?,
        ))
    }
}

/// Heavy (communicating) check: the counts each sender will deliver
/// along the topology's edges must match what the receiver was told to
/// expect. The neighborhood analogue of
/// [`crate::assertions::check_count_matrix`] — but one count travels
/// along each edge, so even the assertion costs only O(degree) messages.
fn check_neighbor_counts<N: Neighborhood>(
    topo: &N,
    send_counts: &[usize],
    recv_counts: &[usize],
) -> Result<()> {
    use crate::assertions::{assertions_enabled, AssertionLevel};
    if !assertions_enabled(AssertionLevel::Heavy) {
        return Ok(());
    }
    let sends: Vec<Vec<u64>> = send_counts.iter().map(|&c| vec![c as u64]).collect();
    let delivered = topo.neighbor_alltoall_vecs(&sends)?;
    let delivered: Vec<usize> = delivered.iter().map(|v| v[0] as usize).collect();
    if delivered != recv_counts {
        return Err(kmp_mpi::MpiError::InvalidLayout(format!(
            "heavy assertion failed: inconsistent neighbor_alltoallv counts on rank {}: \
             neighbors will deliver {delivered:?} but recv_counts say {recv_counts:?}",
            topo.comm().rank()
        )));
    }
    Ok(())
}

/// Valid argument sets for
/// [`NeighborhoodCommunicator::neighbor_alltoallv`].
pub trait NeighborAlltoallvArgs<T: Plain, N: Neighborhood> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &NeighborhoodCommunicator<N>) -> Result<Self::Output>;
}

impl<T, N, B, RB, SC, RC, SD, RD> NeighborAlltoallvArgs<T, N>
    for ArgSet<SendBuf<B>, Absent, RB, SC, RC, SD, RD, Absent>
where
    T: Plain,
    N: Neighborhood,
    SendBuf<B>: ProvidesSendData<T>,
    RB: RecvBufSpec<T>,
    SC: ProvidedCounts,
    RC: CountsSlot,
    SD: CountsSlot,
    RD: CountsSlot,
    RB::Out: PushComponent<()>,
    SD::Out: PushComponent<Push1<RB::Out>>,
    RC::Out: PushComponent<Push2<RB::Out, SD::Out>>,
    RD::Out: PushComponent<Push3<RB::Out, SD::Out, RC::Out>>,
    Push4<RB::Out, SD::Out, RC::Out, RD::Out>: Finalize,
{
    type Output = FinalOf<Push4<RB::Out, SD::Out, RC::Out, RD::Out>>;

    fn run(self, comm: &NeighborhoodCommunicator<N>) -> Result<Self::Output> {
        let topo = comm.topology();
        let _tuning = topo.comm().tuning_guard(self.meta.tuning);
        let send = self.send_buf.send_slice();
        let send_counts = self
            .send_counts
            .provided()
            .expect("send_counts is required");

        // Default send displacements: local exclusive prefix sum over
        // the out-neighbor blocks.
        let computed_sd = (!SD::PROVIDED).then(|| displacements_from_counts(send_counts));
        let send_displs = (self.send_displs.provided().or(computed_sd.as_deref()))
            .expect("computed when not provided");

        // Heavy assertion (§III-G): user-provided receive counts must
        // match what the in-neighbors will send. Moot when the counts
        // are omitted (they are then read off the delivered blocks).
        if let Some(recv_counts) = self.recv_counts.provided() {
            check_neighbor_counts(topo, send_counts, recv_counts)?;
        }

        let blocks = topo.neighbor_alltoallv_blocks(send, send_counts, send_displs)?;
        let (rb_out, rc_out, rd_out) = receive_v(
            self.recv_buf,
            self.recv_counts,
            self.recv_displs,
            Some(blocks),
        )?;

        let acc = rb_out.push_component(());
        let acc = self.send_displs.finish(computed_sd).push_component(acc);
        let acc = rc_out.push_component(acc);
        Ok(rd_out.push_component(acc).finalize())
    }
}

/// Valid argument sets for
/// [`NeighborhoodCommunicator::neighbor_allgatherv`].
pub trait NeighborAllgathervArgs<T: Plain, N: Neighborhood> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &NeighborhoodCommunicator<N>) -> Result<Self::Output>;
}

impl<T, N, B, RB, RC, RD> NeighborAllgathervArgs<T, N>
    for ArgSet<SendBuf<B>, Absent, RB, Absent, RC, Absent, RD, Absent>
where
    T: Plain,
    N: Neighborhood,
    SendBuf<B>: ProvidesSendData<T>,
    RB: RecvBufSpec<T>,
    RC: CountsSlot,
    RD: CountsSlot,
    RB::Out: PushComponent<()>,
    RC::Out: PushComponent<Push1<RB::Out>>,
    RD::Out: PushComponent<Push2<RB::Out, RC::Out>>,
    Push3<RB::Out, RC::Out, RD::Out>: Finalize,
{
    type Output = FinalOf<Push3<RB::Out, RC::Out, RD::Out>>;

    fn run(self, comm: &NeighborhoodCommunicator<N>) -> Result<Self::Output> {
        let topo = comm.topology();
        let _tuning = topo.comm().tuning_guard(self.meta.tuning);
        let send = self.send_buf.send_slice();
        let blocks = topo.neighbor_allgatherv_blocks(send)?;
        let (rb_out, rc_out, rd_out) = receive_v(
            self.recv_buf,
            self.recv_counts,
            self.recv_displs,
            Some(blocks),
        )?;
        let acc = rc_out.push_component(rb_out.push_component(()));
        Ok(rd_out.push_component(acc).finalize())
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::{NeighborhoodAlgo, Universe};

    #[test]
    fn neighbor_alltoallv_directed_ring() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            assert_eq!(g.in_degree(), 1);
            assert_eq!(g.out_degree(), 1);
            // rank+1 elements to the right neighbor; counts computed.
            let send: Vec<u64> = vec![comm.rank() as u64; comm.rank() + 1];
            let counts = vec![send.len()];
            let got: Vec<u64> = g
                .neighbor_alltoallv((send_buf(&send), send_counts(&counts)))
                .unwrap();
            assert_eq!(got, vec![left as u64; left + 1]);
        });
    }

    #[test]
    fn neighbor_alltoallv_all_outs() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let p = comm.size();
            let others: Vec<usize> = (0..p).filter(|&r| r != comm.rank()).collect();
            let g = comm.create_dist_graph_adjacent(&others, &others).unwrap();
            // k+1 elements for the k-th destination.
            let counts: Vec<usize> = (0..others.len()).map(|k| k + 1).collect();
            let send: Vec<u32> = (0..others.len())
                .flat_map(|k| vec![comm.rank() as u32 * 10 + k as u32; k + 1])
                .collect();
            let (data, sd, rc, rd) = g
                .neighbor_alltoallv((
                    send_buf(&send),
                    send_counts(&counts),
                    send_displs_out(),
                    recv_counts_out(),
                    recv_displs_out(),
                ))
                .unwrap();
            assert_eq!(sd, vec![0, 1]);
            assert_eq!(rd, vec![0, rc[0]]);
            // Source j lists this rank at position k in *its* neighbor
            // list; it sends k+1 copies of j*10+k.
            let mut expected = Vec::new();
            let mut expected_rc = Vec::new();
            for &src in g.topology().sources() {
                let peers: Vec<usize> = (0..p).filter(|&r| r != src).collect();
                let k = peers.iter().position(|&r| r == comm.rank()).unwrap();
                expected.extend(vec![src as u32 * 10 + k as u32; k + 1]);
                expected_rc.push(k + 1);
            }
            assert_eq!(rc, expected_rc);
            assert_eq!(data, expected);
        });
    }

    #[test]
    fn neighbor_v_collectives_are_one_call_with_or_without_recv_counts() {
        // Heavy assertions would add an edge exchange of their own.
        let _g = crate::assertions::LEVEL_GUARD.lock().unwrap();
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            let send = vec![comm.rank() as u16; 2];
            // Counters are per world rank, so the parent communicator's
            // snapshot sees the topology dup's traffic too.
            let before = comm.call_counts();
            let _: Vec<u16> = g
                .neighbor_alltoallv((send_buf(&send), send_counts(&[2]), recv_counts(&[2])))
                .unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("neighbor_alltoallv"), 1);
            assert_eq!(delta.total(), 1, "{delta}");

            // Counts omitted: still one call — they ride the blocks.
            let before = comm.call_counts();
            let _: Vec<u16> = g
                .neighbor_alltoallv((send_buf(&send), send_counts(&[2])))
                .unwrap();
            let _: Vec<u16> = g.neighbor_allgatherv(send_buf(&send)).unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("neighbor_alltoallv"), 1);
            assert_eq!(delta.get("neighbor_allgatherv"), 1);
            assert_eq!(delta.total(), 2, "no count exchange of any kind: {delta}");
        });
    }

    #[test]
    fn neighbor_allgatherv_over_cart() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            // Periodic 4-ring: neighbors are left and right.
            let g = comm.create_cart(&[4], &[true], false).unwrap();
            let send: Vec<u64> = vec![comm.rank() as u64; comm.rank() + 1];
            let (data, rc) = g
                .neighbor_allgatherv((send_buf(&send), recv_counts_out()))
                .unwrap();
            let mut expected = Vec::new();
            let mut expected_rc = Vec::new();
            for &src in g.topology().sources() {
                expected.extend(vec![src as u64; src + 1]);
                expected_rc.push(src + 1);
            }
            assert_eq!(rc, expected_rc);
            assert_eq!(data, expected);
        });
    }

    #[test]
    fn neighbor_alltoallv_into_borrowed_resized_buffer() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let p = comm.size();
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let g = comm.create_dist_graph_adjacent(&[left], &[right]).unwrap();
            let send = vec![comm.rank() as u8 + 1; 3];
            let mut out: Vec<u8> = Vec::new();
            g.neighbor_alltoallv((
                send_buf(&send),
                send_counts(&[3]),
                recv_buf(&mut out).resize_to_fit(),
            ))
            .unwrap();
            assert_eq!(out, vec![left as u8 + 1; 3]);
        });
    }

    #[test]
    fn neighbor_alltoallv_forced_dense_same_result() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let p = comm.size();
            let others: Vec<usize> = (0..p).filter(|&r| r != comm.rank()).collect();
            let g = comm.create_dist_graph_adjacent(&others, &others).unwrap();
            let counts = vec![1usize; others.len()];
            let send: Vec<u32> = others.iter().map(|&d| d as u32).collect();
            let run = |t: NeighborhoodAlgo| -> Vec<u32> {
                g.neighbor_alltoallv((
                    send_buf(&send),
                    send_counts(&counts),
                    tuning(CollTuning::default().neighborhood(t)),
                ))
                .unwrap()
            };
            let sparse = run(NeighborhoodAlgo::Sparse);
            let dense = run(NeighborhoodAlgo::Dense);
            assert_eq!(sparse, dense);
            assert_eq!(sparse, vec![comm.rank() as u32; others.len()]);
        });
    }

    #[test]
    fn heavy_detects_neighbor_count_mismatch() {
        use crate::assertions::{assertion_level, set_assertion_level, AssertionLevel};
        // The level is process-global; restore it even on panic paths.
        let _g = crate::assertions::LEVEL_GUARD.lock().unwrap();
        let prev = assertion_level();
        set_assertion_level(AssertionLevel::Heavy);
        let result = std::panic::catch_unwind(|| {
            Universe::run(2, |comm| {
                let comm = Communicator::new(comm);
                let other = 1 - comm.rank();
                let g = comm.create_dist_graph_adjacent(&[other], &[other]).unwrap();
                let send = vec![5u8; 1];
                let r: kmp_mpi::Result<Vec<u8>> = g.neighbor_alltoallv((
                    send_buf(&send),
                    send_counts(&[1]),
                    recv_counts(&[2]), // neighbor only delivers 1
                ));
                assert!(r.is_err(), "heavy assertion must reject the mismatch");
            });
        });
        set_assertion_level(prev);
        result.unwrap();
    }
}
