//! `alltoall` / `alltoallv` with named parameters.

use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{Plain, Result};

use super::{receive_equal, receive_v};
use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, Push2, Push3, Push4, PushComponent};
use crate::params::slots::{
    CountsSlot, ProvidedCounts, ProvidesSendData, RecvBufSpec, SendToTransport,
};
use crate::params::{Absent, SendBuf};

/// Valid argument sets for [`Communicator::alltoallv`].
pub trait AlltoallvArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB, SC, RC, SD, RD> AlltoallvArgs<T>
    for ArgSet<SendBuf<B>, Absent, RB, SC, RC, SD, RD, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
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

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let raw = comm.raw();
        let _tuning = raw.tuning_guard(self.meta.tuning);
        let send_counts = self
            .send_counts
            .provided()
            .expect("send_counts is required");

        // Heavy assertion (§III-G): user-provided receive counts must
        // match the transposed send counts. Free below the Heavy level,
        // and moot when the counts are omitted (they are then read off
        // the delivered blocks).
        if let Some(recv_counts) = self.recv_counts.provided() {
            crate::assertions::check_count_matrix(comm, send_counts, recv_counts)?;
        }

        let blocks = match self.send_displs.provided() {
            Some(send_displs) => {
                raw.alltoallv_blocks(self.send_buf.send_slice(), send_counts, send_displs)?
            }
            // Default send displacements are the prefix sums: the buffer
            // is already the packed wire payload, so an owned one moves
            // into the transport and a borrowed one is serialized once.
            None => {
                let elem = std::mem::size_of::<T>();
                let byte_counts: Vec<usize> =
                    send_counts.iter().map(|c| c.saturating_mul(elem)).collect();
                let (packed, _) = self.send_buf.into_payload();
                raw.alltoallv_blocks_bytes(packed, &byte_counts)?
            }
        };
        let (rb_out, rc_out, rd_out) = receive_v(
            self.recv_buf,
            self.recv_counts,
            self.recv_displs,
            Some(blocks),
        )?;

        let acc = rb_out.push_component(());
        let computed_sd = SD::REQUESTED.then(|| displacements_from_counts(send_counts));
        let acc = self.send_displs.finish(computed_sd).push_component(acc);
        let acc = rc_out.push_component(acc);
        Ok(rd_out.push_component(acc).finalize())
    }
}

/// Valid argument sets for [`Communicator::alltoall`] (equal-sized
/// blocks).
pub trait AlltoallArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB> AlltoallArgs<T>
    for ArgSet<SendBuf<B>, Absent, RB, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
    RB: RecvBufSpec<T>,
    RB::Out: PushComponent<()>,
    Push1<RB::Out>: Finalize,
{
    type Output = FinalOf<Push1<RB::Out>>;

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        let send = self.send_buf.send_slice();
        let blocks = comm.raw().alltoall_blocks(send)?;
        let rb_out = receive_equal(self.recv_buf, send.len() / comm.size(), Some(blocks))?;
        Ok(rb_out.push_component(()).finalize())
    }
}

impl Communicator {
    /// Personalized all-to-all with per-destination counts (wraps
    /// `MPI_Alltoallv`).
    ///
    /// Accepted parameters: `send_buf` and `send_counts` (required),
    /// `send_displs`(`_out`), `recv_buf`, `recv_counts`(`_out`),
    /// `recv_displs`(`_out`). Omitted displacements are computed as
    /// prefix sums; omitted receive counts are read off the delivered
    /// messages — no extra communication, one `alltoallv` on the wire.
    ///
    /// This is the call at the heart of the paper's sample sort (Fig. 7):
    /// `data = comm.alltoallv(send_buf(data), send_counts(scounts))`.
    pub fn alltoallv<T, A>(&self, args: A) -> Result<<A::Out as AlltoallvArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AlltoallvArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Personalized all-to-all of equal-sized blocks (wraps
    /// `MPI_Alltoall`).
    pub fn alltoall<T, A>(&self, args: A) -> Result<<A::Out as AlltoallArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AlltoallArgs<T>,
    {
        args.into_args().run(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn alltoallv_sample_sort_idiom() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            // Rank r sends r copies of its rank id to every peer.
            let r = comm.rank();
            let send: Vec<u64> = vec![r as u64; 3 * r];
            let counts = vec![r; 3];
            let data: Vec<u64> = comm
                .alltoallv((send_buf(&send), send_counts(&counts)))
                .unwrap();
            // Receives j copies of j from each rank j.
            assert_eq!(data, vec![1, 2, 2]);
        });
    }

    #[test]
    fn alltoallv_moved_send_buffer() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![comm.rank() as u32 * 10, comm.rank() as u32 * 10 + 1];
            let counts = vec![1usize, 1];
            // data = comm.alltoallv(send_buf(data), send_counts(...)) from Fig. 7.
            let data: Vec<u32> = comm
                .alltoallv((send_buf(send), send_counts(counts)))
                .unwrap();
            assert_eq!(data, vec![comm.rank() as u32, 10 + comm.rank() as u32]);
        });
    }

    #[test]
    fn alltoallv_all_outs() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![7u8; 2];
            let counts = vec![1usize, 1];
            let (data, sd, rc, rd) = comm
                .alltoallv((
                    send_buf(&send),
                    send_counts(&counts),
                    send_displs_out(),
                    recv_counts_out(),
                    recv_displs_out(),
                ))
                .unwrap();
            assert_eq!(data, vec![7, 7]);
            assert_eq!(sd, vec![0, 1]);
            assert_eq!(rc, vec![1, 1]);
            assert_eq!(rd, vec![0, 1]);
        });
    }

    #[test]
    fn alltoallv_provided_recv_counts_skips_exchange() {
        // A `Heavy` level set by a concurrent test would add its count
        // check's `alltoall`.
        let _g = crate::assertions::LEVEL_GUARD.lock().unwrap();
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![comm.rank() as u16; 2];
            let counts = vec![1usize, 1];
            let before = comm.call_counts();
            let _: Vec<u16> = comm
                .alltoallv((send_buf(&send), send_counts(&counts), recv_counts(&counts)))
                .unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("alltoallv"), 1);
            assert_eq!(delta.get("alltoall"), 0, "no count transpose when provided");
        });
    }

    #[test]
    fn alltoallv_computed_recv_counts_is_one_call() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![comm.rank() as u16; 2];
            let counts = vec![1usize, 1];
            let before = comm.call_counts();
            let _: Vec<u16> = comm
                .alltoallv((send_buf(&send), send_counts(&counts)))
                .unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("alltoallv"), 1);
            assert_eq!(delta.total(), 1, "counts ride the blocks: {delta}");
        });
    }

    #[test]
    fn alltoall_equal_blocks() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let send: Vec<u32> = (0..4).map(|i| comm.rank() as u32 * 10 + i).collect();
            let recv: Vec<u32> = comm.alltoall(send_buf(&send)).unwrap();
            let expected: Vec<u32> = (0..4).map(|j| j * 10 + comm.rank() as u32).collect();
            assert_eq!(recv, expected);
        });
    }

    #[test]
    fn alltoallv_into_borrowed_resized_buffer() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![comm.rank() as u8 + 1; 3];
            let counts = vec![2usize, 1];
            let mut out: Vec<u8> = Vec::new();
            comm.alltoallv((
                send_buf(&send),
                send_counts(&counts),
                recv_buf(&mut out).resize_to_fit(),
            ))
            .unwrap();
            // Both ranks send 2 elements to rank 0 and 1 to rank 1, so
            // rank 0 receives [1,1,2,2] and rank 1 receives [1,2].
            if comm.rank() == 0 {
                assert_eq!(out, vec![1, 1, 2, 2]);
            } else {
                assert_eq!(out, vec![1, 2]);
            }
        });
    }
}
