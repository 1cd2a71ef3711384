//! `allgather` / `allgatherv` with named parameters.

use kmp_mpi::{Plain, Result};

use super::{receive_equal, receive_v};
use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, Push2, Push3, PushComponent};
use crate::params::slots::{
    CountsSlot, ProvidesSendData, RecvBufSpec, SendRecvBufSpec, SendToTransport,
};
use crate::params::{Absent, SendBuf, SendRecvBuf};

/// Valid argument sets for [`Communicator::allgatherv`].
pub trait AllgathervArgs<T: Plain> {
    /// The call's result shape, computed from the slots at compile time.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB, RC, RD> AllgathervArgs<T>
    for ArgSet<SendBuf<B>, Absent, RB, Absent, RC, Absent, RD, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
    RB: RecvBufSpec<T>,
    RC: CountsSlot,
    RD: CountsSlot,
    RB::Out: PushComponent<()>,
    RC::Out: PushComponent<Push1<RB::Out>>,
    RD::Out: PushComponent<Push2<RB::Out, RC::Out>>,
    Push3<RB::Out, RC::Out, RD::Out>: Finalize,
{
    type Output = FinalOf<Push3<RB::Out, RC::Out, RD::Out>>;

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        // An owned send buffer moves into the transport; a borrowed one
        // is serialized once. Supplied counts go down as the agreed
        // layout, which selects the schedule; omitted counts are read
        // off the delivered blocks, omitted displacements are their
        // prefix sums; all resolved at compile time from the slots.
        // Counts that describe no layout (not one per rank, or past
        // `usize::MAX` bytes) leave the exchange self-sizing, and
        // `receive_v` reports them after it, like any other mismatch.
        let (own, _) = self.send_buf.into_payload();
        let elem = std::mem::size_of::<T>();
        let byte_counts: Option<Vec<usize>> = (self.recv_counts.provided())
            .filter(|counts| counts.len() == comm.size())
            .and_then(|counts| counts.iter().map(|&c| c.checked_mul(elem)).collect());
        let blocks = comm.raw().allgatherv_blocks(own, byte_counts.as_deref())?;
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

/// Valid argument sets for [`Communicator::allgather`] with explicit send
/// data.
pub trait AllgatherArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB> AllgatherArgs<T>
    for ArgSet<SendBuf<B>, Absent, RB, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
    RB: RecvBufSpec<T>,
    RB::Out: PushComponent<()>,
    Push1<RB::Out>: Finalize,
{
    type Output = FinalOf<Push1<RB::Out>>;

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let n = self.send_buf.send_slice().len();
        let (own, _) = self.send_buf.into_payload();
        let blocks = comm.raw().allgather_blocks(own)?;
        let rb_out = receive_equal(self.recv_buf, n, Some(blocks))?;
        Ok(rb_out.push_component(()).finalize())
    }
}

/// Valid argument sets for the in-place [`Communicator::allgather`]
/// (`send_recv_buf`, §III-G): the buffer holds `p` blocks; the own block
/// is read from position `rank` and all blocks are filled.
pub trait AllgatherInPlaceArgs<T: Plain> {
    /// The call's result shape (`Vec<T>` for owned buffers, `()` for
    /// borrowed ones).
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B> AllgatherInPlaceArgs<T>
    for ArgSet<Absent, SendRecvBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendRecvBuf<B>: SendRecvBufSpec<T>,
    <SendRecvBuf<B> as SendRecvBufSpec<T>>::Out: PushComponent<()>,
    Push1<<SendRecvBuf<B> as SendRecvBufSpec<T>>::Out>: Finalize,
{
    type Output = FinalOf<Push1<<SendRecvBuf<B> as SendRecvBufSpec<T>>::Out>>;

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let raw = comm.raw();
        let ((), out) = self
            .send_recv_buf
            .apply(|buf| raw.allgather_in_place(buf))?;
        Ok(out.push_component(()).finalize())
    }
}

impl Communicator {
    /// Gathers variable-sized contributions from all ranks to all ranks
    /// (wraps `MPI_Allgatherv`, §III-A's running example).
    ///
    /// Accepted parameters: `send_buf` (required), `recv_buf`,
    /// `recv_counts`/`recv_counts_out`, `recv_displs`/`recv_displs_out`.
    /// Omitted receive counts are read off the delivered messages — no
    /// extra communication (Fig. 2 spends an `allgather` on them; the
    /// substrate's messages are self-describing) — over the eager
    /// fan-out. Supplied `recv_counts` are the layout every rank agrees
    /// on, so they also select the schedule, as `MPI_Allgatherv`'s do:
    /// recursive doubling or Bruck (`ceil(log2 p)` rounds) while their
    /// total stays within the allgather ceilings of
    /// [`CollTuning`](kmp_mpi::CollTuning), the fan-out above.
    ///
    /// ```
    /// use kamping::prelude::*;
    ///
    /// kmp_mpi::Universe::run(3, |comm| {
    ///     let comm = Communicator::new(comm);
    ///     let mine = vec![comm.rank() as u32; comm.rank() + 1];
    ///     // Fig. 1 (1): concise call with computed defaults.
    ///     let all: Vec<u32> = comm.allgatherv(send_buf(&mine)).unwrap();
    ///     assert_eq!(all, vec![0, 1, 1, 2, 2, 2]);
    ///     // Fig. 1 (2): request the computed counts back.
    ///     let (all, counts) =
    ///         comm.allgatherv((send_buf(&mine), recv_counts_out())).unwrap();
    ///     assert_eq!(all.len(), 6);
    ///     assert_eq!(counts, vec![1, 2, 3]);
    /// });
    /// ```
    pub fn allgatherv<T, A>(&self, args: A) -> Result<<A::Out as AllgathervArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllgathervArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Gathers equal-sized contributions from all ranks to all ranks
    /// (wraps `MPI_Allgather`). With `send_buf`, the concatenation is
    /// returned (or written to `recv_buf`); with `send_recv_buf`, the
    /// in-place variant is selected (§III-G).
    pub fn allgather<T, A>(&self, args: A) -> Result<<A::Out as AllgatherDispatch<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllgatherDispatch<T>,
    {
        args.into_args().dispatch(self)
    }
}

/// Dispatch between the explicit (`send_buf`) and in-place
/// (`send_recv_buf`) forms of `allgather`, decided by which slot is
/// occupied — the compile-time replacement for `MPI_IN_PLACE`.
pub trait AllgatherDispatch<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the selected variant.
    fn dispatch(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB> AllgatherDispatch<T>
    for ArgSet<SendBuf<B>, Absent, RB, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
    RB: RecvBufSpec<T>,
    RB::Out: PushComponent<()>,
    Push1<RB::Out>: Finalize,
{
    type Output = <Self as AllgatherArgs<T>>::Output;

    fn dispatch(self, comm: &Communicator) -> Result<Self::Output> {
        AllgatherArgs::run(self, comm)
    }
}

impl<T, B> AllgatherDispatch<T>
    for ArgSet<Absent, SendRecvBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendRecvBuf<B>: SendRecvBufSpec<T>,
    <SendRecvBuf<B> as SendRecvBufSpec<T>>::Out: PushComponent<()>,
    Push1<<SendRecvBuf<B> as SendRecvBufSpec<T>>::Out>: Finalize,
{
    type Output = <Self as AllgatherInPlaceArgs<T>>::Output;

    fn dispatch(self, comm: &Communicator) -> Result<Self::Output> {
        AllgatherInPlaceArgs::run(self, comm)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn allgatherv_defaults_only() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64; comm.rank()];
            let all: Vec<u64> = comm.allgatherv(send_buf(&mine)).unwrap();
            assert_eq!(all, vec![1, 2, 2, 3, 3, 3]);
        });
    }

    #[test]
    fn allgatherv_with_counts_out_and_displs_out() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![7u32; comm.rank() + 1];
            let (all, counts, displs) = comm
                .allgatherv((send_buf(&mine), recv_counts_out(), recv_displs_out()))
                .unwrap();
            assert_eq!(all.len(), 6);
            assert_eq!(counts, vec![1, 2, 3]);
            assert_eq!(displs, vec![0, 1, 3]);
        });
    }

    #[test]
    fn allgatherv_with_provided_counts_issues_no_extra_allgather() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u8; 2];
            let counts = vec![2usize; 3];
            let before = comm.call_counts();
            let all: Vec<u8> = comm
                .allgatherv((send_buf(&mine), recv_counts(&counts)))
                .unwrap();
            let delta = comm.call_counts().since(&before);
            // Exactly one allgatherv, zero count-exchanging allgathers:
            // the PMPI-style check of §III-H.
            assert_eq!(delta.get("allgatherv"), 1);
            assert_eq!(delta.get("allgather"), 0);
            assert_eq!(all, vec![0, 0, 1, 1, 2, 2]);
        });
    }

    #[test]
    fn allgatherv_omitted_counts_is_one_call() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![1u8; comm.rank()];
            let before = comm.call_counts();
            let _: Vec<u8> = comm.allgatherv(send_buf(&mine)).unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("allgatherv"), 1);
            assert_eq!(delta.total(), 1, "counts ride the blocks: {delta}");
        });
    }

    #[test]
    fn allgatherv_into_borrowed_buffer_resize_to_fit() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u16; comm.rank() + 1];
            let mut out = Vec::new();
            // Version 2 of Fig. 3: explicit recv_buf with resize policy.
            comm.allgatherv((send_buf(&mine), recv_buf(&mut out).resize_to_fit()))
                .unwrap();
            assert_eq!(out, vec![0, 1, 1, 2, 2, 2]);
        });
    }

    #[test]
    fn allgatherv_moved_container_is_returned() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64];
            let storage = Vec::with_capacity(64);
            let out: Vec<u64> = comm
                .allgatherv((send_buf(&mine), recv_buf(storage).resize_to_fit()))
                .unwrap();
            assert_eq!(out, vec![0, 1]);
            // The reused allocation survives the move in and out.
            assert!(out.capacity() >= 64);
        });
    }

    #[test]
    fn allgather_equal_blocks() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = [comm.rank() as u32; 2];
            let all: Vec<u32> = comm.allgather(send_buf(&mine[..])).unwrap();
            assert_eq!(all, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        });
    }

    #[test]
    fn allgather_in_place_fig3_version1() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            // The count-exchange pattern of Fig. 3, version 1.
            let mut rc = vec![0usize; comm.size()];
            rc[comm.rank()] = comm.rank() * 10;
            comm.allgather(send_recv_buf(&mut rc)).unwrap();
            assert_eq!(rc, vec![0, 10, 20, 30]);
        });
    }

    #[test]
    fn allgather_in_place_moved_fig_simplified_inplace() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            // §III-G: data = comm.allgather(send_recv_buf(std::move(data)))
            let mut data = vec![0u64; comm.size()];
            data[comm.rank()] = comm.rank() as u64 + 1;
            let data: Vec<u64> = comm.allgather(send_recv_buf(data)).unwrap();
            assert_eq!(data, vec![1, 2, 3]);
        });
    }

    #[test]
    fn allgatherv_empty_contribution() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine: Vec<u8> = if comm.rank() == 1 { vec![9] } else { vec![] };
            let all: Vec<u8> = comm.allgatherv(send_buf(&mine)).unwrap();
            assert_eq!(all, vec![9]);
        });
    }

    #[test]
    fn allgatherv_single_rank() {
        Universe::run(1, |comm| {
            let comm = Communicator::new(comm);
            let all: Vec<u32> = comm.allgatherv(send_buf(&vec![1u32, 2])).unwrap();
            assert_eq!(all, vec![1, 2]);
        });
    }
}
