//! `gather` / `gatherv` with named parameters.

use kmp_mpi::{Plain, Result};

use super::{receive_equal, receive_v};
use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, Push2, Push3, PushComponent};
use crate::params::slots::{CountsSlot, ProvidesSendData, RecvBufSpec};
use crate::params::{Absent, SendBuf};

/// Valid argument sets for [`Communicator::gatherv`].
pub trait GathervArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB, RC, RD> GathervArgs<T>
    for ArgSet<SendBuf<B>, Absent, RB, Absent, RC, Absent, RD, Absent>
where
    T: Plain,
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

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let root = self.meta.root.unwrap_or(0);
        let send = self.send_buf.send_slice();
        // `Some` at the root only, whose own block borrows `send`.
        let blocks = comm.raw().gatherv_blocks(send, root)?;
        let (rb_out, rc_out, rd_out) =
            receive_v(self.recv_buf, self.recv_counts, self.recv_displs, blocks)?;
        let acc = rc_out.push_component(rb_out.push_component(()));
        Ok(rd_out.push_component(acc).finalize())
    }
}

/// Valid argument sets for [`Communicator::gather`].
pub trait GatherArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB> GatherArgs<T>
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
        let root = self.meta.root.unwrap_or(0);
        let send = self.send_buf.send_slice();
        // `Some` at the root only, whose own block borrows `send`.
        let blocks = comm.raw().gather_blocks(send, root)?;
        let rb_out = receive_equal(self.recv_buf, send.len(), blocks)?;
        Ok(rb_out.push_component(()).finalize())
    }
}

impl Communicator {
    /// Gathers equal-sized contributions to the root (wraps `MPI_Gather`).
    /// Non-root ranks receive an empty vector. Parameters: `send_buf`
    /// (required), `recv_buf`, `root` (default 0).
    pub fn gather<T, A>(&self, args: A) -> Result<<A::Out as GatherArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: GatherArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Gathers variable-sized contributions to the root (wraps
    /// `MPI_Gatherv`). Omitted receive counts are read off the delivered
    /// messages at the root — no extra communication; omitted
    /// displacements are prefix sums. Parameters:
    /// `send_buf` (required), `recv_buf`, `recv_counts`(`_out`),
    /// `recv_displs`(`_out`), `root` (default 0).
    pub fn gatherv<T, A>(&self, args: A) -> Result<<A::Out as GathervArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: GathervArgs<T>,
    {
        args.into_args().run(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn gather_to_default_root() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let all: Vec<u32> = comm.gather(send_buf(&[comm.rank() as u32])).unwrap();
            if comm.rank() == 0 {
                assert_eq!(all, vec![0, 1, 2]);
            } else {
                assert!(all.is_empty());
            }
        });
    }

    #[test]
    fn gather_to_explicit_root() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let all: Vec<u32> = comm
                .gather((send_buf(&[comm.rank() as u32 * 2]), root(2)))
                .unwrap();
            if comm.rank() == 2 {
                assert_eq!(all, vec![0, 2, 4]);
            } else {
                assert!(all.is_empty());
            }
        });
    }

    #[test]
    fn gatherv_with_computed_counts() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u8; comm.rank()];
            let (all, counts) = comm.gatherv((send_buf(&mine), recv_counts_out())).unwrap();
            if comm.rank() == 0 {
                assert_eq!(all, vec![1, 2, 2]);
                assert_eq!(counts, vec![0, 1, 2]);
            } else {
                assert!(all.is_empty());
            }
        });
    }

    #[test]
    fn gatherv_omitted_counts_is_one_call() {
        // Counts calls: a concurrent `Heavy` check would add its own.
        let _g = crate::assertions::LEVEL_GUARD.lock().unwrap();
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![1u8; comm.rank() + 1];
            let before = comm.call_counts();
            let _: Vec<u8> = comm.gatherv(send_buf(&mine)).unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("gatherv"), 1);
            assert_eq!(delta.total(), 1, "counts ride the blocks: {delta}");
        });
    }

    #[test]
    fn gatherv_into_preallocated_root_buffer() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64 + 5];
            let mut out = Vec::new();
            comm.gatherv((send_buf(&mine), recv_buf(&mut out).resize_to_fit()))
                .unwrap();
            if comm.rank() == 0 {
                assert_eq!(out, vec![5, 6]);
            } else {
                assert!(out.is_empty());
            }
        });
    }
}
