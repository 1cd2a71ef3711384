//! `scatter` / `scatterv` with named parameters.

use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{Plain, Result};

use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, Push2, PushComponent};
use crate::params::slots::{CountsSlot, ProvidesSendData, RecvBufSpec};
use crate::params::{Absent, SendBuf};

/// Valid argument sets for [`Communicator::scatter`].
pub trait ScatterArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB> ScatterArgs<T>
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
        // The block travels with its length, so non-root ranks need no
        // recv_count parameter.
        let block = comm
            .raw()
            .scatter_vec((comm.rank() == root).then_some(send), root)?;
        let rb_out = self.recv_buf.accept(block)?;
        Ok(rb_out.push_component(()).finalize())
    }
}

/// Valid argument sets for [`Communicator::scatterv`].
pub trait ScattervArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, RB, SC, SD> ScattervArgs<T>
    for ArgSet<SendBuf<B>, Absent, RB, SC, Absent, SD, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
    RB: RecvBufSpec<T>,
    SC: CountsSlot,
    SD: CountsSlot,
    RB::Out: PushComponent<()>,
    SD::Out: PushComponent<Push1<RB::Out>>,
    Push2<RB::Out, SD::Out>: Finalize,
{
    type Output = FinalOf<Push2<RB::Out, SD::Out>>;

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let root = self.meta.root.unwrap_or(0);
        let send = self.send_buf.send_slice();
        // Significant at the root only.
        let counts = self.send_counts.provided().filter(|_| comm.rank() == root);
        let computed_sd: Option<Vec<usize>> =
            (!SD::PROVIDED).then(|| counts.map(displacements_from_counts).unwrap_or_default());
        let send_displs = self.send_displs.provided().or(computed_sd.as_deref());

        // A root without `send_counts` passes no layout: the scatter
        // plan reports it there and still serves every peer.
        let layout = counts.map(|counts| (send, counts, send_displs.unwrap_or_default()));
        let block = comm.raw().scatterv_vec(layout, root)?;
        let rb_out = self.recv_buf.accept(block)?;

        let acc = ();
        let acc = rb_out.push_component(acc);
        let acc = self.send_displs.finish(computed_sd).push_component(acc);
        Ok(acc.finalize())
    }
}

impl Communicator {
    /// Scatters equal-sized blocks of the root's buffer to all ranks
    /// (wraps `MPI_Scatter`). Parameters: `send_buf` (significant at the
    /// root), `recv_buf`, `root` (default 0). The block length travels
    /// with the message, so receivers need not know it in advance.
    pub fn scatter<T, A>(&self, args: A) -> Result<<A::Out as ScatterArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: ScatterArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Scatters variable-sized blocks (wraps `MPI_Scatterv`). Parameters:
    /// `send_buf` and `send_counts` (significant at the root),
    /// `send_displs`(`_out`), `recv_buf`, `root` (default 0).
    pub fn scatterv<T, A>(&self, args: A) -> Result<<A::Out as ScattervArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: ScattervArgs<T>,
    {
        args.into_args().run(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn scatter_equal_blocks() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let send: Vec<u32> = if comm.rank() == 0 {
                (0..8).collect()
            } else {
                vec![]
            };
            let mine: Vec<u32> = comm.scatter(send_buf(&send)).unwrap();
            assert_eq!(
                mine,
                vec![2 * comm.rank() as u32, 2 * comm.rank() as u32 + 1]
            );
        });
    }

    #[test]
    fn scatterv_variable_blocks() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let send: Vec<u64> = if comm.rank() == 1 {
                (0..6).collect()
            } else {
                vec![]
            };
            let counts = vec![3usize, 1, 2];
            let mine: Vec<u64> = comm
                .scatterv((send_buf(&send), send_counts(&counts), root(1)))
                .unwrap();
            match comm.rank() {
                0 => assert_eq!(mine, vec![0, 1, 2]),
                1 => assert_eq!(mine, vec![3]),
                2 => assert_eq!(mine, vec![4, 5]),
                _ => unreachable!(),
            }
        });
    }

    #[test]
    fn scatterv_displs_out_at_root() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send: Vec<u8> = if comm.rank() == 0 {
                vec![1, 2, 3]
            } else {
                vec![]
            };
            let counts = vec![1usize, 2];
            let (mine, sd) = comm
                .scatterv((send_buf(&send), send_counts(&counts), send_displs_out()))
                .unwrap();
            if comm.rank() == 0 {
                assert_eq!(mine, vec![1]);
                assert_eq!(sd, vec![0, 1]);
            } else {
                assert_eq!(mine, vec![2, 3]);
                assert!(sd.is_empty());
            }
        });
    }

    #[test]
    fn scatter_into_growable_buffer() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send: Vec<u16> = if comm.rank() == 0 { vec![7, 8] } else { vec![] };
            let mut out = Vec::new();
            comm.scatter((send_buf(&send), recv_buf(&mut out).grow_only()))
                .unwrap();
            assert_eq!(out, vec![7 + comm.rank() as u16]);
        });
    }
}
