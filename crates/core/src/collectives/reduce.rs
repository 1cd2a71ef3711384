//! `reduce` / `allreduce` / `scan` / `exscan` with named parameters.

use kmp_mpi::op::ReduceOp;
use kmp_mpi::{MpiError, Plain, Result};

use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, PushComponent};
use crate::params::slots::{
    Delivered, Layout, ProvidesOp, ProvidesSendData, RecvBufSpec, SendToTransport,
};
use crate::params::{Absent, Meta, OpParam, SendBuf};

macro_rules! reduction_family {
    ($(#[$doc:meta])* $trait_name:ident, $runner:ident) => {
        $(#[$doc])*
        pub trait $trait_name<T: Plain> {
            /// The call's result shape.
            type Output;
            /// Executes the call.
            fn run(self, comm: &Communicator) -> Result<Self::Output>;
        }

        impl<T, B, RB, O> $trait_name<T>
            for ArgSet<SendBuf<B>, Absent, RB, Absent, Absent, Absent, Absent, OpParam<O>>
        where
            T: Plain,
            SendBuf<B>: SendToTransport<T>,
            RB: RecvBufSpec<T>,
            OpParam<O>: ProvidesOp<T>,
            RB::Out: PushComponent<()>,
            Push1<RB::Out>: Finalize,
        {
            type Output = FinalOf<Push1<RB::Out>>;

            fn run(self, comm: &Communicator) -> Result<Self::Output> {
                let _tuning = comm.raw().tuning_guard(self.meta.tuning);
                let op = self.op.into_op();
                let delivered = $runner(comm, &self.meta, self.send_buf, op)?;
                let rb_out = self.recv_buf.lower(delivered, Layout::default())?;
                Ok(rb_out.push_component(()).finalize())
            }
        }
    };
}

fn run_reduce<T: Plain, B>(
    comm: &Communicator,
    meta: &Meta,
    send: SendBuf<B>,
    op: impl ReduceOp<T>,
) -> Result<Delivered<T>>
where
    SendBuf<B>: SendToTransport<T>,
{
    // The root's accumulator is the result; elsewhere it is empty.
    let root = meta.root.unwrap_or(0);
    let folded = send.lend(|send| comm.raw().reduce_vec(send, op, root))?;
    Ok(Delivered::Vec(folded.unwrap_or_default()))
}

fn run_allreduce<T: Plain, B>(
    comm: &Communicator,
    _: &Meta,
    send: SendBuf<B>,
    op: impl ReduceOp<T>,
) -> Result<Delivered<T>>
where
    SendBuf<B>: SendToTransport<T>,
{
    send.lend(|send| comm.raw().allreduce_vec(send, op))
        .map(Delivered::Vec)
}

fn run_scan<T: Plain, B>(
    comm: &Communicator,
    _: &Meta,
    send: SendBuf<B>,
    op: impl ReduceOp<T>,
) -> Result<Delivered<T>>
where
    SendBuf<B>: SendToTransport<T>,
{
    send.lend(|send| comm.raw().scan_vec(send, op))
        .map(Delivered::Vec)
}

fn run_exscan<T: Plain, B>(
    comm: &Communicator,
    _: &Meta,
    send: SendBuf<B>,
    op: impl ReduceOp<T>,
) -> Result<Delivered<T>>
where
    SendBuf<B>: SendToTransport<T>,
{
    let n = send.send_slice().len();
    // MPI leaves rank 0 undefined: the whole result is a gap, so
    // library storage is zeroed and provided storage is left as is.
    let prefix = send.lend(|send| comm.raw().exscan_vec(send, op))?;
    Ok(prefix.map_or(Delivered::Gap(n), Delivered::Vec))
}

reduction_family!(
    /// Valid argument sets for [`Communicator::reduce`].
    ReduceArgs,
    run_reduce
);
reduction_family!(
    /// Valid argument sets for [`Communicator::allreduce`].
    AllreduceArgs,
    run_allreduce
);
reduction_family!(
    /// Valid argument sets for [`Communicator::scan`].
    ScanArgs,
    run_scan
);
reduction_family!(
    /// Valid argument sets for [`Communicator::exscan`].
    ExscanArgs,
    run_exscan
);

/// Valid argument sets for [`Communicator::allreduce_single`].
pub trait AllreduceSingleArgs<T: Plain> {
    /// The single reduced value.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B, O> AllreduceSingleArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, OpParam<O>>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
    OpParam<O>: ProvidesOp<T>,
{
    type Output = T;

    fn run(self, comm: &Communicator) -> Result<T> {
        let send = self.send_buf.send_slice();
        let op = self.op.into_op();
        // A wrong length is this rank's error alone: it still takes part
        // (with its first element, or a zeroed one) so its peers finish.
        let one = send.first().copied().unwrap_or_else(kmp_mpi::plain::zeroed);
        let reduced = comm.raw().allreduce_one(one, op)?;
        if send.len() != 1 {
            return Err(MpiError::InvalidLayout(format!(
                "allreduce_single: send_buf holds {} elements, expected exactly 1",
                send.len()
            )));
        }
        Ok(reduced)
    }
}

impl Communicator {
    /// Elementwise reduction to the root (wraps `MPI_Reduce`). Non-root
    /// ranks receive an empty vector. Parameters: `send_buf` and `op`
    /// (required), `recv_buf`, `root` (default 0). An owned `send_buf` is
    /// consumed: it becomes the accumulator (the root's result is the
    /// moved-in allocation) or, on a rank that folds nothing, the
    /// message to its parent; a borrowed one is copied there instead.
    pub fn reduce<T, A>(&self, args: A) -> Result<<A::Out as ReduceArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: ReduceArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Elementwise reduction to all ranks (wraps `MPI_Allreduce`).
    /// Parameters: `send_buf` and `op` (required), `recv_buf`. An owned
    /// `send_buf` is consumed: it becomes the accumulator — under
    /// recursive doubling the result *is* the moved-in allocation — where
    /// a borrowed one is first copied into a fresh one.
    pub fn allreduce<T, A>(&self, args: A) -> Result<<A::Out as AllreduceArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllreduceArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Reduces a single element to all ranks, returning the bare value
    /// (the `allreduce_single` of Fig. 9). A `send_buf` that does not
    /// hold exactly one element is [`MpiError::InvalidLayout`] on that
    /// rank; the rank still contributes (its first element, or a zeroed
    /// one), so its peers complete.
    pub fn allreduce_single<T, A>(
        &self,
        args: A,
    ) -> Result<<A::Out as AllreduceSingleArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllreduceSingleArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Inclusive prefix reduction (wraps `MPI_Scan`). Parameters:
    /// `send_buf` and `op` (required), `recv_buf`. An owned `send_buf` is
    /// consumed: it becomes the accumulator, the upstream prefix is
    /// folded into it in place and it is the result. Rank order is
    /// preserved for a non-commutative `op`, but `op` must be
    /// **associative**: ranks combine partial prefixes (recursive
    /// doubling), so a non-associative lambda silently disagrees with a
    /// sequential fold from rank 2 on.
    pub fn scan<T, A>(&self, args: A) -> Result<<A::Out as ScanArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: ScanArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Exclusive prefix reduction (wraps `MPI_Exscan`). Rank 0 receives
    /// zeroed values (MPI leaves it undefined). Parameters: `send_buf`
    /// and `op` (required), `recv_buf`. An owned `send_buf` is consumed:
    /// it becomes the accumulator of the prefix this rank forwards
    /// (rank 0 forwards it as is). `op` must be associative, as for
    /// [`Communicator::scan`].
    pub fn exscan<T, A>(&self, args: A) -> Result<<A::Out as ExscanArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: ExscanArgs<T>,
    {
        args.into_args().run(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn allreduce_sum_vector() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64, 1];
            let total: Vec<u64> = comm.allreduce((send_buf(&mine), op(ops::Sum))).unwrap();
            assert_eq!(total, vec![6, 4]);
        });
    }

    #[test]
    fn allreduce_single_logical_and() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            // The is_empty() idiom from the paper's BFS (Fig. 9).
            let local_empty = 1u8;
            let all_empty = comm
                .allreduce_single((send_buf(&[local_empty]), op(ops::LogicalAnd)))
                .unwrap();
            assert_eq!(all_empty, 1);
        });
    }

    #[test]
    fn allreduce_with_lambda() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            // Reduction via lambda — a feature the MPI forum wishlist
            // calls out (§II).
            let mine = vec![comm.rank() as u32 + 1];
            let prod: Vec<u32> = comm
                .allreduce((
                    send_buf(&mine),
                    op(ops::commutative(|a: &u32, b: &u32| a * b)),
                ))
                .unwrap();
            assert_eq!(prod, vec![6]);
        });
    }

    #[test]
    fn reduce_to_root_only() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![1u32];
            let out: Vec<u32> = comm
                .reduce((send_buf(&mine), op(ops::Sum), root(2)))
                .unwrap();
            if comm.rank() == 2 {
                assert_eq!(out, vec![4]);
            } else {
                assert!(out.is_empty());
            }
        });
    }

    #[test]
    fn scan_running_max() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![(comm.rank() as i64 - 1).abs()];
            let running: Vec<i64> = comm.scan((send_buf(&mine), op(ops::Max))).unwrap();
            // Values: 1, 0, 1, 2 -> running max 1, 1, 1, 2.
            let expected = [1, 1, 1, 2][comm.rank()];
            assert_eq!(running, vec![expected]);
        });
    }

    #[test]
    fn exscan_prefix_sums() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64 + 1];
            let prefix: Vec<u64> = comm.exscan((send_buf(&mine), op(ops::Sum))).unwrap();
            let r = comm.rank() as u64;
            assert_eq!(prefix, vec![r * (r + 1) / 2]);
        });
    }

    #[test]
    fn allreduce_into_provided_storage() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![2.5f64];
            let mut out = vec![0.0f64];
            comm.allreduce((send_buf(&mine), op(ops::Sum), recv_buf(&mut out)))
                .unwrap();
            assert_eq!(out, vec![5.0]);
        });
    }
}
