//! `bcast` with named parameters.

use kmp_mpi::collectives::BcastParts;
use kmp_mpi::{Plain, Rank, Result};

use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, PushComponent};
use crate::params::slots::{Delivered, Layout, RecvBufSpec, SendRecvBufSpec};
use crate::params::{recv_buf, Absent, SendRecvBuf};

/// Valid argument sets for [`Communicator::bcast`].
pub trait BcastArgs<T: Plain> {
    /// The call's result shape.
    type Output;
    /// Executes the call.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

impl<T, B> BcastArgs<T>
    for ArgSet<Absent, SendRecvBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendRecvBuf<B>: SendRecvBufSpec<T>,
    <SendRecvBuf<B> as SendRecvBufSpec<T>>::Out: PushComponent<()>,
    Push1<<SendRecvBuf<B> as SendRecvBufSpec<T>>::Out>: Finalize,
{
    type Output = FinalOf<Push1<<SendRecvBuf<B> as SendRecvBufSpec<T>>::Out>>;

    fn run(self, comm: &Communicator) -> Result<Self::Output> {
        let root = self.meta.root.unwrap_or(0);
        crate::assertions::check_same_root(comm, root)?;
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        let recv_count = self.meta.recv_count;
        let raw = comm.raw();
        let is_root = comm.rank() == root;
        let ((), out) = self.send_recv_buf.apply(|buf| {
            // Sized broadcast: `recv_count(n)` tells every rank the
            // payload size up front, which lets the substrate's tuning
            // select the large-message algorithm — without it, non-roots
            // cannot agree on a size they have not received yet and the
            // binomial tree is the only safe choice.
            let size = recv_count.map(|n| n * std::mem::size_of::<T>());
            if is_root {
                // The buffer goes on the wire as it is: the children's
                // messages are views of it, so they leave before any
                // byte is copied. It comes home through `take()` on
                // every path — the same allocation when the children are
                // done with it, one counted copy otherwise. A root that
                // holds something else than `recv_count` elements still
                // broadcasts (the substrate reports it afterwards).
                let (hold, payload) = kmp_mpi::SharedPayload::new(std::mem::take(buf));
                let sent = match size {
                    Some(size) => raw.bcast_parts(Some(payload), size, root).map(drop),
                    None => raw.bcast_bytes(Some(payload), root).map(drop),
                };
                *buf = hold.take();
                return sent;
            }
            // A non-root's buffer is a `resize_to_fit` receive of the
            // payload the root dictates. With `recv_count`, the lowering
            // holds the payload to this rank's claim — under either
            // algorithm, though scatter+allgather enforces it on the
            // wire already.
            let delivered = match size {
                None => Delivered::lone(raw.bcast_bytes(None, root)?),
                Some(size) => match raw.bcast_parts(None, size, root)? {
                    BcastParts::Whole(payload) => Delivered::lone(payload),
                    BcastParts::Chunks(chunks) => Delivered::Message(chunks),
                },
            };
            recv_buf(buf)
                .resize_to_fit()
                .lower(delivered, Layout::each(recv_count))
        })?;
        Ok(out.push_component(()).finalize())
    }
}

impl Communicator {
    /// Broadcasts the root's buffer to all ranks (wraps `MPI_Bcast`).
    ///
    /// The buffer is passed as `send_recv_buf` on every rank — read at
    /// the root, overwritten elsewhere — following the paper's unified
    /// in-place semantics (§III-G). Parameters: `send_recv_buf`
    /// (required), `root` (default 0), `recv_count` (optional: declares
    /// the element count on every rank, enabling size-based algorithm
    /// selection for large messages), `tuning` (optional per-call
    /// algorithm override).
    ///
    /// The root's buffer is not serialized: it goes on the wire as it is
    /// (the children's messages are views of it) and is taken back once
    /// they are sent — the same allocation if the children are done with
    /// it by then, otherwise one copy made *after* the sends. A root
    /// `&mut Vec` may therefore come back as a different allocation with
    /// the same content. With `recv_count(n)`, a root holding another
    /// number of elements still broadcasts and then reports
    /// [`MpiError::InvalidLayout`](kmp_mpi::MpiError::InvalidLayout); its
    /// peers get [`MpiError::Truncated`](kmp_mpi::MpiError::Truncated).
    ///
    /// ```
    /// use kamping::prelude::*;
    ///
    /// kmp_mpi::Universe::run(3, |comm| {
    ///     let comm = Communicator::new(comm);
    ///     let mut data = if comm.rank() == 0 { vec![1u32, 2, 3] } else { vec![] };
    ///     comm.bcast((send_recv_buf(&mut data),)).unwrap();
    ///     assert_eq!(data, vec![1, 2, 3]);
    /// });
    /// ```
    pub fn bcast<T, A>(&self, args: A) -> Result<<A::Out as BcastArgs<T>>::Output>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: BcastArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Broadcasts a single value from the root; a convenience shortcut
    /// (mirrors kamping's `bcast_single`).
    pub fn bcast_single<T: Plain>(&self, value: T, root: Rank) -> Result<T> {
        self.raw().bcast_one(value, root)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn bcast_overwrites_non_roots() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mut data = if comm.rank() == 0 {
                vec![5u64, 6]
            } else {
                vec![0; 9]
            };
            comm.bcast((send_recv_buf(&mut data),)).unwrap();
            assert_eq!(data, vec![5, 6]);
        });
    }

    #[test]
    fn bcast_from_explicit_root_with_move() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let data = if comm.rank() == 2 { vec![9u8] } else { vec![] };
            let data: Vec<u8> = comm.bcast((send_recv_buf(data), root(2))).unwrap();
            assert_eq!(data, vec![9]);
        });
    }

    #[test]
    fn bcast_single_value() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let v = comm
                .bcast_single(if comm.rank() == 1 { 42u32 } else { 0 }, 1)
                .unwrap();
            assert_eq!(v, 42);
        });
    }

    #[test]
    fn bcast_counts_one_op() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mut data = vec![comm.rank() as u8];
            let before = comm.call_counts();
            comm.bcast((send_recv_buf(&mut data),)).unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("bcast"), 1);
            assert_eq!(delta.total(), 1);
        });
    }
}
