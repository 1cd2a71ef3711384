//! Non-blocking collectives with named parameters (§III-E of the paper,
//! extended from point-to-point to collectives).
//!
//! Every `i*` operation returns a **typed future** that owns whatever the
//! caller moved into the call:
//!
//! - [`NonBlockingCollective`] (for `iallgatherv` / `iallgather` /
//!   `ialltoallv` / `iallreduce`): [`NonBlockingCollective::wait`]
//!   returns `(received_data, send_buffer_handle)`. The received data
//!   *does not exist* before completion and the handle is not reachable
//!   before it, so neither §III-E hazard (mutating an in-flight send
//!   buffer, reading an incomplete receive buffer) can be expressed. The
//!   handle of an owned send buffer is a
//!   [`SharedPayload`](kmp_mpi::SharedPayload): Fig. 6's `v = r1.wait()`
//!   reads `v = r1.wait()?.1.take()` here. The transport *aliases* a
//!   moved-in vector instead of copying it, so the vector comes home
//!   when its last reader — possibly a peer that has not decoded its
//!   copy yet — is done with it. Reading the handle (`&handle[..]`) is
//!   free, dropping it costs a reference count, and `take()` is the
//!   original allocation once the last view is gone and one counted copy
//!   before that — paid only by callers who ask for the vector back.
//! - [`NonBlockingBcast`] (for `ibcast`): takes the `send_recv_buf` by
//!   value (owned `Vec<T>` only — a borrowed buffer would be accessible
//!   while in flight, so it does not compile) and hands the broadcast
//!   content back on `wait()`.
//!
//! The variable-size operations need **no receive counts at all** — not
//! even a hidden count exchange: the substrate engine discovers block
//! sizes from the messages themselves, and `wait_with_counts()` hands
//! them back for free. The blocking v-collectives read omitted counts
//! off the delivered blocks the same way.
//!
//! **One declaration, two drivers.** Each operation here is declared
//! once, by its argument trait ([`IallgatherArgs`], [`IalltoallvArgs`],
//! [`IbcastArgs`], [`IallreduceArgs`]), for its `i*` form and its
//! `*_init` twin alike. The trait's one method resolves the slots — the
//! payload (an owned buffer moves in, a borrowed one is copied once),
//! the handle of a moved-in buffer, root / op / byte counts, and the
//! `tuning` guard — and hands them to one of two drivers, as the
//! substrate's `icoll` / `persistent_coll` drive its plans: the
//! immediate driver issues the `i*` request, which becomes the future;
//! the persistent one freezes the plan, which keeps the payload, so the
//! handle goes ([`crate::persistent`]). Every completion of either goes
//! through the blocking calls' receive lowering
//! ([`RecvBufSpec::lower`](crate::params::slots::RecvBufSpec::lower))
//! with the `Absent` slot: a lone message (the allreduce result) is
//! taken back without a copy where it can be, each block is copied once
//! and released as soon as it is copied, a block that is not whole
//! elements is [`MpiError::Truncated`], and per-rank counts are built
//! only for `wait_with_counts()`.
//!
//! All futures compose with [`RequestPool`](crate::p2p::RequestPool) and
//! [`BoundedRequestPool`](crate::p2p::BoundedRequestPool) via
//! `submit_collective` / `submit_bcast`.

use std::marker::PhantomData;

use bytes::Bytes;
use kmp_mpi::plain::bytes_from_vec;
use kmp_mpi::{Comm, MpiError, Plain, Result};

use crate::communicator::Communicator;
use crate::p2p::{Expect, Immediate, InFlight, Lifecycle};
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::slots::{CountsSlot, ProvidedCounts, ProvidesOp, SendToTransport};
use crate::params::{Absent, OpParam, SendBuf, SendRecvBuf};

/// A non-blocking collective in flight. An owned send container has
/// **moved into the transport** (the wire payload aliases its
/// allocation — zero call-time copies); `H` is the handle that comes
/// back with the completion ([`SharedPayload<T>`](kmp_mpi::SharedPayload)
/// for an owned send buffer, `()` for a borrowed one), and the received
/// data is produced by `wait()`.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingCollective<'a, T: Plain, H>(pub(crate) InFlight<'a, H>, PhantomData<T>);

impl<'a, T: Plain, H> NonBlockingCollective<'a, T, H> {
    /// Blocks until the collective completes; returns the received data
    /// and the handle of the moved-in send buffer (free to read or drop;
    /// `take()` it to get the vector back).
    pub fn wait(self) -> Result<(Vec<T>, H)> {
        self.0.wait(None)
    }

    /// Like [`NonBlockingCollective::wait`], additionally returning the
    /// per-rank element counts (the v-collectives' receive counts,
    /// discovered from the messages — no extra communication).
    pub fn wait_with_counts(self) -> Result<(Vec<T>, Vec<usize>, H)> {
        let mut counts = Vec::new();
        let (data, hold) = self.0.wait(Some(&mut counts))?;
        Ok((data, counts, hold))
    }

    /// Completion test: `Ok(Ok((data, handle)))` when complete,
    /// `Ok(Err(self))` when still pending.
    #[allow(clippy::type_complexity)]
    pub fn test(self) -> Result<std::result::Result<(Vec<T>, H), Self>> {
        self.0.test(|op| NonBlockingCollective(op, PhantomData))
    }
}

/// A non-blocking broadcast in flight: the root's moved-in buffer is
/// the wire payload itself (zero call-time copies), and `wait()` hands
/// the content back on every rank as one copy — on the root too, since
/// its children may still hold their views of the moved-in vector.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingBcast<'a, T: Plain>(pub(crate) InFlight<'a, ()>, PhantomData<T>);

impl<'a, T: Plain> NonBlockingBcast<'a, T> {
    /// Blocks until the broadcast completes; returns the broadcast
    /// content.
    pub fn wait(self) -> Result<Vec<T>> {
        self.0.wait(None).map(|(data, ())| data)
    }

    /// Completion test: `Ok(Ok(content))` when complete, `Ok(Err(self))`
    /// when still pending.
    pub fn test(self) -> Result<std::result::Result<Vec<T>, Self>> {
        let polled = self.0.test(|op| NonBlockingBcast(op, PhantomData))?;
        Ok(polled.map(|(data, ())| data))
    }
}

// ---------------------------------------------------------------------------
// Argument traits
// ---------------------------------------------------------------------------

/// Valid argument sets for [`Communicator::iallgatherv`] /
/// [`Communicator::iallgather`] and their `*_init` twins: `send_buf`
/// only — receive storage is produced by the completion (§III-E: results
/// by value), and receive counts are discovered, not exchanged.
pub trait IallgatherArgs<T: Plain> {
    /// What `wait()` returns beside the data: the handle of a moved-in
    /// send container, `()` for borrowed buffers.
    type Hold;
    /// Resolves the slots and drives the call into lifecycle `L`
    /// (`equal_blocks` selects allgather over allgatherv).
    fn run<'c, L: Lifecycle<'c>>(
        self,
        comm: &'c Communicator,
        equal_blocks: bool,
    ) -> Result<L::Out<T, Self::Hold>>;
}

impl<T, B> IallgatherArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
{
    type Hold = <SendBuf<B> as SendToTransport<T>>::Hold;

    fn run<'c, L: Lifecycle<'c>>(
        self,
        comm: &'c Communicator,
        equal_blocks: bool,
    ) -> Result<L::Out<T, Self::Hold>> {
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        // Owned buffers move into the transport: zero call-time copies.
        let (payload, hold) = self.send_buf.into_payload();
        let (now, plan): (fn(_, _) -> _, fn(_, _) -> _) = match equal_blocks {
            true => (Comm::iallgather_bytes, Comm::allgather_init_bytes),
            false => (Comm::iallgatherv_bytes, Comm::allgatherv_init_bytes),
        };
        L::drive(comm.raw(), (payload, hold, Expect::default()), now, plan)
    }
}

/// Valid argument sets for [`Communicator::ialltoallv`] and
/// [`Communicator::alltoallv_init`]: `send_buf` and `send_counts`
/// (required), `send_displs` (optional, `ialltoallv` only; omitted means
/// the send buffer is packed contiguously in rank order).
pub trait IalltoallvArgs<T: Plain> {
    /// What `wait()` returns beside the data: the handle of a moved-in
    /// send container, `()` for borrowed buffers.
    type Hold;
    /// Resolves the slots and drives the call into lifecycle `L`.
    fn run<'c, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, Self::Hold>>;
}

impl<T, B, SC, SD> IalltoallvArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, SC, Absent, SD, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
    SC: ProvidedCounts,
    SD: CountsSlot,
{
    type Hold = <SendBuf<B> as SendToTransport<T>>::Hold;

    fn run<'c, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, Self::Hold>> {
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        // `ProvidedCounts` guarantees the counts; an empty layout would
        // fail the substrate's check like any other wrong one.
        let counts = self.send_counts.provided().unwrap_or_default();
        let byte_counts: Vec<usize> = counts.iter().map(|&c| c * size_of::<T>()).collect();
        let packed = match self.send_displs.provided() {
            // Contiguous rank order: the buffer is the wire payload
            // (zero copies for owned containers); per-peer blocks are
            // refcount slices.
            None => Ok(self.send_buf.into_payload()),
            // Repack into contiguous rank order so displacement gaps (or
            // overlaps) never travel; the original container is still
            // handed back by `wait()`.
            Some(displs) => self
                .send_buf
                .into_packed(|send| pack_by_displs(send, counts, displs)),
        };
        let now = |c: &'c Comm, (p, n): (Bytes, Vec<usize>)| c.ialltoallv_bytes(p, &n);
        let plan = |c: &'c Comm, (p, n): (Bytes, Vec<usize>)| c.alltoallv_init_bytes(p, &n);
        match packed {
            Ok((payload, hold)) => {
                let call = ((payload, byte_counts), hold, Expect::default());
                L::drive(comm.raw(), call, now, plan)
            }
            Err(e) => {
                // The layout error is rank-local: peers whose layouts
                // are fine have taken this operation's tag. An empty
                // layout never passes the substrate's check, which runs
                // after it takes the tag — so this rank stays aligned
                // with them.
                let empty = ((Bytes::new(), Vec::new()), (), Expect::default());
                let _: Result<L::Out<T, ()>> = L::drive(comm.raw(), empty, now, plan);
                Err(e)
            }
        }
    }
}

/// The argument sets [`Communicator::alltoallv_init`] takes: its plan
/// freezes packed send counts and `set_data` refreshes a packed buffer,
/// so `send_displs` would mean nothing there.
pub(crate) mod packed {
    #[diagnostic::on_unimplemented(message = "`alltoallv_init` takes no `send_displs`")]
    pub trait Packed {}
}

impl<B, SC> packed::Packed
    for ArgSet<SendBuf<B>, Absent, Absent, SC, Absent, Absent, Absent, Absent>
{
}

/// `send[displs[r]..][..counts[r]]` for every rank `r`, back to back.
fn pack_by_displs<T: Plain>(send: &[T], counts: &[usize], displs: &[usize]) -> Result<Vec<T>> {
    let mut packed = Vec::with_capacity(send.len());
    for (r, &c) in counts.iter().enumerate() {
        let Some(&d) = displs.get(r) else {
            return Err(MpiError::InvalidLayout(format!(
                "ialltoallv: {} send displacements for {} send counts",
                displs.len(),
                counts.len()
            )));
        };
        let block = d.checked_add(c).and_then(|end| send.get(d..end));
        packed.extend_from_slice(block.ok_or_else(|| {
            MpiError::InvalidLayout(format!(
                "ialltoallv: the block for rank {r}, {c} elements at {d}, lies outside \
                 the send buffer of {} elements",
                send.len()
            ))
        })?);
    }
    Ok(packed)
}

/// Valid argument sets for [`Communicator::ibcast`] and
/// [`Communicator::bcast_init`]: an **owned** `send_recv_buf(Vec<T>)`
/// (the root's content; other ranks pass an empty vector) plus optional
/// `root`. Borrowed buffers do not compile — while the broadcast is in
/// flight nothing may read or write the buffer (§III-E), which
/// ownership transfer enforces for free.
pub trait IbcastArgs<T: Plain> {
    /// Resolves the slots and drives the call into lifecycle `L`.
    fn run<'c, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, ()>>;
}

impl<T> IbcastArgs<T>
    for ArgSet<Absent, SendRecvBuf<Vec<T>>, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
{
    fn run<'c, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, ()>> {
        let root = self.meta.root.unwrap_or(0);
        crate::assertions::check_same_root(comm, root)?;
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        // At the root the moved-in vector is the wire payload (zero
        // call-time copies). Every rank's completion, the root's too, is
        // a view of it (van de Geijn's chunks on a non-root of that
        // row), so each rank's content comes back as one copy.
        let payload = (comm.rank() == root).then(|| bytes_from_vec(self.send_recv_buf.0));
        let bcast = Expect {
            bcast: true,
            ..Expect::default()
        };
        L::drive(
            comm.raw(),
            (payload, (), bcast),
            |c, p| c.ibcast_bytes(p, root),
            |c, p| c.bcast_init_bytes(p, root),
        )
    }
}

/// Valid argument sets for [`Communicator::iallreduce`] and
/// [`Communicator::allreduce_init`]: `send_buf` and `op` (both
/// required).
pub trait IallreduceArgs<T: Plain> {
    /// What `wait()` returns beside the data: the handle of a moved-in
    /// send container, `()` for borrowed buffers.
    type Hold;
    /// Resolves the slots and drives the call into lifecycle `L`.
    fn run<'c, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, Self::Hold>>;
}

impl<T, B, O> IallreduceArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, OpParam<O>>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
    OpParam<O>: ProvidesOp<T>,
    <OpParam<O> as ProvidesOp<T>>::Op: 'static,
{
    type Hold = <SendBuf<B> as SendToTransport<T>>::Hold;

    fn run<'c, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, Self::Hold>> {
        // The algorithm is selected when the call is issued or frozen,
        // so the guard-scoped override covers engine construction (e.g.
        // a forced `AllreduceAlgo::Rabenseifner`).
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        let op = self.op.into_op();
        let (payload, hold) = self.send_buf.into_payload();
        L::drive(
            comm.raw(),
            ((payload, op), hold, Expect::default()),
            |c, (own, op)| c.iallreduce_bytes::<T, _>(own, op),
            |c, (own, op)| c.allreduce_init_bytes::<T, _>(own, op),
        )
    }
}

// ---------------------------------------------------------------------------
// Communicator methods
// ---------------------------------------------------------------------------

impl Communicator {
    /// Starts a non-blocking allgatherv (wraps `MPI_Iallgatherv`).
    ///
    /// Parameters: `send_buf` (required; owned containers are moved in
    /// and come back with `wait()` as a handle: read it, or `take()` the
    /// vector). Returns a [`NonBlockingCollective`]; the concatenated
    /// data (and, via `wait_with_counts()`, the per-rank counts) only
    /// exist after completion.
    ///
    /// ```
    /// use kamping::prelude::*;
    ///
    /// kmp_mpi::Universe::run(3, |comm| {
    ///     let comm = Communicator::new(comm);
    ///     let mine = vec![comm.rank() as u64; comm.rank() + 1];
    ///     let fut = comm.iallgatherv(send_buf(mine)).unwrap();
    ///     // ... overlap local work here ...
    ///     let (all, mine) = fut.wait().unwrap();
    ///     assert_eq!(all, vec![0, 1, 1, 2, 2, 2]);
    ///     assert_eq!(mine.len(), comm.rank() + 1); // readable for free ...
    ///     let mine: Vec<u64> = mine.take(); // ... and the vector on request
    /// });
    /// ```
    pub fn iallgatherv<T, A>(
        &self,
        args: A,
    ) -> Result<NonBlockingCollective<'_, T, <A::Out as IallgatherArgs<T>>::Hold>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IallgatherArgs<T>,
    {
        let op = args.into_args().run::<Immediate>(self, false)?;
        Ok(NonBlockingCollective(op, PhantomData))
    }

    /// Starts a non-blocking allgather of equal-size blocks (wraps
    /// `MPI_Iallgather`). Same parameters and future as
    /// [`Communicator::iallgatherv`].
    pub fn iallgather<T, A>(
        &self,
        args: A,
    ) -> Result<NonBlockingCollective<'_, T, <A::Out as IallgatherArgs<T>>::Hold>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IallgatherArgs<T>,
    {
        let op = args.into_args().run::<Immediate>(self, true)?;
        Ok(NonBlockingCollective(op, PhantomData))
    }

    /// Starts a non-blocking personalized all-to-all (wraps
    /// `MPI_Ialltoallv`).
    ///
    /// Parameters: `send_buf` and `send_counts` (required),
    /// `send_displs` (optional). No receive-side parameters exist: counts
    /// are discovered from the incoming messages and the data is returned
    /// by `wait()` — `wait_with_counts()` also yields the per-source
    /// counts.
    pub fn ialltoallv<T, A>(
        &self,
        args: A,
    ) -> Result<NonBlockingCollective<'_, T, <A::Out as IalltoallvArgs<T>>::Hold>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IalltoallvArgs<T>,
    {
        let op = args.into_args().run::<Immediate>(self)?;
        Ok(NonBlockingCollective(op, PhantomData))
    }

    /// Starts a non-blocking broadcast (wraps `MPI_Ibcast`).
    ///
    /// Parameters: `send_recv_buf` holding an **owned** `Vec<T>` (moved
    /// in; borrowed buffers do not compile — §III-E), `root` (default 0).
    /// `wait()` returns the broadcast content on every rank.
    pub fn ibcast<T, A>(&self, args: A) -> Result<NonBlockingBcast<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IbcastArgs<T>,
    {
        let op = args.into_args().run::<Immediate>(self)?;
        Ok(NonBlockingBcast(op, PhantomData))
    }

    /// Starts a non-blocking all-reduce (wraps `MPI_Iallreduce`).
    ///
    /// Parameters: `send_buf` and `op` (required). `wait()` returns the
    /// elementwise reduction over all ranks (strict rank order — safe for
    /// non-commutative operations) plus the handle of the moved-in send
    /// buffer.
    pub fn iallreduce<T, A>(
        &self,
        args: A,
    ) -> Result<NonBlockingCollective<'_, T, <A::Out as IallreduceArgs<T>>::Hold>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IallreduceArgs<T>,
    {
        let op = args.into_args().run::<Immediate>(self)?;
        Ok(NonBlockingCollective(op, PhantomData))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn iallgatherv_returns_data_and_buffer() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u32; comm.rank() + 1];
            let fut = comm.iallgatherv(send_buf(mine)).unwrap();
            let (all, mine) = fut.wait().unwrap();
            assert_eq!(all, vec![0, 1, 1, 2, 2, 2]);
            assert_eq!(mine.take(), vec![comm.rank() as u32; comm.rank() + 1]);
        });
    }

    #[test]
    fn iallgatherv_borrowed_send_buf_returns_unit() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u8];
            let fut = comm.iallgatherv(send_buf(&mine)).unwrap();
            let (all, ()) = fut.wait().unwrap();
            assert_eq!(all, vec![0, 1]);
            // `mine` stayed accessible: it was only borrowed.
            assert_eq!(mine, vec![comm.rank() as u8]);
        });
    }

    #[test]
    fn iallgatherv_counts_discovered_without_exchange() {
        // Counts calls: a concurrent `Heavy` check would add its own.
        let _g = crate::assertions::LEVEL_GUARD.lock().unwrap();
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![9u16; comm.rank()];
            let before = comm.call_counts();
            let fut = comm.iallgatherv(send_buf(mine)).unwrap();
            let (all, counts, _mine) = fut.wait_with_counts().unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(all.len(), 3);
            assert_eq!(counts, vec![0, 1, 2]);
            // One iallgatherv; zero count-exchanging allgathers.
            assert_eq!(delta.get("iallgatherv"), 1);
            assert_eq!(delta.get("allgather"), 0);
            assert_eq!(delta.total(), 1);
        });
    }

    #[test]
    fn ialltoallv_roundtrip_with_counts() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![comm.rank() as u64 * 10, comm.rank() as u64 * 10 + 1];
            let counts = vec![1usize, 1];
            let fut = comm
                .ialltoallv((send_buf(send), send_counts(&counts)))
                .unwrap();
            let (data, rc, send) = fut.wait_with_counts().unwrap();
            assert_eq!(data, vec![comm.rank() as u64, 10 + comm.rank() as u64]);
            assert_eq!(rc, vec![1, 1]);
            assert_eq!(send.len(), 2, "moved-in send buffer handed back");
        });
    }

    #[test]
    fn ialltoallv_with_explicit_send_displs() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            // Junk prefix skipped by displacements.
            let send = vec![99u32, comm.rank() as u32, comm.rank() as u32 + 10];
            let counts = vec![1usize, 1];
            let displs = vec![1usize, 2];
            let fut = comm
                .ialltoallv((send_buf(&send), send_counts(&counts), send_displs(&displs)))
                .unwrap();
            let (got, ()) = fut.wait().unwrap();
            let offset = comm.rank() as u32 * 10;
            assert_eq!(got, vec![offset, offset + 1]);
        });
    }

    /// A `send_displs` that is too short or points outside the buffer is
    /// a layout error, not a panic — and the erroring rank has consumed
    /// the operation's tag, so whatever collective comes next matches up
    /// with peers whose layouts were fine.
    #[test]
    fn ialltoallv_bad_send_displs_is_an_error_that_keeps_tags_aligned() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![7u32, 8, 9];
            let counts = vec![1usize, 1];
            let next_collective = || {
                let fut = comm.iallgatherv(send_buf(vec![comm.rank() as u32]));
                assert_eq!(fut.unwrap().wait().unwrap().0, vec![0, 1]);
            };
            for displs in [vec![1usize, 5], vec![2], vec![usize::MAX, 0]] {
                let args = (send_buf(&send), send_counts(&counts), send_displs(&displs));
                let res = comm.ialltoallv(args).map(drop);
                assert!(
                    matches!(res, Err(kmp_mpi::MpiError::InvalidLayout(_))),
                    "{displs:?}: {res:?}"
                );
                next_collective();
            }
            // Rank 0 alone passes a bad layout; rank 1 has started the
            // exchange and abandons it.
            let displs = [vec![0usize, 3], vec![0, 1]];
            let args = (
                send_buf(send.clone()),
                send_counts(&counts),
                send_displs(&displs[comm.rank()]),
            );
            assert_eq!(comm.ialltoallv(args).is_err(), comm.rank() == 0);
            next_collective();
        });
    }

    #[test]
    fn ibcast_owned_roundtrip() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let data = if comm.rank() == 1 {
                vec![5u64, 6, 7]
            } else {
                vec![]
            };
            let fut = comm.ibcast((send_recv_buf(data), root(1))).unwrap();
            let data = fut.wait().unwrap();
            assert_eq!(data, vec![5, 6, 7]);
        });
    }

    #[test]
    fn iallreduce_with_op() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64 + 1, 1];
            let fut = comm.iallreduce((send_buf(mine), op(ops::Sum))).unwrap();
            let (total, mine) = fut.wait().unwrap();
            assert_eq!(total, vec![10, 4]);
            assert_eq!(mine.len(), 2);
        });
    }

    #[test]
    fn iallreduce_non_commutative_lambda() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let concat = ops::non_commutative(|a: &u64, b: &u64| a * 10 + b);
            let fut = comm
                .iallreduce((send_buf(vec![comm.rank() as u64 + 1]), op(concat)))
                .unwrap();
            let (folded, _) = fut.wait().unwrap();
            assert_eq!(folded, vec![123]);
        });
    }

    #[test]
    fn test_polls_to_completion() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mut fut = comm
                .iallreduce((send_buf(vec![1u32]), op(ops::Sum)))
                .unwrap();
            let (sum, _) = loop {
                match fut.test().unwrap() {
                    Ok(done) => break done,
                    Err(pending) => {
                        fut = pending;
                        std::thread::yield_now();
                    }
                }
            };
            assert_eq!(sum, vec![2]);
        });
    }

    #[test]
    fn overlap_compute_between_start_and_wait() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u64; 256];
            let fut = comm.iallgatherv(send_buf(mine)).unwrap();
            // The communication is in flight; do real local work.
            let mut acc = 0u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i.wrapping_mul(i));
            }
            std::hint::black_box(acc);
            let (all, _) = fut.wait().unwrap();
            assert_eq!(all.len(), 4 * 256);
        });
    }
}
