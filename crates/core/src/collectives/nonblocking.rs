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
//!   [`SharedPayload`]: Fig. 6's `v = r1.wait()`
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
//! All futures compose with [`RequestPool`](crate::p2p::RequestPool) and
//! [`BoundedRequestPool`](crate::p2p::BoundedRequestPool) via
//! `submit_collective` / `submit_bcast`.

use std::marker::PhantomData;

use bytes::Bytes;
use kmp_mpi::request::Completion;
use kmp_mpi::{MpiError, Plain, Result, SharedPayload};

use crate::communicator::Communicator;
use crate::p2p::InFlight;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::slots::{CountsSlot, ProvidedCounts, ProvidesOp, SendToTransport};
use crate::params::{Absent, OpParam, SendBuf, SendRecvBuf};

/// Decodes a completed collective: each delivered block is copied
/// **once**, straight into the final vector, and released as soon as it
/// is copied — a block is a view of its sender's buffer, which that
/// sender may be about to take back. A single message (the allreduce
/// result, which only this rank holds) is taken back without a copy
/// where it can be. `counts` collects the per-rank element counts for
/// the callers that want them.
fn decode<T: Plain>(completion: Completion, mut counts: Option<&mut Vec<usize>>) -> Vec<T> {
    if let Completion::Message(..) = completion {
        let (data, _) = completion.into_vec::<T>().expect("a message");
        if let Some(counts) = counts {
            counts.push(data.len());
        }
        return data;
    }
    let blocks = completion.into_blocks().unwrap_or_default();
    let mut data = Vec::with_capacity(
        blocks.iter().map(|b| b.len()).sum::<usize>() / std::mem::size_of::<T>().max(1),
    );
    for block in blocks {
        let n = kmp_mpi::plain::extend_vec_from_bytes(&mut data, &block);
        if let Some(counts) = counts.as_deref_mut() {
            counts.push(n);
        }
    }
    data
}

/// A non-blocking collective in flight. An owned send container has
/// **moved into the transport** (the wire payload aliases its
/// allocation — zero call-time copies); `H` is the handle that comes
/// back with the completion ([`SharedPayload<T>`] for an owned send
/// buffer, `()` for a borrowed one), and the received data is produced
/// by `wait()`.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingCollective<'a, T: Plain, H>(pub(crate) InFlight<'a, H>, PhantomData<T>);

impl<'a, T: Plain, H> NonBlockingCollective<'a, T, H> {
    fn new(op: InFlight<'a, H>) -> Self {
        NonBlockingCollective(op, PhantomData)
    }

    /// Blocks until the collective completes; returns the received data
    /// and the handle of the moved-in send buffer (free to read or drop;
    /// `take()` it to get the vector back).
    pub fn wait(self) -> Result<(Vec<T>, H)> {
        let (completion, hold) = self.0.wait()?;
        Ok((decode(completion, None), hold))
    }

    /// Like [`NonBlockingCollective::wait`], additionally returning the
    /// per-rank element counts (the v-collectives' receive counts,
    /// discovered from the messages — no extra communication).
    pub fn wait_with_counts(self) -> Result<(Vec<T>, Vec<usize>, H)> {
        let (completion, hold) = self.0.wait()?;
        let mut counts = Vec::new();
        let data = decode(completion, Some(&mut counts));
        Ok((data, counts, hold))
    }

    /// Completion test: `Ok(Ok((data, handle)))` when complete,
    /// `Ok(Err(self))` when still pending.
    #[allow(clippy::type_complexity)]
    pub fn test(self) -> Result<std::result::Result<(Vec<T>, H), Self>> {
        let polled = self.0.test()?.map_err(Self::new);
        Ok(polled.map(|(completion, hold)| (decode(completion, None), hold)))
    }
}

/// A non-blocking broadcast in flight: the root's moved-in buffer is
/// the wire payload itself (zero call-time copies), reclaimed and
/// handed back by `wait()`.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingBcast<'a, T: Plain>(
    /// The handle is the root's moved-in buffer, aliased by the
    /// in-flight payload.
    pub(crate) InFlight<'a, Option<SharedPayload<T>>>,
);

/// The broadcast content — on the root the moved-in vector itself: its
/// buffer *is* its result, so it is taken back, after the engine's view
/// of the payload is released (which keeps the handback zero-copy once
/// the children are done).
fn bcast_content<T: Plain>(
    (completion, root_buf): (Completion, Option<SharedPayload<T>>),
) -> Vec<T> {
    match root_buf {
        Some(buf) => {
            drop(completion);
            buf.take()
        }
        None => decode(completion, None),
    }
}

impl<'a, T: Plain> NonBlockingBcast<'a, T> {
    /// Blocks until the broadcast completes; returns the broadcast
    /// content (on the root: the moved-in vector itself).
    pub fn wait(self) -> Result<Vec<T>> {
        self.0.wait().map(bcast_content)
    }

    /// Completion test: `Ok(Ok(content))` when complete, `Ok(Err(self))`
    /// when still pending.
    pub fn test(self) -> Result<std::result::Result<Vec<T>, Self>> {
        Ok(self.0.test()?.map(bcast_content).map_err(NonBlockingBcast))
    }
}

// ---------------------------------------------------------------------------
// Argument traits
// ---------------------------------------------------------------------------

/// Valid argument sets for [`Communicator::iallgatherv`] /
/// [`Communicator::iallgather`]: `send_buf` only — receive storage is
/// produced by the completion (§III-E: results by value), and receive
/// counts are discovered, not exchanged.
pub trait IallgatherArgs<T: Plain> {
    /// What `wait()` returns beside the data: the handle of a moved-in
    /// send container, `()` for borrowed buffers.
    type Hold;
    /// Starts the operation (`equal_blocks` selects allgather vs
    /// allgatherv call counting).
    fn run<'c>(
        self,
        comm: &'c Communicator,
        equal_blocks: bool,
    ) -> Result<NonBlockingCollective<'c, T, Self::Hold>>;
}

impl<T, B> IallgatherArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
{
    type Hold = <SendBuf<B> as SendToTransport<T>>::Hold;

    fn run<'c>(
        self,
        comm: &'c Communicator,
        equal_blocks: bool,
    ) -> Result<NonBlockingCollective<'c, T, Self::Hold>> {
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        // Owned buffers move into the transport: zero call-time copies.
        let (payload, hold) = self.send_buf.into_payload();
        let req = if equal_blocks {
            comm.raw().iallgather_bytes(payload)?
        } else {
            comm.raw().iallgatherv_bytes(payload)?
        };
        Ok(NonBlockingCollective::new(InFlight::new(req, hold)))
    }
}

/// Valid argument sets for [`Communicator::ialltoallv`]: `send_buf` and
/// `send_counts` (required), `send_displs` (optional; omitted means the
/// send buffer is packed contiguously in rank order).
pub trait IalltoallvArgs<T: Plain> {
    /// What `wait()` returns beside the data: the handle of a moved-in
    /// send container, `()` for borrowed buffers.
    type Hold;
    /// Starts the operation.
    fn run<'c>(self, comm: &'c Communicator) -> Result<NonBlockingCollective<'c, T, Self::Hold>>;
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

    fn run<'c>(self, comm: &'c Communicator) -> Result<NonBlockingCollective<'c, T, Self::Hold>> {
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        // `ProvidedCounts` guarantees the counts; an empty layout would
        // fail the substrate's check like any other wrong one.
        let counts = self.send_counts.provided().unwrap_or_default();
        let elem = std::mem::size_of::<T>();
        let byte_counts: Vec<usize> = counts.iter().map(|&c| c * elem).collect();
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
        let (payload, hold) = packed.inspect_err(|_| {
            // The layout error is rank-local: peers whose layouts are
            // fine have taken this operation's tag. An empty layout never
            // passes the substrate's check, which runs after it takes the
            // tag — so this rank stays aligned with them.
            let _ = comm.raw().ialltoallv_bytes(Bytes::new(), &[]);
        })?;
        let req = comm.raw().ialltoallv_bytes(payload, &byte_counts)?;
        Ok(NonBlockingCollective::new(InFlight::new(req, hold)))
    }
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

/// Valid argument sets for [`Communicator::ibcast`]: an **owned**
/// `send_recv_buf(Vec<T>)` plus optional `root`. Borrowed buffers do not
/// compile — while the broadcast is in flight nothing may read or write
/// the buffer (§III-E), which ownership transfer enforces for free.
pub trait IbcastArgs<T: Plain> {
    /// Starts the operation.
    fn run(self, comm: &Communicator) -> Result<NonBlockingBcast<'_, T>>;
}

impl<T> IbcastArgs<T>
    for ArgSet<Absent, SendRecvBuf<Vec<T>>, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
{
    fn run(self, comm: &Communicator) -> Result<NonBlockingBcast<'_, T>> {
        let root = self.meta.root.unwrap_or(0);
        crate::assertions::check_same_root(comm, root)?;
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        let buf = self.send_recv_buf.0;
        // At the root the moved-in vector is the wire payload (zero
        // call-time copies); it is reclaimed and handed back by `wait()`.
        let (hold, payload) = if comm.rank() == root {
            let (hold, payload) = SharedPayload::new(buf);
            (Some(hold), Some(payload))
        } else {
            (None, None)
        };
        let req = comm.raw().ibcast_bytes(payload, root)?;
        Ok(NonBlockingBcast(InFlight::new(req, hold)))
    }
}

/// Valid argument sets for [`Communicator::iallreduce`]: `send_buf` and
/// `op` (both required).
pub trait IallreduceArgs<T: Plain> {
    /// What `wait()` returns beside the data: the handle of a moved-in
    /// send container, `()` for borrowed buffers.
    type Hold;
    /// Starts the operation.
    fn run<'c>(self, comm: &'c Communicator) -> Result<NonBlockingCollective<'c, T, Self::Hold>>;
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

    fn run<'c>(self, comm: &'c Communicator) -> Result<NonBlockingCollective<'c, T, Self::Hold>> {
        // The algorithm is selected at call time, so the guard-scoped
        // override covers engine construction (e.g. a forced
        // `ReduceAlgo::BinomialTree` engages the tree engine).
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        let op = self.op.into_op();
        let (payload, hold) = self.send_buf.into_payload();
        let req = comm.raw().iallreduce_bytes::<T, _>(payload, op)?;
        Ok(NonBlockingCollective::new(InFlight::new(req, hold)))
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
        args.into_args().run(self, false)
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
        args.into_args().run(self, true)
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
        args.into_args().run(self)
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
        args.into_args().run(self)
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
        args.into_args().run(self)
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
