//! Non-blocking collectives with named parameters (§III-E of the paper,
//! extended from point-to-point to collectives).
//!
//! Every `i*` operation returns a **typed future** that owns whatever the
//! caller moved into the call:
//!
//! - [`NonBlockingCollective`] (for `iallgatherv` / `iallgather` /
//!   `ialltoallv` / `iallreduce`): [`NonBlockingCollective::wait`]
//!   returns `(received_data, moved_in_send_buffer)` — the send buffer
//!   comes back to the caller exactly like Fig. 6's `v = r1.wait()`, and
//!   the received data *does not exist* before completion, so neither
//!   §III-E hazard (mutating an in-flight send buffer, reading an
//!   incomplete receive buffer) can be expressed.
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

use kmp_mpi::request::{Completion, Request, TestOutcome};
use kmp_mpi::{Plain, Result};

use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::slots::{ProvidedCounts, ProvidesOp, ReclaimHold, SendToTransport};
use crate::params::{Absent, OpParam, SendBuf, SendRecvBuf};

/// Decodes a completed collective into `(data, per-rank counts)`: each
/// delivered block is copied **once**, straight into the final vector.
fn decode<T: Plain>(completion: Completion) -> (Vec<T>, Vec<usize>) {
    match completion.into_blocks() {
        None => (Vec::new(), Vec::new()),
        Some(blocks) => {
            let mut data = Vec::with_capacity(
                blocks.iter().map(|b| b.len()).sum::<usize>() / std::mem::size_of::<T>().max(1),
            );
            let mut counts = Vec::with_capacity(blocks.len());
            for b in &blocks {
                counts.push(kmp_mpi::plain::extend_vec_from_bytes(&mut data, b));
            }
            (data, counts)
        }
    }
}

/// A non-blocking collective in flight. An owned send container has
/// **moved into the transport** (the wire payload aliases its
/// allocation — zero call-time copies); the stored [`ReclaimHold`]
/// resolves back to it on completion, and the received data is produced
/// by `wait()`.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingCollective<'a, T: Plain, H> {
    req: Request<'a>,
    hold: H,
    _elem: PhantomData<T>,
}

impl<'a, T: Plain, H: ReclaimHold> NonBlockingCollective<'a, T, H> {
    /// Blocks until the collective completes; returns the received data
    /// and hands back the moved-in send buffer.
    pub fn wait(self) -> Result<(Vec<T>, H::Back)> {
        let (data, _counts) = decode::<T>(self.req.wait()?);
        Ok((data, self.hold.finish()))
    }

    /// Like [`NonBlockingCollective::wait`], additionally returning the
    /// per-rank element counts (the v-collectives' receive counts,
    /// discovered from the messages — no extra communication).
    pub fn wait_with_counts(self) -> Result<(Vec<T>, Vec<usize>, H::Back)> {
        let (data, counts) = decode::<T>(self.req.wait()?);
        Ok((data, counts, self.hold.finish()))
    }

    /// Completion test: `Ok(Ok((data, buffer)))` when complete,
    /// `Ok(Err(self))` when still pending.
    #[allow(clippy::type_complexity)]
    pub fn test(self) -> Result<std::result::Result<(Vec<T>, H::Back), Self>> {
        match self.req.test()? {
            TestOutcome::Ready(c) => {
                let (data, _counts) = decode::<T>(c);
                Ok(Ok((data, self.hold.finish())))
            }
            TestOutcome::Pending(req) => Ok(Err(NonBlockingCollective {
                req,
                hold: self.hold,
                _elem: PhantomData,
            })),
        }
    }

    pub(crate) fn wait_discard(self) -> Result<()> {
        self.req.wait()?;
        Ok(())
    }

    pub(crate) fn test_discard(self) -> Result<std::result::Result<(), Self>> {
        match self.req.test()? {
            TestOutcome::Ready(_) => Ok(Ok(())),
            TestOutcome::Pending(req) => Ok(Err(NonBlockingCollective {
                req,
                hold: self.hold,
                _elem: PhantomData,
            })),
        }
    }

    pub(crate) fn raw_request(&self) -> &Request<'a> {
        &self.req
    }
}

/// A non-blocking broadcast in flight: the root's moved-in buffer is
/// the wire payload itself (zero call-time copies), reclaimed and
/// handed back by `wait()`.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingBcast<'a, T: Plain> {
    req: Request<'a>,
    /// The root's moved-in buffer, aliased by the in-flight payload.
    root_buf: Option<kmp_mpi::SharedPayload<T>>,
}

impl<'a, T: Plain> NonBlockingBcast<'a, T> {
    /// Blocks until the broadcast completes; returns the broadcast
    /// content (on the root: the moved-in vector itself).
    pub fn wait(self) -> Result<Vec<T>> {
        let completion = self.req.wait()?;
        match self.root_buf {
            Some(buf) => {
                // Release the engine's view of the payload before
                // reclaiming, so the handback stays zero-copy.
                drop(completion);
                Ok(buf.take())
            }
            None => {
                let (data, _) = decode::<T>(completion);
                Ok(data)
            }
        }
    }

    /// Completion test: `Ok(Ok(content))` when complete, `Ok(Err(self))`
    /// when still pending.
    pub fn test(self) -> Result<std::result::Result<Vec<T>, Self>> {
        match self.req.test()? {
            TestOutcome::Ready(c) => match self.root_buf {
                Some(buf) => {
                    drop(c);
                    Ok(Ok(buf.take()))
                }
                None => {
                    let (data, _) = decode::<T>(c);
                    Ok(Ok(data))
                }
            },
            TestOutcome::Pending(req) => Ok(Err(NonBlockingBcast {
                req,
                root_buf: self.root_buf,
            })),
        }
    }

    pub(crate) fn wait_discard(self) -> Result<()> {
        self.req.wait()?;
        Ok(())
    }

    pub(crate) fn test_discard(self) -> Result<std::result::Result<(), Self>> {
        match self.req.test()? {
            TestOutcome::Ready(_) => Ok(Ok(())),
            TestOutcome::Pending(req) => Ok(Err(NonBlockingBcast {
                req,
                root_buf: self.root_buf,
            })),
        }
    }

    pub(crate) fn raw_request(&self) -> &Request<'a> {
        &self.req
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
    /// The handback token resolved by `wait()` to the moved-in send
    /// container (or `()` for borrowed buffers).
    type Hold: ReclaimHold;
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
        Ok(NonBlockingCollective {
            req,
            hold,
            _elem: PhantomData,
        })
    }
}

/// Valid argument sets for [`Communicator::ialltoallv`]: `send_buf` and
/// `send_counts` (required), `send_displs` (optional; omitted means the
/// send buffer is packed contiguously in rank order).
pub trait IalltoallvArgs<T: Plain> {
    /// The handback token resolved by `wait()` to the moved-in send
    /// container (or `()` for borrowed buffers).
    type Hold: ReclaimHold;
    /// Starts the operation.
    fn run<'c>(self, comm: &'c Communicator) -> Result<NonBlockingCollective<'c, T, Self::Hold>>;
}

impl<T, B, SC, SD> IalltoallvArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, SC, Absent, SD, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
    SC: ProvidedCounts,
    SD: crate::params::slots::CountsSlot,
{
    type Hold = <SendBuf<B> as SendToTransport<T>>::Hold;

    fn run<'c>(self, comm: &'c Communicator) -> Result<NonBlockingCollective<'c, T, Self::Hold>> {
        let _tuning = comm.raw().tuning_guard(self.meta.tuning);
        let counts = self
            .send_counts
            .provided()
            .expect("send_counts is required")
            .to_vec();
        let elem = std::mem::size_of::<T>();
        let byte_counts: Vec<usize> = counts.iter().map(|&c| c * elem).collect();
        let (payload, hold) = match self.send_displs.provided().map(<[usize]>::to_vec) {
            // Contiguous rank order: the buffer is the wire payload
            // (zero copies for owned containers); per-peer blocks are
            // refcount slices.
            None => self.send_buf.into_payload(),
            Some(displs) => {
                // Repack into contiguous rank order so displacement gaps
                // (or overlaps) never travel; the original container is
                // still handed back by `wait()`.
                self.send_buf.into_packed(|send| {
                    let mut packed = Vec::with_capacity(counts.iter().sum());
                    for (r, &c) in counts.iter().enumerate() {
                        let d = displs[r];
                        packed.extend_from_slice(&send[d..d + c]);
                    }
                    packed
                })
            }
        };
        let req = comm.raw().ialltoallv_bytes(payload, &byte_counts)?;
        Ok(NonBlockingCollective {
            req,
            hold,
            _elem: PhantomData,
        })
    }
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
        if comm.rank() == root {
            // The moved-in vector is the wire payload (zero call-time
            // copies); it is reclaimed and handed back by `wait()`.
            let (hold, payload) = kmp_mpi::SharedPayload::new(buf);
            let req = comm.raw().ibcast_bytes(Some(payload), root)?;
            Ok(NonBlockingBcast {
                req,
                root_buf: Some(hold),
            })
        } else {
            let req = comm.raw().ibcast_bytes(None, root)?;
            Ok(NonBlockingBcast {
                req,
                root_buf: None,
            })
        }
    }
}

/// Valid argument sets for [`Communicator::iallreduce`]: `send_buf` and
/// `op` (both required).
pub trait IallreduceArgs<T: Plain> {
    /// The handback token resolved by `wait()` to the moved-in send
    /// container (or `()` for borrowed buffers).
    type Hold: ReclaimHold;
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
        Ok(NonBlockingCollective {
            req,
            hold,
            _elem: PhantomData,
        })
    }
}

// ---------------------------------------------------------------------------
// Communicator methods
// ---------------------------------------------------------------------------

impl Communicator {
    /// Starts a non-blocking allgatherv (wraps `MPI_Iallgatherv`).
    ///
    /// Parameters: `send_buf` (required; owned containers are moved in
    /// and handed back by `wait()`). Returns a
    /// [`NonBlockingCollective`]; the concatenated data (and, via
    /// `wait_with_counts()`, the per-rank counts) only exist after
    /// completion.
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
    ///     assert_eq!(mine.len(), comm.rank() + 1); // moved-in buffer is back
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
    /// non-commutative operations) plus the moved-in send buffer.
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
            assert_eq!(mine, vec![comm.rank() as u32; comm.rank() + 1]);
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
