//! Persistent operations with named parameters (MPI-4 `MPI_*_init`,
//! surfaced through the paper's §III-B parameter style).
//!
//! A persistent handle freezes the *plan* of an operation once — the
//! validated envelope, the selected collective algorithm, the internal
//! tags, and the substrate's standing completion registrations — and
//! then replays it: every [`Persistent::start`] /
//! [`Persistent::wait`] cycle runs with zero per-call setup (no tag
//! allocation, no algorithm selection, no waiter re-registration; see
//! [`kmp_mpi::persistent`] for the substrate-level contract).
//!
//! ```
//! use kamping::prelude::*;
//!
//! kmp_mpi::Universe::run(4, |comm| {
//!     let comm = Communicator::new(comm);
//!     let mut sum = comm
//!         .allreduce_init((send_buf(&[comm.rank() as u64][..]), op(ops::Sum)))
//!         .unwrap();
//!     for _ in 0..3 {
//!         sum.start().unwrap();
//!         assert_eq!(sum.wait().unwrap(), vec![6]);
//!     }
//! });
//! ```
//!
//! The payload of a frozen plan is refreshed *between* cycles with
//! [`Persistent::set_data`]; the plan itself (peers, counts, algorithm)
//! never changes — create a new handle for a new shape.

use std::marker::PhantomData;

use kmp_mpi::request::Completion;
use kmp_mpi::{Plain, Result, Src};

use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::slots::{ProvidedCounts, ProvidesOp, ProvidesSendData};
use crate::params::{Absent, Meta, OpParam, SendBuf, SendRecvBuf};

/// Decodes a cycle's completion uniformly: sends yield nothing,
/// single-message completions one block (taken back without a copy when
/// this rank holds its only view), v-collectives one block per rank
/// (each copied once, straight into the result vector).
fn decode<T: Plain>(completion: Completion) -> (Vec<T>, Vec<usize>) {
    match completion {
        Completion::Done => (Vec::new(), Vec::new()),
        message @ Completion::Message(..) => {
            let (data, _) = message.into_vec::<T>().expect("a message");
            let n = data.len();
            (data, vec![n])
        }
        Completion::Blocks(blocks) => {
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

/// A typed persistent operation: the frozen plan plus this rank's
/// current payload. Created by the `Communicator::*_init` methods;
/// cycled with [`start`](Persistent::start) /
/// [`wait`](Persistent::wait) (or [`test`](Persistent::test)).
///
/// Unlike the one-shot futures ([`crate::p2p::NonBlockingRecv`],
/// [`crate::collectives::NonBlockingCollective`]), a persistent handle
/// is reused in place — completing a cycle returns the handle to the
/// *inactive* state instead of consuming it, mirroring MPI's fourth
/// request lifecycle (inactive → started → complete → restartable).
#[must_use = "a persistent operation does nothing until start() is called"]
pub struct Persistent<'a, T: Plain> {
    req: kmp_mpi::PersistentRequest<'a>,
    _elem: PhantomData<T>,
}

impl<'a, T: Plain> Persistent<'a, T> {
    fn wrap(req: kmp_mpi::PersistentRequest<'a>) -> Self {
        Persistent {
            req,
            _elem: PhantomData,
        }
    }

    /// Starts one cycle (mirrors `MPI_Start`): O(messages posted), no
    /// per-call setup. Errors if the previous cycle is still active.
    pub fn start(&mut self) -> Result<()> {
        self.req.start()
    }

    /// Blocks until the started cycle completes and returns its data
    /// (empty for sends). The handle is inactive and restartable
    /// afterwards.
    pub fn wait(&mut self) -> Result<Vec<T>> {
        Ok(decode::<T>(self.req.wait()?).0)
    }

    /// Like [`wait`](Persistent::wait), additionally returning per-rank
    /// element counts for block-structured completions (allgather /
    /// alltoallv plans).
    pub fn wait_with_counts(&mut self) -> Result<(Vec<T>, Vec<usize>)> {
        Ok(decode::<T>(self.req.wait()?))
    }

    /// Non-blocking completion check: `Ok(Some(data))` finishes the
    /// cycle, `Ok(None)` leaves it active.
    pub fn test(&mut self) -> Result<Option<Vec<T>>> {
        Ok(self.req.test()?.map(|c| decode::<T>(c).0))
    }

    /// Replaces the data the next cycle sends (rejected while a cycle
    /// is active; alltoallv plans must keep the frozen total length).
    pub fn set_data(&mut self, data: &[T]) -> Result<()> {
        self.req.set_data(data)
    }

    /// True between a `start` and the observation of its completion.
    pub fn is_active(&self) -> bool {
        self.req.is_active()
    }

    /// Completed cycles so far.
    pub fn cycles(&self) -> u64 {
        self.req.cycles()
    }

    /// The substrate request, for interoperability (e.g.
    /// [`kmp_mpi::start_all`] over a mixed batch).
    pub fn raw_mut(&mut self) -> &mut kmp_mpi::PersistentRequest<'a> {
        &mut self.req
    }
}

// ---------------------------------------------------------------------------
// Argument traits
// ---------------------------------------------------------------------------

/// Valid argument sets for [`Communicator::send_init`]: `send_buf` and
/// `destination` (required), `tag` (default 0). The buffer is captured
/// into the frozen plan; refresh it per cycle with
/// [`Persistent::set_data`].
pub trait SendInitArgs<T: Plain> {
    /// Freezes the plan.
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>>;
}

impl<T, B> SendInitArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
{
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>> {
        let (dest, tag) = crate::p2p::send_meta(&self.meta);
        let req = comm
            .raw()
            .send_init(self.send_buf.send_slice(), dest, tag)?;
        Ok(Persistent::wrap(req))
    }
}

/// Valid argument sets for [`Communicator::recv_init`]: `source`
/// (required and concrete — a wildcard cannot be frozen into a standing
/// registration) and `tag` (default 0).
pub trait RecvInitArgs {
    /// Extracts the scalar parameters.
    fn into_meta(self) -> Meta;
}

impl RecvInitArgs for ArgSet<Absent, Absent, Absent, Absent, Absent, Absent, Absent, Absent> {
    fn into_meta(self) -> Meta {
        self.meta
    }
}

/// Valid argument sets for [`Communicator::bcast_init`]: `send_recv_buf`
/// holding an owned `Vec<T>` (the root's broadcast content; other ranks
/// pass an empty vector) plus optional `root` (default 0).
pub trait BcastInitArgs<T: Plain> {
    /// Freezes the plan.
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>>;
}

impl<T> BcastInitArgs<T>
    for ArgSet<Absent, SendRecvBuf<Vec<T>>, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
{
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>> {
        let root = self.meta.root.unwrap_or(0);
        crate::assertions::check_same_root(comm, root)?;
        let buf = self.send_recv_buf.0;
        let req = if comm.rank() == root {
            comm.raw().bcast_init(Some(&buf), root)?
        } else {
            comm.raw().bcast_init::<T>(None, root)?
        };
        Ok(Persistent::wrap(req))
    }
}

/// Valid argument sets for [`Communicator::allreduce_init`]: `send_buf`
/// and `op` (both required).
pub trait AllreduceInitArgs<T: Plain> {
    /// Freezes the plan.
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>>;
}

impl<T, B, O> AllreduceInitArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, OpParam<O>>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
    OpParam<O>: ProvidesOp<T>,
    <OpParam<O> as ProvidesOp<T>>::Op: 'static,
{
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>> {
        let op = self.op.into_op();
        let req = comm.raw().allreduce_init(self.send_buf.send_slice(), op)?;
        Ok(Persistent::wrap(req))
    }
}

/// Valid argument sets for [`Communicator::allgather_init`] and
/// [`Communicator::allgatherv_init`]: `send_buf` (required).
pub trait AllgatherInitArgs<T: Plain> {
    /// This rank's contribution.
    fn contribution(&self) -> &[T];
}

impl<T, B> AllgatherInitArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
{
    fn contribution(&self) -> &[T] {
        self.send_buf.send_slice()
    }
}

/// Valid argument sets for [`Communicator::alltoallv_init`]: `send_buf`
/// and `send_counts` (both required; the counts — and with them every
/// per-peer byte range — are frozen into the plan).
pub trait AlltoallvInitArgs<T: Plain> {
    /// Freezes the plan.
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>>;
}

impl<T, B, SC> AlltoallvInitArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, SC, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: ProvidesSendData<T>,
    SC: ProvidedCounts,
{
    fn run<'c>(self, comm: &'c Communicator) -> Result<Persistent<'c, T>> {
        // `ProvidedCounts` guarantees the counts; an empty layout would
        // fail the substrate's check like any other wrong one.
        let counts = self.send_counts.provided().unwrap_or_default();
        let req = comm
            .raw()
            .alltoallv_init(self.send_buf.send_slice(), counts)?;
        Ok(Persistent::wrap(req))
    }
}

// ---------------------------------------------------------------------------
// Communicator methods
// ---------------------------------------------------------------------------

impl Communicator {
    /// Creates a persistent send (wraps `MPI_Send_init`).
    ///
    /// Parameters: `send_buf` and `destination` (required), `tag`
    /// (default 0). Each [`Persistent::start`] posts the current
    /// payload; [`Persistent::set_data`] refreshes it between cycles.
    pub fn send_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: SendInitArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Creates a persistent receive (wraps `MPI_Recv_init`).
    ///
    /// Parameters: `source` (required, concrete rank) and `tag`
    /// (default 0). The standing completion registration installed here
    /// serves every future cycle — the steady state re-registers
    /// nothing.
    pub fn recv_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: RecvInitArgs,
    {
        let meta = args.into_args().into_meta();
        let src = match meta.source {
            Some(Src::Rank(r)) => r,
            _ => {
                return Err(kmp_mpi::MpiError::InvalidLayout(
                    "recv_init requires a concrete source(rank): a wildcard cannot be \
                     frozen into a persistent plan"
                        .into(),
                ))
            }
        };
        let req = self.raw().recv_init(src, meta.tag.unwrap_or(0))?;
        Ok(Persistent::wrap(req))
    }

    /// Creates a persistent broadcast (wraps `MPI_Bcast_init`).
    ///
    /// Parameters: `send_recv_buf` holding an owned `Vec<T>` (content on
    /// the root, empty elsewhere), `root` (default 0). The binomial
    /// tree, its internal tag, and the receivers' standing parent
    /// registration are frozen once; every rank's `wait()` returns the
    /// cycle's content.
    pub fn bcast_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: BcastInitArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Creates a persistent all-reduce (wraps `MPI_Allreduce_init`).
    ///
    /// Parameters: `send_buf` and `op` (required). The reduction runs in
    /// strict rank order (safe for non-commutative operations); the
    /// algorithm is selected and its engine built once, at init.
    pub fn allreduce_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllreduceInitArgs<T>,
    {
        args.into_args().run(self)
    }

    /// Creates a persistent allgather (wraps `MPI_Allgather_init`).
    /// Every rank contributes the same length: the plan runs the
    /// algorithm the blocking `allgather` would pick for it. Use
    /// [`allgatherv_init`](Self::allgatherv_init) for lengths that
    /// differ across ranks.
    pub fn allgather_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllgatherInitArgs<T>,
    {
        let req = self.raw().allgather_init(args.into_args().contribution())?;
        Ok(Persistent::wrap(req))
    }

    /// Creates a persistent allgather whose contributions may differ in
    /// length across ranks (wraps `MPI_Allgatherv_init`).
    /// `wait_with_counts()` also returns the per-rank counts.
    pub fn allgatherv_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AllgatherInitArgs<T>,
    {
        let req = self
            .raw()
            .allgatherv_init(args.into_args().contribution())?;
        Ok(Persistent::wrap(req))
    }

    /// Creates a persistent personalized all-to-all (wraps
    /// `MPI_Alltoallv_init`). Parameters: `send_buf` and `send_counts`
    /// (required). The counts are frozen; `set_data` must keep the
    /// packed total.
    pub fn alltoallv_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: AlltoallvInitArgs<T>,
    {
        args.into_args().run(self)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn persistent_send_recv_cycles() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let mut send = comm
                    .send_init((send_buf(&[0u32][..]), destination(1), tag(3)))
                    .unwrap();
                for i in 0..4u32 {
                    send.set_data(&[i * 10]).unwrap();
                    send.start().unwrap();
                    assert!(send.wait().unwrap().is_empty());
                }
                assert_eq!(send.cycles(), 4);
            } else {
                let mut recv = comm.recv_init::<u32, _>((source(0), tag(3))).unwrap();
                for i in 0..4u32 {
                    recv.start().unwrap();
                    assert_eq!(recv.wait().unwrap(), vec![i * 10]);
                }
            }
        });
    }

    #[test]
    fn recv_init_rejects_wildcard_source() {
        Universe::run(1, |comm| {
            let comm = Communicator::new(comm);
            assert!(comm.recv_init::<u8, _>((any_source(),)).is_err());
        });
    }

    #[test]
    fn persistent_bcast_refreshes_per_cycle() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let data = if comm.rank() == 1 { vec![7u64] } else { vec![] };
            let mut bc = comm.bcast_init((send_recv_buf(data), root(1))).unwrap();
            for cycle in 0..3u64 {
                if comm.rank() == 1 {
                    bc.set_data(&[7 + cycle]).unwrap();
                }
                bc.start().unwrap();
                assert_eq!(bc.wait().unwrap(), vec![7 + cycle]);
            }
        });
    }

    #[test]
    fn persistent_allreduce_steady_state_issues_only_start() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let mut sum = comm
                .allreduce_init((send_buf(&[comm.rank() as u64][..]), op(ops::Sum)))
                .unwrap();
            // Warm-up cycle, then count the steady state.
            sum.start().unwrap();
            assert_eq!(sum.wait().unwrap(), vec![6]);
            let before = comm.call_counts();
            for _ in 0..5 {
                sum.start().unwrap();
                assert_eq!(sum.wait().unwrap(), vec![6]);
            }
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("start"), 5);
            assert_eq!(delta.get("allreduce_init"), 0, "no re-initialization");
            assert_eq!(delta.total(), 5, "steady state issues only start");
        });
    }

    #[test]
    fn persistent_allgather_with_counts() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            let mine = vec![comm.rank() as u16; comm.rank() + 1];
            let mut ag = comm.allgatherv_init(send_buf(&mine)).unwrap();
            for _ in 0..2 {
                ag.start().unwrap();
                let (all, counts) = ag.wait_with_counts().unwrap();
                assert_eq!(all, vec![0, 1, 1, 2, 2, 2]);
                assert_eq!(counts, vec![1, 2, 3]);
            }
        });
    }

    /// Contributions on both sides of the 8 KiB log-round ceiling at
    /// p = 4: every rank freezes the same ring, and each cycle delivers
    /// every block with its own length.
    #[test]
    fn persistent_allgatherv_mixes_sizes_across_the_log_round_ceiling() {
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let len = |r: usize| if r.is_multiple_of(2) { 2 } else { 2048 }; // u64: 16 B, 16 KiB
            let mine = vec![comm.rank() as u64; len(comm.rank())];
            let mut ag = comm.allgatherv_init(send_buf(&mine)).unwrap();
            let want: Vec<u64> = (0..4).flat_map(|r| vec![r as u64; len(r)]).collect();
            for _ in 0..3 {
                ag.start().unwrap();
                let (all, counts) = ag.wait_with_counts().unwrap();
                assert_eq!(counts, (0..4).map(len).collect::<Vec<_>>());
                assert_eq!(all, want);
            }
        });
    }

    #[test]
    fn persistent_alltoallv_roundtrip() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![comm.rank() as u64 * 10, comm.rank() as u64 * 10 + 1];
            let counts = vec![1usize, 1];
            let mut a2a = comm
                .alltoallv_init((send_buf(&send), send_counts(&counts)))
                .unwrap();
            for _ in 0..3 {
                a2a.start().unwrap();
                let got = a2a.wait().unwrap();
                assert_eq!(got, vec![comm.rank() as u64, 10 + comm.rank() as u64]);
            }
        });
    }

    #[test]
    fn free_reclaims_communicator() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let dup = comm.dup().unwrap();
            if dup.rank() == 0 {
                dup.raw().send(&[1u8], 1, 0).unwrap();
            } else {
                dup.raw().recv_vec::<u8>(0, 0).unwrap();
            }
            dup.free().unwrap();
            comm.barrier().unwrap();
        });
    }
}
