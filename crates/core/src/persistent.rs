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
//! **One declaration, two drivers.** A `*_init` takes the argument
//! trait of its `i*` twin — `send_init` / `isend`, `recv_init` /
//! `irecv`, `bcast_init` / `ibcast`, `allreduce_init` / `iallreduce`,
//! `allgather(v)_init` / `iallgather(v)`, `alltoallv_init` /
//! `ialltoallv` — whose one method resolves the slots, `tuning` and
//! `recv_count` included, and hands them to the persistent driver
//! instead of the immediate one: the substrate freezes a plan where it
//! would have issued a request. Each cycle's completion goes through the
//! futures' receive lowering
//! ([`RecvBufSpec::lower`](crate::params::slots::RecvBufSpec::lower)
//! with the `Absent` slot), `recv_count` and whole elements checked the
//! same way. What does not carry over: `issend` has no persistent form,
//! and `alltoallv_init` takes no `send_displs`.
//!
//! An owned buffer — `send_buf(vec)`, or a root's `send_recv_buf(vec)`
//! — moves into the plan: init copies 0 bytes, and the plan keeps the
//! vector as the payload of every cycle, so no handle comes back. The
//! payload is refreshed *between* cycles with
//! [`Persistent::set_data`]; the plan itself (peers, counts, algorithm)
//! never changes — create a new handle for a new shape.

use std::marker::PhantomData;

use kmp_mpi::{Comm, PersistentRequest, Plain, Request, Result};

use crate::collectives::nonblocking::packed::Packed;
use crate::collectives::{IallgatherArgs, IallreduceArgs, IalltoallvArgs, IbcastArgs};
use crate::communicator::Communicator;
use crate::p2p::{lowered, IrecvArgs, IsendArgs, Lifecycle};
use crate::params::argset::IntoArgs;

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
pub struct Persistent<'a, T> {
    req: PersistentRequest<'a>,
    /// `recv_count` in bytes: each cycle's message must be exactly this
    /// long.
    expected_bytes: Option<usize>,
    _elem: PhantomData<T>,
}

/// The persistent driver: the `*_init` plan, which keeps the payload
/// (a moved-in buffer included), so the handle goes.
struct Frozen;

impl<'c> Lifecycle<'c> for Frozen {
    type Out<T, H> = Persistent<'c, T>;

    fn drive<T, H, A>(
        comm: &'c Comm,
        (args, _hold, expected_bytes): (A, H, Option<usize>),
        _: impl FnOnce(&'c Comm, A) -> Result<Request<'c>>,
        plan: impl FnOnce(&'c Comm, A) -> Result<PersistentRequest<'c>>,
    ) -> Result<Persistent<'c, T>> {
        Ok(Persistent {
            req: plan(comm, args)?,
            expected_bytes,
            _elem: PhantomData,
        })
    }
}

impl<'a, T: Plain> Persistent<'a, T> {
    /// Starts one cycle (mirrors `MPI_Start`): O(messages posted), no
    /// per-call setup. Errors if the previous cycle is still active.
    pub fn start(&mut self) -> Result<()> {
        self.req.start()
    }

    /// Blocks until the started cycle completes and returns its data
    /// (empty for sends). The handle is inactive and restartable
    /// afterwards.
    pub fn wait(&mut self) -> Result<Vec<T>> {
        lowered(self.req.wait()?, self.expected_bytes, None)
    }

    /// Like [`wait`](Persistent::wait), additionally returning per-rank
    /// element counts for block-structured completions (allgather /
    /// alltoallv plans).
    pub fn wait_with_counts(&mut self) -> Result<(Vec<T>, Vec<usize>)> {
        let mut counts = Vec::new();
        let data = lowered(self.req.wait()?, self.expected_bytes, Some(&mut counts))?;
        Ok((data, counts))
    }

    /// Non-blocking completion check: `Ok(Some(data))` finishes the
    /// cycle, `Ok(None)` leaves it active.
    pub fn test(&mut self) -> Result<Option<Vec<T>>> {
        let done = self.req.test()?;
        done.map(|c| lowered(c, self.expected_bytes, None))
            .transpose()
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
    pub fn raw_mut(&mut self) -> &mut PersistentRequest<'a> {
        &mut self.req
    }
}

impl Communicator {
    /// Creates a persistent send (wraps `MPI_Send_init`).
    ///
    /// Parameters: those of [`isend`](Self::isend) — `send_buf` and
    /// `destination` (required), `tag` (default 0). Each
    /// [`Persistent::start`] posts the current payload;
    /// [`Persistent::set_data`] refreshes it between cycles.
    pub fn send_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IsendArgs<T>,
    {
        args.into_args().run::<Frozen>(self, false)
    }

    /// Creates a persistent receive (wraps `MPI_Recv_init`).
    ///
    /// Parameters: those of [`irecv`](Self::irecv), with `source`
    /// required and concrete (a wildcard cannot be frozen into a
    /// standing registration) and `tag` defaulting to 0; `recv_count`
    /// checks every cycle's message. The standing completion
    /// registration installed here serves every future cycle — the
    /// steady state re-registers nothing.
    pub fn recv_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IrecvArgs,
    {
        args.into_args().run::<T, Frozen>(self)
    }

    /// Creates a persistent broadcast (wraps `MPI_Bcast_init`).
    ///
    /// Parameters: those of [`ibcast`](Self::ibcast) — `send_recv_buf`
    /// holding an owned `Vec<T>` (content on the root, moved into the
    /// plan; empty elsewhere), `root` (default 0). The binomial tree,
    /// its internal tag, and the receivers' standing parent registration
    /// are frozen once; every rank's `wait()` returns the cycle's
    /// content.
    pub fn bcast_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IbcastArgs<T>,
    {
        args.into_args().run::<Frozen>(self)
    }

    /// Creates a persistent all-reduce (wraps `MPI_Allreduce_init`).
    ///
    /// Parameters: those of [`iallreduce`](Self::iallreduce) —
    /// `send_buf` and `op` (required). The reduction runs in strict rank
    /// order for a non-commutative operation; the algorithm — the row
    /// `tuning(..)` forces, or the one the blocking call would pick — is
    /// selected and its engine built once, at init.
    pub fn allreduce_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IallreduceArgs<T>,
    {
        args.into_args().run::<Frozen>(self)
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
        A::Out: IallgatherArgs<T>,
    {
        args.into_args().run::<Frozen>(self, true)
    }

    /// Creates a persistent allgather whose contributions may differ in
    /// length across ranks (wraps `MPI_Allgatherv_init`).
    /// `wait_with_counts()` also returns the per-rank counts.
    pub fn allgatherv_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IallgatherArgs<T>,
    {
        args.into_args().run::<Frozen>(self, false)
    }

    /// Creates a persistent personalized all-to-all (wraps
    /// `MPI_Alltoallv_init`). Parameters: `send_buf` and `send_counts`
    /// (required); unlike [`ialltoallv`](Self::ialltoallv), no
    /// `send_displs`. The counts are frozen; `set_data` must keep the
    /// packed total.
    pub fn alltoallv_init<T, A>(&self, args: A) -> Result<Persistent<'_, T>>
    where
        T: Plain,
        A: IntoArgs,
        A::Out: IalltoallvArgs<T> + Packed,
    {
        args.into_args().run::<Frozen>(self)
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

    /// `recv_count` holds in every cycle of a persistent receive, as it
    /// does for `irecv`: a 3-element message against `recv_count(2)` is
    /// `Truncated`, and the next cycle still runs.
    #[test]
    fn recv_init_checks_recv_count_every_cycle() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                for data in [vec![1u32, 2, 3], vec![4, 5]] {
                    comm.send((send_buf(&data), destination(1))).unwrap();
                }
            } else {
                let mut recv = comm
                    .recv_init::<u32, _>((source(0), recv_count(2)))
                    .unwrap();
                recv.start().unwrap();
                let truncated = crate::MpiError::Truncated {
                    message_bytes: 12,
                    buffer_bytes: 8,
                };
                assert_eq!(recv.wait(), Err(truncated));
                recv.start().unwrap();
                assert_eq!(recv.wait().unwrap(), vec![4, 5]);
            }
        });
    }

    /// `tuning(..)` reaches the plan: a Rabenseifner forced at
    /// `allreduce_init` is the row frozen into it (counted `frozen`,
    /// under the row it resolved to), where the static rule picks
    /// recursive doubling for 64 elements.
    #[test]
    fn allreduce_init_honours_tuning() {
        use crate::{AlgoClass, AllreduceAlgo, CollTuning};
        Universe::run(4, |comm| {
            let comm = Communicator::new(comm);
            let rabenseifner = AlgoClass::AllreduceRabenseifner.index();
            let forced = tuning(CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner));
            let before = comm.raw().tuning_stats();
            let mut sum = comm
                .allreduce_init((send_buf(vec![1u64; 64]), op(ops::Sum), forced))
                .unwrap();
            let after = comm.raw().tuning_stats();
            assert_eq!(after.frozen_picks - before.frozen_picks, 1);
            let picked = after.selections[rabenseifner] - before.selections[rabenseifner];
            assert_eq!(picked, 1, "the forced row is frozen");
            sum.start().unwrap();
            assert_eq!(sum.wait().unwrap(), vec![4; 64]);
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
    /// p = 4: every rank freezes the same recursive doubling, whose
    /// rounds carry the small blocks while the large ones go direct, and
    /// each cycle delivers every block with its own length.
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
