//! Dissemination barrier.

use bytes::Bytes;

use super::nonblocking::{drive, RoundEngine, Rounds};
use super::send_internal;
use crate::comm::Comm;
use crate::error::Result;
use crate::request::{Completion, Request};
use crate::{Rank, Tag};

/// The dissemination barrier as the round description the shared driver
/// runs ([`Rounds`]): round `k` signals `rank + 2^k` and hears from
/// `rank - 2^k`; after `ceil(log2 p)` rounds every rank has
/// (transitively) heard from every other. `barrier` drives it to
/// completion on the stack, `ibarrier` resumes it on `test`/`wait`.
struct Dissemination {
    tag: Tag,
    rounds: usize,
}

impl Dissemination {
    fn engine(comm: &Comm) -> RoundEngine<Self> {
        RoundEngine::new(Dissemination {
            tag: comm.next_internal_tag(),
            rounds: comm.size().next_power_of_two().trailing_zeros() as usize,
        })
    }
}

impl Rounds for Dissemination {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn peer(&self, comm: &Comm, k: usize) -> (Rank, Tag) {
        let p = comm.size();
        ((comm.rank() + p - (1usize << k)) % p, self.tag)
    }

    fn post(&mut self, comm: &Comm, k: usize) -> Result<()> {
        let to = (comm.rank() + (1usize << k)) % comm.size();
        send_internal(comm, to, self.tag, Bytes::new())
    }

    fn absorb(&mut self, _comm: &Comm, _k: usize, _signal: Bytes) -> Result<()> {
        Ok(())
    }

    fn finish(&mut self, _comm: &Comm) -> Result<Completion> {
        Ok(Completion::Done)
    }
}

pub(crate) fn barrier_internal(comm: &Comm) -> Result<()> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let _sp = crate::trace::span(
        crate::trace::cat::COLL,
        "barrier/dissemination",
        0,
        p as u64,
    );
    drive(comm, &mut Dissemination::engine(comm), Bytes::new()).map(drop)
}

impl Comm {
    /// Blocks until all ranks of the communicator have entered the barrier
    /// (mirrors `MPI_Barrier`). Dissemination algorithm:
    /// `ceil(log2 p)` rounds, one message sent and received per round.
    pub fn barrier(&self) -> Result<()> {
        self.count_op("barrier");
        barrier_internal(self)
    }

    /// Starts a non-blocking barrier (mirrors `MPI_Ibarrier`): the same
    /// dissemination rounds, the first signal posted before the call
    /// returns and the rest driven by test/wait.
    pub fn ibarrier(&self) -> Result<Request<'_>> {
        self.count_op("ibarrier");
        self.icoll(Box::new(Dissemination::engine(self)), Bytes::new())
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn barrier_synchronizes() {
        // No rank may pass the barrier until all have arrived.
        let before = AtomicUsize::new(0);
        Universe::run(8, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn barrier_single_rank() {
        Universe::run(1, |comm| comm.barrier().unwrap());
    }

    #[test]
    fn repeated_barriers() {
        Universe::run(5, |comm| {
            for _ in 0..20 {
                comm.barrier().unwrap();
            }
        });
    }

    #[test]
    fn barrier_counts_one_op() {
        Universe::run(3, |comm| {
            let before = comm.call_counts();
            comm.barrier().unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("barrier"), 1);
            assert_eq!(delta.total(), 1);
        });
    }

    #[test]
    fn barrier_non_power_of_two() {
        let before = AtomicUsize::new(0);
        Universe::run(7, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), 7);
        });
    }
}
