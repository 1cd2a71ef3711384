//! Runtime assertion levels (§III-G of the paper).
//!
//! "KaMPIng also includes many runtime assertions verifying MPI
//! invariants, that are grouped in different levels, ranging from
//! lightweight checks to assertions involving additional communication.
//! The assertions can be completely disabled level-by-level."
//!
//! Levels:
//! - [`AssertionLevel::None`] — no checks beyond memory safety;
//! - [`AssertionLevel::Light`] (default) — local invariant checks
//!   (layout validation, size consistency) with no extra communication;
//! - [`AssertionLevel::Heavy`] — additionally verifies *cross-rank*
//!   invariants by communicating: all ranks of a rooted collective named
//!   the same root, every rank of a counted `allgatherv` passed the same
//!   receive counts, and the send-count matrix of an `alltoallv` is
//!   consistent with what receivers expect.
//!
//! The level is a process-global setting (like KaMPIng's compile-time
//! assertion configuration, but switchable in tests):
//!
//! ```
//! use kamping::assertions::{set_assertion_level, AssertionLevel};
//! set_assertion_level(AssertionLevel::Light);
//! ```

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};

use kmp_mpi::{MpiError, Result};

use crate::communicator::Communicator;

/// How much invariant checking the library performs at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AssertionLevel {
    /// No checks.
    None = 0,
    /// Local checks only (the default).
    Light = 1,
    /// Local checks plus cross-rank checks that communicate.
    Heavy = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(AssertionLevel::Light as u8);

/// Sets the process-global assertion level.
pub fn set_assertion_level(level: AssertionLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current assertion level.
pub fn assertion_level() -> AssertionLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => AssertionLevel::None,
        1 => AssertionLevel::Light,
        _ => AssertionLevel::Heavy,
    }
}

/// True if checks of `level` are enabled.
pub fn assertions_enabled(level: AssertionLevel) -> bool {
    assertion_level() >= level
}

/// The level is process-global; tests that flip it (or that assert on
/// communication volumes the level changes) serialize on this lock.
#[cfg(test)]
pub(crate) static LEVEL_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Heavy (communicating) check: every rank of a rooted collective must
/// have named the same root. Costs one `allreduce` pair when enabled.
pub(crate) fn check_same_root(comm: &Communicator, root: usize) -> Result<()> {
    if !assertions_enabled(AssertionLevel::Heavy) {
        return Ok(());
    }
    let (lo, hi) = extremes(comm, root as u64)?;
    if lo != hi {
        return Err(MpiError::InvalidLayout(format!(
            "heavy assertion failed: ranks disagree on the collective's root \
             (saw roots {lo} and {hi})"
        )));
    }
    Ok(())
}

/// Heavy (communicating) check: every rank of a counted `allgatherv`
/// must have passed the same `recv_counts`. Their total selects the
/// exchange's row, so counts whose totals straddle a row ceiling would
/// run different schedules on different ranks and hang. Costs one
/// `allreduce` pair over a 64-bit hash of the counts when enabled.
pub(crate) fn check_same_counts(comm: &Communicator, counts: &[usize]) -> Result<()> {
    if !assertions_enabled(AssertionLevel::Heavy) {
        return Ok(());
    }
    let mut hasher = std::hash::DefaultHasher::new();
    counts.hash(&mut hasher);
    let (lo, hi) = extremes(comm, hasher.finish())?;
    if lo != hi {
        return Err(MpiError::InvalidLayout(
            "heavy assertion failed: ranks disagree on allgatherv's recv_counts".into(),
        ));
    }
    Ok(())
}

/// The least and the greatest `value` over all ranks: one Min/Max
/// `allreduce` pair, so every rank reaches the same verdict.
fn extremes(comm: &Communicator, value: u64) -> Result<(u64, u64)> {
    let lo = comm.raw().allreduce_one(value, kmp_mpi::op::Min)?;
    let hi = comm.raw().allreduce_one(value, kmp_mpi::op::Max)?;
    Ok((lo, hi))
}

/// Heavy (communicating) check: the transposed send counts of an
/// `alltoallv` must match what each receiver was told to expect. Costs
/// one `alltoall` when enabled.
pub(crate) fn check_count_matrix(
    comm: &Communicator,
    send_counts: &[usize],
    recv_counts: &[usize],
) -> Result<()> {
    if !assertions_enabled(AssertionLevel::Heavy) {
        return Ok(());
    }
    let mut transposed = vec![0usize; comm.size()];
    comm.raw().alltoall_into(send_counts, &mut transposed)?;
    if transposed != recv_counts {
        return Err(MpiError::InvalidLayout(format!(
            "heavy assertion failed: inconsistent alltoallv counts on rank {}: \
             senders will deliver {transposed:?} but recv_counts say {recv_counts:?}",
            comm.rank()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::LEVEL_GUARD as GUARD;
    use super::*;
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn level_roundtrip() {
        let _g = GUARD.lock().unwrap();
        let prev = assertion_level();
        set_assertion_level(AssertionLevel::None);
        assert_eq!(assertion_level(), AssertionLevel::None);
        assert!(!assertions_enabled(AssertionLevel::Light));
        set_assertion_level(AssertionLevel::Heavy);
        assert!(assertions_enabled(AssertionLevel::Light));
        assert!(assertions_enabled(AssertionLevel::Heavy));
        set_assertion_level(prev);
    }

    #[test]
    fn heavy_detects_root_mismatch() {
        let _g = GUARD.lock().unwrap();
        let prev = assertion_level();
        set_assertion_level(AssertionLevel::Heavy);
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            // Ranks disagree on the root: rank 0 says 0, others say 1.
            let root_choice = usize::from(comm.rank() != 0);
            let r = super::check_same_root(&comm, root_choice);
            assert!(r.is_err(), "root mismatch must be detected");
        });
        set_assertion_level(prev);
    }

    #[test]
    fn heavy_detects_count_matrix_mismatch() {
        let _g = GUARD.lock().unwrap();
        let prev = assertion_level();
        set_assertion_level(AssertionLevel::Heavy);
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let send = vec![1usize, 1];
            // Receivers claim to expect 2 from everyone — inconsistent.
            let recv = vec![2usize, 2];
            let r = super::check_count_matrix(&comm, &send, &recv);
            assert!(r.is_err());
        });
        set_assertion_level(prev);
    }

    #[test]
    fn heavy_passes_on_consistent_input_and_costs_communication() {
        let _g = GUARD.lock().unwrap();
        let prev = assertion_level();
        set_assertion_level(AssertionLevel::Heavy);
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let before = comm.call_counts();
            super::check_same_root(&comm, 0).unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.get("allreduce"), 2, "heavy check communicates");
        });
        set_assertion_level(AssertionLevel::Light);
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let before = comm.call_counts();
            super::check_same_root(&comm, 0).unwrap();
            let delta = comm.call_counts().since(&before);
            assert_eq!(delta.total(), 0, "light level must not communicate");
        });
        set_assertion_level(prev);
    }

    #[test]
    fn bcast_with_heavy_assertions_catches_misuse() {
        let _g = GUARD.lock().unwrap();
        let prev = assertion_level();
        set_assertion_level(AssertionLevel::Heavy);
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            // Correct usage passes.
            let mut ok = if comm.rank() == 0 { vec![1u8] } else { vec![] };
            comm.bcast((send_recv_buf(&mut ok),)).unwrap();
            // Disagreeing roots error instead of hanging/corrupting.
            let my_root = comm.rank(); // every rank names itself
            let mut bad = vec![0u8];
            let r = comm.bcast((send_recv_buf(&mut bad), root(my_root)));
            assert!(r.is_err(), "heavy assertions must reject diverging roots");
        });
        set_assertion_level(prev);
    }
}
