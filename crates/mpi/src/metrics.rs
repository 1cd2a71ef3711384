//! Copy accounting: per-rank counters proving the zero-overhead claim.
//!
//! The paper's headline is *(near) zero overhead* — the binding layer
//! must not add copies the transport doesn't need. These counters make
//! that claim testable: every payload memcpy and payload allocation in
//! the substrate is routed through the crate-internal `record_copy` /
//! `record_alloc` (see the helpers in [`crate::plain`]), and tests assert copy *bounds*
//! — e.g. a non-root bcast rank copies O(N) bytes for an N-byte payload
//! regardless of how many children it forwards to, because forwarding
//! clones a refcount, not the payload.
//!
//! Counters are thread-local. The universe runs one OS thread per rank,
//! so a thread's counters are that rank's counters; snapshot/diff them
//! inside the rank closure exactly like [`crate::counter::CallCounts`].

use std::cell::Cell;

/// Per-rank payload copy/allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Total payload bytes memcpy'd on this rank (serialization into the
    /// transport, delivery into receive buffers, fallback copies).
    pub bytes_copied: u64,
    /// Number of payload buffer allocations on this rank.
    pub allocations: u64,
}

impl CopyStats {
    /// Difference `self - earlier` (saturating), for isolating a region.
    pub fn since(&self, earlier: &CopyStats) -> CopyStats {
        CopyStats {
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            allocations: self.allocations.saturating_sub(earlier.allocations),
        }
    }
}

thread_local! {
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
pub(crate) fn record_copy(bytes: usize) {
    BYTES_COPIED.with(|c| c.set(c.get() + bytes as u64));
}

#[inline]
pub(crate) fn record_alloc() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

/// This rank's (thread's) counters.
pub fn snapshot() -> CopyStats {
    CopyStats {
        bytes_copied: BYTES_COPIED.with(|c| c.get()),
        allocations: ALLOCATIONS.with(|c| c.get()),
    }
}

/// Resets this rank's (thread's) counters to zero.
pub fn reset() {
    BYTES_COPIED.with(|c| c.set(0));
    ALLOCATIONS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_is_saturating_diff() {
        let a = CopyStats {
            bytes_copied: 10,
            allocations: 2,
        };
        let b = CopyStats {
            bytes_copied: 25,
            allocations: 3,
        };
        assert_eq!(
            b.since(&a),
            CopyStats {
                bytes_copied: 15,
                allocations: 1
            }
        );
        assert_eq!(a.since(&b), CopyStats::default());
    }

    #[test]
    fn records_are_thread_local() {
        // Run in a fresh thread so parallel tests on this thread cannot
        // perturb the counts.
        std::thread::spawn(|| {
            reset();
            let before = snapshot();
            record_copy(100);
            record_copy(28);
            record_alloc();
            let delta = snapshot().since(&before);
            assert_eq!(delta.bytes_copied, 128);
            assert_eq!(delta.allocations, 1);
        })
        .join()
        .unwrap();
    }
}
