//! LogP-style virtual time.
//!
//! The paper's scaling experiments ran on up to 256 nodes of SuperMUC-NG.
//! This reproduction executes ranks as threads on a small host, so raw
//! wall-clock cannot exhibit 256-rank network behaviour. Instead, every
//! rank carries a virtual clock:
//!
//! - **Local compute** is charged either from measured *thread CPU time*
//!   (when the host kernel reports it at fine granularity) or explicitly
//!   via [`Clock::add_ns`] from single-threaded wall-clock calibrations
//!   (what the shipped harnesses do; many kernels tick thread CPU time
//!   at 10 ms).
//! - **Each message** advances the sender by `alpha` (startup/overhead) and
//!   arrives at the receiver at `departure + beta * bytes`; completing a
//!   receive advances the receiver to at least the arrival time plus a
//!   per-message receive overhead.
//!
//! The sender pays `alpha` per message in program order, so the *order*
//! in which a rank posts its sends is visible to the model: its `j`-th
//! message cannot leave before `(j + 1) * alpha`. That is why a tree
//! fan-out posts the send that roots the deepest subtree first (see
//! `bcast_children` in `collectives/bcast.rs`).
//!
//! The "total time" reported by the scaling harnesses is the maximum
//! virtual time over all ranks, which reproduces the mechanism behind the
//! paper's who-wins comparisons: dense exchanges pay `p` startups, the
//! grid all-to-all pays `O(sqrt(p))` startups for `2x` volume, and sparse
//! exchanges pay only for actual communication partners.

use crate::sys::thread_cpu_ns;

/// Parameters of the alpha-beta (latency/bandwidth) message cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message startup cost charged to the sender, in nanoseconds.
    pub alpha_ns: u64,
    /// Per-byte transfer cost, in nanoseconds.
    pub beta_ns_per_byte: f64,
    /// Per-message matching/completion overhead charged to the receiver.
    pub recv_overhead_ns: u64,
    /// Whether local compute is charged from measured thread CPU time.
    pub measure_cpu: bool,
}

impl CostModel {
    /// No network costs, no CPU measurement: virtual time stays zero unless
    /// advanced manually. The default for unit tests.
    pub const fn disabled() -> Self {
        CostModel {
            alpha_ns: 0,
            beta_ns_per_byte: 0.0,
            recv_overhead_ns: 0,
            measure_cpu: false,
        }
    }

    /// A cluster-like configuration loosely modelled on the paper's
    /// testbed (OmniPath, 100 Gbit/s): ~1.5 us startup, ~0.1 ns/byte.
    ///
    /// CPU measurement stays off: kernels often report thread CPU time
    /// at scheduler-tick granularity (10 ms), far too coarse for
    /// microsecond-scale accounting. The benchmark harnesses instead
    /// charge compute explicitly from single-threaded wall-clock
    /// calibrations (see `kmp-bench`).
    pub const fn cluster() -> Self {
        CostModel {
            alpha_ns: 1_500,
            beta_ns_per_byte: 0.1,
            recv_overhead_ns: 300,
            measure_cpu: false,
        }
    }

    /// Transfer time for a message of `bytes` bytes (excluding startup).
    #[inline]
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        (self.beta_ns_per_byte * bytes as f64) as u64
    }

    /// True if any component of the model is active.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.alpha_ns != 0
            || self.beta_ns_per_byte != 0.0
            || self.recv_overhead_ns != 0
            || self.measure_cpu
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::disabled()
    }
}

/// Per-rank virtual clock. Owned by the rank's [`Comm`](crate::Comm)
/// handle; never shared across threads.
#[derive(Debug)]
pub struct Clock {
    model: CostModel,
    vtime_ns: u64,
    last_cpu_ns: u64,
}

impl Clock {
    pub fn new(model: CostModel) -> Self {
        let last_cpu_ns = if model.measure_cpu {
            thread_cpu_ns()
        } else {
            0
        };
        Clock {
            model,
            vtime_ns: 0,
            last_cpu_ns,
        }
    }

    /// The cost model this clock runs under.
    #[inline]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.vtime_ns
    }

    /// Charges local compute since the last call using thread CPU time.
    /// Called on entry to every substrate operation.
    #[inline]
    pub fn absorb_cpu(&mut self) {
        if self.model.measure_cpu {
            let now = thread_cpu_ns();
            self.vtime_ns += now.saturating_sub(self.last_cpu_ns);
            self.last_cpu_ns = now;
        }
    }

    /// Manually advances virtual time (e.g. to model compute that is not
    /// executed for real in a scaled-down benchmark).
    #[inline]
    pub fn add_ns(&mut self, ns: u64) {
        self.vtime_ns += ns;
    }

    /// Charges a message send; returns the arrival timestamp to stamp the
    /// message with.
    #[inline]
    pub fn on_send(&mut self, bytes: usize) -> u64 {
        self.vtime_ns += self.model.alpha_ns;
        self.vtime_ns + self.model.transfer_ns(bytes)
    }

    /// Charges the completion of a receive of a message that arrived (in
    /// virtual time) at `arrival_ns`.
    #[inline]
    pub fn on_recv_complete(&mut self, arrival_ns: u64) {
        if arrival_ns > self.vtime_ns {
            self.vtime_ns = arrival_ns;
        }
        self.vtime_ns += self.model.recv_overhead_ns;
    }

    /// Resets virtual time to zero (used between benchmark repetitions).
    /// CPU accounting restarts from the current thread CPU time.
    pub fn reset(&mut self) {
        self.vtime_ns = 0;
        if self.model.measure_cpu {
            self.last_cpu_ns = thread_cpu_ns();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_stays_zero() {
        let mut c = Clock::new(CostModel::disabled());
        c.absorb_cpu();
        let arrival = c.on_send(1024);
        assert_eq!(arrival, 0);
        c.on_recv_complete(arrival);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn send_charges_alpha_and_beta() {
        let model = CostModel {
            alpha_ns: 100,
            beta_ns_per_byte: 2.0,
            recv_overhead_ns: 10,
            measure_cpu: false,
        };
        let mut c = Clock::new(model);
        let arrival = c.on_send(50);
        assert_eq!(c.now_ns(), 100); // sender pays alpha
        assert_eq!(arrival, 100 + 100); // + beta * 50
    }

    #[test]
    fn recv_advances_to_arrival() {
        let model = CostModel {
            alpha_ns: 0,
            beta_ns_per_byte: 0.0,
            recv_overhead_ns: 7,
            measure_cpu: false,
        };
        let mut c = Clock::new(model);
        c.on_recv_complete(1000);
        assert_eq!(c.now_ns(), 1007);
        // A message that arrived in the past only costs the overhead.
        c.on_recv_complete(500);
        assert_eq!(c.now_ns(), 1014);
    }

    #[test]
    fn manual_advance_and_reset() {
        let mut c = Clock::new(CostModel::disabled());
        c.add_ns(42);
        assert_eq!(c.now_ns(), 42);
        c.reset();
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn cpu_measurement_advances() {
        // Thread-CPU clocks may tick as coarsely as 10 ms; burn CPU in
        // rounds until the measuring clock advances.
        let model = CostModel {
            measure_cpu: true,
            ..CostModel::disabled()
        };
        let mut c = Clock::new(model);
        let mut x = 1u64;
        for round in 0..2_000u64 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i ^ round);
            }
            std::hint::black_box(x);
            c.absorb_cpu();
            if c.now_ns() > 0 {
                break;
            }
        }
        assert!(c.now_ns() > 0, "CPU-measuring clock did not advance");
    }
}
