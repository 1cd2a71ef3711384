//! Clock reads that need the operating system or the CPU directly.
//!
//! The calling thread's CPU time stays meaningful even when ranks
//! (threads) heavily oversubscribe the host cores, so the park-path
//! tests and the `floors` run measure spinning with it. On Linux this
//! reads `CLOCK_THREAD_CPUTIME_ID` directly; other platforms fall back
//! to a monotonic wall clock. On x86_64, `rdtsc` is the trace rings'
//! raw timestamp.

#[cfg(target_os = "linux")]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    unsafe extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    /// Nanoseconds of CPU time consumed by the calling thread.
    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid out-pointer; the clock id is a Linux constant.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        (ts.tv_sec as u64).saturating_mul(1_000_000_000) + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    static START: OnceLock<Instant> = OnceLock::new();

    /// Fallback: monotonic wall time (coarser than thread CPU time).
    pub fn thread_cpu_ns() -> u64 {
        let start = *START.get_or_init(Instant::now);
        start.elapsed().as_nanos() as u64
    }
}

pub use imp::thread_cpu_ns;

/// The CPU's time-stamp counter: a few ns per read, invariant and
/// core-synchronized on every CPU this substrate targets.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn rdtsc() -> u64 {
    // SAFETY: `rdtsc` is baseline x86_64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_advances_under_load() {
        let a = thread_cpu_ns();
        // Burn CPU until the clock advances (bounded by the iteration cap).
        let mut x = 0u64;
        let mut b = a;
        for round in 0..1_000u64 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i ^ round);
            }
            std::hint::black_box(x);
            b = thread_cpu_ns();
            if b > a {
                break;
            }
        }
        assert!(b >= a);
        assert!(b > a, "thread CPU clock did not advance");
    }

    #[test]
    fn per_thread_isolation() {
        // A sleeping thread must accumulate (almost) no CPU time.
        let handle = std::thread::spawn(|| {
            let a = thread_cpu_ns();
            std::thread::sleep(std::time::Duration::from_millis(30));
            thread_cpu_ns() - a
        });
        let slept = handle.join().unwrap();
        // Generous bound: sleeping 30ms should cost far less than 20ms CPU.
        #[cfg(target_os = "linux")]
        assert!(
            slept < 20_000_000,
            "sleeping thread consumed {slept} ns CPU"
        );
        #[cfg(not(target_os = "linux"))]
        let _ = slept;
    }
}
