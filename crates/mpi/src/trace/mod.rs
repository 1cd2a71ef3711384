//! Zero-overhead tracing: per-rank event rings, latency histograms,
//! and Chrome/Perfetto trace export.
//!
//! The paper's discipline applies to the observability layer itself:
//! instrumentation must be **strictly zero-cost when compiled out** and
//! *provably near zero-overhead when enabled* (the `trace_experiment`
//! bench pins the enabled-vs-disabled delta under 2% on the matching
//! and completion workloads). The design choices below all serve that
//! budget.
//!
//! # Architecture
//!
//! - **Per-rank, lock-free by construction.** The universe runs one OS
//!   thread per rank, so every recording structure is `thread_local!`:
//!   a bounded event ring plus per-category latency histograms. No
//!   atomics, no locks, no sharing on the record path — the only
//!   synchronization is a single relaxed load of the global
//!   enable flag. When a rank thread exits, [`Universe`] (see
//!   `universe.rs`) moves the thread's data into its snapshot slot in
//!   the [`WorldState`](crate::universe::WorldState), beside the
//!   [`crate::metrics`] copy counters.
//! - **Bounded ring, overwrite-oldest.** The ring holds a fixed number
//!   of [`Event`]s (default 65 536/rank ≈ 3 MiB; see
//!   [`set_ring_capacity`]). When full, the *oldest* event is
//!   overwritten and a `dropped` counter is bumped: a trace always
//!   shows the most recent window of activity, recording never blocks,
//!   never allocates past the ring, and a runaway workload degrades to
//!   a sliding window instead of OOM. Histograms and counters keep
//!   aggregating across the whole run — only the event *timeline* is
//!   windowed.
//! - **One event per span, recorded at drop.** A [`SpanGuard`] stamps
//!   the start on construction and writes a single complete event
//!   (start + duration) when dropped, halving ring traffic versus
//!   begin/end pairs and making the Chrome exporter's `"ph":"X"`
//!   events trivial. Ring order is therefore span *end* order; the
//!   validator sorts by start time before checking nesting.
//! - **Cheap timestamps.** On x86_64 events are stamped with `rdtsc`
//!   (a few ns; invariant and core-synchronized on every CPU this
//!   substrate targets) and converted to wall nanoseconds once, at
//!   collection time, against an `Instant`-based calibration taken
//!   over the whole run. Other architectures fall back to
//!   `Instant::now()` directly. Conversion is monotone, so event
//!   ordering and span nesting survive it.
//!
//! # The zero-overhead argument
//!
//! With the `trace` feature **off**, [`span`]/[`instant`] are empty
//! `#[inline]` functions, [`SpanGuard`] is a zero-sized type with no
//! `Drop` impl (compile-time asserted), and no thread-local state
//! exists: call sites compile to nothing. With the feature **on** but
//! tracing [`set_enabled`]`(false)`, every entry point bails after one
//! relaxed atomic load. Enabled, a span costs two timestamps, one ring
//! write and one histogram add (~25 ns); an instant costs one of each.
//! The `trace_experiment` bench measures the end-to-end effect and
//! `BENCH_trace.json` pins it below 2%.
//!
//! # What is recorded
//!
//! | category | events |
//! |---|---|
//! | `p2p` | `send` spans ([`Comm::deliver_bytes`]-level, so collective rounds nest inside their collective span), blocking `recv`/`probe` spans, `recv_nb` instants |
//! | `coll` | one span per collective, named `op/algorithm-actually-selected` (e.g. `allreduce/rabenseifner`) from [`CollTuning`](crate::CollTuning) |
//! | `match` | `umq_enqueue` (unexpected message indexed; carries the per-shard arrival seq + queue depth), `umq_match` (unexpected-queue hit), `targeted_wakeup` (envelope handed straight to a posted receiver) |
//! | `completion` | `park_any`/`park_session`/`park_sync_send` spans, `claim` / `missed_completion` / `spurious_wakeup` instants |
//! | `ulfm` | `epoch_bump` (mailbox interrupt, the one interrupt of every park), `ulfm/detect` (failure mark), `ulfm/agree` / `ulfm/shrink` spans, and — with the `fault` feature — `fault/crash` / `fault/drop` / `fault/delay` / `fault/dup` injection instants, so a chaos run's timeline shows the crash and every survivor's wakeup |
//! | `user` | spans opened through the binding layer (`kamping::trace_span`) |
//! | `async_op` | Chrome async `"b"`/`"e"` pairs spanning each non-blocking request's initiate→complete lifetime (`isend`, `issend`, `irecv`, and `icoll` for every engine-backed request, `ibarrier` included) |
//! | `persist` | async `"b"`/`"e"` pairs spanning each persistent `start`→completion cycle |
//!
//! Matching events are stamped with the shard's arrival sequence
//! number in their `a` argument — the same seq on the sender's
//! `umq_enqueue` and the receiver's `umq_match` — so cross-rank
//! causality can be reconstructed from per-rank rings.
//!
//! # Using it
//!
//! ```no_run
//! use kmp_mpi::{Config, Universe};
//!
//! let (out, report) = Universe::run_report(Config::new(8), |comm| comm.barrier());
//! println!("{}", report.trace.report()); // text profile
//! std::fs::write("trace.json", report.trace.to_chrome_json())?; // open in ui.perfetto.dev
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`Universe`]: crate::Universe
//! [`Comm::deliver_bytes`]: crate::Comm

mod hist;

pub mod export;

pub use hist::{LatencyHist, HIST_BUCKETS};

/// True if the `trace` feature was compiled in.
pub const COMPILED: bool = cfg!(feature = "trace");

/// Event categories. The first [`cat::N_SPAN`] are span categories and
/// own a latency histogram in [`TraceStats`]; the rest only appear as
/// instants in the ring.
pub mod cat {
    /// Envelope-level sends (covers p2p *and* collective rounds).
    pub const SEND: u8 = 0;
    /// Blocking receives and probes.
    pub const RECV: u8 = 1;
    /// Collectives, labelled with the selected algorithm.
    pub const COLL: u8 = 2;
    /// Request waits (`wait`, `wait_any`, `wait_some`, `wait_all`).
    pub const WAIT: u8 = 3;
    /// Completion-subsystem parks.
    pub const PARK: u8 = 4;
    /// User spans from the binding layer.
    pub const USER: u8 = 5;
    /// Matching-engine instants.
    pub const MATCH: u8 = 6;
    /// Completion claim/missed/spurious instants.
    pub const COMPLETION: u8 = 7;
    /// Interruption-epoch bumps.
    pub const ULFM: u8 = 8;
    /// Non-blocking request lifetimes (async initiate→complete pairs).
    pub const ASYNC: u8 = 9;
    /// Persistent-operation cycles (async start→complete pairs).
    pub const PERSIST: u8 = 10;

    /// Number of span categories (each has a histogram).
    pub const N_SPAN: usize = 6;
    /// Total number of categories.
    pub const N: usize = 11;

    /// Human-readable category name (also the Chrome `cat` field).
    pub fn name(c: u8) -> &'static str {
        match c {
            SEND => "p2p_send",
            RECV => "p2p_recv",
            COLL => "coll",
            WAIT => "wait",
            PARK => "park",
            USER => "user",
            MATCH => "match",
            COMPLETION => "completion",
            ULFM => "ulfm",
            ASYNC => "async_op",
            PERSIST => "persist",
            _ => "unknown",
        }
    }
}

/// Chrome event phases an [`Event`] can carry. Classic events render as
/// `"ph":"X"` (spans) / `"ph":"i"` (instants); async pairs render as
/// `"ph":"b"` / `"ph":"e"` with a correlation `id`, which is how a
/// non-blocking or persistent operation's *lifetime* — initiation in
/// one stack frame, completion in another, with arbitrary work in
/// between — appears as one span on Perfetto's async tracks.
pub mod ph {
    /// A synchronous span or instant (duration known at record time).
    pub const CLASSIC: u8 = 0;
    /// Async begin (`"ph":"b"`): the operation was initiated.
    pub const ASYNC_BEGIN: u8 = 1;
    /// Async end (`"ph":"e"`): the matching completion was observed.
    pub const ASYNC_END: u8 = 2;
}

/// One recorded event. Timestamps are wall nanoseconds relative to the
/// process's trace epoch (first trace activity); `dur_ns == 0` marks
/// an instant event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Start time, ns since the trace epoch.
    pub ts_ns: u64,
    /// Span duration in ns; 0 for instant events.
    pub dur_ns: u64,
    /// Category (see [`cat`]).
    pub cat: u8,
    /// Static event name (e.g. `"send"`, `"allreduce/rabenseifner"`).
    pub name: &'static str,
    /// First argument: peer rank, arrival seq, slot id, ... (per event).
    pub a: u64,
    /// Second argument: payload bytes, queue depth, ... (per event).
    pub b: u64,
    /// Chrome phase (see [`ph`]); [`ph::CLASSIC`] for spans/instants.
    pub ph: u8,
    /// Async correlation id pairing a [`ph::ASYNC_BEGIN`] with its
    /// [`ph::ASYNC_END`] within `(rank, cat)`; 0 for classic events.
    pub id: u64,
}

/// Aggregated per-rank trace statistics. Always present (zeroed when
/// the `trace` feature is off) so a [`RunReport`](crate::RunReport) has
/// one shape in every build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events recorded (including any overwritten in the ring).
    pub events: u64,
    /// Events overwritten after the ring filled (oldest-first).
    pub dropped: u64,
    /// Span-duration histograms (ns), indexed by span category
    /// ([`cat::SEND`] .. [`cat::USER`]).
    pub spans: [LatencyHist; cat::N_SPAN],
    /// Unexpected-queue depth observed at each enqueue this rank
    /// performed (a depth gauge over the *destination* queue).
    pub queue_depth: LatencyHist,
}

impl TraceStats {
    /// Folds `other` into `self` (for cross-rank aggregation).
    pub fn merge(&mut self, other: &TraceStats) {
        self.events += other.events;
        self.dropped += other.dropped;
        for (s, o) in self.spans.iter_mut().zip(&other.spans) {
            s.merge(o);
        }
        self.queue_depth.merge(&other.queue_depth);
    }
}

/// One rank's collected trace: the (possibly windowed) event timeline
/// plus whole-run aggregates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankTrace {
    /// Events in the ring at collection time, oldest first.
    pub events: Vec<Event>,
    /// Whole-run aggregates (never windowed).
    pub stats: TraceStats,
}

/// All ranks' traces from one run (see
/// [`RunReport::trace`](crate::RunReport::trace)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceData {
    /// Per-rank traces, in rank order.
    pub ranks: Vec<RankTrace>,
}

impl TraceData {
    /// Renders the run as Chrome trace-event JSON (one `pid` per
    /// rank); load the result in `ui.perfetto.dev` or
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        export::chrome_trace_json(&self.ranks)
    }

    /// Text profile: per-rank event counts plus per-category latency
    /// quantiles and the unexpected-queue depth gauge. Degrades to a
    /// pointer at the `trace` feature when compiled out.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        if !COMPILED {
            s.push_str("trace: feature disabled — rebuild with `--features trace` for a profile\n");
        }
        for (rank, rt) in self.ranks.iter().enumerate() {
            let st = &rt.stats;
            let _ = writeln!(
                s,
                "rank {rank}: {} events ({} in ring, {} dropped)",
                st.events,
                rt.events.len(),
                st.dropped
            );
            for (c, h) in st.spans.iter().enumerate() {
                if h.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    s,
                    "  {:<10} n={:<8} mean={:<9} p50={:<9} p99={:<9} max={}",
                    cat::name(c as u8),
                    h.count,
                    fmt_ns(h.mean()),
                    fmt_ns(h.value_at_quantile(0.5)),
                    fmt_ns(h.value_at_quantile(0.99)),
                    fmt_ns(h.max_estimate()),
                );
            }
            if !st.queue_depth.is_empty() {
                let _ = writeln!(
                    s,
                    "  {:<10} n={:<8} mean={:<9} p50={:<9} p99={:<9} max={}",
                    "umq_depth",
                    st.queue_depth.count,
                    st.queue_depth.mean(),
                    st.queue_depth.value_at_quantile(0.5),
                    st.queue_depth.value_at_quantile(0.99),
                    st.queue_depth.max_estimate(),
                );
            }
        }
        s
    }
}

/// One rank's live-snapshot mailbox (see
/// [`Universe::trace_snapshot`](crate::Universe::trace_snapshot)). The
/// rings are `thread_local!`, so a running rank's trace can only be
/// read by the rank itself: a snapshot request bumps a global
/// generation, and each rank *publishes* a copy of its ring here the
/// next time it records an event (or wakes from a park). The cost on
/// the record path is one relaxed load and compare — the zero-overhead
/// budget is preserved.
#[derive(Default)]
pub(crate) struct SnapshotSlot {
    /// Latest snapshot generation this rank has published
    /// (`u64::MAX` once the rank thread has exited and its final
    /// trace is in place).
    pub(crate) gen: std::sync::atomic::AtomicU64,
    /// The published trace (a clone of the live ring at publish time).
    pub(crate) data: parking_lot::Mutex<RankTrace>,
}

/// Formats a nanosecond duration for the text profile.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(feature = "trace")]
mod imp {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    use super::{cat, Event, LatencyHist, RankTrace, SnapshotSlot, TraceStats};

    static ENABLED: AtomicBool = AtomicBool::new(true);
    static RING_CAP: AtomicUsize = AtomicUsize::new(1 << 16);
    /// Live-snapshot generation: bumped by [`request_snapshot`]; each
    /// recording thread publishes its ring when it notices the bump.
    static SNAP_GEN: AtomicU64 = AtomicU64::new(0);

    /// Raw-timestamp calibration: one `(Instant, raw)` pair taken at
    /// first use; the raw→ns scale is fixed at first conversion, over
    /// the longest window available.
    struct Calib {
        t0: Instant,
        raw0: u64,
    }
    static CALIB: OnceLock<Calib> = OnceLock::new();
    /// `f64::to_bits` of ns-per-raw-tick, fixed at first collection so
    /// all ranks convert consistently.
    static SCALE: OnceLock<u64> = OnceLock::new();

    fn calib() -> &'static Calib {
        CALIB.get_or_init(|| Calib {
            t0: Instant::now(),
            raw0: raw_clock(),
        })
    }

    /// The raw tick source: `rdtsc` on x86_64 (invariant and
    /// core-synchronized on targeted CPUs), monotonic `Instant`
    /// elsewhere.
    #[inline]
    fn raw_clock() -> u64 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `rdtsc` is baseline x86_64.
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CALIB
                .get()
                .map(|c| c.t0.elapsed().as_nanos() as u64)
                .unwrap_or(0)
        }
    }

    #[inline]
    fn raw_now() -> u64 {
        let c = calib();
        raw_clock().wrapping_sub(c.raw0)
    }

    /// ns per raw tick, calibrated once over the elapsed run.
    fn ns_per_raw() -> f64 {
        let bits = *SCALE.get_or_init(|| {
            let c = calib();
            let dr = raw_clock().wrapping_sub(c.raw0);
            let dt = c.t0.elapsed().as_nanos() as u64;
            let scale = if dr == 0 { 1.0 } else { dt as f64 / dr as f64 };
            scale.to_bits()
        });
        f64::from_bits(bits)
    }

    struct ThreadTrace {
        buf: Vec<Event>,
        /// Oldest entry once the ring has wrapped (0 before).
        head: usize,
        cap: usize,
        dropped: u64,
        events: u64,
        /// Span durations in raw ticks (converted at collection).
        spans: [LatencyHist; cat::N_SPAN],
        queue_depth: LatencyHist,
        /// Last snapshot generation this thread has published.
        seen_gen: u64,
        /// Where to publish live snapshots (set by the universe for
        /// rank threads; `None` for plain threads).
        slot: Option<Arc<SnapshotSlot>>,
    }

    impl ThreadTrace {
        fn new() -> Self {
            ThreadTrace {
                buf: Vec::new(),
                head: 0,
                cap: RING_CAP.load(Ordering::Relaxed),
                dropped: 0,
                events: 0,
                spans: Default::default(),
                queue_depth: LatencyHist::default(),
                seen_gen: 0,
                slot: None,
            }
        }

        #[inline]
        fn record(&mut self, e: Event) {
            self.events += 1;
            if self.buf.len() < self.cap {
                self.buf.push(e);
            } else if self.cap > 0 {
                self.buf[self.head] = e;
                self.head += 1;
                if self.head == self.cap {
                    self.head = 0;
                }
                self.dropped += 1;
            } else {
                self.dropped += 1;
            }
            // Live-snapshot hook: one relaxed load per event keeps the
            // zero-overhead budget; the publish itself is off this path.
            let gen = SNAP_GEN.load(Ordering::Relaxed);
            if gen != self.seen_gen {
                self.publish(gen);
            }
        }

        /// Copies the ring (oldest first) and aggregates out of the
        /// thread, converting raw ticks to wall nanoseconds.
        fn to_rank_trace(&self) -> RankTrace {
            let scale = ns_per_raw();
            let to_ns = |ticks: u64| (ticks as f64 * scale) as u64;
            let n = self.buf.len();
            let mut events = Vec::with_capacity(n);
            for i in 0..n {
                let e = self.buf[(self.head + i) % n];
                let start = to_ns(e.ts_ns);
                // Convert the *end* point, not the duration: monotone
                // conversion of both endpoints preserves span nesting
                // exactly through rounding.
                let end = to_ns(e.ts_ns + e.dur_ns);
                events.push(Event {
                    ts_ns: start,
                    dur_ns: end - start,
                    ..e
                });
            }
            let mut spans: [LatencyHist; cat::N_SPAN] = Default::default();
            for (out, h) in spans.iter_mut().zip(&self.spans) {
                *out = hist_ticks_to_ns(h, scale);
            }
            RankTrace {
                events,
                stats: TraceStats {
                    events: self.events,
                    dropped: self.dropped,
                    spans,
                    queue_depth: self.queue_depth,
                },
            }
        }

        /// Publishes a copy of the live ring to this rank's snapshot
        /// slot (no-op for unregistered threads) and marks `gen` seen.
        #[cold]
        fn publish(&mut self, gen: u64) {
            self.seen_gen = gen;
            if let Some(slot) = self.slot.clone() {
                *slot.data.lock() = self.to_rank_trace();
                slot.gen.store(gen, Ordering::Release);
            }
        }
    }

    thread_local! {
        static TT: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
    }

    /// True if tracing is compiled in *and* runtime-enabled.
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Runtime toggle (process-wide). With tracing compiled in but
    /// disabled, every entry point bails after this one relaxed load —
    /// the configuration `trace_experiment` uses as its baseline.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Sets the ring capacity (events per rank) used by rings created
    /// *after* the call — set it before `Universe::run`. Aggregate
    /// statistics are unaffected; only the event window shrinks/grows.
    pub fn set_ring_capacity(cap: usize) {
        RING_CAP.store(cap, Ordering::Relaxed);
    }

    /// An open span; records one complete event (start + duration) and
    /// a histogram sample when dropped.
    #[must_use]
    pub struct SpanGuard {
        start: u64,
        a: u64,
        b: u64,
        name: &'static str,
        cat: u8,
        armed: bool,
    }

    /// Opens a span in category `c` (< [`cat::N_SPAN`]).
    #[inline]
    pub fn span(c: u8, name: &'static str, a: u64, b: u64) -> SpanGuard {
        if !enabled() {
            return SpanGuard {
                start: 0,
                a: 0,
                b: 0,
                name: "",
                cat: c,
                armed: false,
            };
        }
        SpanGuard {
            start: raw_now(),
            a,
            b,
            name,
            cat: c,
            armed: true,
        }
    }

    impl Drop for SpanGuard {
        #[inline]
        fn drop(&mut self) {
            if !self.armed {
                return;
            }
            let dur = raw_now().saturating_sub(self.start);
            TT.with(|t| {
                let mut t = t.borrow_mut();
                t.spans[self.cat as usize].record(dur);
                t.record(Event {
                    ts_ns: self.start,
                    dur_ns: dur,
                    cat: self.cat,
                    name: self.name,
                    a: self.a,
                    b: self.b,
                    ph: super::ph::CLASSIC,
                    id: 0,
                });
            });
        }
    }

    /// Records an instant event.
    #[inline]
    pub fn instant(c: u8, name: &'static str, a: u64, b: u64) {
        if !enabled() {
            return;
        }
        let now = raw_now();
        TT.with(|t| {
            t.borrow_mut().record(Event {
                ts_ns: now,
                dur_ns: 0,
                cat: c,
                name,
                a,
                b,
                ph: super::ph::CLASSIC,
                id: 0,
            })
        });
    }

    /// Process-unique id correlating one async begin/end pair.
    pub fn next_async_id() -> u64 {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the initiation of an async operation (Chrome `"ph":"b"`).
    /// The matching [`async_end`] with the same `(category, id)` closes
    /// the span — possibly much later, from a different stack frame.
    #[inline]
    pub fn async_begin(c: u8, name: &'static str, id: u64) {
        async_event(c, name, id, super::ph::ASYNC_BEGIN);
    }

    /// Records the completion of an async operation (Chrome `"ph":"e"`).
    #[inline]
    pub fn async_end(c: u8, name: &'static str, id: u64) {
        async_event(c, name, id, super::ph::ASYNC_END);
    }

    #[inline]
    fn async_event(c: u8, name: &'static str, id: u64, phase: u8) {
        if !enabled() {
            return;
        }
        let now = raw_now();
        TT.with(|t| {
            t.borrow_mut().record(Event {
                ts_ns: now,
                dur_ns: 0,
                cat: c,
                name,
                a: 0,
                b: 0,
                ph: phase,
                id,
            })
        });
    }

    /// Matching-engine hook: one unexpected enqueue = one instant plus
    /// one depth-gauge sample, in a single thread-local access.
    #[inline]
    pub fn umq_enqueue(seq: u64, depth: u64) {
        if !enabled() {
            return;
        }
        let now = raw_now();
        TT.with(|t| {
            let mut t = t.borrow_mut();
            t.queue_depth.record(depth);
            t.record(Event {
                ts_ns: now,
                dur_ns: 0,
                cat: cat::MATCH,
                name: "umq_enqueue",
                a: seq,
                b: depth,
                ph: super::ph::CLASSIC,
                id: 0,
            });
        });
    }

    /// Takes (and resets) the calling thread's trace, converting raw
    /// ticks to wall nanoseconds. Called by the universe as each rank
    /// thread exits.
    pub fn take_thread() -> RankTrace {
        let raw = TT.with(|t| std::mem::replace(&mut *t.borrow_mut(), ThreadTrace::new()));
        raw.to_rank_trace()
    }

    /// Registers the calling thread's live-snapshot slot (the universe
    /// calls this as each rank thread starts).
    pub fn register_snapshot_slot(slot: Arc<SnapshotSlot>) {
        TT.with(|t| t.borrow_mut().slot = Some(slot));
    }

    /// Asks every recording thread to publish its ring; returns the
    /// generation to poll slots for.
    pub fn request_snapshot() -> u64 {
        SNAP_GEN.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Park-loop hook: publishes the calling thread's ring if a
    /// snapshot was requested since it last published. Called on
    /// epoch-bump wakeups that record no event of their own, so a rank
    /// blocked in a bare `recv` still answers a snapshot request.
    #[inline]
    pub fn poll_publish() {
        let gen = SNAP_GEN.load(Ordering::Relaxed);
        TT.with(|t| {
            let mut t = t.borrow_mut();
            if gen != t.seen_gen {
                t.publish(gen);
            }
        });
    }

    /// Unconditionally publishes the calling thread's ring at the
    /// current generation (the snapshotting rank serves itself).
    pub fn publish_now() {
        let gen = SNAP_GEN.load(Ordering::SeqCst);
        TT.with(|t| t.borrow_mut().publish(gen));
    }

    /// Rescales a tick-valued histogram to nanoseconds by re-recording
    /// each bucket at its representative value (1.5·2^k ticks). The 2x
    /// bucket resolution absorbs the approximation.
    fn hist_ticks_to_ns(h: &LatencyHist, scale: f64) -> LatencyHist {
        let mut out = LatencyHist::default();
        for (k, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let rep_ticks = if k == 0 { 1u64 } else { 3u64 << (k - 1) };
            out.record_n(((rep_ticks as f64 * scale) as u64).max(1), c);
        }
        out.count = h.count;
        out.total = (h.total as f64 * scale) as u64;
        out
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::RankTrace;

    /// An open span. With the `trace` feature off this is a zero-sized
    /// type with no `Drop` impl: spans compile to nothing.
    #[must_use]
    pub struct SpanGuard;

    // Compile-time proof of the disabled path's zero cost.
    const _: () = assert!(std::mem::size_of::<SpanGuard>() == 0);

    /// Always false without the `trace` feature.
    #[inline]
    pub fn enabled() -> bool {
        false
    }

    /// No-op without the `trace` feature.
    #[inline]
    pub fn set_enabled(_on: bool) {}

    /// No-op without the `trace` feature.
    #[inline]
    pub fn set_ring_capacity(_cap: usize) {}

    /// No-op without the `trace` feature.
    #[inline]
    pub fn span(_c: u8, _name: &'static str, _a: u64, _b: u64) -> SpanGuard {
        SpanGuard
    }

    /// No-op without the `trace` feature.
    #[inline]
    pub fn instant(_c: u8, _name: &'static str, _a: u64, _b: u64) {}

    /// No-op without the `trace` feature.
    #[inline]
    pub fn umq_enqueue(_seq: u64, _depth: u64) {}

    /// Always 0 without the `trace` feature (ids are only consumed by
    /// the recording paths, which are compiled out).
    #[inline]
    pub fn next_async_id() -> u64 {
        0
    }

    /// No-op without the `trace` feature.
    #[inline]
    pub fn async_begin(_c: u8, _name: &'static str, _id: u64) {}

    /// No-op without the `trace` feature.
    #[inline]
    pub fn async_end(_c: u8, _name: &'static str, _id: u64) {}

    /// Returns an empty (allocation-free) trace.
    pub fn take_thread() -> RankTrace {
        RankTrace::default()
    }

    /// No-op without the `trace` feature.
    pub fn register_snapshot_slot(_slot: std::sync::Arc<super::SnapshotSlot>) {}

    /// Always 0 without the `trace` feature (nothing to poll for).
    pub fn request_snapshot() -> u64 {
        0
    }

    /// No-op without the `trace` feature.
    #[inline]
    pub fn poll_publish() {}

    /// No-op without the `trace` feature.
    pub fn publish_now() {}
}

pub use imp::{
    async_begin, async_end, enabled, instant, next_async_id, set_enabled, set_ring_capacity, span,
    take_thread, umq_enqueue, SpanGuard,
};
pub(crate) use imp::{poll_publish, publish_now, register_snapshot_slot, request_snapshot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_folds_everything() {
        let mut a = TraceStats {
            events: 3,
            ..Default::default()
        };
        a.spans[0].record(100);
        let mut b = TraceStats {
            events: 2,
            dropped: 1,
            ..Default::default()
        };
        b.spans[0].record(200);
        b.queue_depth.record(4);
        a.merge(&b);
        assert_eq!(a.events, 5);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.spans[0].count, 2);
        assert_eq!(a.queue_depth.count, 1);
    }

    #[test]
    fn report_degrades_gracefully_on_empty_data() {
        let data = TraceData {
            ranks: vec![RankTrace::default(); 2],
        };
        let report = data.report();
        assert!(report.contains("rank 0"));
        assert!(report.contains("rank 1"));
        if !COMPILED {
            assert!(report.contains("feature disabled"));
        }
    }

    #[cfg(feature = "trace")]
    #[test]
    fn thread_records_spans_instants_and_drops() {
        // Fresh thread: thread-local state isolates this test from
        // anything else in the process.
        std::thread::spawn(|| {
            {
                let _s = span(cat::COLL, "allreduce/test", 64, 8);
                instant(cat::MATCH, "umq_match", 1, 0);
            }
            umq_enqueue(2, 5);
            let t = take_thread();
            assert_eq!(t.stats.events, 3);
            assert_eq!(t.stats.dropped, 0);
            assert_eq!(t.events.len(), 3);
            // Ring order is completion order: the instant inside the
            // span lands before the span's own (drop-time) event, and
            // the span closes before the later enqueue.
            assert_eq!(t.events[0].name, "umq_match");
            assert_eq!(t.events[1].name, "allreduce/test");
            assert_eq!(t.events[2].name, "umq_enqueue");
            assert!(t.events[1].dur_ns > 0, "span must have a duration");
            assert_eq!(t.stats.spans[cat::COLL as usize].count, 1);
            assert_eq!(t.stats.queue_depth.count, 1);
            // A second take sees a clean slate.
            assert_eq!(take_thread(), RankTrace::default());
        })
        .join()
        .unwrap();
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        std::thread::spawn(|| {
            set_ring_capacity(4);
            for i in 0..10u64 {
                instant(cat::MATCH, "e", i, 0);
            }
            let t = take_thread();
            set_ring_capacity(1 << 16);
            assert_eq!(t.stats.events, 10);
            assert_eq!(t.stats.dropped, 6);
            assert_eq!(t.events.len(), 4);
            // Oldest-first extraction of the surviving window.
            let args: Vec<u64> = t.events.iter().map(|e| e.a).collect();
            assert_eq!(args, vec![6, 7, 8, 9]);
        })
        .join()
        .unwrap();
    }

    /// Per-event cost calibration (not an assertion — run with
    /// `cargo test --release --features trace -- --ignored --nocapture
    /// calibrate` to see what a span/instant costs on this host).
    #[cfg(feature = "trace")]
    #[test]
    #[ignore = "prints timings; run explicitly with --ignored --nocapture"]
    fn calibrate_event_costs() {
        std::thread::spawn(|| {
            let n = 1_000_000u64;
            let t0 = std::time::Instant::now();
            for i in 0..n {
                instant(cat::MATCH, "calib", i, 0);
            }
            let per_instant = t0.elapsed().as_nanos() as f64 / n as f64;
            let _ = take_thread();
            let t0 = std::time::Instant::now();
            for i in 0..n {
                let _s = span(cat::SEND, "calib", i, 0);
            }
            let per_span = t0.elapsed().as_nanos() as f64 / n as f64;
            let _ = take_thread();
            set_enabled(false);
            let t0 = std::time::Instant::now();
            for i in 0..n {
                let _s = span(cat::SEND, "calib", i, 0);
                instant(cat::MATCH, "calib", i, 0);
            }
            let per_disabled_pair = t0.elapsed().as_nanos() as f64 / n as f64;
            set_enabled(true);
            println!(
                "instant: {per_instant:.1} ns, span: {per_span:.1} ns, \
                 disabled span+instant: {per_disabled_pair:.1} ns"
            );
        })
        .join()
        .unwrap();
    }

    #[cfg(feature = "trace")]
    #[test]
    fn timestamps_are_monotone_within_a_thread() {
        std::thread::spawn(|| {
            for i in 0..100u64 {
                instant(cat::MATCH, "tick", i, 0);
            }
            let t = take_thread();
            let ts: Vec<u64> = t.events.iter().map(|e| e.ts_ns).collect();
            let mut sorted = ts.clone();
            sorted.sort_unstable();
            assert_eq!(ts, sorted, "instant order must match time order");
        })
        .join()
        .unwrap();
    }
}
