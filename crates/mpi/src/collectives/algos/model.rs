//! Online measured cost model: `Auto` selection driven by runtime
//! evidence instead of compile-time thresholds.
//!
//! Every static threshold in [`CollTuning`](super::CollTuning) was
//! hand-set above one cluster cost model's crossovers; on a different
//! machine or message mix they are wrong (the committed
//! `BENCH_collectives.json` showed `auto` riding the slower wall-clock
//! algorithm in whole regimes). This module replaces guessing with
//! measuring: a per-communicator **alpha–beta estimator** maintains
//! `(alpha, beta)` — per-startup and per-byte cost in nanoseconds — for
//! every *algorithm class* (one per row of the algorithm
//! [`table`], i.e. per concrete algorithm), fitted by
//! EWMA from wall-clock measurements of the calls that actually ran.
//! At call time each candidate row's cost is predicted as
//! `startups·alpha + bytes·beta` — the row's workload features — and
//! `Auto` picks the argmin (`select` in the table module; this module
//! measures, synchronizes and counts).
//!
//! ## Why per-algorithm classes, not per-collective
//!
//! A single `(alpha, beta)` per *collective* can never rank the
//! candidates correctly: it would only ever be fitted from the
//! algorithm the fallback already picks, so the predicted cost of the
//! never-run alternative is pure extrapolation from the wrong
//! datapath (packing copies, cache behaviour and refcount forwarding
//! differ *per algorithm*, not per collective). Fitting each
//! algorithm's own class from its own runs makes the prediction at an
//! observed workload converge to that algorithm's observed mean — so
//! the argmin converges to the measured-best algorithm.
//!
//! ## Symmetry: how every rank picks the same algorithm
//!
//! Selection must be symmetric (it is part of the wire protocol), but
//! wall-clock measurements are inherently rank-local. The model
//! therefore separates *measuring* from *deciding*:
//!
//! - rank 0 measures the wall time of each driven blocking collective
//!   and accumulates observations in a rank-local pending buffer;
//! - every driven blocking collective call counts a per-communicator
//!   sequence number (`tick`), and every
//!   [`ModelConfig::epoch_len`]-th call rank 0 folds its pending
//!   observations into the snapshot and **broadcasts the snapshot**
//!   (a ~270-byte binomial bcast on an internal tag — a matched
//!   collective, inserted at the same call index on every rank);
//! - decisions read only the *published snapshot*, which every rank
//!   replaced at the same point in its call sequence. Same snapshot +
//!   same collectively-agreed inputs (`p`, byte size, tuning) ⇒ same
//!   choice everywhere.
//!
//! Non-blocking initiations and persistent `*_init` never tick: a
//! blocking synchronization inside an initiation would violate MPI's
//! local-completion semantics (a legal program may post `iallgather`
//! on one rank while another blocks in an unrelated `recv` first).
//! They read the current snapshot, which is identical across ranks
//! because it only changes at matched blocking sync points.
//!
//! ## Warm-up and bounded exploration
//!
//! A class with fewer than [`ModelConfig::warmup_obs`] folded
//! observations is *cold*. While the static choice's class is cold,
//! `Auto` follows the static thresholds (today's behaviour). Once it
//! is warm, the driven blocking collectives *explore*: they run the
//! cold candidate with the fewest observations until every candidate
//! class is warm — deterministically (the choice depends only on the
//! snapshot), so exploration is symmetric too. Warm-up is bounded by
//! `#candidates × max(epoch_len, warmup_obs)` calls per collective.
//! Non-blocking selection never explores (its engines are not
//! measured); it stays static until every candidate class has been
//! warmed by the blocking side.
//!
//! ## Design note: overlap friendliness is a cost term, not a hard-code
//!
//! The non-blocking engines historically *never* left the eager flat
//! algorithms, on the argument that call-time sends are what make
//! communication/computation overlap work. That argument is real but
//! not absolute: it is worth roughly one message latency per
//! *serialized round* an engine adds (a round whose send cannot be
//! posted until the previous round's payload arrived — flat engines
//! have one such round, tree/RD/Bruck engines `~log2 p`). Encoding it
//! as a per-round alpha penalty ([`ModelConfig::overlap_alpha_pct`])
//! keeps the trade measurable and tunable: in the latency regime the
//! log-round engines win *despite* the penalty, and the model switches
//! to them — while a hard-coded "never" can never be right on both
//! sides of the crossover.
//!
//! ## Lifecycle
//!
//! The model state lives on the [`Comm`]: snapshots are
//! inherited on `dup`/`split` (like [`CollTuning`](super::CollTuning)),
//! resettable via [`Comm::reset_model`](crate::Comm::reset_model), and
//! frozen into persistent plans at `*_init` (a plan never re-selects
//! at `start()`). With [`ModelConfig::drive`] off (the default) the
//! model neither measures nor syncs nor alters any selection — the
//! default-tuning wire protocol and copy bill are bit-identical to a
//! build without this module.

use std::cell::RefCell;
use std::time::Instant;

use bytes::Bytes;

use super::table;
use crate::comm::Comm;
use crate::error::Result;

pub use super::table::CLASS_COUNT;

/// One concrete collective algorithm — the granularity at which
/// `(alpha, beta)` is fitted and selection counts are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoClass {
    /// Recursive-doubling allreduce.
    AllreduceRd = 0,
    /// Rabenseifner allreduce (reduce-scatter + ring allgather).
    AllreduceRabenseifner = 1,
    /// Binomial-tree broadcast.
    BcastBinomial = 2,
    /// Van de Geijn broadcast (scatter + ring allgather).
    BcastScatterAllgather = 3,
    /// Ring allgather (also the proxy class for the flat eager
    /// `iallgather` fan-out: same startup count and volume, no packing).
    AllgatherRing = 4,
    /// Recursive-doubling allgather (power-of-two `p` only).
    AllgatherRd = 5,
    /// Bruck allgather (any `p`).
    AllgatherBruck = 6,
    /// Pairwise alltoall.
    AlltoallPairwise = 7,
    /// Bruck alltoall.
    AlltoallBruck = 8,
    /// Binomial-tree reduce (also the tree phase of `iallreduce`).
    ReduceBinomial = 9,
    /// Flat-gather reduce (also the flat phase of `iallreduce`).
    ReduceFlat = 10,
    /// Sparse neighborhood exchange (one message per declared edge).
    NeighborhoodSparse = 11,
    /// Dense neighborhood exchange (one message per rank).
    NeighborhoodDense = 12,
}

impl AlgoClass {
    /// All classes, in index order.
    pub const ALL: [AlgoClass; CLASS_COUNT] = {
        let mut all = [AlgoClass::AllreduceRd; CLASS_COUNT];
        let mut i = 0;
        while i < CLASS_COUNT {
            all[i] = table::CLASSES[i].0;
            i += 1;
        }
        all
    };

    /// Array index of this class.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (`collective/algorithm`, the name of the
    /// blocking call's trace span).
    pub fn name(self) -> &'static str {
        table::CLASSES[self.index()].1
    }
}

/// Model configuration, carried inside
/// [`CollTuning`](super::CollTuning) (so it inherits, overrides per
/// call through `tuning(...)`, and participates in the
/// same-tuning-on-every-rank wire contract for free).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Master switch: measure, synchronize, and let warm predictions
    /// override the static `Auto` thresholds. Off by default — the
    /// default tuning behaves bit-identically to the pre-model code.
    pub drive: bool,
    /// Publish the snapshot every this many driven blocking collective
    /// calls (the sync-broadcast cadence).
    pub epoch_len: u32,
    /// Folded observations a class needs before it counts as warm.
    pub warmup_obs: u32,
    /// EWMA weight of a new observation, in percent (30 ⇒
    /// `new = 0.3·measured + 0.7·old`).
    pub ewma_pct: u32,
    /// Overlap bias for non-blocking selection: each serialized round
    /// of a candidate engine is charged this percentage of the class's
    /// alpha on top of its predicted cost (see the module docs for why
    /// this is a cost term rather than a hard-coded "flat only").
    pub overlap_alpha_pct: u32,
    /// Once every this many driven calls, a warm blocking selection
    /// re-measures the candidate with the fewest folded observations
    /// instead of taking the argmin (0 disables). Without this, a
    /// losing class is only ever measured during cold warm-up: its
    /// stale estimate can lock in a wrong winner forever (measurements
    /// taken while allocators and caches were cold systematically
    /// mis-rank near-crossover regimes). The periodic refresh keeps
    /// both estimates current at a bounded steady-state cost of
    /// `gap / reexplore_every` per call.
    pub reexplore_every: u32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            drive: false,
            epoch_len: 8,
            warmup_obs: 5,
            ewma_pct: 30,
            overlap_alpha_pct: 100,
            reexplore_every: 16,
        }
    }
}

impl ModelConfig {
    /// Enables driving (equivalent to `CollTuning::self_tuning`).
    pub fn drive(mut self, on: bool) -> Self {
        self.drive = on;
        self
    }

    /// Sets the publish cadence (calls per epoch; min 1).
    pub fn epoch_len(mut self, calls: u32) -> Self {
        self.epoch_len = calls.max(1);
        self
    }

    /// Sets the per-class warm-up threshold (folded observations).
    pub fn warmup_obs(mut self, obs: u32) -> Self {
        self.warmup_obs = obs.max(1);
        self
    }

    /// Sets the EWMA weight of a new observation (percent, 1..=100).
    pub fn ewma_pct(mut self, pct: u32) -> Self {
        self.ewma_pct = pct.clamp(1, 100);
        self
    }

    /// Sets the per-serialized-round overlap penalty (percent of
    /// alpha).
    pub fn overlap_alpha_pct(mut self, pct: u32) -> Self {
        self.overlap_alpha_pct = pct;
        self
    }

    /// Sets the warm re-exploration cadence (driven calls between
    /// refresh measurements of the least-observed candidate; 0
    /// disables).
    pub fn reexplore_every(mut self, calls: u32) -> Self {
        self.reexplore_every = calls;
        self
    }
}

/// Fitted `(alpha, beta)` of one algorithm class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassEstimate {
    /// Cost per message startup, nanoseconds.
    pub alpha_ns: f64,
    /// Cost per payload byte, nanoseconds.
    pub beta_ns_per_byte: f64,
    /// Folded observations (the warm-up state).
    pub obs: u32,
}

#[inline]
fn ewma(old: f64, new: f64, pct: u32) -> f64 {
    let w = f64::from(pct.clamp(1, 100)) / 100.0;
    old + (new - old) * w
}

impl ClassEstimate {
    /// Predicted cost of `startups` messages moving `bytes` payload
    /// bytes, in nanoseconds. Monotone in both arguments (`alpha` and
    /// `beta` are clamped non-negative by construction).
    #[inline]
    pub fn predict_ns(&self, startups: f64, bytes: f64) -> f64 {
        startups * self.alpha_ns + bytes * self.beta_ns_per_byte
    }

    /// True once the class has folded at least `warmup_obs`
    /// observations.
    #[inline]
    pub fn warm(&self, warmup_obs: u32) -> bool {
        self.obs >= warmup_obs
    }

    /// Folds one (possibly averaged) measurement: `startups` messages,
    /// `bytes` payload bytes, `t_ns` measured wall nanoseconds,
    /// weighted as `weight` observations. Coordinate descent: the
    /// bootstrap observation splits the cost between alpha and beta;
    /// each later observation updates whichever coordinate currently
    /// explains *less* of the measured cost, attributing the residual
    /// to it (clamped at zero, so estimates never go negative and
    /// prediction stays monotone).
    pub fn fold(&mut self, startups: f64, bytes: f64, t_ns: f64, ewma_pct: u32, weight: u32) {
        let s = startups.max(1.0);
        let t = t_ns.max(0.0);
        if self.obs == 0 {
            if bytes <= 0.0 {
                self.alpha_ns = t / s;
                self.beta_ns_per_byte = 0.0;
            } else {
                self.alpha_ns = t / (2.0 * s);
                self.beta_ns_per_byte = t / (2.0 * bytes);
            }
        } else if bytes <= 0.0 || bytes * self.beta_ns_per_byte <= s * self.alpha_ns {
            let target = ((t - bytes * self.beta_ns_per_byte) / s).max(0.0);
            self.alpha_ns = ewma(self.alpha_ns, target, ewma_pct);
        } else {
            let target = ((t - s * self.alpha_ns) / bytes).max(0.0);
            self.beta_ns_per_byte = ewma(self.beta_ns_per_byte, target, ewma_pct);
        }
        self.obs = self.obs.saturating_add(weight.max(1));
    }
}

/// The published model state: one estimate per algorithm class, plus
/// the publish epoch. Identical on every rank of a communicator between
/// two sync points — the only state selection is allowed to read.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelSnapshot {
    /// Per-class estimates, indexed by [`AlgoClass::index`].
    pub classes: [ClassEstimate; CLASS_COUNT],
    /// Number of publishes folded into this snapshot.
    pub epoch: u64,
}

/// Wire size of a serialized snapshot (`epoch` + 13 × (alpha, beta,
/// obs)).
const SNAPSHOT_WIRE_BYTES: usize = 8 + CLASS_COUNT * (8 + 8 + 4);

impl ModelSnapshot {
    /// Estimate for `class`.
    #[inline]
    pub fn class(&self, class: AlgoClass) -> &ClassEstimate {
        &self.classes[class.index()]
    }

    pub(crate) fn to_wire(self) -> Bytes {
        let mut out = Vec::with_capacity(SNAPSHOT_WIRE_BYTES);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        for c in &self.classes {
            out.extend_from_slice(&c.alpha_ns.to_le_bytes());
            out.extend_from_slice(&c.beta_ns_per_byte.to_le_bytes());
            out.extend_from_slice(&c.obs.to_le_bytes());
        }
        Bytes::from(out)
    }

    pub(crate) fn from_wire(bytes: &[u8]) -> Option<ModelSnapshot> {
        if bytes.len() != SNAPSHOT_WIRE_BYTES {
            return None;
        }
        let mut snap = ModelSnapshot {
            epoch: u64::from_le_bytes(bytes[..8].try_into().ok()?),
            ..ModelSnapshot::default()
        };
        let mut at = 8;
        for c in &mut snap.classes {
            c.alpha_ns = f64::from_le_bytes(bytes[at..at + 8].try_into().ok()?);
            c.beta_ns_per_byte = f64::from_le_bytes(bytes[at + 8..at + 16].try_into().ok()?);
            c.obs = u32::from_le_bytes(bytes[at + 16..at + 20].try_into().ok()?);
            at += 20;
        }
        Some(snap)
    }
}

/// Rank-local accumulation of not-yet-published observations of one
/// class.
#[derive(Clone, Copy, Debug, Default)]
struct PendingObs {
    startups: f64,
    bytes: f64,
    t_ns: f64,
    calls: u32,
}

/// Per-communicator model state (one per [`Comm`] handle, i.e. per
/// rank per communicator).
#[derive(Debug, Default)]
pub(crate) struct ModelState {
    snapshot: ModelSnapshot,
    pending: [PendingObs; CLASS_COUNT],
    seq: u64,
}

impl ModelState {
    /// Child state for `dup`/`split`: the parent's published snapshot
    /// (identical across ranks at a matched derive call) carries over;
    /// pending observations and the epoch counter start fresh.
    pub(crate) fn inherit(parent: &ModelState) -> ModelState {
        ModelState {
            snapshot: parent.snapshot,
            ..ModelState::default()
        }
    }

    pub(crate) fn snapshot(&self) -> ModelSnapshot {
        self.snapshot
    }

    /// Driven-call sequence number: incremented by [`tick`] on every
    /// matched driven collective, hence identical across ranks — the
    /// clock the symmetric re-exploration cadence runs on.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    pub(crate) fn reset(&mut self) {
        *self = ModelState::default();
    }
}

// ---------------------------------------------------------------------------
// Per-rank observability (`TuningStats`)
// ---------------------------------------------------------------------------

/// Per-class slice of [`TuningStats`]: the published estimate in
/// integer units (so the whole stats struct stays `Copy + Eq` inside
/// [`RankStats`](crate::RankStats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ClassStat {
    /// Published alpha, nanoseconds (rounded).
    pub alpha_ns: u64,
    /// Published beta, **femtoseconds** per byte (1 ns/B = 1_000_000;
    /// sub-nanosecond per-byte costs survive the integer conversion).
    pub beta_fs_per_byte: u64,
    /// Folded observations (warm-up state).
    pub obs: u32,
}

/// Per-rank tuning diagnostics: why selections happened. Collected per
/// thread (like the copy bill) and surfaced in
/// [`RankStats::tuning`](crate::RankStats) via
/// [`Universe::run_stats`](crate::Universe::run_stats), or live via
/// [`Comm::tuning_stats`](crate::Comm::tuning_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TuningStats {
    /// Algorithm decisions taken (blocking + non-blocking + persistent
    /// init).
    pub decisions: u64,
    /// Decisions resolved by a warm model prediction.
    pub model_picks: u64,
    /// Decisions that followed the static thresholds (drive off, or
    /// warm-up not reached).
    pub static_picks: u64,
    /// Decisions spent exploring a cold candidate class.
    pub explore_picks: u64,
    /// Decisions dictated by `Select::Force` (never overridden by the
    /// model).
    pub forced_picks: u64,
    /// Decisions frozen into persistent plans at `*_init`.
    pub frozen_picks: u64,
    /// Wall-clock observations recorded (rank 0 of driven
    /// communicators only).
    pub observations: u64,
    /// Snapshot publishes participated in (folds on rank 0, receives
    /// elsewhere).
    pub publishes: u64,
    /// Per-class selection counts, indexed by [`AlgoClass::index`].
    pub selections: [u64; CLASS_COUNT],
    /// Last published estimate per class, indexed by
    /// [`AlgoClass::index`].
    pub classes: [ClassStat; CLASS_COUNT],
}

thread_local! {
    static STATS: RefCell<TuningStats> = RefCell::new(TuningStats::default());
}

fn with_stats(f: impl FnOnce(&mut TuningStats)) {
    STATS.with(|s| f(&mut s.borrow_mut()));
}

/// This thread's (rank's) tuning statistics so far.
pub fn stats_snapshot() -> TuningStats {
    STATS.with(|s| *s.borrow())
}

fn mirror_snapshot_into_stats(snap: &ModelSnapshot, stats: &mut TuningStats) {
    for (dst, src) in stats.classes.iter_mut().zip(&snap.classes) {
        dst.alpha_ns = src.alpha_ns.max(0.0).round() as u64;
        dst.beta_fs_per_byte = (src.beta_ns_per_byte.max(0.0) * 1_000_000.0).round() as u64;
        dst.obs = src.obs;
    }
}

/// How a decision was resolved (stats bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Pick {
    Static,
    Explore,
    Model,
    Forced,
    Frozen,
}

pub(super) fn note_decision(class: AlgoClass, pick: Pick) {
    with_stats(|s| {
        s.decisions += 1;
        s.selections[class.index()] += 1;
        match pick {
            Pick::Static => s.static_picks += 1,
            Pick::Explore => s.explore_picks += 1,
            Pick::Model => s.model_picks += 1,
            Pick::Forced => s.forced_picks += 1,
            Pick::Frozen => s.frozen_picks += 1,
        }
    });
}

// ---------------------------------------------------------------------------
// Tick: the sync point that keeps snapshots identical across ranks
// ---------------------------------------------------------------------------

/// Counts one driven blocking collective call; every
/// [`ModelConfig::epoch_len`]-th call publishes rank 0's folded
/// estimates to the whole communicator over an internal-tag binomial
/// broadcast. Call sites place this exactly where the collective's
/// first internal tag would be allocated, so the model sequence number
/// stays as rank-aligned as the tag counters. No-op (and
/// allocation-free) when the tuning does not drive the model.
pub(super) fn tick(comm: &Comm) -> Result<()> {
    let cfg = comm.tuning().model;
    if !cfg.drive || comm.size() < 2 {
        return Ok(());
    }
    let seq = {
        let mut m = comm.model_state_mut();
        m.seq += 1;
        m.seq
    };
    if seq % u64::from(cfg.epoch_len.max(1)) != 0 {
        return Ok(());
    }
    let payload = if comm.rank() == 0 {
        let mut m = comm.model_state_mut();
        let m = &mut *m;
        for (i, pend) in m.pending.iter_mut().enumerate() {
            if pend.calls > 0 {
                let c = f64::from(pend.calls);
                m.snapshot.classes[i].fold(
                    pend.startups / c,
                    pend.bytes / c,
                    pend.t_ns / c,
                    cfg.ewma_pct,
                    pend.calls,
                );
                *pend = PendingObs::default();
            }
        }
        m.snapshot.epoch += 1;
        let snap = m.snapshot;
        with_stats(|s| {
            s.publishes += 1;
            mirror_snapshot_into_stats(&snap, s);
        });
        Some(snap.to_wire())
    } else {
        None
    };
    let wire = crate::collectives::bcast_bytes_internal(comm, payload, 0)?;
    if comm.rank() != 0 {
        if let Some(snap) = ModelSnapshot::from_wire(&wire) {
            comm.model_state_mut().snapshot = snap;
            with_stats(|s| {
                s.publishes += 1;
                mirror_snapshot_into_stats(&snap, s);
            });
        }
    }
    Ok(())
}

/// Starts a wall-clock measurement of a driven blocking collective.
/// Only rank 0 measures (its observations are the ones published), so
/// every other rank gets a free `None`.
#[inline]
pub(super) fn measure_begin(comm: &Comm) -> Option<Instant> {
    (comm.tuning().model.drive && comm.size() > 1 && comm.rank() == 0).then(Instant::now)
}

/// Records one finished measurement into the pending buffer of
/// `class`, as the `(startups, bytes)` workload features its row maps
/// the call to.
pub(super) fn observe(comm: &Comm, class: AlgoClass, begun: Instant, features: (f64, f64)) {
    let t_ns = begun.elapsed().as_nanos() as f64;
    let mut m = comm.model_state_mut();
    let pend = &mut m.pending[class.index()];
    pend.startups += features.0;
    pend.bytes += features.1;
    pend.t_ns += t_ns;
    pend.calls += 1;
    drop(m);
    with_stats(|s| s.observations += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_fold_splits_cost() {
        let mut e = ClassEstimate::default();
        // 4 startups, no bytes: all cost is alpha.
        e.fold(4.0, 0.0, 8_000.0, 30, 1);
        assert_eq!(e.alpha_ns, 2_000.0);
        assert_eq!(e.beta_ns_per_byte, 0.0);
        assert_eq!(e.obs, 1);

        let mut e = ClassEstimate::default();
        // 2 startups, 1000 bytes, 4000 ns: half to each coordinate.
        e.fold(2.0, 1000.0, 4_000.0, 30, 1);
        assert_eq!(e.alpha_ns, 1_000.0);
        assert_eq!(e.beta_ns_per_byte, 2.0);
    }

    #[test]
    fn repeated_folds_converge_to_the_measurement() {
        let mut e = ClassEstimate::default();
        for _ in 0..50 {
            e.fold(3.0, 4096.0, 90_000.0, 30, 1);
        }
        let predicted = e.predict_ns(3.0, 4096.0);
        assert!(
            (predicted - 90_000.0).abs() < 900.0,
            "prediction {predicted} should converge to the repeated measurement"
        );
        assert_eq!(e.obs, 50);
    }

    #[test]
    fn ewma_decays_old_observations() {
        let mut e = ClassEstimate::default();
        e.fold(1.0, 0.0, 1_000_000.0, 30, 1); // one slow call
        for _ in 0..40 {
            e.fold(1.0, 0.0, 1_000.0, 30, 1); // then consistently fast
        }
        assert!(
            e.alpha_ns < 1_100.0,
            "old outlier must decay away, alpha = {}",
            e.alpha_ns
        );
    }

    #[test]
    fn estimates_never_go_negative_and_prediction_is_monotone() {
        let mut e = ClassEstimate::default();
        e.fold(2.0, 1000.0, 4_000.0, 50, 1);
        // Adversarial follow-ups cheaper than the current other-term
        // share: residual clamps at zero instead of going negative.
        for _ in 0..20 {
            e.fold(2.0, 1000.0, 1.0, 100, 1);
        }
        assert!(e.alpha_ns >= 0.0 && e.beta_ns_per_byte >= 0.0);
        // Monotonicity in both features.
        let base = e.predict_ns(2.0, 1000.0);
        assert!(e.predict_ns(3.0, 1000.0) >= base);
        assert!(e.predict_ns(2.0, 2000.0) >= base);
        assert!(e.predict_ns(5.0, 9000.0) >= e.predict_ns(4.0, 9000.0));
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let mut snap = ModelSnapshot {
            epoch: 17,
            ..ModelSnapshot::default()
        };
        for (i, c) in snap.classes.iter_mut().enumerate() {
            c.alpha_ns = 100.0 + i as f64;
            c.beta_ns_per_byte = 0.25 * i as f64;
            c.obs = 3 * i as u32;
        }
        let wire = snap.to_wire();
        assert_eq!(wire.len(), SNAPSHOT_WIRE_BYTES);
        let back = ModelSnapshot::from_wire(&wire).expect("valid wire form");
        assert_eq!(back, snap);
        assert!(ModelSnapshot::from_wire(&wire[1..]).is_none());
    }

    #[test]
    fn weighted_fold_counts_all_calls() {
        let mut e = ClassEstimate::default();
        e.fold(2.0, 64.0, 5_000.0, 30, 7);
        assert_eq!(e.obs, 7);
    }
}
