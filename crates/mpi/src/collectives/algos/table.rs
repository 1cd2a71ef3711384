//! The algorithm table: every tunable collective algorithm is declared
//! here once, as one `Row` — and this rustdoc is the one place the
//! menu is written down (`s` = bytes a rank contributes, `r` = bytes of
//! its result, `t` = the agreed total of a counted `allgatherv`'s
//! counts, `len` = one block of a self-sizing `allgatherv`, whose
//! lengths are learned in the rounds (a block rides in them iff `len`
//! is within [`ALLGATHER_MAX_BYTES`], else its origin sends it direct),
//! `b` = bytes of one all-to-all block, `p` = communicator size, `p'` =
//! the largest power of two `<= p`). "Copies per rank" is the
//! payload-byte memcpy bill on the shared-`Bytes` datapath; folds that
//! combine a received payload into an accumulator *in place* are
//! compute, not copies. Rows appear in row order, the fallback row of
//! each collective in **bold**:
//!
//! | row ([`AlgoClass::name`]) | algorithm | startups | copies per rank | needs | static `Auto` picks it when | runs as |
//! |---|---|---|---|---|---|---|
//! | **`allreduce/recursive_doubling`** | round 0 sends a copy the partner folds into; later rounds send the accumulator as a refcount payload, and the last folds into the contribution | log2 p' (+2 off powers of two) | s + r (+ r handing the result back off powers of two) | — | otherwise | blocking, `iallreduce`, `allreduce_init` |
//! | `allreduce/rabenseifner` | reduce-scatter folding into fresh shrinking halves + an allgather phase: with the mean chunk `s / p'` within [`ALLGATHER_MAX_BYTES`], the reverse of the halving (doubling rounds, each group of chunks forwarded as parts); above it eager, each rank's chunk to the other `p' - 1` as refcount clones, all posted before its first receive | 2 log2 p' with a chunk within the ceiling, else log2 p' + p' - 1 (+2 off powers of two): the busiest rank's receives; the eager critical path is log2 p' + 1 hops | s + r (+ r handing the result back off powers of two) | — | `p >= 4`, `s >=` [`RABENSEIFNER_MIN_BYTES`] on a power of two, twice that off one | blocking, `iallreduce`, `allreduce_init` |
//! | **`bcast/binomial`** | binomial tree, refcount forwarding; every rank sends to its largest subtree first, so the critical path is ceil(log2 p) hops | <= log2 p | root s, other r | — | otherwise | blocking, `ibcast`, `bcast_init` |
//! | `bcast/scatter_allgather` | van de Geijn: scatter + eager allgather of the chunks; where only the root knows `s` (self-sizing), the root first announces `s` down the tree | 2(p-1) + ceil(log2 p) (sized: 2(p-1)) | root s, other r | `s > 0` | `p >= 4`, `s >=` [`BCAST_SCATTER_MIN_BYTES`] | blocking, `ibcast`, `bcast_init` |
//! | **`allgather/ring`** | eager fan-out: the own block to every peer as a refcount clone, all posted before the first receive (the name is the row's, kept from the forwarding ring) | p-1 | s + r | — | otherwise | blocking, `iallgather(v)`, `allgather(v)_init` |
//! | `allgather/recursive_doubling` | doubling rounds, each block group forwarded as the parts of one message (refcount views, no pack) and carved by the agreed or learned block sizes | log2 p (self-sizing: + one direct receive per large block) | s + r | `p >= 2`, a power of two, block sizes every rank knows or learns in the rounds | `p >= 4`, bytes per rank within [`ALLGATHER_MAX_BYTES`]: `s`; a counted `allgatherv`'s mean block `t / p`; a self-sizing one always, each block riding iff `len` is | blocking `allgather(v)`, `iallgather(v)`, `allgather(v)_init` |
//! | `allgather/bruck` | rotated rounds, each block group forwarded as the parts of one message (refcount views, no pack) and carved by the agreed or learned block sizes | ceil(log2 p) (self-sizing: + one direct receive per large block) | s + r | `p >= 2`, block sizes every rank knows or learns in the rounds | `p >= 4` not a power of two, bytes per rank within the same ceiling, read the same way | blocking `allgather(v)`, `iallgather(v)`, `allgather(v)_init` |
//! | **`alltoall/pairwise`** | one message per peer in the rotation `rank + 1, rank + 2, …`, pack-once + slice, all posted before the first receive | p-1 | s + r | — | otherwise | blocking (`alltoallv/w` always), `ialltoall(v)`, `alltoallv_init` |
//! | `alltoall/bruck` | log-round forwarding, each round's blocks the parts of one message (refcount views, no repack) | ceil(log2 p) | s + r | `p >= 2`, equal blocks | `p >= 4`, `b <=` [`BRUCK_MAX_BLOCK_BYTES`] | blocking, `ialltoall` |
//! | `reduce/binomial_tree` | binomial tree, in-place folds | <= log2 p | leaf s, inner 0, root r | a commutative op | blocking `reduce` | blocking, `ireduce` |
//! | **`reduce/flat_gather`** | one send to the root, which folds the collected blocks in place, strictly in rank order | 1 (root p-1) | s (root: + r) | — | otherwise | blocking, `ireduce`; with a binomial broadcast, the allreduce of a non-commutative op in every lifecycle (unselected) |
//!
//! The static `Auto` rules are read off dry runs under
//! [`CostModel::cluster`](crate::CostModel::cluster). Its crossovers —
//! the equal-block size from which the eager fan-out is at least as
//! fast as the log-round row, and the allreduce size from which
//! Rabenseifner is at least as fast as recursive doubling ("never": not
//! up to 1 MiB) — are these, as the test
//! `auto_is_within_tolerance_of_the_best_row` computes them:
//!
//! | `p` | 4 | 5 | 6 | 8 | 12 | 16 | 32 | 64 |
//! |---|---|---|---|---|---|---|---|---|
//! | eager fan-out, from (KiB per rank) | 9.0 | 6.0 | 9.0 | 11.8 | 12.5 | 14.0 | 15.2 | 16.2 |
//! | Rabenseifner, from (KiB) | 49.0 | never | never | 43.0 | 106.0 | 34.0 | 29.0 | 27.0 |
//!
//! The same test holds static `Auto` within 10 % + 1 us of the best
//! forced row in every cell of allgather (equal, counted, self-sizing)
//! and allreduce × those `p` × 8 B to 1 MiB, but for the gaps it lists
//! with their reasons. One allgather ceiling of 12 KiB per rank serves
//! every `p`; Rabenseifner's 64 KiB is above every power-of-two
//! crossover, and off powers of two its rule asks twice that, since the
//! fix-up's hand-back moves the crossover up: at `p` in {5, 6} it never
//! wins, but from 128 KiB it costs less than the tolerance.
//!
//! Every row is one engine of `collectives/nonblocking.rs` in each
//! lifecycle it runs as: the eager rows (ring, pairwise, flat gather)
//! the flat `Exchange`, the others a `Rounds` description. The
//! neighborhood collectives have no row: one message per declared edge
//! is their only schedule, the flat `Exchange` in every lifecycle. A
//! row's static `Auto` rule is the same in every lifecycle, so an `i*`
//! or a `*_init` runs the schedule its blocking twin runs; only the
//! reduce tree's rule names one (an `ireduce` keeps the eager flat
//! gather).
//!
//! A row is everything the substrate knows about its algorithm: the
//! enum variant that names it in a [`CollTuning`] slot, its
//! [`AlgoClass`] (the granularity of the cost model and of
//! [`TuningStats::selections`](super::TuningStats)), its trace names,
//! its static `Auto` rule, what a call must satisfy for it to be
//! correct, its alpha–beta workload features, and how many serialized
//! rounds its engine runs. Three things are derived from the
//! rows and written nowhere else:
//!
//! - `select` — the one selection function. Blocking calls, `i*`
//!   initiations and `*_init` differ only in their `Lifecycle`.
//! - `tuned` — the one dispatch sequence: model sync point → `select`
//!   → span or instant named from the row → measure → run → observe
//!   (`Tuned::begin` / `Tuned::finish` for the one caller that
//!   learns the algorithm from the wire: a self-sizing broadcast's
//!   blocking non-root, whose root selects).
//! - [`CLASS_COUNT`], [`AlgoClass::ALL`] and [`AlgoClass::name`].
//!
//! The startups `features` claim, and the menu's startups column, are
//! audited, not restated: the test `every_row_runs_the_startups_it_claims`
//! forces each row that has an `i*` form and dry-runs its engine
//! ([`Universe::dry_run`](crate::Universe::dry_run)) at every `p` in
//! 2..=17, 32 and 64, and for the log-round rows at powers of two up to
//! 2^12 (2^10 for allgather and all-to-all, whose `p²` result blocks
//! one thread holds). The claim must equal the longer of the critical
//! path and the busiest rank's receives.

use std::time::Instant;

use super::model::{self, AlgoClass, ModelConfig, ModelSnapshot, Pick, OVERLAP_ALPHA_PCT};
use super::{
    AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, ReduceAlgo, Select,
    ALLGATHER_MAX_BYTES, BCAST_SCATTER_MIN_BYTES, BRUCK_MAX_BLOCK_BYTES, RABENSEIFNER_MIN_BYTES,
};
use crate::comm::Comm;
use crate::error::Result;
use crate::trace;

/// What a call brings to the selection besides the communicator: the
/// collectively agreed inputs every rank passes identically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Call {
    /// Contribution bytes; block bytes for alltoall; the agreed total
    /// of a counted `allgatherv` (see [`Call::total`]).
    pub size: usize,
    /// The reduction operation is commutative.
    pub commutative: bool,
    /// Every rank knows `size` and how the payload splits into blocks
    /// (equal, or by agreed counts — or, for a self-sizing `allgatherv`,
    /// learned in the rounds, with `size` 0): not so for variable
    /// `alltoallv` blocks. Only the fallback rows serve an irregular
    /// call.
    pub regular: bool,
    /// `size` is the agreed total of every rank's block, not one rank's
    /// contribution: the static rules and the cost model read its mean
    /// per rank ([`Call::volume`]).
    pub total: bool,
}

impl Call {
    /// A call of `size` with nothing else to restrict the menu.
    pub(crate) fn sized(size: usize) -> Call {
        Call {
            size,
            commutative: true,
            regular: true,
            total: false,
        }
    }

    /// A counted `allgatherv`: every rank knows every block's size, and
    /// they sum to `total` bytes.
    pub(crate) fn counted(total: usize) -> Call {
        Call {
            total: true,
            ..Call::sized(total)
        }
    }

    /// The bytes per rank the static rules compare and the cost model's
    /// features read: a total's mean block, rounded up, so that a rule
    /// `volume <= ceiling` holds iff `total <= p · ceiling`.
    fn volume(&self, p: usize) -> usize {
        if self.total {
            self.size.div_ceil(p.max(1))
        } else {
            self.size
        }
    }

    /// A call of `size` on some rank whose blocks may differ in size,
    /// or whose size not every rank knows.
    pub(crate) fn irregular(size: usize) -> Call {
        Call {
            regular: false,
            ..Call::sized(size)
        }
    }

    /// A reduction of `size` bytes under an operation that is, or is
    /// not, commutative.
    pub(crate) fn reduction(size: usize, commutative: bool) -> Call {
        Call {
            commutative,
            ..Call::sized(size)
        }
    }
}

/// Serialized rounds over `(p, ceil(log2 p), size)` (the arguments of
/// [`Row::features`]): the rounds whose sends wait on the previous
/// round's receive, each charged [`OVERLAP_ALPHA_PCT`] in the overlap
/// lifecycle.
type RoundCount = fn(usize, f64, f64) -> f64;

/// Everything is posted at the call (the flat, eager engines).
const ONE_ROUND: RoundCount = |_, _, _| 1.0;
/// `ceil(log2 p)` rounds.
const LOG_ROUNDS: RoundCount = |_, l, _| l;

/// Which of the three drivers of an algorithm is selecting: all pick by
/// one static rule, and differ in what the model may do after it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    /// A blocking call: statically picked until warm, then the model
    /// may explore and override.
    Blocking,
    /// An `i*` initiation: snapshot-only (an initiation must complete
    /// locally), biased per serialized round.
    Overlap,
    /// A `*_init`: the static pick, frozen for every later `start`.
    Persistent,
}

/// A call site of [`tuned`]: its lifecycle, and its column in
/// [`Row::names`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Site(Lifecycle, usize);

impl Site {
    pub(crate) const BLOCKING: Site = Site(Lifecycle::Blocking, 0);
    pub(crate) const IMMEDIATE: Site = Site(Lifecycle::Overlap, 1);
    pub(crate) const INIT: Site = Site(Lifecycle::Persistent, 2);

    pub(crate) fn lifecycle(self) -> Lifecycle {
        self.0
    }
}

/// One algorithm (see the module doc).
pub(crate) struct Row<A: 'static> {
    pub algo: A,
    pub class: AlgoClass,
    /// `<site>/<algorithm>` by [`Site`] column, as far as this
    /// collective has sites; the first is [`AlgoClass::name`].
    pub names: &'static [&'static str],
    /// The eligibility column: what `(p, call)` must satisfy for the
    /// row to be correct ([`ALWAYS`] on every fallback row).
    pub needs: fn(usize, &Call) -> bool,
    /// The static `Auto` rule, over `(lifecycle, p, size)`: the first
    /// row whose rule holds is picked, the fallback row when none does.
    pub auto: fn(Lifecycle, usize, usize) -> bool,
    /// Coarse workload features `(startups, bytes)` over `(p,
    /// ceil(log2 p), size)`: messages on the critical path and payload
    /// moved (wire + packing). The scale only needs to be consistent
    /// *within* a row across workloads — rows are compared through
    /// their fitted costs — so the formulas stay deliberately simple.
    pub features: fn(usize, f64, f64) -> (f64, f64),
    pub rounds: RoundCount,
}

/// `<site>/<algorithm>` for each site, as `'static` names.
macro_rules! names {
    ($algo:literal: $($site:literal),+) => { &[$(concat!($site, "/", $algo)),+] };
}

const NEVER: fn(Lifecycle, usize, usize) -> bool = |_, _, _| false;
const ALWAYS: fn(usize, &Call) -> bool = |_, _| true;

/// A collective's algorithm enum: its rows and its [`CollTuning`] slot.
pub(crate) trait Algo: Copy + PartialEq + 'static {
    /// This collective's rows, in [`AlgoClass`] order.
    const ROWS: &'static [Row<Self>];
    /// Index of the fallback row: correct for every call, so where an
    /// ineligible pick resolves.
    const FALLBACK: usize = 0;

    const SLOT: fn(&CollTuning) -> Select<Self>;

    fn row(self) -> &'static Row<Self> {
        let row = Self::ROWS.iter().find(|r| r.algo == self);
        row.expect("every variant has a row")
    }
}

/// Recursive doubling's hops: `log2 p'` steps over the largest power of
/// two `p' <= p`, and off powers of two the fold-in and the hand-back.
fn doubling_hops(p: usize) -> f64 {
    f64::from(p.ilog2()) + if p.is_power_of_two() { 0.0 } else { 2.0 }
}

/// The serialized rounds of Rabenseifner's allgather phase over `p2`
/// chunks of an `s`-byte payload: `log2 p2` doubling, one eager.
fn gather_rounds(p2: usize, s: f64) -> f64 {
    if phase_doubles(p2, s as usize) {
        f64::from(p2.ilog2())
    } else {
        1.0
    }
}

/// Rabenseifner's startups: doubling's, plus the allgather phase's
/// receives — `log2 p'` doubling rounds, or the `p' - 1` chunks of the
/// eager exchange (whose sends leave together, so they add one hop to
/// the critical path, not `p' - 1`).
fn rabenseifner_hops(p: usize, s: f64) -> f64 {
    let p2 = 1usize << p.ilog2();
    let gather = if phase_doubles(p2, s as usize) {
        p.ilog2() as usize
    } else {
        p2 - 1
    };
    doubling_hops(p) + gather as f64
}

impl Algo for AllreduceAlgo {
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.allreduce;
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: AllreduceAlgo::RecursiveDoubling,
            class: AlgoClass::AllreduceRd,
            names: names!("recursive_doubling": "allreduce", "iallreduce", "allreduce_init"),
            needs: ALWAYS,
            auto: NEVER,
            features: |p, _, s| (doubling_hops(p), s * doubling_hops(p)),
            rounds: |p, _, _| doubling_hops(p),
        },
        Row {
            algo: AllreduceAlgo::Rabenseifner,
            class: AlgoClass::AllreduceRabenseifner,
            names: names!("rabenseifner": "allreduce", "iallreduce", "allreduce_init"),
            needs: ALWAYS,
            // Off powers of two from twice the size: the fix-up's
            // hand-back moves the crossover up (see the crossover table).
            auto: |_, p, s| {
                let off_power = usize::from(!p.is_power_of_two()) + 1;
                p >= 4 && s >= RABENSEIFNER_MIN_BYTES * off_power
            },
            features: |p, _, s| (rabenseifner_hops(p, s), 2.0 * s),
            // The reduce-scatter's steps, then the doubling rounds, or
            // one eager exchange as `bcast/scatter_allgather` counts its
            // own.
            rounds: |p, _, s| doubling_hops(p) + gather_rounds(1 << p.ilog2(), s),
        },
    ];
}

impl Algo for BcastAlgo {
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.bcast;
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: BcastAlgo::Binomial,
            class: AlgoClass::BcastBinomial,
            names: names!("binomial": "bcast", "ibcast", "bcast_init"),
            needs: ALWAYS,
            auto: NEVER,
            features: |_, l, s| (l, s * l),
            rounds: LOG_ROUNDS,
        },
        Row {
            algo: BcastAlgo::ScatterAllgather,
            class: AlgoClass::BcastScatterAllgather,
            names: names!("scatter_allgather": "bcast", "ibcast", "bcast_init"),
            // An empty payload has nothing to split.
            needs: |_, call| call.size > 0,
            auto: |_, p, s| p >= 4 && s >= BCAST_SCATTER_MIN_BYTES,
            // The self-sizing form's: the root announces the size to its
            // `ceil(log2 p)` children first (a sized call skips that).
            features: |p, l, s| (2.0 * (p as f64 - 1.0) + l, 2.0 * s),
            // The announcement down the tree, the scatter, then one eager
            // allgather.
            rounds: |_, l, _| l + 2.0,
        },
    ];
}

/// The allgather's one static rule: whether `p` blocks of `per_rank`
/// bytes take the log-round rows rather than the eager fan-out — for
/// every allgather form (an equal block, a counted `allgatherv`'s mean
/// block, each block of a self-sizing one), the ceiling being
/// [`ALLGATHER_MAX_BYTES`].
pub(crate) fn in_rounds(p: usize, per_rank: usize) -> bool {
    p >= 4 && per_rank <= ALLGATHER_MAX_BYTES
}

/// The same rule for the allgather phase of Rabenseifner's allreduce
/// over `p2` chunks of a `payload`-byte vector: whether the phase
/// doubles (a power of two, the mean chunk within the ceiling) or is
/// the eager exchange. The engine and the model's features both ask
/// this.
pub(crate) fn phase_doubles(p2: usize, payload: usize) -> bool {
    p2.is_power_of_two() && in_rounds(p2, payload / p2)
}

impl Algo for AllgatherAlgo {
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.allgather;
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: AllgatherAlgo::Ring,
            class: AlgoClass::AllgatherRing,
            names: names!("ring": "allgather", "iallgather", "allgather_init"),
            needs: ALWAYS,
            auto: NEVER,
            features: |p, _, s| (p as f64 - 1.0, (p as f64 - 1.0) * s),
            rounds: ONE_ROUND,
        },
        Row {
            algo: AllgatherAlgo::RecursiveDoubling,
            class: AlgoClass::AllgatherRd,
            names: names!("recursive_doubling": "allgather", "iallgather", "allgather_init"),
            needs: |p, call| p >= 2 && p.is_power_of_two() && call.regular,
            auto: |_, p, s| in_rounds(p, s) && p.is_power_of_two(),
            features: |p, l, s| (l, (p as f64 - 1.0) * s),
            rounds: LOG_ROUNDS,
        },
        Row {
            algo: AllgatherAlgo::Bruck,
            class: AlgoClass::AllgatherBruck,
            names: names!("bruck": "allgather", "iallgather", "allgather_init"),
            needs: |p, call| p >= 2 && call.regular,
            auto: |_, p, s| in_rounds(p, s) && !p.is_power_of_two(),
            features: |p, l, s| (l, (p as f64 - 1.0) * s),
            rounds: LOG_ROUNDS,
        },
    ];
}

impl Algo for AlltoallAlgo {
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.alltoall;
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: AlltoallAlgo::Pairwise,
            class: AlgoClass::AlltoallPairwise,
            names: names!("pairwise": "alltoall", "ialltoall", "alltoallv_init"),
            needs: ALWAYS,
            auto: NEVER,
            features: |p, _, s| (p as f64 - 1.0, (p as f64 - 1.0) * s),
            rounds: ONE_ROUND,
        },
        Row {
            algo: AlltoallAlgo::Bruck,
            class: AlgoClass::AlltoallBruck,
            names: names!("bruck": "alltoall", "ialltoall", "alltoallv_init"),
            needs: |p, call| p >= 2 && call.regular,
            auto: |_, p, s| p >= 4 && s <= BRUCK_MAX_BLOCK_BYTES,
            features: |p, l, s| (l, l * (p as f64 / 2.0) * s),
            rounds: LOG_ROUNDS,
        },
    ];
}

impl Algo for ReduceAlgo {
    const FALLBACK: usize = 1;
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.reduce;
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: ReduceAlgo::BinomialTree,
            class: AlgoClass::ReduceBinomial,
            names: names!("binomial_tree": "reduce", "ireduce"),
            needs: |_, call| call.commutative,
            // An `ireduce` keeps the eager flat gather: every
            // contribution is on the wire when the call returns.
            auto: |lifecycle, _, _| lifecycle == Lifecycle::Blocking,
            features: |_, l, s| (l, s * l),
            rounds: LOG_ROUNDS,
        },
        Row {
            algo: ReduceAlgo::FlatGather,
            class: AlgoClass::ReduceFlat,
            names: names!("flat_gather": "reduce", "ireduce"),
            needs: ALWAYS,
            auto: NEVER,
            features: |p, _, s| (p as f64 - 1.0, (p as f64 - 1.0) * s),
            rounds: ONE_ROUND,
        },
    ];
}

/// Number of rows, i.e. of algorithm classes the model tracks.
pub const CLASS_COUNT: usize = AllreduceAlgo::ROWS.len()
    + BcastAlgo::ROWS.len()
    + AllgatherAlgo::ROWS.len()
    + AlltoallAlgo::ROWS.len()
    + ReduceAlgo::ROWS.len();

/// Most rows any one collective has (the candidate array's capacity).
const MAX_ROWS: usize = 3;

type ByClass = [(AlgoClass, &'static str); CLASS_COUNT];

/// The rows by class: `(class, AlgoClass::name)` at the class's index.
pub(crate) const CLASSES: ByClass = {
    const fn put<A: Algo>(mut out: ByClass, at: usize) -> (ByClass, usize) {
        assert!(A::ROWS.len() <= MAX_ROWS);
        let mut i = 0;
        while i < A::ROWS.len() {
            let row = &A::ROWS[i];
            assert!(row.class as usize == at + i, "rows are in AlgoClass order");
            out[at + i] = (row.class, row.names[0]);
            i += 1;
        }
        (out, at + i)
    }
    let (out, at) = put::<AllreduceAlgo>([(AlgoClass::AllreduceRd, ""); CLASS_COUNT], 0);
    let (out, at) = put::<BcastAlgo>(out, at);
    let (out, at) = put::<AllgatherAlgo>(out, at);
    let (out, at) = put::<AlltoallAlgo>(out, at);
    put::<ReduceAlgo>(out, at).0
};

/// Ceil(log2 p) as f64 (0 for p <= 1).
fn ceil_log2(p: usize) -> f64 {
    f64::from(usize::BITS - p.saturating_sub(1).leading_zeros())
}

/// The static pick, before the model is asked — and what
/// [`CollTuning`]'s `*_algo` queries answer: the forced slot, else the
/// first row whose `Auto` rule holds in `lifecycle`, else the fallback
/// row — resolved through the eligibility column. A persistent plan
/// freezes it.
pub(super) fn static_pick<A: Algo>(
    tuning: &CollTuning,
    lifecycle: Lifecycle,
    p: usize,
    call: &Call,
) -> (&'static Row<A>, Pick) {
    let fallback = &A::ROWS[A::FALLBACK];
    let (row, pick) = match (A::SLOT)(tuning) {
        Select::Force(algo) => (algo.row(), Pick::Forced),
        Select::Auto => {
            let auto = A::ROWS
                .iter()
                .find(|r| (r.auto)(lifecycle, p, call.volume(p)));
            (auto.unwrap_or(fallback), Pick::Static)
        }
    };
    let (row, pick) = if (row.needs)(p, call) {
        (row, pick)
    } else {
        (fallback, Pick::Static)
    };
    let frozen = lifecycle == Lifecycle::Persistent;
    (row, if frozen { Pick::Frozen } else { pick })
}

/// A persistent plan's pick for `call`, counted nowhere: the rule a
/// self-sizing `bcast_init` root applies to each cycle's size.
pub(crate) fn frozen_pick<A: Algo>(tuning: &CollTuning, p: usize, call: &Call) -> A {
    static_pick::<A>(tuning, Lifecycle::Persistent, p, call)
        .0
        .algo
}

/// Where a call is priced: `(p, size)`, the arguments of
/// [`Row::features`] but `ceil(log2 p)`.
type At = (usize, usize);

/// Predicted cost of `row` at `(p, size)`, every serialized round of
/// its engine charged `round_bias` extra startups.
fn cost<A>(snap: &ModelSnapshot, row: &Row<A>, (p, size): At, round_bias: f64) -> f64 {
    let (est, l, s) = (snap.class(row.class), ceil_log2(p), size as f64);
    let (startups, bytes) = (row.features)(p, l, s);
    est.predict_ns(startups, bytes) + (row.rounds)(p, l, s) * est.alpha_ns * round_bias
}

/// The model's choice among the candidate rows `cands` at `at`
/// (`static_i` is the static pick): an index into `cands`.
///
/// Blocking: static until the static class is warm, then explore cold
/// candidates (fewest observations first, ties to the lowest index),
/// then the warm argmin — refreshed every
/// [`ModelConfig::reexplore_every`]-th driven call (`seq`, the
/// rank-aligned tick counter) by re-measuring the least-observed
/// candidate, so stale cold-start estimates cannot lock in a loser.
///
/// Overlap (`overlap_bias` given: the startups each serialized round is
/// charged): static until *every* candidate class is warm (the engines
/// are never measured, so exploration could not warm them anyway), then
/// the argmin with that per-round penalty.
fn choose<A>(
    snap: &ModelSnapshot,
    cfg: &ModelConfig,
    cands: &[&Row<A>],
    at: At,
    static_i: usize,
    overlap_bias: Option<f64>,
    seq: u64,
) -> (usize, Pick) {
    let est = |i: usize| snap.class(cands[i].class);
    let warm = |i: usize| est(i).warm(cfg.warmup_obs);
    // The cheapest candidate (ties to the lowest index).
    let argmin = |bias: f64| {
        let by_cost = |a: &usize, b: &usize| {
            cost(snap, cands[*a], at, bias).total_cmp(&cost(snap, cands[*b], at, bias))
        };
        (0..cands.len()).min_by(by_cost).unwrap_or(0)
    };
    if let Some(bias) = overlap_bias {
        if !(0..cands.len()).all(warm) {
            return (static_i, Pick::Static);
        }
        return (argmin(bias), Pick::Model);
    }
    if !warm(static_i) {
        return (static_i, Pick::Static);
    }
    let cold = (0..cands.len()).filter(|&i| !warm(i));
    if let Some(i) = cold.min_by_key(|&i| est(i).obs) {
        return (i, Pick::Explore);
    }
    if cfg.reexplore_every > 0 && seq.is_multiple_of(u64::from(cfg.reexplore_every)) {
        let stalest = (0..cands.len()).min_by_key(|&i| est(i).obs).unwrap_or(0);
        return (stalest, Pick::Explore);
    }
    (argmin(0.0), Pick::Model)
}

/// The one selection function: which row of `A` serves this call.
///
/// 1. The static pick is the forced slot, else the row's `Auto` rule —
///    one rule for all three lifecycles.
/// 2. **One fallback rule:** a pick — forced or `Auto` — whose
///    `needs` the call does not meet resolves to the fallback row,
///    which is correct for every call, and is counted once, as a
///    `static` pick of the row it resolved to.
/// 3. A persistent plan freezes the static pick (counted `frozen`);
///    nothing is consulted again at `start`.
/// 4. A forced slot is final (an eligible one is counted `forced`): the
///    model never overrides `Select::Force`.
/// 5. With the model driving, `p >= 2` and at least two eligible rows,
///    [`choose`] decides among them from the published snapshot —
///    identical on every rank, like every other input here.
///
/// Allocation-free: const rows and a fixed candidate array.
pub(crate) fn select<A: Algo>(comm: &Comm, lifecycle: Lifecycle, call: Call) -> A {
    let (tuning, p) = (comm.tuning(), comm.size());
    let (mut row, mut pick) = static_pick::<A>(&tuning, lifecycle, p, &call);
    let open = pick == Pick::Static && (A::SLOT)(&tuning) == Select::Auto;
    if open && tuning.model.drive && p >= 2 {
        let (mut cands, mut n) = ([row; MAX_ROWS], 0);
        for r in A::ROWS.iter().filter(|r| (r.needs)(p, &call)) {
            (cands[n], n) = (r, n + 1);
        }
        let cands = &mut cands[..n];
        if n >= 2 {
            let mut static_i = (cands.iter().position(|r| r.class == row.class)).unwrap_or(0);
            if lifecycle == Lifecycle::Overlap {
                // The static pick leads, so a tie stays static.
                cands[..=static_i].rotate_right(1);
                static_i = 0;
            }
            let (snap, seq) = {
                let m = comm.model_state_mut();
                (m.snapshot(), m.seq())
            };
            let overlap = lifecycle == Lifecycle::Overlap;
            let bias = overlap.then_some(f64::from(OVERLAP_ALPHA_PCT) / 100.0);
            let at = (p, call.volume(p));
            let (i, by) = choose(&snap, &tuning.model, cands, at, static_i, bias, seq);
            (row, pick) = (cands[i], by);
        }
    }
    model::note_decision(row.class, pick);
    row.algo
}

/// The two-step form of [`tuned`], for a caller that learns the
/// algorithm after the sync point (a self-sizing broadcast's non-roots
/// read it off the root's first message).
pub(crate) struct Tuned<'c> {
    comm: &'c Comm,
    site: Site,
    begun: Option<Instant>,
}

impl<'c> Tuned<'c> {
    /// Step one, where the collective's first internal tag would be
    /// taken: a blocking site passes the model's sync point and, on the
    /// measuring rank, starts the clock. Initiations do neither — they
    /// must complete locally.
    pub(crate) fn begin(comm: &'c Comm, site: Site) -> Result<Self> {
        let begun = if site.0 == Lifecycle::Blocking {
            model::tick(comm)?;
            model::measure_begin(comm)
        } else {
            None
        };
        Ok(Tuned { comm, site, begun })
    }

    /// Step two: runs `algo` under the row's name — a span around a
    /// blocking call, an instant at an initiation — and feeds the
    /// measurement to the row's class.
    pub(crate) fn finish<A: Algo, R>(
        self,
        algo: A,
        size: usize,
        run: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        let (row, p) = (algo.row(), self.comm.size());
        let name = row.names[self.site.1];
        let _span = if self.site.0 == Lifecycle::Blocking {
            Some(trace::span(trace::cat::COLL, name, size as u64, p as u64))
        } else {
            trace::instant(trace::cat::COLL, name, size as u64, p as u64);
            None
        };
        let out = run()?;
        if let Some(begun) = self.begun {
            let features = (row.features)(p, ceil_log2(p), size as f64);
            model::observe(self.comm, row.class, begun, features);
        }
        Ok(out)
    }
}

/// The one dispatch sequence of a tunable collective: sync point →
/// [`select`] → span or instant → measure → `run(algo)` → observe.
pub(crate) fn tuned<A: Algo, R>(
    comm: &Comm,
    site: Site,
    call: Call,
    run: impl FnOnce(A) -> Result<R>,
) -> Result<R> {
    let step = Tuned::begin(comm, site)?;
    let algo = select::<A>(comm, site.0, call);
    step.finish(algo, call.volume(comm.size()), || run(algo))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two rows of `A` as candidates (of alltoall, the second is
    /// charged three serialized rounds at p = 8, the first one).
    fn cands2<A: Algo>() -> [&'static Row<A>; 2] {
        [&A::ROWS[0], &A::ROWS[1]]
    }

    const AT: At = (8, 1024);

    fn blocking<A>(
        snap: &ModelSnapshot,
        cfg: &ModelConfig,
        cands: &[&Row<A>],
        seq: u64,
    ) -> (usize, Pick) {
        choose(snap, cfg, cands, AT, 0, None, seq)
    }

    /// Overlap selection, each serialized round charged `bias` startups.
    fn overlap<A>(
        snap: &ModelSnapshot,
        cfg: &ModelConfig,
        cands: &[&Row<A>],
        bias: f64,
    ) -> (usize, Pick) {
        choose(snap, cfg, cands, AT, 0, Some(bias), 0)
    }

    #[test]
    fn choose_follows_static_until_warm_then_explores_then_predicts() {
        let cfg = ModelConfig::default().drive(true);
        let mut snap = ModelSnapshot::default();
        let cands = cands2::<AllreduceAlgo>();

        // Everything cold: static.
        assert_eq!(blocking(&snap, &cfg, &cands, 1), (0, Pick::Static));

        // Static class warm, other cold: explore it.
        snap.classes[AlgoClass::AllreduceRd.index()].obs = cfg.warmup_obs;
        assert_eq!(blocking(&snap, &cfg, &cands, 1), (1, Pick::Explore));

        // All warm: argmin of predicted cost.
        let rd = &mut snap.classes[AlgoClass::AllreduceRd.index()];
        rd.alpha_ns = 10_000.0;
        let rab = &mut snap.classes[AlgoClass::AllreduceRabenseifner.index()];
        rab.obs = cfg.warmup_obs;
        rab.alpha_ns = 1.0;
        assert_eq!(blocking(&snap, &cfg, &cands, 1), (1, Pick::Model));
    }

    #[test]
    fn warm_choice_periodically_remeasures_the_stalest_candidate() {
        let cfg = ModelConfig::default().drive(true);
        let mut snap = ModelSnapshot::default();
        let cands = cands2::<AllreduceAlgo>();
        // Both warm; the winner (index 1) has accrued many more
        // observations than the loser's warm-up leftovers.
        let rd = &mut snap.classes[AlgoClass::AllreduceRd.index()];
        rd.obs = cfg.warmup_obs;
        rd.alpha_ns = 10_000.0;
        let rab = &mut snap.classes[AlgoClass::AllreduceRabenseifner.index()];
        rab.obs = cfg.warmup_obs + 40;
        rab.alpha_ns = 1.0;
        // Off-cadence: argmin. On-cadence: the stale loser is refreshed.
        let every = u64::from(cfg.reexplore_every);
        assert_eq!(blocking(&snap, &cfg, &cands, every + 1), (1, Pick::Model));
        assert_eq!(blocking(&snap, &cfg, &cands, every), (0, Pick::Explore));
        // Disabled cadence never re-explores.
        let off = cfg.reexplore_every(0);
        assert_eq!(blocking(&snap, &off, &cands, every), (1, Pick::Model));
    }

    #[test]
    fn overlap_choice_stays_static_until_all_warm_and_charges_rounds() {
        let cfg = ModelConfig::default().drive(true);
        let mut snap = ModelSnapshot::default();
        let cands = cands2::<AlltoallAlgo>();

        // Partial warmth is not enough for the unmeasured engines.
        snap.classes[AlgoClass::AlltoallPairwise.index()].obs = cfg.warmup_obs;
        let bias = f64::from(OVERLAP_ALPHA_PCT) / 100.0;
        assert_eq!(overlap(&snap, &cfg, &cands, bias), (0, Pick::Static));

        // Warm, identical base costs: the per-round alpha penalty makes
        // the 3-round candidate lose.
        for class in [AlgoClass::AlltoallPairwise, AlgoClass::AlltoallBruck] {
            let c = &mut snap.classes[class.index()];
            c.obs = cfg.warmup_obs;
            c.alpha_ns = 1_000.0;
            c.beta_ns_per_byte = 0.0;
        }
        // Equalize the base cost by feature count: pairwise (p-1 = 7
        // startups) vs Bruck (3 startups × ~4096 packed bytes·0) —
        // Bruck's base is cheaper, but crank the round bias to flip it.
        assert_eq!(overlap(&snap, &cfg, &cands, 100.0), (0, Pick::Model));
        // With no bias, or the default one round's alpha, Bruck's fewer
        // startups win.
        assert_eq!(overlap(&snap, &cfg, &cands, 0.0), (1, Pick::Model));
        assert_eq!(overlap(&snap, &cfg, &cands, bias), (1, Pick::Model));
    }

    fn check_rows<A: Algo + std::fmt::Debug>() {
        for row in A::ROWS {
            // Features are positive and scale with the size.
            let (s1, v1) = (row.features)(8, 3.0, 1024.0);
            let (s2, v2) = (row.features)(8, 3.0, 4096.0);
            assert!(s1 >= 1.0, "{:?} startups", row.algo);
            assert!(v1 >= 0.0, "{:?} bytes", row.algo);
            assert!(s2 >= s1 && v2 >= v1, "{:?} monotone in size", row.algo);
            // Every site's name is `<site>/<the row's algorithm name>`.
            let algorithm = row.names[0].split_once('/').expect("op/algorithm").1;
            for name in row.names {
                assert_eq!(name.split_once('/').expect("site/algorithm").1, algorithm);
            }
            assert_eq!(row.class.name(), row.names[0]);
            assert_eq!(row.algo.row().class, row.class);
        }
        // The fallback row is correct for every call.
        let worst = Call {
            size: 0,
            commutative: false,
            regular: false,
            total: false,
        };
        assert!((A::ROWS[A::FALLBACK].needs)(1, &worst));
    }

    #[test]
    fn rows_are_well_formed_and_documented() {
        check_rows::<AllreduceAlgo>();
        check_rows::<BcastAlgo>();
        check_rows::<AllgatherAlgo>();
        check_rows::<AlltoallAlgo>();
        check_rows::<ReduceAlgo>();
        // The module rustdoc is the one written-down menu: it must name
        // every row, in row order.
        let doc: String = include_str!("table.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .collect();
        let mut at = 0;
        for class in AlgoClass::ALL {
            let cell = format!("`{}`", class.name());
            let found = doc[at..].find(&cell);
            at += found.unwrap_or_else(|| {
                panic!("{cell} missing from the table rustdoc, or out of order")
            });
        }
        assert_eq!(AlgoClass::ALL.len(), CLASS_COUNT);
        for (i, class) in AlgoClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    type Start = for<'c> fn(&'c Comm) -> Result<crate::Request<'c>>;

    /// Audits every row of `A`: forced, its engine must run the
    /// startups `features` claim at `size` bytes per rank — the longer
    /// of the critical path (hops, every send costing 1) and the
    /// busiest rank's receives (every receive costing 1), by dry run —
    /// at every `p` it serves in 2..=17, 32 and 64, and, for the rows
    /// claiming log-round startups, at every power of two up to
    /// `2^top`. Returns the cells that disagree.
    fn audit<A: Algo + std::fmt::Debug>(
        force: fn(CollTuning, A) -> CollTuning,
        start: Start,
        top: u32,
        size: f64,
    ) -> Vec<String> {
        let mut off = Vec::new();
        for row in A::ROWS {
            let tuning = force(CollTuning::default(), row.algo);
            let count = |p, alpha_ns, recv_overhead_ns| {
                let cost = crate::CostModel {
                    alpha_ns,
                    recv_overhead_ns,
                    ..Default::default()
                };
                let config = crate::Config::new(p).cost(cost);
                let finish = crate::Universe::dry_run(config, |comm| {
                    comm.set_tuning(tuning);
                    start(comm)
                });
                finish.unwrap().into_iter().max().unwrap()
            };
            let logarithmic = (row.features)(1 << 12, 12.0, 1.0).0 <= 14.0;
            let large = (7..=top).map(|k| 1 << k).filter(|_| logarithmic);
            let ps = (2..=17).chain([32, 64]).chain(large);
            for p in ps.filter(|&p| (row.needs)(p, &Call::sized(1))) {
                let (hops, recvs) = (count(p, 1, 0), count(p, 0, 1));
                let claimed = (row.features)(p, ceil_log2(p), size).0;
                if claimed != hops.max(recvs) as f64 {
                    let algo = row.algo;
                    off.push(format!(
                        "{algo:?} p = {p}: {claimed} vs {hops} hops, {recvs} receives"
                    ));
                }
            }
        }
        off
    }

    /// The menu's startups column, audited instead of restated: every
    /// row, through its `i*` form. The allgather and all-to-all rows
    /// stop at `2^10`: one thread holds their `p²` result blocks. Rabenseifner's allgather phase doubles
    /// on a 512-byte payload; on 1 MiB, whose chunks exceed
    /// [`ALLGATHER_MAX_BYTES`] up to p = 64, it takes the eager exchange
    /// (4 KiB elements under an operation that keeps one operand spare
    /// the debug build the fold's per-element work).
    #[test]
    fn every_row_runs_the_startups_it_claims() {
        use crate::op::Sum;
        let allreduce: Start = |c| c.iallreduce(&[1u64; 64], Sum);
        let eager: Start = |c| {
            let keep = crate::op::commutative(|a: &[u64; 512], _: &[u64; 512]| *a);
            c.iallreduce(&vec![[1u64; 512]; 256], keep)
        };
        let bcast: Start = |c| c.ibcast(Some(&[1u8][..]), 0);
        let alltoall: Start = |c| c.ialltoall(&vec![1u8; c.size()]);
        let off = [
            audit(CollTuning::allreduce, allreduce, 12, 512.0),
            audit(CollTuning::allreduce, eager, 6, f64::from(1 << 20)),
            audit(CollTuning::bcast, bcast, 12, 1.0),
            audit(CollTuning::allgather, |c| c.iallgather(&[1u8]), 10, 1.0),
            audit(CollTuning::alltoall, alltoall, 10, 1.0),
            audit(CollTuning::reduce, |c| c.ireduce(&[1u64], Sum, 0), 12, 8.0),
        ];
        let off = off.concat();
        assert!(off.is_empty(), "cells disagree:\n{}", off.join("\n"));
    }

    /// A collective form of the `Auto` audit.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Form {
        /// `iallgather` of `s` bytes per rank.
        Equal,
        /// A counted `iallgatherv` whose blocks rise linearly from `s/2`
        /// to `3s/2` bytes over the ranks: a mean block of `s`.
        Counted,
        /// The self-sizing `iallgatherv` of `s` bytes per rank.
        Learned,
        /// `iallreduce` of `s / 8` `u64`s.
        Allreduce,
    }

    impl Form {
        const ALL: [Form; 4] = [Form::Equal, Form::Counted, Form::Learned, Form::Allreduce];

        /// Every forced row that serves `p`.
        fn rows(self, p: usize) -> Vec<CollTuning> {
            let base = CollTuning::default();
            if self == Form::Allreduce {
                let rows = [
                    AllreduceAlgo::RecursiveDoubling,
                    AllreduceAlgo::Rabenseifner,
                ];
                return rows.map(|a| base.allreduce(a)).to_vec();
            }
            let mut rows = vec![AllgatherAlgo::Ring, AllgatherAlgo::Bruck];
            if p.is_power_of_two() {
                rows.push(AllgatherAlgo::RecursiveDoubling);
            }
            rows.into_iter().map(|a| base.allgather(a)).collect()
        }

        /// Every rank's finish time of one call under `tuning`, by dry
        /// run under the cluster model: the latest of them.
        fn time(self, p: usize, s: usize, tuning: CollTuning) -> u64 {
            use crate::collectives::algos::allgather::BlockSizes;
            let config = crate::Config::new(p).cost(crate::CostModel::cluster());
            let finish = crate::Universe::dry_run(config, |c| {
                c.set_tuning(tuning);
                match self {
                    Form::Equal => c.iallgather(&vec![1u8; s]),
                    Form::Counted => {
                        let counts: Vec<usize> = (0..p).map(|r| s / 2 + s * r / (p - 1)).collect();
                        let own = bytes::Bytes::from(vec![1u8; counts[c.rank()]]);
                        let sizes = BlockSizes::Counted(counts.into());
                        c.allgather_plan(Site::IMMEDIATE, sizes, own, Comm::icoll)
                    }
                    Form::Learned => c.iallgatherv(&vec![1u8; s]),
                    // The fold's arithmetic costs no model time: where
                    // 4 KiB elements split into the same chunks as `u64`s,
                    // they and an operation that keeps one operand spare
                    // the debug build most of its per-element work.
                    Form::Allreduce if s.is_multiple_of(4096 << p.ilog2()) => {
                        let keep = crate::op::commutative(|a: &[u64; 512], _: &[u64; 512]| *a);
                        c.iallreduce(&vec![[1u64; 512]; s / 4096], keep)
                    }
                    Form::Allreduce => c.iallreduce(&vec![1u64; s / 8], crate::op::Sum),
                }
            });
            finish.unwrap().into_iter().max().unwrap()
        }
    }

    /// Communicator sizes of the `Auto` audit.
    const AUDIT_PS: [usize; 8] = [4, 5, 6, 8, 12, 16, 32, 64];

    /// The cells where static `Auto` costs more than the tolerance over
    /// the best forced row, and why: exactly these, or the audit fails.
    const KNOWN_GAPS: [(Form, usize, usize, &str); 2] = [
        (Form::Learned, 5, 16 << 10, LEARNED_GAP),
        (Form::Learned, 12, 16 << 10, LEARNED_GAP),
    ];

    /// Why a self-sizing block just above the ceiling loses off powers
    /// of two.
    const LEARNED_GAP: &str = "no rank knows a self-sizing call's sizes, so it cannot pick the \
        fan-out: Bruck's length rounds run, and a block above the ceiling travels direct \
        behind them (+18-22 % at 16 KiB; ROADMAP 2 (c))";

    /// The smallest multiple of `step` in `lo..=hi` from which
    /// `wins(s)` holds, by bisection (`wins` is monotone), or `None`.
    fn from(lo: usize, hi: usize, step: usize, wins: impl Fn(usize) -> bool) -> Option<usize> {
        if !wins(hi) {
            return None;
        }
        let (mut lo, mut hi) = (lo / step, hi / step);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if wins(mid * step) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo * step)
    }

    /// The crossover table of the module doc, as this audit computes
    /// it: per `p`, the equal-block size from which the eager fan-out
    /// is at least as fast as the log-round row, and the allreduce size
    /// from which Rabenseifner is at least as fast as recursive
    /// doubling.
    fn crossovers() -> Vec<String> {
        let ps = [4usize, 5, 6, 8, 12, 16, 32, 64];
        let kib = |b: Option<usize>| match b {
            Some(b) => format!("{:.1}", b as f64 / 1024.0),
            None => "never".to_string(),
        };
        let base = CollTuning::default();
        let fan_out = ps.map(|p| {
            let log = match p.is_power_of_two() {
                true => base.allgather(AllgatherAlgo::RecursiveDoubling),
                false => base.allgather(AllgatherAlgo::Bruck),
            };
            let ring = base.allgather(AllgatherAlgo::Ring);
            let wins = |s| Form::Equal.time(p, s, ring) <= Form::Equal.time(p, s, log);
            kib(from(1024, 64 << 10, 256, wins))
        });
        let rabenseifner = ps.map(|p| {
            let [rd, rab] = [
                AllreduceAlgo::RecursiveDoubling,
                AllreduceAlgo::Rabenseifner,
            ]
            .map(|a| base.allreduce(a));
            let wins = |s| Form::Allreduce.time(p, s, rab) <= Form::Allreduce.time(p, s, rd);
            kib(from(1024, 1 << 20, 1024, wins))
        });
        let row = |name: &str, cells: &[String]| format!("//! | {name} | {} |", cells.join(" | "));
        vec![
            row("`p`", &ps.map(|p| p.to_string())),
            format!("//! |---|{}", "---|".repeat(ps.len())),
            row("eager fan-out, from (KiB per rank)", &fan_out),
            row("Rabenseifner, from (KiB)", &rabenseifner),
        ]
    }

    /// Static `Auto` against every forced row, by dry run under the
    /// cluster model: in every cell of allgather (equal, counted,
    /// self-sizing) and allreduce × `p` in [`AUDIT_PS`] × sizes from
    /// 8 B to 1 MiB (doubling, capped at 64 MiB over all ranks), `Auto`
    /// must finish within 10 % + 1 us of the best row, or be one of
    /// [`KNOWN_GAPS`]. The crossover table of the module doc is the one
    /// this audit computes: a change to the cost model re-runs it.
    #[test]
    fn auto_is_within_tolerance_of_the_best_row() {
        let mut off = Vec::new();
        let ladder = (3..=20).map(|k| 1usize << k);
        for (p, s) in AUDIT_PS
            .iter()
            .flat_map(|&p| ladder.clone().map(move |s| (p, s)))
        {
            for form in Form::ALL.into_iter().filter(|_| p * s <= 64 << 20) {
                let auto = form.time(p, s, CollTuning::default());
                let rows = form.rows(p).into_iter().map(|t| form.time(p, s, t));
                let best = rows.min().unwrap();
                if auto as f64 > best as f64 * 1.1 + 1000.0 {
                    off.push((form, p, s, format!("{auto} ns against {best} ns")));
                }
            }
        }
        let known = |&(form, p, s, _): &(Form, usize, usize, String)| {
            KNOWN_GAPS.iter().any(|g| (g.0, g.1, g.2) == (form, p, s))
        };
        let unknown: Vec<_> = off.iter().filter(|c| !known(c)).collect();
        assert!(unknown.is_empty(), "Auto loses:\n{unknown:#?}");
        assert_eq!(off.len(), KNOWN_GAPS.len(), "a known gap closed: {off:#?}");
        let doc = include_str!("table.rs");
        let table = crossovers().join("\n");
        assert!(
            doc.contains(&table),
            "the module doc's crossover table is now:\n{table}"
        );
    }

    /// What `select` returned, and how the decision was counted:
    /// `[decisions, static, forced, frozen]` deltas.
    fn pick<A: Algo>(
        comm: &Comm,
        tuning: CollTuning,
        lifecycle: Lifecycle,
        call: Call,
    ) -> (A, [u64; 4]) {
        comm.set_tuning(tuning);
        let before = comm.tuning_stats();
        let algo = select::<A>(comm, lifecycle, call);
        let after = comm.tuning_stats();
        assert_eq!(
            after.selections[algo.row().class.index()],
            before.selections[algo.row().class.index()] + 1,
            "counted as the row it resolved to"
        );
        let counted = [
            after.decisions - before.decisions,
            after.static_picks - before.static_picks,
            after.forced_picks - before.forced_picks,
            after.frozen_picks - before.frozen_picks,
        ];
        (algo, counted)
    }

    /// The one fallback rule, pinned on both sides of "too few ranks"
    /// and "not a power of two": an ineligible pick — forced or `Auto`
    /// — resolves to the fallback row and is counted once, as a static
    /// pick; an eligible forced pick is counted once, as forced.
    #[test]
    fn ineligible_picks_resolve_to_the_fallback_row_and_count_once() {
        const STATIC: [u64; 4] = [1, 1, 0, 0];
        const FORCED: [u64; 4] = [1, 0, 1, 0];
        const FROZEN: [u64; 4] = [1, 0, 0, 1];
        for p in [1usize, 2, 3, 6] {
            crate::Universe::run(p, move |comm| {
                let base = CollTuning::default();
                let sized = Call::sized(64);
                for lifecycle in [Lifecycle::Blocking, Lifecycle::Overlap] {
                    let forced = base.allgather(AllgatherAlgo::RecursiveDoubling);
                    let want = if p == 2 {
                        (AllgatherAlgo::RecursiveDoubling, FORCED)
                    } else {
                        (AllgatherAlgo::Ring, STATIC)
                    };
                    assert_eq!(pick(&comm, forced, lifecycle, sized), want, "p = {p}");

                    let forced = base.allgather(AllgatherAlgo::Bruck);
                    let want = if p >= 2 {
                        (AllgatherAlgo::Bruck, FORCED)
                    } else {
                        (AllgatherAlgo::Ring, STATIC)
                    };
                    assert_eq!(pick(&comm, forced, lifecycle, sized), want, "p = {p}");

                    let forced = base.alltoall(AlltoallAlgo::Bruck);
                    let want = if p >= 2 {
                        (AlltoallAlgo::Bruck, FORCED)
                    } else {
                        (AlltoallAlgo::Pairwise, STATIC)
                    };
                    assert_eq!(pick(&comm, forced, lifecycle, sized), want, "p = {p}");

                    // A tree at p = 1 is a root without children: it
                    // needs a commutative operation, not peers.
                    let forced = base.reduce(ReduceAlgo::BinomialTree);
                    let commutative = Call::reduction(64, true);
                    let want = (ReduceAlgo::BinomialTree, FORCED);
                    assert_eq!(pick(&comm, forced, lifecycle, commutative), want);
                    let ordered = Call::reduction(64, false);
                    let want = (ReduceAlgo::FlatGather, STATIC);
                    assert_eq!(pick(&comm, forced, lifecycle, ordered), want);
                    assert_eq!(pick(&comm, base, lifecycle, ordered), want);
                }
                // An empty payload cannot be scattered.
                let forced = base.bcast(BcastAlgo::ScatterAllgather);
                let want = (BcastAlgo::ScatterAllgather, FORCED);
                assert_eq!(pick(&comm, forced, Lifecycle::Blocking, sized), want);
                let want = (BcastAlgo::Binomial, STATIC);
                assert_eq!(
                    pick(&comm, forced, Lifecycle::Blocking, Call::sized(0)),
                    want
                );
                assert_eq!(pick(&comm, base, Lifecycle::Blocking, Call::sized(0)), want);
                // A plan freezes the static pick, forced or `Auto`.
                let forced = base.allgather(AllgatherAlgo::Bruck);
                let want = if p >= 2 {
                    (AllgatherAlgo::Bruck, FROZEN)
                } else {
                    (AllgatherAlgo::Ring, FROZEN)
                };
                assert_eq!(pick(&comm, forced, Lifecycle::Persistent, sized), want);
                let want = match p {
                    4.. => (AllgatherAlgo::Bruck, FROZEN),
                    _ => (AllgatherAlgo::Ring, FROZEN),
                };
                let small = Call::sized(64);
                assert_eq!(pick(&comm, base, Lifecycle::Persistent, small), want);
                // What is not regular splits nothing.
                let forced = base.alltoall(AlltoallAlgo::Bruck);
                let want = (AlltoallAlgo::Pairwise, FROZEN);
                let varied = Call::irregular(64);
                assert_eq!(pick(&comm, forced, Lifecycle::Persistent, varied), want);
                let forced = base.allgather(AllgatherAlgo::Bruck);
                let want = (AllgatherAlgo::Ring, FROZEN);
                assert_eq!(pick(&comm, forced, Lifecycle::Persistent, varied), want);
            });
        }
    }
}
