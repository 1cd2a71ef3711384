//! The algorithm table: every tunable collective algorithm is declared
//! here once, as one `Row` — and this rustdoc is the one place the
//! menu is written down (`s` = bytes a rank contributes, `r` = bytes of
//! its result, `t` = the agreed total of a counted `allgatherv`'s
//! counts, `b` = bytes of one all-to-all block, `d` = the agreed
//! maximum degree, `p` = communicator size). "Copies per rank" is the
//! payload-byte memcpy bill on the shared-`Bytes` datapath; folds that
//! combine a received payload into an accumulator *in place* are
//! compute, not copies. Rows appear in row order, the fallback row of
//! each collective in **bold**:
//!
//! | row ([`AlgoClass::name`]) | algorithm | startups | copies per rank | needs | static `Auto` picks it when | runs as |
//! |---|---|---|---|---|---|---|
//! | **`allreduce/recursive_doubling`** | round 0 sends a copy the partner folds into; later rounds send the accumulator as a refcount payload, and the last folds into the contribution | log2 p (+2 off powers of two) | s + r (+ r handing the result back off powers of two) | — | otherwise | blocking, `iallreduce`, `allreduce_init` |
//! | `allreduce/rabenseifner` | reduce-scatter folding into fresh shrinking halves + ring allgather of refcount chunks | log2 p + p | s + r (+ r handing the result back off powers of two) | — | `p >= 4`, `s >=` [`CollTuning::rabenseifner_min_bytes`] | blocking, `iallreduce`, `allreduce_init` |
//! | **`bcast/binomial`** | binomial tree, refcount forwarding; every rank sends to its largest subtree first, so the critical path is ceil(log2 p) hops | <= log2 p | root s, other r | — | otherwise (and always where non-roots do not know `s`) | blocking, `ibcast`, `bcast_init` |
//! | `bcast/scatter_allgather` | van de Geijn: scatter + eager allgather of the chunks | ~2p | root s, other r | `s > 0`, known on every rank | `p >= 4`, `s >=` [`CollTuning::bcast_scatter_min_bytes`] | blocking (the sized `bcast*`) |
//! | **`allgather/ring`** | eager fan-out: the own block to every peer as a refcount clone, all posted before the first receive (the name is the row's, kept from the forwarding ring) | p-1 | s + r | — | otherwise | blocking (the self-sizing `allgatherv` always), `iallgather(v)`, `allgather(v)_init` |
//! | `allgather/recursive_doubling` | packed doubling rounds, carved by the agreed block sizes | log2 p | s·(p-2) + r (counted: the bytes of the blocks it packs) | `p >= 2`, a power of two, block sizes every rank knows | `p >= 4`, `s <=` [`CollTuning::allgather_rd_max_bytes`]; for a counted `allgatherv`, `t <=` it | blocking `allgather` and counted `allgatherv`, `iallgather`, `allgather_init` |
//! | `allgather/bruck` | rotated packed rounds, carved by the agreed block sizes | ceil(log2 p) | <= s·(p-2) + r (counted: the bytes of the blocks it packs) | `p >= 2`, block sizes every rank knows | `p >= 4` not a power of two, `s <=` [`CollTuning::allgather_bruck_max_bytes`]; for a counted `allgatherv`, `t <=` it | blocking `allgather` and counted `allgatherv`, `iallgather`, `allgather_init` |
//! | **`alltoall/pairwise`** | one message per peer in the rotation `rank + 1, rank + 2, …`, pack-once + slice, all posted before the first receive | p-1 | s + r | — | otherwise | blocking (`alltoallv/w` always), `ialltoall(v)`, `alltoallv_init` |
//! | `alltoall/bruck` | packed log-round forwarding | ceil(log2 p) | s + r + s·ceil(log2 p)/2 | `p >= 2`, equal blocks | `p >= 4`, `b <=` [`CollTuning::bruck_max_block_bytes`] | blocking, `ialltoall` |
//! | `reduce/binomial_tree` | binomial tree, in-place folds | <= log2 p | leaf s, inner 0, root r | a commutative op | blocking `reduce` | blocking, `ireduce` |
//! | **`reduce/flat_gather`** | one send to the root, which folds the collected blocks in place, strictly in rank order | 1 (root p-1) | s (root: + r) | — | otherwise | blocking, `ireduce`; with a binomial broadcast, the allreduce of a non-commutative op in every lifecycle (unselected) |
//! | **`neighborhood/sparse`** | one message per declared edge, all posted before the first receive | d | s + r | — | otherwise | blocking, `ineighbor_*`, `neighbor_*_init` (the last two always, unselected) |
//! | `neighborhood/dense` | one message per rank, self included, an empty filler for a non-neighbor | p-1 | s + r | duplicate-free neighbor lists | `p >= 2`, `d >=` [`CollTuning::neighborhood_dense_min_degree_pct`] % of `p-1` | blocking |
//!
//! Every row is one engine of `collectives/nonblocking.rs` in each
//! lifecycle it runs as: the eager rows (ring, pairwise, flat gather,
//! both neighborhood rows) the flat `Exchange`, the others a `Rounds`
//! description. A row's static `Auto` rule is the same in every
//! lifecycle, so an `i*` or a `*_init` runs the schedule its blocking
//! twin runs; only the reduce tree's rule names one (an `ireduce` keeps
//! the eager flat gather).
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
//!   learns the algorithm from the wire).
//! - [`CLASS_COUNT`], [`AlgoClass::ALL`] and [`AlgoClass::name`].

use std::time::Instant;

use super::model::{self, AlgoClass, ModelConfig, ModelSnapshot, Pick};
use super::{
    AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, NeighborhoodAlgo,
    ReduceAlgo, Select,
};
use crate::comm::Comm;
use crate::error::Result;
use crate::trace;

/// What a call brings to the selection besides the communicator: the
/// collectively agreed inputs every rank passes identically.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Call {
    /// Contribution bytes; block bytes for alltoall; the agreed maximum
    /// degree for neighborhood exchanges; the agreed total of a counted
    /// `allgatherv` (see [`Call::total`]).
    pub size: usize,
    /// The reduction operation is commutative.
    pub commutative: bool,
    /// The topology's neighbor lists are duplicate-free.
    pub duplicate_free: bool,
    /// Every rank knows `size` and how the payload splits into blocks
    /// (equal, or by agreed counts): not so for a persistent broadcast
    /// (its non-roots do not know the size) or self-sizing variable
    /// blocks. Only the fallback rows serve an irregular call.
    pub regular: bool,
    /// `size` is the agreed total of every rank's block, not one rank's
    /// contribution: the static rules compare the total (MPICH's
    /// `tot_bytes` rule), the cost model reads its mean per rank.
    pub total: bool,
}

impl Call {
    /// A call of `size` with nothing else to restrict the menu.
    pub(crate) fn sized(size: usize) -> Call {
        Call {
            size,
            commutative: true,
            duplicate_free: true,
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

    /// The bytes per rank the cost model's features read.
    fn volume(&self, p: usize) -> usize {
        if self.total {
            self.size / p.max(1)
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

/// Serialized rounds over `(p, ceil(log2 p))`: the rounds whose sends
/// wait on the previous round's receive, each charged
/// [`ModelConfig::overlap_alpha_pct`] in the overlap lifecycle.
type RoundCount = fn(usize, f64) -> f64;

/// Everything is posted at the call (the flat, eager engines).
const ONE_ROUND: RoundCount = |_, _| 1.0;
/// `ceil(log2 p)` rounds.
const LOG_ROUNDS: RoundCount = |_, l| l;

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
    /// The static `Auto` rule, over `(tuning, lifecycle, p, size)`: the
    /// first row whose rule holds is picked, the fallback row when none
    /// does.
    pub auto: fn(&CollTuning, Lifecycle, usize, usize) -> bool,
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

const NEVER: fn(&CollTuning, Lifecycle, usize, usize) -> bool = |_, _, _, _| false;
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

impl Algo for AllreduceAlgo {
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.allreduce;
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: AllreduceAlgo::RecursiveDoubling,
            class: AlgoClass::AllreduceRd,
            names: names!("recursive_doubling": "allreduce", "iallreduce", "allreduce_init"),
            needs: ALWAYS,
            auto: NEVER,
            features: |p, l, s| {
                let fix = if p.is_power_of_two() { 0.0 } else { 2.0 };
                (l + fix, s * l + fix * s)
            },
            rounds: |p, l| l + if p.is_power_of_two() { 0.0 } else { 2.0 },
        },
        Row {
            algo: AllreduceAlgo::Rabenseifner,
            class: AlgoClass::AllreduceRabenseifner,
            names: names!("rabenseifner": "allreduce", "iallreduce", "allreduce_init"),
            needs: ALWAYS,
            auto: |t, _, p, s| p >= 4 && s >= t.rabenseifner_min_bytes,
            features: |p, l, s| (l + p as f64 - 1.0, 2.0 * s),
            // The ring allgather is serialized hop by hop.
            rounds: |p, l| l + p as f64 - 1.0,
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
            // Zero-length chunks cannot tell `bcast_vec`'s non-roots a
            // header-only message from a fused one.
            needs: |_, call| call.regular && call.size > 0,
            auto: |t, _, p, s| p >= 4 && s >= t.bcast_scatter_min_bytes,
            features: |p, _, s| (2.0 * (p as f64 - 1.0), 2.0 * s),
            // The scatter, then one eager allgather.
            rounds: |_, _| 2.0,
        },
    ];
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
            auto: |t, _, p, s| p >= 4 && s <= t.allgather_rd_max_bytes && p.is_power_of_two(),
            features: |p, l, s| (l, (2.0 * p as f64 - 3.0).max(1.0) * s),
            rounds: LOG_ROUNDS,
        },
        Row {
            algo: AllgatherAlgo::Bruck,
            class: AlgoClass::AllgatherBruck,
            names: names!("bruck": "allgather", "iallgather", "allgather_init"),
            needs: |p, call| p >= 2 && call.regular,
            auto: |t, _, p, s| p >= 4 && s <= t.allgather_bruck_max_bytes && !p.is_power_of_two(),
            features: |p, l, s| (l, (2.0 * p as f64 - 3.0).max(1.0) * s),
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
            auto: |t, _, p, s| p >= 4 && s <= t.bruck_max_block_bytes,
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
            auto: |_, lifecycle, _, _| lifecycle == Lifecycle::Blocking,
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

impl Algo for NeighborhoodAlgo {
    const SLOT: fn(&CollTuning) -> Select<Self> = |t| t.neighborhood;
    // Degree-driven: `size` carries the collectively agreed maximum
    // degree, and the payload volume is deliberately not modelled
    // (per-rank payload sizes are not symmetric inputs) — alpha absorbs
    // the typical per-message cost.
    const ROWS: &'static [Row<Self>] = &[
        Row {
            algo: NeighborhoodAlgo::Sparse,
            class: AlgoClass::NeighborhoodSparse,
            names: names!("sparse": "neighborhood"),
            needs: ALWAYS,
            auto: NEVER,
            features: |_, _, d| (d.max(1.0), 0.0),
            rounds: ONE_ROUND,
        },
        Row {
            algo: NeighborhoodAlgo::Dense,
            class: AlgoClass::NeighborhoodDense,
            names: names!("dense": "neighborhood"),
            needs: |_, call| call.duplicate_free,
            auto: |t, _, p, d| p >= 2 && d * 100 >= t.neighborhood_dense_min_degree_pct * (p - 1),
            features: |p, _, _| ((p as f64 - 1.0).max(1.0), 0.0),
            rounds: ONE_ROUND,
        },
    ];
}

/// Number of rows, i.e. of algorithm classes the model tracks.
pub const CLASS_COUNT: usize = AllreduceAlgo::ROWS.len()
    + BcastAlgo::ROWS.len()
    + AllgatherAlgo::ROWS.len()
    + AlltoallAlgo::ROWS.len()
    + ReduceAlgo::ROWS.len()
    + NeighborhoodAlgo::ROWS.len();

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
    let (out, at) = put::<ReduceAlgo>(out, at);
    put::<NeighborhoodAlgo>(out, at).0
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
                .find(|r| (r.auto)(tuning, lifecycle, p, call.size));
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

/// Predicted cost of `row` at `(p, size)`, every serialized round of
/// its engine charged `round_bias` extra startups.
fn cost<A>(snap: &ModelSnapshot, row: &Row<A>, (p, size): (usize, usize), round_bias: f64) -> f64 {
    let (est, l) = (snap.class(row.class), ceil_log2(p));
    let (startups, bytes) = (row.features)(p, l, size as f64);
    est.predict_ns(startups, bytes) + (row.rounds)(p, l) * est.alpha_ns * round_bias
}

/// The model's choice among the candidate rows `cands` at `(p, size)`
/// (`static_i` is the static pick): an index into `cands`.
///
/// Blocking: static until the static class is warm, then explore cold
/// candidates (fewest observations first, ties to the lowest index),
/// then the warm argmin — refreshed every
/// [`ModelConfig::reexplore_every`]-th driven call (`seq`, the
/// rank-aligned tick counter) by re-measuring the least-observed
/// candidate, so stale cold-start estimates cannot lock in a loser.
///
/// Overlap: static until *every* candidate class is warm (the engines
/// are never measured, so exploration could not warm them anyway), then
/// the argmin with the per-round overlap penalty.
fn choose<A>(
    snap: &ModelSnapshot,
    cfg: &ModelConfig,
    cands: &[&Row<A>],
    at: (usize, usize),
    static_i: usize,
    lifecycle: Lifecycle,
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
    if lifecycle == Lifecycle::Overlap {
        if !(0..cands.len()).all(warm) {
            return (static_i, Pick::Static);
        }
        return (
            argmin(f64::from(cfg.overlap_alpha_pct) / 100.0),
            Pick::Model,
        );
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
            let at = (p, call.volume(p));
            let (i, by) = choose(&snap, &tuning.model, cands, at, static_i, lifecycle, seq);
            (row, pick) = (cands[i], by);
        }
    }
    model::note_decision(row.class, pick);
    row.algo
}

/// The two-step form of [`tuned`], for a caller that learns the
/// algorithm after the sync point (`bcast_vec`'s non-roots read it off
/// the root's message).
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

    const AT: (usize, usize) = (8, 1024);

    fn blocking<A>(
        snap: &ModelSnapshot,
        cfg: &ModelConfig,
        cands: &[&Row<A>],
        seq: u64,
    ) -> (usize, Pick) {
        choose(snap, cfg, cands, AT, 0, Lifecycle::Blocking, seq)
    }

    fn overlap<A>(snap: &ModelSnapshot, cfg: &ModelConfig, cands: &[&Row<A>]) -> (usize, Pick) {
        choose(snap, cfg, cands, AT, 0, Lifecycle::Overlap, 0)
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
        assert_eq!(overlap(&snap, &cfg, &cands), (0, Pick::Static));

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
        let heavy = ModelConfig::default().drive(true).overlap_alpha_pct(10_000);
        assert_eq!(overlap(&snap, &heavy, &cands), (0, Pick::Model));
        // With no bias, Bruck's fewer startups win.
        let none = ModelConfig::default().drive(true).overlap_alpha_pct(0);
        assert_eq!(overlap(&snap, &none, &cands), (1, Pick::Model));
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
            duplicate_free: false,
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
        check_rows::<NeighborhoodAlgo>();
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
                let eager = base.bcast_scatter_min_bytes(0);
                assert_eq!(
                    pick(&comm, eager, Lifecycle::Blocking, Call::sized(0)),
                    want
                );
                // Duplicate neighbors have no dense form — forced, or
                // picked by `Auto` on a complete graph.
                let dup = Call {
                    duplicate_free: false,
                    ..Call::sized(p - 1)
                };
                let forced = base.neighborhood(NeighborhoodAlgo::Dense);
                let want = (NeighborhoodAlgo::Sparse, STATIC);
                assert_eq!(pick(&comm, forced, Lifecycle::Blocking, dup), want);
                assert_eq!(pick(&comm, base, Lifecycle::Blocking, dup), want);
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
