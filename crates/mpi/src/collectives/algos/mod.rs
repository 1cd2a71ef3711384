//! Tunable collective algorithms: the selection engine.
//!
//! Real MPI implementations do not hard-wire one algorithm per
//! collective — they switch algorithms by message size and communicator
//! size, which is exactly the baseline the paper's §V overhead
//! measurements compete against. This module gives the substrate the
//! same structure: each hot collective has at least two algorithm
//! implementations, and a per-communicator [`CollTuning`] policy picks
//! one at call time. The binding layer stays policy-free; it forwards a
//! user-provided tuning (the `tuning(...)` named parameter in `kamping`)
//! through [`Comm::tuning_guard`](crate::Comm::tuning_guard).
//!
//! The menu — every algorithm with its startups, copy bill, needs and
//! static `Auto` rule — is the [`table`] module: each algorithm is
//! declared there once, and its rustdoc is the one written-down copy.
//!
//! The `Auto` rules of that table are the **static fallback**.
//! With [`CollTuning::self_tuning`] enabled, `Auto` selection is driven
//! by the online measured cost model in [`model`]: per-algorithm
//! `(alpha, beta)` estimates fitted by EWMA from wall-clock
//! measurements predict each candidate's cost at call time, and the
//! cheapest wins — the static thresholds only govern the warm-up phase
//! (and remain the whole story when the model is off, the default).
//! `Select::Force` is never overridden by the model.
//!
//! Selection must be *symmetric*: every rank of a communicator must
//! arrive at a collective with the same tuning (like MPI info hints) and
//! the same message size, otherwise ranks would disagree on the wire
//! protocol. The `Auto` policies only consult values MPI already
//! requires to agree across ranks — including the model's published
//! snapshot, which only changes at matched sync points (see [`model`]).

pub(crate) mod allgather;
pub(crate) mod allreduce;
pub(crate) mod alltoall;
pub(crate) mod bcast;
pub mod model;
pub(crate) mod reduce;
pub mod table;

pub use bcast::BcastParts;
pub use model::{
    AlgoClass, ClassEstimate, ClassStat, ModelConfig, ModelSnapshot, TuningStats, CLASS_COUNT,
};

use std::borrow::Cow;

use self::table::{static_pick, Algo, Call, Lifecycle};
use crate::error::{MpiError, Result};
use crate::op::ReduceOp;
use crate::plain::{vec_with_capacity, whole_elements};
use crate::Plain;

/// An algorithm slot of [`CollTuning`]: either the size-thresholded
/// default policy or a forced algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Select<A> {
    /// Pick by the tuning's thresholds (the default).
    #[default]
    Auto,
    /// Always use this algorithm (when it is correct for the call; e.g.
    /// a non-commutative reduction ignores a forced tree algorithm).
    Force(A),
}

/// Allreduce algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Latency-optimal: log2 p rounds exchanging the full vector.
    RecursiveDoubling,
    /// Bandwidth-optimal: recursive-halving reduce-scatter followed by a
    /// ring allgather of the reduced chunks.
    Rabenseifner,
}

/// Broadcast algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Latency-optimal binomial tree (forwarding is refcount cloning).
    Binomial,
    /// Bandwidth-optimal van de Geijn: scatter chunks from the root,
    /// then ring-allgather them. Requires the payload size to be known
    /// on every rank (the sized bcast paths).
    ScatterAllgather,
}

/// Allgather algorithm (equal-sized blocks and the counted `allgatherv`;
/// the self-sizing `allgatherv` forms always ring).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllgatherAlgo {
    /// `p-1` rounds forwarding one block per step as a refcount clone —
    /// bandwidth-friendly (no repacking) but `p-1` startups.
    Ring,
    /// log2 p rounds exchanging doubling-size packed block groups.
    /// Latency-optimal for small blocks; requires a power-of-two
    /// communicator (falls back to the ring otherwise) and pays
    /// `s·(p-2)` packing copies per rank.
    RecursiveDoubling,
    /// ceil(log2 p) rounds of rotated block-group forwarding — the same
    /// startup count as recursive doubling with **no power-of-two
    /// restriction**. Latency-optimal for small blocks on any
    /// communicator size; single-block rounds forward refcount clones,
    /// multi-block rounds pack (at most `s·(p-2)` copies per rank).
    Bruck,
}

/// All-to-all algorithm (equal-sized blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlltoallAlgo {
    /// One message per peer; bandwidth-optimal.
    Pairwise,
    /// ceil(log2 p) rounds of packed block forwarding; latency-optimal
    /// for small blocks.
    Bruck,
}

/// Neighborhood-exchange algorithm (topology collectives over
/// [`Neighborhood`](crate::topology::Neighborhood) communicators).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeighborhoodAlgo {
    /// One message per declared neighbor: `d_out` envelopes per rank
    /// per round instead of `p-1` — the whole point of the topology
    /// subsystem. Always correct (duplicate neighbors become repeated
    /// messages on the same FIFO stream).
    Sparse,
    /// Route through the dense pairwise `alltoallv` with zeroed
    /// non-neighbor counts. On near-complete graphs (`d ≈ p-1`) sparsity
    /// saves nothing, and the dense engine's pack-once + slice datapath
    /// is already optimal there. Requires duplicate-free neighbor lists
    /// (one `alltoallv` block per peer); ineligible topologies resolve
    /// to [`NeighborhoodAlgo::Sparse`] at the call site.
    Dense,
}

/// Reduce algorithm (`reduce`, `ireduce`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceAlgo {
    /// Binomial tree with in-place folds over delivered payloads.
    /// Requires a commutative operation.
    BinomialTree,
    /// Gather everything to the root, fold in strict rank order. Works
    /// for any operation; the only choice for non-commutative ones.
    FlatGather,
}

/// Per-communicator collective tuning policy.
///
/// Stored on every [`Comm`](crate::Comm) (inherited by `dup`/`split`)
/// and consulted at each collective call. All ranks of a communicator
/// must use the same tuning for the same call — the policy is part of
/// the wire protocol, exactly like an MPI info hint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollTuning {
    /// Allreduce algorithm slot (commutative operations; every
    /// lifecycle).
    pub allreduce: Select<AllreduceAlgo>,
    /// Broadcast algorithm slot (sized paths only; unsized broadcasts
    /// always run the binomial tree, because non-roots cannot agree on
    /// a size they do not know).
    pub bcast: Select<BcastAlgo>,
    /// Allgather algorithm slot (equal-block exchanges and the counted
    /// `allgatherv`; the self-sizing `allgatherv` forms, whose block
    /// sizes no rank knows up front, always travel the ring).
    pub allgather: Select<AllgatherAlgo>,
    /// All-to-all algorithm slot (equal-block exchanges only).
    pub alltoall: Select<AlltoallAlgo>,
    /// Reduce algorithm slot (`reduce`, `ireduce`). Blocking `reduce`
    /// defaults to the binomial tree; `ireduce` defaults to the flat
    /// gather (whose eager sends are what makes overlap work) and
    /// switches to the tree only when forced. The allreduce family —
    /// blocking, `iallreduce`, `allreduce_init` — reads the
    /// [`allreduce`](Self::allreduce) slot instead.
    pub reduce: Select<ReduceAlgo>,
    /// Neighborhood-exchange algorithm slot (topology communicators).
    pub neighborhood: Select<NeighborhoodAlgo>,
    /// `Auto` switches neighborhood exchanges to the dense pairwise path
    /// when the collectively-agreed maximum degree reaches this
    /// percentage of `p - 1` (near-complete graphs, where sparsity saves
    /// nothing).
    pub neighborhood_dense_min_degree_pct: usize,
    /// `Auto` switches allreduce to Rabenseifner at this many payload
    /// bytes per rank (and `p >= 4`).
    pub rabenseifner_min_bytes: usize,
    /// `Auto` switches sized broadcasts to scatter+allgather at this
    /// many payload bytes (and `p >= 4`).
    pub bcast_scatter_min_bytes: usize,
    /// `Auto` switches alltoall to Bruck at or below this many bytes
    /// per block (and `p >= 4`).
    pub bruck_max_block_bytes: usize,
    /// `Auto` switches allgather to recursive doubling at or below this
    /// many contribution bytes per rank (and `p >= 4`, power of two).
    /// A counted `allgatherv`'s variable blocks are compared by their
    /// total instead (MPICH's `tot_bytes` rule).
    pub allgather_rd_max_bytes: usize,
    /// `Auto` switches allgather to Bruck at or below this many
    /// contribution bytes per rank on non-power-of-two communicators
    /// (`p >= 4`) — the latency regime recursive doubling cannot serve
    /// there. A counted `allgatherv`'s variable blocks are compared by
    /// their total instead.
    pub allgather_bruck_max_bytes: usize,
    /// Online measured cost model configuration (see [`model`]). With
    /// [`ModelConfig::drive`] off (the default) every `Auto` selection
    /// above is decided purely by the static thresholds and the model
    /// neither measures nor synchronizes anything.
    pub model: ModelConfig,
}

impl Default for CollTuning {
    fn default() -> Self {
        CollTuning {
            allreduce: Select::Auto,
            bcast: Select::Auto,
            allgather: Select::Auto,
            alltoall: Select::Auto,
            reduce: Select::Auto,
            neighborhood: Select::Auto,
            // At 90% of p-1 the alpha saving is under 10% while the
            // sparse path gives up the dense engine's single shared
            // internal tag; near-complete graphs go dense.
            neighborhood_dense_min_degree_pct: 90,
            // Crossover points measured with the cluster cost model
            // (alpha = 1.5 us, beta = 0.1 ns/B): the bandwidth-optimal
            // algorithms overtake at ~100-180 KiB for p in {4, 8}, so
            // the defaults sit just above — Auto never picks an
            // algorithm into its losing regime.
            rabenseifner_min_bytes: 128 * 1024,
            bcast_scatter_min_bytes: 256 * 1024,
            bruck_max_block_bytes: 1024,
            // In alpha-beta terms recursive doubling never loses to the
            // ring on a power-of-two communicator (log2 p vs p-1
            // startups, same volume), but its packed rounds memcpy
            // s·(p-2) bytes the ring forwards for free — so Auto keeps
            // it in the latency regime where packing cost is noise.
            allgather_rd_max_bytes: 8 * 1024,
            // Bruck has the same startup/packing trade on any p; the
            // same latency-regime ceiling applies off powers of two.
            allgather_bruck_max_bytes: 8 * 1024,
            model: ModelConfig::default(),
        }
    }
}

impl CollTuning {
    /// Forces the allreduce algorithm.
    pub fn allreduce(mut self, algo: AllreduceAlgo) -> Self {
        self.allreduce = Select::Force(algo);
        self
    }

    /// Forces the (sized) broadcast algorithm.
    pub fn bcast(mut self, algo: BcastAlgo) -> Self {
        self.bcast = Select::Force(algo);
        self
    }

    /// Forces the allgather algorithm (recursive doubling still falls
    /// back to the ring on non-power-of-two communicators).
    pub fn allgather(mut self, algo: AllgatherAlgo) -> Self {
        self.allgather = Select::Force(algo);
        self
    }

    /// Forces the alltoall algorithm.
    pub fn alltoall(mut self, algo: AlltoallAlgo) -> Self {
        self.alltoall = Select::Force(algo);
        self
    }

    /// Forces the reduce algorithm.
    pub fn reduce(mut self, algo: ReduceAlgo) -> Self {
        self.reduce = Select::Force(algo);
        self
    }

    /// Forces the neighborhood-exchange algorithm (the dense path still
    /// yields to sparse on topologies with duplicate neighbors, which
    /// it cannot express).
    pub fn neighborhood(mut self, algo: NeighborhoodAlgo) -> Self {
        self.neighborhood = Select::Force(algo);
        self
    }

    /// Sets the dense switch-over degree ratio (percent of `p - 1`).
    pub fn neighborhood_dense_min_degree_pct(mut self, pct: usize) -> Self {
        self.neighborhood_dense_min_degree_pct = pct;
        self
    }

    /// Sets the Rabenseifner switch-over size (bytes per rank).
    pub fn rabenseifner_min_bytes(mut self, bytes: usize) -> Self {
        self.rabenseifner_min_bytes = bytes;
        self
    }

    /// Sets the scatter+allgather broadcast switch-over size (bytes).
    pub fn bcast_scatter_min_bytes(mut self, bytes: usize) -> Self {
        self.bcast_scatter_min_bytes = bytes;
        self
    }

    /// Sets the Bruck block-size ceiling (bytes per block).
    pub fn bruck_max_block_bytes(mut self, bytes: usize) -> Self {
        self.bruck_max_block_bytes = bytes;
        self
    }

    /// Sets the recursive-doubling allgather ceiling (bytes per rank).
    pub fn allgather_rd_max_bytes(mut self, bytes: usize) -> Self {
        self.allgather_rd_max_bytes = bytes;
        self
    }

    /// Sets the Bruck allgather ceiling (bytes per rank,
    /// non-power-of-two communicators).
    pub fn allgather_bruck_max_bytes(mut self, bytes: usize) -> Self {
        self.allgather_bruck_max_bytes = bytes;
        self
    }

    /// Enables the online measured cost model: `Auto` slots are driven
    /// by runtime wall-clock evidence once warm (see [`model`]), with
    /// the static thresholds governing the warm-up phase. All ranks of
    /// a communicator must enable it together — the model's sync
    /// broadcasts are matched collectives.
    pub fn self_tuning(mut self) -> Self {
        self.model.drive = true;
        self
    }

    /// Replaces the model configuration wholesale (cadence, warm-up,
    /// EWMA weight, overlap bias — see [`ModelConfig`]).
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// The static blocking pick of `A` at `(p, size)`.
    fn static_algo<A: Algo>(&self, p: usize, size: usize) -> A {
        static_pick(self, Lifecycle::Blocking, p, &Call::sized(size))
            .0
            .algo
    }

    /// Selects the allreduce algorithm for `bytes` payload bytes per
    /// rank on a communicator of `p` ranks.
    pub fn allreduce_algo(&self, p: usize, bytes: usize) -> AllreduceAlgo {
        self.static_algo(p, bytes)
    }

    /// Selects the broadcast algorithm for a payload of `bytes` bytes
    /// whose size is known on every rank.
    pub fn bcast_algo(&self, p: usize, bytes: usize) -> BcastAlgo {
        self.static_algo(p, bytes)
    }

    /// Selects the allgather algorithm for equal contributions of
    /// `bytes` bytes per rank. Recursive doubling requires a
    /// power-of-two communicator: forcing it on any other size resolves
    /// to the ring, mirroring how a forced tree reduce yields to
    /// non-commutative operations. Bruck works for any `p >= 2`,
    /// completing the latency-regime menu off powers of two.
    pub fn allgather_algo(&self, p: usize, bytes: usize) -> AllgatherAlgo {
        self.static_algo(p, bytes)
    }

    /// Selects the alltoall algorithm for equal blocks of `block_bytes`
    /// bytes.
    pub fn alltoall_algo(&self, p: usize, block_bytes: usize) -> AlltoallAlgo {
        self.static_algo(p, block_bytes)
    }

    /// Selects the neighborhood-exchange algorithm from the
    /// collectively-agreed maximum degree
    /// ([`Neighborhood::max_degree`](crate::topology::Neighborhood) —
    /// never the local degree, which differs across ranks while the
    /// selection must not). The caller still routes dense through sparse
    /// when the topology is not
    /// [`dense_eligible`](crate::topology::Neighborhood::dense_eligible).
    pub fn neighborhood_algo(&self, p: usize, max_degree: usize) -> NeighborhoodAlgo {
        self.static_algo(p, max_degree)
    }
}

// ---------------------------------------------------------------------------
// In-place folds over delivered payloads
// ---------------------------------------------------------------------------

/// Checks that a delivered payload matches the accumulator's byte size.
fn check_fold_len(what: &str, acc_bytes: usize, bytes: &[u8]) -> Result<()> {
    if bytes.len() != acc_bytes {
        return Err(MpiError::InvalidLayout(format!(
            "{what}: received {} payload bytes for a {acc_bytes}-byte accumulator",
            bytes.len(),
        )));
    }
    Ok(())
}

/// The plain values of a delivered payload, read in place (unaligned
/// reads; `T: Plain` accepts any byte pattern). Trailing bytes short of
/// a whole value are not read.
fn elements<T: Plain>(bytes: &[u8]) -> impl Iterator<Item = T> + '_ {
    bytes
        .chunks_exact(std::mem::size_of::<T>().max(1))
        .map(|c| {
            // SAFETY: `c` holds `size_of::<T>()` bytes (a zero-sized `T`
            // reads none), and `T: Plain` permits unaligned reads of
            // arbitrary byte patterns.
            unsafe { c.as_ptr().cast::<T>().read_unaligned() }
        })
}

/// Elementwise `acc[i] = op(acc[i], bytes[i])`, reading the delivered
/// payload in place. The received block is the *right* (higher-ranked)
/// operand. This is compute, not a payload copy — the reductions'
/// former `O(s log p)` materialization bill becomes zero.
pub(crate) fn fold_bytes_right<T: Plain, O: ReduceOp<T>>(
    acc: &mut [T],
    bytes: &[u8],
    op: &O,
) -> Result<()> {
    check_fold_len("reduce fold", std::mem::size_of_val(acc), bytes)?;
    for (a, b) in acc.iter_mut().zip(elements::<T>(bytes)) {
        *a = op.apply(a, &b);
    }
    Ok(())
}

/// `out[i] = op(a[i], b[i])` over two delivered payloads, both read in
/// place — the fold of the allreduce engines, whose accumulators travel
/// as refcount payloads. `out` is `into` when it has the right length
/// (a vector no peer reads), else a fresh vector.
pub(crate) fn fold_payloads<T: Plain, O: ReduceOp<T>>(
    a: &[u8],
    b: &[u8],
    op: &O,
    into: Option<Vec<T>>,
) -> Result<Vec<T>> {
    check_fold_len("allreduce fold", a.len(), b)?;
    let n = whole_elements::<T>(a.len())?;
    let mut out = into
        .filter(|v| v.len() == n)
        .unwrap_or_else(|| vec_with_capacity(n));
    out.clear();
    out.extend(elements(a).zip(elements(b)).map(|(x, y)| op.apply(&x, &y)));
    Ok(out)
}

/// `out[i] = op(prefix[i], send[i])` where `prefix` is a delivered
/// payload read in place — the `scan` / `exscan` datapath: the upstream
/// prefix is the *left* operand, so non-commutative operations stay
/// rank-ordered. An owned `send` is folded in place and returned, a
/// borrowed one folds into a fresh vector.
pub(crate) fn fold_bytes_to_vec<T: Plain, O: ReduceOp<T>>(
    prefix: &[u8],
    send: Cow<'_, [T]>,
    op: &O,
) -> Result<Vec<T>> {
    check_fold_len("scan fold", std::mem::size_of_val(&*send), prefix)?;
    let pre = elements::<T>(prefix);
    Ok(match send {
        Cow::Owned(mut acc) => {
            for (a, p) in acc.iter_mut().zip(pre) {
                *a = op.apply(&p, a);
            }
            acc
        }
        Cow::Borrowed(send) => pre.zip(send).map(|(p, s)| op.apply(&p, s)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Sum;
    use crate::plain::as_bytes;

    #[test]
    fn default_tuning_thresholds() {
        let t = CollTuning::default();
        assert_eq!(t.allreduce_algo(8, 1024), AllreduceAlgo::RecursiveDoubling);
        assert_eq!(t.allreduce_algo(8, 1 << 20), AllreduceAlgo::Rabenseifner);
        // Small communicators never switch automatically.
        assert_eq!(
            t.allreduce_algo(2, 1 << 20),
            AllreduceAlgo::RecursiveDoubling
        );
        assert_eq!(t.bcast_algo(8, 1 << 20), BcastAlgo::ScatterAllgather);
        assert_eq!(t.bcast_algo(8, 1024), BcastAlgo::Binomial);
        assert_eq!(t.alltoall_algo(8, 64), AlltoallAlgo::Bruck);
        assert_eq!(t.alltoall_algo(8, 1 << 20), AlltoallAlgo::Pairwise);
        assert_eq!(t.alltoall_algo(2, 64), AlltoallAlgo::Pairwise);
        assert_eq!(t.allgather_algo(8, 64), AllgatherAlgo::RecursiveDoubling);
        assert_eq!(t.allgather_algo(8, 1 << 20), AllgatherAlgo::Ring);
        // Non-power-of-two communicators take Bruck in the latency
        // regime and ring above it.
        assert_eq!(t.allgather_algo(6, 64), AllgatherAlgo::Bruck);
        assert_eq!(t.allgather_algo(5, 8 * 1024), AllgatherAlgo::Bruck);
        assert_eq!(t.allgather_algo(6, 1 << 20), AllgatherAlgo::Ring);
        // Small communicators never switch automatically.
        assert_eq!(t.allgather_algo(2, 64), AllgatherAlgo::Ring);
        assert_eq!(t.allgather_algo(3, 64), AllgatherAlgo::Ring);
    }

    #[test]
    fn neighborhood_selection_by_degree_ratio() {
        let t = CollTuning::default();
        // The bench scenario: degree 8 at p = 16 is sparse territory.
        assert_eq!(t.neighborhood_algo(16, 8), NeighborhoodAlgo::Sparse);
        // A complete graph gains nothing from sparsity.
        assert_eq!(t.neighborhood_algo(16, 15), NeighborhoodAlgo::Dense);
        // 90% of p-1 is the default crossover: 14/15 = 93% goes dense,
        // 13/15 = 87% stays sparse.
        assert_eq!(t.neighborhood_algo(16, 14), NeighborhoodAlgo::Dense);
        assert_eq!(t.neighborhood_algo(16, 13), NeighborhoodAlgo::Sparse);
        // Degenerate communicators stay sparse.
        assert_eq!(t.neighborhood_algo(1, 1), NeighborhoodAlgo::Sparse);
        // Forcing wins regardless of ratio.
        let f = CollTuning::default().neighborhood(NeighborhoodAlgo::Dense);
        assert_eq!(f.neighborhood_algo(16, 1), NeighborhoodAlgo::Dense);
        let s = CollTuning::default().neighborhood(NeighborhoodAlgo::Sparse);
        assert_eq!(s.neighborhood_algo(16, 15), NeighborhoodAlgo::Sparse);
    }

    #[test]
    fn forced_rd_allgather_yields_on_non_power_of_two() {
        let t = CollTuning::default().allgather(AllgatherAlgo::RecursiveDoubling);
        assert_eq!(
            t.allgather_algo(4, 1 << 20),
            AllgatherAlgo::RecursiveDoubling
        );
        assert_eq!(
            t.allgather_algo(2, 1 << 20),
            AllgatherAlgo::RecursiveDoubling
        );
        assert_eq!(t.allgather_algo(5, 1), AllgatherAlgo::Ring);
        assert_eq!(t.allgather_algo(1, 1), AllgatherAlgo::Ring);
    }

    #[test]
    fn forced_bruck_allgather_works_on_any_p() {
        let t = CollTuning::default().allgather(AllgatherAlgo::Bruck);
        for p in [2, 3, 5, 6, 8, 16] {
            assert_eq!(
                t.allgather_algo(p, 1 << 20),
                AllgatherAlgo::Bruck,
                "p = {p}"
            );
        }
        assert_eq!(t.allgather_algo(1, 1), AllgatherAlgo::Ring);
    }

    #[test]
    fn forced_algorithms_win() {
        let t = CollTuning::default()
            .allreduce(AllreduceAlgo::Rabenseifner)
            .bcast(BcastAlgo::ScatterAllgather)
            .alltoall(AlltoallAlgo::Bruck)
            .reduce(ReduceAlgo::FlatGather);
        assert_eq!(t.allreduce_algo(2, 1), AllreduceAlgo::Rabenseifner);
        assert_eq!(t.bcast_algo(2, 1), BcastAlgo::ScatterAllgather);
        assert_eq!(t.alltoall_algo(2, 1 << 20), AlltoallAlgo::Bruck);
        assert_eq!(reduce_pick(&t, true), ReduceAlgo::FlatGather);
    }

    /// The blocking `reduce` pick for a commutative op, or not.
    fn reduce_pick(t: &CollTuning, commutative: bool) -> ReduceAlgo {
        let call = Call::reduction(0, commutative);
        static_pick(t, Lifecycle::Blocking, 2, &call).0.algo
    }

    #[test]
    fn non_commutative_reduce_never_uses_the_tree() {
        let t = CollTuning::default().reduce(ReduceAlgo::BinomialTree);
        assert_eq!(reduce_pick(&t, false), ReduceAlgo::FlatGather);
        assert_eq!(reduce_pick(&t, true), ReduceAlgo::BinomialTree);
    }

    #[test]
    fn fold_right_combines_in_place() {
        let mut acc = vec![1u64, 2, 3];
        let theirs = [10u64, 20, 30];
        fold_bytes_right(&mut acc, as_bytes(&theirs), &Sum).unwrap();
        assert_eq!(acc, vec![11, 22, 33]);
    }

    #[test]
    fn fold_length_mismatch_errors() {
        let mut acc = vec![1u64];
        assert!(fold_bytes_right(&mut acc, &[0u8; 4], &Sum).is_err());
        assert!(fold_bytes_to_vec(&[0u8; 4], Cow::Borrowed(&[1u64][..]), &Sum).is_err());
        assert!(fold_payloads::<u64, _>(&[0u8; 8], &[0u8; 4], &Sum, None).is_err());
        assert!(fold_payloads::<u64, _>(&[0u8; 4], &[0u8; 4], &Sum, None).is_err());
    }

    #[test]
    fn fold_payloads_reads_misaligned_operands_into_a_given_or_fresh_vector() {
        let (a, b) = ([1u64, 2, 3], [10u64, 20, 30]);
        // One byte in: neither operand is aligned for `u64`.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(as_bytes(&a));
        let got: Vec<u64> = fold_payloads(&shifted[1..], as_bytes(&b), &Sum, None).unwrap();
        assert_eq!(got, vec![11, 22, 33]);
        let spare = vec![0u64; 3];
        let ptr = spare.as_ptr();
        let got = fold_payloads(&shifted[1..], as_bytes(&b), &Sum, Some(spare)).unwrap();
        assert_eq!((got.as_ptr(), &got[..]), (ptr, &[11, 22, 33][..]));
        let short = fold_payloads(as_bytes(&a), as_bytes(&b), &Sum, Some(vec![0u64; 2]));
        assert_eq!(short.unwrap(), vec![11, 22, 33]);
    }

    #[test]
    fn fold_to_vec_folds_an_owned_contribution_in_place() {
        let op = crate::op::non_commutative(|a: &u64, b: &u64| a * 10 + b);
        let prefix = [1u64, 2];
        let send = vec![3u64, 4];
        let ptr = send.as_ptr();
        let borrowed = fold_bytes_to_vec(as_bytes(&prefix), Cow::Borrowed(&send[..]), &op);
        assert_eq!(borrowed.unwrap(), vec![13, 24]);
        let owned = fold_bytes_to_vec(as_bytes(&prefix), Cow::Owned(send), &op).unwrap();
        assert_eq!((owned.as_ptr(), &owned[..]), (ptr, &[13, 24][..]));
    }
}
