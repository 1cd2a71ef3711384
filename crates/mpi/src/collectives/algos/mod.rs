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

pub use model::{
    AlgoClass, ClassEstimate, ClassStat, ModelConfig, ModelSnapshot, TuningStats, CLASS_COUNT,
};

use std::borrow::Cow;

use self::table::{static_pick, Algo, Call, Lifecycle};
use crate::error::{MpiError, Result};
use crate::op::ReduceOp;
use crate::plain::{read_elements, vec_with_capacity, whole_elements};
use crate::Plain;

/// An algorithm slot of [`CollTuning`]: either the size-thresholded
/// default policy or a forced algorithm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Select<A> {
    /// Pick by the constant size thresholds (the default).
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
    /// Bandwidth-optimal: recursive-halving reduce-scatter followed by an
    /// eager allgather of the reduced chunks (every chunk posted to every
    /// peer at once).
    Rabenseifner,
}

/// Broadcast algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Latency-optimal binomial tree (forwarding is refcount cloning).
    Binomial,
    /// Bandwidth-optimal van de Geijn: scatter chunks from the root,
    /// then allgather them in one eager exchange. Runs in every
    /// broadcast: a sized one selects it on every rank; in a self-sizing
    /// one the root selects and first announces the payload size down
    /// the tree.
    ScatterAllgather,
}

/// Allgather algorithm (equal-sized blocks, the counted `allgatherv`,
/// and the self-sizing one, whose latency rows learn the block sizes in
/// their rounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllgatherAlgo {
    /// Eager fan-out: the own block to every peer as a refcount clone,
    /// all posted before the first receive — no repacking, `p-1`
    /// startups. (The name is kept from the forwarding ring it
    /// replaced.)
    Ring,
    /// log2 p rounds exchanging doubling-size block groups, each group
    /// the parts of one message (refcount views, no packing copy).
    /// Latency-optimal for small blocks; requires a power-of-two
    /// communicator (falls back to the ring otherwise).
    RecursiveDoubling,
    /// ceil(log2 p) rounds of rotated block-group forwarding — the same
    /// startup count as recursive doubling with **no power-of-two
    /// restriction**, and like it forwarding each group as the parts of
    /// one message. Latency-optimal for small blocks on any
    /// communicator size.
    Bruck,
}

/// All-to-all algorithm (equal-sized blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlltoallAlgo {
    /// One message per peer; bandwidth-optimal.
    Pairwise,
    /// ceil(log2 p) rounds of block forwarding, each round's blocks the
    /// parts of one message; latency-optimal for small blocks.
    Bruck,
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

/// Static `Auto` runs the allgather's log-round rows at or below this
/// many bytes per rank (and `p >= 4`): recursive doubling on a power of
/// two, Bruck on any other `p`; the eager fan-out above it. Every form
/// compares bytes per rank: an equal-block allgather its contribution,
/// a counted `allgatherv` its mean block (the total over `p`), a
/// self-sizing one each block, which rides in the rounds iff its length
/// is within this ceiling and travels direct otherwise. Rabenseifner's
/// allreduce applies the same rule to its mean chunk: within the
/// ceiling its allgather phase is recursive doubling, above it the
/// eager exchange. (Van de Geijn's broadcast always gathers eagerly.)
///
/// Both log-round rows trade the fan-out's `p - 1` startups for
/// `log2 p` serialized rounds that carry `(p - 1)·s` between them;
/// since they forward parts, they copy what the fan-out copies, so the
/// ceiling is that trade alone. Under the cluster model the dry-run
/// crossover is ~9, 12, 14, 15 and 16 KiB per rank at p = 4, 8, 16, 32
/// and 64 (the alpha-beta closed form agrees; [`table`] holds the
/// audited table): 12 KiB stays within 10 % + 1 us of the fan-out at
/// p = 4 and keeps a 16 KiB block eager at p = 16.
pub const ALLGATHER_MAX_BYTES: usize = 12 * 1024;

/// Static `Auto` switches allreduce to Rabenseifner at this many
/// payload bytes per rank on a power of two, at twice as many on any
/// other `p` (and `p >= 4`).
///
/// Crossover points from dry runs under the cluster cost model
/// (alpha = 1.5 us, beta = 0.1 ns/B; the table in [`table`] is the
/// audited one): Rabenseifner, whose allgather doubles while its chunk
/// is within [`ALLGATHER_MAX_BYTES`], overtakes recursive doubling at
/// ~49, 43, 34, 29 and 27 KiB for p = 4, 8, 16, 32 and 64, so 64 KiB
/// lies in its winning regime on every power of two. Off powers of two
/// its rule asks twice that (106 KiB at p = 12; at p in {5, 6} the
/// fix-up's full-vector hand-back keeps it a few us behind doubling at
/// every size, inside the audit's tolerance from 128 KiB).
pub const RABENSEIFNER_MIN_BYTES: usize = 64 * 1024;

/// Static `Auto` switches sized broadcasts to scatter+allgather at this
/// many payload bytes (and `p >= 4`). The dry-run crossover is
/// ~100-180 KiB for p in {4, 8}, so the threshold sits just above.
pub const BCAST_SCATTER_MIN_BYTES: usize = 256 * 1024;

/// Static `Auto` switches alltoall to Bruck at or below this many bytes
/// per block (and `p >= 4`). Bruck moves every block once per set bit
/// of its distance (~s/2 per round) to save startups; its rounds
/// forward parts and copy nothing, so the ceiling rests on round volume
/// alone. It keeps the value set when each round repacked until ROADMAP
/// direction 2 (c) re-derives it.
pub const BRUCK_MAX_BLOCK_BYTES: usize = 1024;

/// Per-communicator collective tuning policy.
///
/// Stored on every [`Comm`](crate::Comm) (inherited by `dup`/`split`)
/// and consulted at each collective call. All ranks of a communicator
/// must use the same tuning for the same call — the policy is part of
/// the wire protocol, exactly like an MPI info hint. An `Auto` slot
/// picks by constants every rank shares: [`RABENSEIFNER_MIN_BYTES`],
/// [`BCAST_SCATTER_MIN_BYTES`], [`ALLGATHER_MAX_BYTES`] and
/// [`BRUCK_MAX_BLOCK_BYTES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollTuning {
    /// Allreduce algorithm slot (commutative operations; every
    /// lifecycle).
    pub allreduce: Select<AllreduceAlgo>,
    /// Broadcast algorithm slot (every broadcast: a sized one applies it
    /// on every rank, a self-sizing one on the root, whose pick the
    /// other ranks learn from the wire).
    pub bcast: Select<BcastAlgo>,
    /// Allgather algorithm slot (equal-block exchanges, the counted
    /// `allgatherv`, and the self-sizing `allgatherv` forms, whose block
    /// sizes no rank knows up front: `Auto` runs the latency rows for
    /// them from `p >= 4` whatever the sizes).
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
    /// Online measured cost model configuration (see [`model`]). With
    /// [`ModelConfig::drive`] off (the default) every `Auto` selection
    /// above is decided purely by the constant thresholds and the model
    /// neither measures nor synchronizes anything.
    pub model: ModelConfig,
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
    /// EWMA weight, re-exploration — see [`ModelConfig`]).
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
    for (a, b) in acc.iter_mut().zip(read_elements::<T>(bytes)) {
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
    let pairs = read_elements(a).zip(read_elements(b));
    out.extend(pairs.map(|(x, y)| op.apply(&x, &y)));
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
    let pre = read_elements::<T>(prefix);
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
