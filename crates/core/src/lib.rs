//! # kamping — flexible and (near) zero-overhead message-passing bindings
//!
//! Rust reproduction of the binding library from *"KaMPIng: Flexible and
//! (Near) Zero-Overhead C++ Bindings for MPI"* (SC'24). It layers the
//! paper's interface concepts over the [`kmp_mpi`] substrate:
//!
//! - **Named parameters** (§III-A): operations take any subset of their
//!   parameters, in any order, created by factory functions —
//!   [`params::send_buf`], [`params::recv_counts_out`], … Omitted
//!   parameters are computed, and the code path for that computation
//!   exists only when the parameter is omitted (compile-time resolution,
//!   zero runtime dispatch). Omitted receive counts are read off the
//!   delivered messages; no extra communication — `allgatherv`,
//!   `alltoallv`, `gatherv` and their neighborhood forms are one exchange
//!   on the wire with or without `recv_counts` (a deviation from Fig. 2,
//!   possible because the substrate's messages are self-describing; see
//!   [`collectives`]).
//! - **In/out parameters and results by value** (§III-B): the receive
//!   buffer is always returned by value; each `*_out()` parameter appends
//!   a component to the returned tuple, destructured with plain `let` —
//!   the Rust form of structured bindings.
//! - **Allocation control** (§III-C): resize policies
//!   (`no_resize`/`grow_only`/`resize_to_fit`) per buffer, move-in /
//!   move-out container reuse.
//! - **Non-blocking safety** (§III-E): `isend` takes ownership of the
//!   send buffer and hands it back on `wait()`; received data is only
//!   accessible after completion.
//! - **Non-blocking collectives** (§III-E, extended): `iallgatherv`,
//!   `iallgather`, `ialltoallv`, `ibcast` and `iallreduce` return typed
//!   futures ([`collectives::NonBlockingCollective`] /
//!   [`collectives::NonBlockingBcast`]) that own the moved-in send
//!   buffers and produce the received data on `wait()` — so local work
//!   placed between the call and `wait()` genuinely overlaps with the
//!   collective (all outgoing traffic is posted eagerly by the
//!   substrate), and no §III-E hazard is expressible. Here too block
//!   sizes are discovered from the messages and `wait_with_counts()`
//!   returns them for free. Futures compose with [`p2p::RequestPool`] /
//!   [`p2p::BoundedRequestPool`] (including `wait_any` / `wait_some`).
//! - **Persistent operations** (MPI-4, [`persistent`]): `send_init` /
//!   `recv_init` / `bcast_init` / `allreduce_init` / `allgather_init` /
//!   `alltoallv_init` freeze the communication plan once; every
//!   `start()`/`wait()` cycle then runs with zero per-call setup — no
//!   algorithm re-selection, no waiter re-registration.
//! - **Algorithm tuning**: the binding stays policy-free while the
//!   substrate's selection engine
//!   ([`kmp_mpi::collectives::algos`]) picks per-collective algorithms
//!   by message size (Rabenseifner allreduce, van de Geijn bcast, Bruck
//!   alltoall, in-place binomial reduce). A per-call override travels
//!   as the [`params::tuning`] named parameter; a per-communicator
//!   policy is set with [`Communicator::set_tuning`].
//! - **Serialization** (§III-D3): explicit, via
//!   [`serialization::as_serialized`] /
//!   [`serialization::as_deserializable`].
//! - **Plugins** (§III-F, §V): grid all-to-all (two self-sizing hops,
//!   `(c-1) + (r-1)` startups on an `r x c` grid), sparse (NBX) all-to-all,
//!   reproducible reduce, ULFM fault tolerance, and a distributed sorter,
//!   each an extension trait on [`Communicator`].
//!
//! ## Quickstart
//!
//! ```
//! use kamping::prelude::*;
//!
//! kmp_mpi::Universe::run(4, |comm| {
//!     let comm = Communicator::new(comm);
//!     // Each rank contributes a differently-sized vector; counts and
//!     // displacements are computed internally (Fig. 1 of the paper).
//!     let mine = vec![comm.rank() as u64; comm.rank() + 1];
//!     let all: Vec<u64> = comm.allgatherv(send_buf(&mine)).unwrap();
//!     assert_eq!(all.len(), 1 + 2 + 3 + 4);
//! });
//! ```

pub mod assertions;
pub mod collectives;
pub mod communicator;
pub mod compile_checks;
pub mod p2p;
pub mod params;
pub mod persistent;
pub mod plugins;
pub mod serialization;
pub mod utils;

pub use collectives::NeighborhoodCommunicator;
pub use communicator::Communicator;
pub use kmp_mpi::{
    AlgoClass, AllreduceAlgo, AlltoallAlgo, BcastAlgo, ClassEstimate, CollTuning, ModelConfig,
    ModelSnapshot, MpiError, Neighborhood, NeighborhoodAlgo, Plain, Rank, ReduceAlgo, Result,
    Select, Tag, TuningStats,
};

/// The substrate's tracing subsystem (event rings, histograms, Chrome
/// trace export). See [`trace_span`] for annotating application phases.
pub use kmp_mpi::trace;

/// Opens a user-level trace span over an application phase (a BFS
/// level, a sort pass, …). The span records itself when the returned
/// guard drops; with the `trace` feature off this is a zero-sized no-op
/// that compiles away entirely.
///
/// ```ignore
/// let _phase = kamping::trace_span("bfs_level");
/// // ... exchange frontier ...
/// ```
#[inline]
pub fn trace_span(name: &'static str) -> trace::SpanGuard {
    trace::span(trace::cat::USER, name, 0, 0)
}

/// Reduction operations (re-exported from the substrate): built-ins
/// ([`ops::Sum`], [`ops::Min`], …) that play the role of `MPI_SUM` etc.,
/// plus combinators for user lambdas.
pub mod ops {
    pub use kmp_mpi::op::{
        commutative, non_commutative, BitAnd, BitOr, BitXor, Lambda, LogicalAnd, LogicalOr, Max,
        Min, Prod, ReduceOp, Sum,
    };
}

/// Everything needed to write kamping code: the communicator, the
/// parameter factories, the non-blocking futures and pools, and the
/// plugin traits.
pub mod prelude {
    pub use crate::collectives::{
        NeighborhoodCommunicator, NonBlockingBcast, NonBlockingCollective,
    };
    pub use crate::communicator::Communicator;
    pub use crate::ops;
    pub use crate::p2p::{BoundedRequestPool, RequestPool};
    pub use crate::params::{
        any_source, destination, op, recv_buf, recv_count, recv_counts, recv_counts_out,
        recv_displs, recv_displs_out, root, send_buf, send_count, send_counts, send_counts_out,
        send_displs, send_displs_out, send_recv_buf, source, tag, tuning,
    };
    pub use crate::persistent::Persistent;
    pub use crate::plugins::grid::GridAlltoall;
    pub use crate::plugins::repro_reduce::ReproducibleReduce;
    pub use crate::plugins::sorter::Sorter;
    pub use crate::plugins::sparse::SparseAlltoall;
    pub use crate::plugins::ulfm::FaultTolerant;
    pub use crate::serialization::{as_deserializable, as_serialized, as_serialized_inout};
    pub use crate::utils::{flatten, with_flattened};
    pub use kmp_mpi::{
        AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning, ModelConfig, Neighborhood,
        NeighborhoodAlgo, NeighborhoodColl, ReduceAlgo,
    };
}
