//! # kmp-mpi — a thread-based MPI substrate
//!
//! This crate provides the message-passing substrate that the
//! [`kamping`](../kamping/index.html) bindings (the paper's contribution)
//! are layered on. It reproduces the MPI *semantics* the paper relies on:
//!
//! - SPMD execution: [`Universe::run`] spawns one OS thread per rank and
//!   hands each a [`Comm`] handle for `MPI_COMM_WORLD`.
//! - Point-to-point communication with tags, wildcard source/tag matching,
//!   non-overtaking delivery, blocking and non-blocking variants
//!   ([`Comm::send`], [`Comm::recv_into`], [`Comm::isend`], [`Comm::irecv`],
//!   synchronous-mode [`Comm::issend`], [`Comm::probe`], [`Comm::iprobe`]).
//! - The full set of collectives used by the paper (barrier, bcast,
//!   gather(v), scatter(v), allgather(v), alltoall(v/w), reduce, allreduce,
//!   scan/exscan, and neighborhood alltoall(v) on graph topologies), all
//!   implemented **on top of point-to-point** with the textbook algorithms
//!   (binomial trees, recursive doubling, ring, pairwise exchange), so the
//!   message counts and volumes of each algorithm are observable.
//! - Communicator management: [`Comm::dup`], [`Comm::split`], groups and
//!   rank translation.
//! - MPI-4 **persistent operations** ([`persistent`]): `*_init` freezes
//!   the communication plan once, `start`/`wait` re-runs it with zero
//!   per-call setup; **partitioned** point-to-point ([`partitioned`])
//!   lets multiple producer threads fill one send as partitions arrive.
//! - A LogP-style **virtual clock** ([`clock`]) used by the scaling
//!   benchmarks: local compute is measured thread-CPU time, each message
//!   costs `alpha + beta * bytes`.
//! - The ULFM operations (revoke / shrink / agree) that back the
//!   fault-tolerance plugin, with the no-survivor-hangs design note in
//!   [`ulfm`], and a deterministic **fault-injection plane** ([`fault`],
//!   feature `fault`, default off and compiled to no-op ZSTs): seeded
//!   [`FaultPlan`]s crash a rank at its k-th injection point — inside a
//!   collective phase, a matching wait, or an agreement — or
//!   drop/delay/duplicate matching messages, driven by
//!   [`Universe::run_with_faults`] and the chaos suite.
//! - A PMPI-style call counter ([`Comm::call_counts`]) used by the binding
//!   tests to assert that *only* the expected MPI calls are issued.
//!
//! ## Example
//!
//! ```
//! use kmp_mpi::Universe;
//!
//! let sums = Universe::run(4, |comm| {
//!     let mine = [comm.rank() as u64 + 1];
//!     let mut total = [0u64];
//!     comm.allreduce_into(&mine, &mut total, kmp_mpi::op::Sum).unwrap();
//!     total[0]
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

pub mod clock;
pub mod collectives;
pub mod comm;
pub mod completion;
pub mod counter;
pub mod error;
pub mod fault;
pub mod mailbox;
pub mod message;
pub mod metrics;
pub mod op;
pub mod p2p;
pub mod partitioned;
pub mod persistent;
pub mod plain;
pub mod request;
pub mod sys;
pub mod topology;
pub mod trace;
pub mod ulfm;
pub mod universe;

pub use clock::{Clock, CostModel};
pub use collectives::neighborhood::NeighborhoodColl;
pub use collectives::{
    AlgoClass, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, BcastParts, ClassEstimate,
    ClassStat, CollTuning, ModelConfig, ModelSnapshot, NeighborhoodAlgo, ReduceAlgo, Select,
    TuningStats,
};
pub use comm::{Comm, TuningGuard};
pub use counter::CallCounts;
pub use error::{MpiError, Result};
pub use fault::{FaultPlan, MsgAction, MsgRule};
pub use mailbox::MailboxStats;
pub use message::{Src, Status, TagSel, ANY_SOURCE, ANY_TAG};
pub use metrics::CopyStats;
pub use op::{commutative, non_commutative, ReduceOp};
pub use partitioned::{PartitionWriter, PartitionedRecv, PartitionedSend};
pub use persistent::{start_all, PersistentRequest, PersistentSet};
pub use plain::{
    as_bytes, bytes_from_slice, bytes_from_vec, bytes_into_vec, bytes_to_vec, Plain, SharedPayload,
};
pub use request::{Request, RequestSet};
pub use topology::{CartComm, DistGraphComm, Neighborhood};
pub use trace::{LatencyHist, RankTrace, TraceData, TraceStats};
pub use universe::{Config, RankOutcome, RankStats, Universe};

/// A rank identifier within a communicator (also used for world ranks).
pub type Rank = usize;

/// A message tag. User tags must be non-negative; negative tags are
/// reserved for the substrate's internal collective protocols.
pub type Tag = i32;
