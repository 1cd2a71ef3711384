//! Collective operations with named parameters and computed defaults.
//!
//! Each operation is a method on [`Communicator`](crate::Communicator)
//! accepting a parameter tuple; a per-operation trait (implemented once
//! over the folded [`ArgSet`](crate::params::ArgSet)) resolves every slot
//! at compile time. The table below lists the defaults each operation
//! computes for omitted parameters (§III-A/B of the paper):
//!
//! | operation    | computed defaults                                               |
//! |--------------|-----------------------------------------------------------------|
//! | `allgatherv` | recv counts (read off the delivered blocks), recv displs (prefix sum) |
//! | `alltoallv`  | send displs (prefix sum), recv counts (read off the delivered blocks), recv displs (prefix sum) |
//! | `gatherv`    | recv counts (read off the delivered blocks), recv displs (prefix sum) |
//! | `scatterv`   | send displs (prefix sum), recv count (read off the delivered block) |
//! | `allgather`/`alltoall`/`gather` | receive storage: the delivered equal-sized blocks are assembled into it, once |
//! | `reduce`/`allreduce`/`scan`/`exscan`/`scatter` | receive storage: the substrate's accumulator (or scattered block) *is* the library-allocated result — and an owned `send_buf(vec)` *is* that accumulator |
//! | `bcast` | buffer sizing at the non-roots (the payload carries its length); the root's buffer is the wire payload |
//! | `neighbor_allgatherv`/`neighbor_alltoallv` | recv counts (read off the delivered blocks), displs (prefix sums) — see [`neighborhood`] |
//!
//! Omitted receive counts cost **no extra communication**: the
//! substrate's messages carry their own length, so every v-collective
//! lowers to one self-sizing block exchange and the counts are the block
//! lengths (supplied `recv_counts` are verified against them after the
//! exchange). This deviates from Fig. 2 of the paper, where the default
//! is a separate count collective the user would otherwise write by hand
//! — MPI receives need their sizes up front, the substrate's do not.
//!
//! The receive buffer is implicitly returned by value unless storage was
//! passed by reference; `*_out()` parameters append further components to
//! the returned tuple. An omitted `recv_buf` costs what a hand-written
//! `*_vec` call costs (§III-B): storage is never prepared before the
//! bytes exist and the result is never built twice — block-delivered
//! operations assemble the delivered blocks, accumulator-delivered ones
//! hand the substrate's vector over ([`RecvBufSpec`] names the
//! lowerings). Provided storage is prepared under its resize policy
//! *after* the exchange: a result shorter than the buffer fills its
//! prefix, and an undersized `no_resize` buffer reports
//! [`MpiError::Truncated`] on that rank alone, its peers unaffected.
//!
//! **Owned means moved**: a buffer the caller gave away is never copied
//! on the caller's critical path. Owned `send_buf(vec)` payloads of
//! `allgather`, `allgatherv` and `alltoallv` (default send
//! displacements) move into the transport unserialized, as in the `i*`
//! forms; an owned `send_buf(vec)` of `reduce` / `allreduce` / `scan` /
//! `exscan` is consumed and becomes the accumulator (or, on a rank that
//! folds nothing, the message); the `bcast` root's buffer — owned or
//! `&mut` — goes on the wire as it is and is taken back after the sends.
//! The `i*` forms return a moved-in send buffer as a handle
//! ([`SharedPayload`](kmp_mpi::SharedPayload)) that costs nothing unless
//! the caller `take()`s the vector.

mod allgather;
mod alltoall;
mod bcast;
mod gather;
pub mod neighborhood;
pub mod nonblocking;
mod reduce;
mod scatter;

use kmp_mpi::collectives::{block_counts, displacements_from_counts};
use kmp_mpi::{MpiError, Plain, Result};

use crate::params::slots::{CountsSlot, RecvBufSpec};
use crate::params::{Absent, RecvCounts};

pub use allgather::{AllgatherArgs, AllgatherInPlaceArgs, AllgathervArgs};
pub use alltoall::{AlltoallArgs, AlltoallvArgs};
pub use bcast::BcastArgs;
pub use gather::{GatherArgs, GathervArgs};
pub use neighborhood::{NeighborAllgathervArgs, NeighborAlltoallvArgs, NeighborhoodCommunicator};
pub use nonblocking::{
    IallgatherArgs, IallreduceArgs, IalltoallvArgs, IbcastArgs, NonBlockingBcast,
    NonBlockingCollective,
};
pub use reduce::{AllreduceArgs, AllreduceSingleArgs, ExscanArgs, ReduceArgs, ScanArgs};
pub use scatter::{ScatterArgs, ScattervArgs};

/// The receive side shared by the blocking v-collectives: assembles the
/// blocks delivered by the substrate's self-sizing exchange (`None`
/// where the receive side is not significant — non-roots of `gatherv` —
/// and any supplied layout is ignored). The block lengths are the
/// receive counts; counts the user supplied are verified against them —
/// after the exchange, so a mismatch leaves no message queued. Returns
/// the three finished output components.
pub(crate) fn receive_v<T, RB, RC, RD, B>(
    recv_buf: RB,
    recv_counts: RC,
    recv_displs: RD,
    blocks: Option<Vec<B>>,
) -> Result<(RB::Out, RC::Out, RD::Out)>
where
    T: Plain,
    RB: RecvBufSpec<T>,
    RC: CountsSlot,
    RD: CountsSlot,
    B: AsRef<[u8]>,
{
    let significant = blocks.is_some();
    let blocks = blocks.unwrap_or_default();
    let counts = block_counts::<T, B>(&blocks)?;
    if let Some(declared) = recv_counts.provided().filter(|_| significant) {
        check_declared_counts::<T>(declared, &counts)?;
    }
    let displs = recv_displs.provided().filter(|_| significant);
    let rb_out = recv_buf.assemble(blocks, &counts, displs)?;
    let computed_rd = RD::REQUESTED.then(|| displacements_from_counts(&counts));
    Ok((
        rb_out,
        recv_counts.finish(RC::REQUESTED.then_some(counts)),
        recv_displs.finish(computed_rd),
    ))
}

/// The receive side of the equal-block collectives (`allgather`,
/// `gather`, `alltoall`): the v-collectives' path with the contract —
/// every block holds `n` elements — as the declared counts, so a peer
/// that broke it reports [`MpiError::Truncated`] after the exchange.
pub(crate) fn receive_equal<T, RB, B>(
    recv_buf: RB,
    n: usize,
    blocks: Option<Vec<B>>,
) -> Result<RB::Out>
where
    T: Plain,
    RB: RecvBufSpec<T>,
    B: AsRef<[u8]>,
{
    let declared = RecvCounts(vec![n; blocks.as_ref().map_or(0, Vec::len)]);
    receive_v(recv_buf, declared, Absent, blocks).map(|(out, (), ())| out)
}

/// User-supplied receive counts must be what was delivered.
fn check_declared_counts<T>(declared: &[usize], delivered: &[usize]) -> Result<()> {
    if declared.len() != delivered.len() {
        return Err(MpiError::InvalidLayout(format!(
            "{} receive counts for {} delivered blocks",
            declared.len(),
            delivered.len()
        )));
    }
    let elem = std::mem::size_of::<T>();
    match declared
        .iter()
        .zip(delivered)
        .find(|(want, got)| want != got)
    {
        Some((&want, &got)) => Err(MpiError::Truncated {
            message_bytes: got * elem,
            buffer_bytes: want * elem,
        }),
        None => Ok(()),
    }
}
