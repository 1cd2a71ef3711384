//! Named parameters.
//!
//! The paper's central interface idea (§III-A/B): parameters of an MPI
//! call are created by *factory functions* (`send_buf(..)`,
//! `recv_counts_out()`, …) and passed in any order and any subset; the
//! library checks **at compile time** which parameters are present and
//! instantiates default-computation code only for the missing ones.
//!
//! C++ KaMPIng implements this with template parameter packs. Rust has no
//! variadic generics, so the reproduction folds a tuple of parameter
//! objects into a typed [`ArgSet`] whose
//! slots are either [`Absent`] or the parameter — the same compile-time
//! information, expressed through associated types and monomorphization,
//! with the same zero-runtime-dispatch property.

pub mod argset;
pub mod containers;
pub mod output;
pub mod slots;

pub use argset::{ArgSet, EmptyArgs, IntoArgs};
pub use containers::{AsSlice, AsSliceMut, GrowOnly, NoResize, ResizePolicy, ResizeToFit};

use kmp_mpi::{CollTuning, Rank, Src, Tag};

/// Marker for an omitted parameter slot. The library computes a default
/// (possibly issuing additional communication) exactly when a slot is
/// `Absent`; the code path for provided parameters is never instantiated
/// and vice versa.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Absent;

// ---------------------------------------------------------------------------
// Buffer parameters
// ---------------------------------------------------------------------------

/// The data to send. Created by [`send_buf`].
#[derive(Debug)]
pub struct SendBuf<B>(pub(crate) B);

/// Declares the send data of an operation. Accepts borrowed slices or
/// vectors (`send_buf(&v)`) as well as owned containers (`send_buf(v)`);
/// owned containers are *moved into* the call and — for non-blocking
/// operations — returned to the caller on completion (§III-E).
pub fn send_buf<B>(data: B) -> SendBuf<B> {
    SendBuf(data)
}

/// A combined send+receive buffer for in-place operations. Created by
/// [`send_recv_buf`].
#[derive(Debug)]
pub struct SendRecvBuf<B>(pub(crate) B);

/// Declares an in-place (send+receive) buffer, replacing the error-prone
/// `MPI_IN_PLACE` idiom (§III-G): passing `send_recv_buf` instead of
/// `send_buf` selects the in-place variant of the wrapped call.
pub fn send_recv_buf<B>(data: B) -> SendRecvBuf<B> {
    SendRecvBuf(data)
}

/// A user-provided receive buffer with a resize policy. Created by
/// [`recv_buf`].
#[derive(Debug)]
pub struct RecvBuf<B, P = NoResize> {
    pub(crate) buf: B,
    pub(crate) _policy: P,
}

/// Provides storage for the received data instead of having the library
/// allocate it. Accepts `&mut Vec<T>` (data is written in place) or an
/// owned `Vec<T>` (moved in, reused, and returned by value).
///
/// The default resize policy is *no-resize* (§III-C): the buffer is
/// asserted to be large enough and never reallocated. Use
/// [`RecvBuf::resize_to_fit`] or [`RecvBuf::grow_only`] to opt into
/// automatic resizing.
pub fn recv_buf<B>(buf: B) -> RecvBuf<B, NoResize> {
    RecvBuf {
        buf,
        _policy: NoResize,
    }
}

impl<B, P> RecvBuf<B, P> {
    /// Always resize the buffer to exactly the received size.
    pub fn resize_to_fit(self) -> RecvBuf<B, ResizeToFit> {
        RecvBuf {
            buf: self.buf,
            _policy: ResizeToFit,
        }
    }

    /// Resize only if the buffer is too small; never shrink.
    pub fn grow_only(self) -> RecvBuf<B, GrowOnly> {
        RecvBuf {
            buf: self.buf,
            _policy: GrowOnly,
        }
    }

    /// Never resize; assert the buffer is large enough (the default).
    pub fn no_resize(self) -> RecvBuf<B, NoResize> {
        RecvBuf {
            buf: self.buf,
            _policy: NoResize,
        }
    }
}

macro_rules! counts_param {
    ($(#[$meta:meta])* $name:ident, $factory:ident, $(#[$ometa:meta])* $out_name:ident, $out_factory:ident) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $name<B>(pub(crate) B);

        $(#[$meta])*
        pub fn $factory<B>(data: B) -> $name<B> {
            $name(data)
        }

        $(#[$ometa])*
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $out_name;

        $(#[$ometa])*
        pub fn $out_factory() -> $out_name {
            $out_name
        }
    };
}

counts_param!(
    /// Per-rank send counts (in-parameter).
    SendCounts,
    send_counts,
    /// Requests the send counts the library computed to be returned by
    /// value (out-parameter).
    SendCountsOut,
    send_counts_out
);

counts_param!(
    /// Per-rank receive counts (in-parameter).
    RecvCounts,
    recv_counts,
    /// Requests the receive counts the library computed (e.g. by an
    /// `allgather` of send counts) to be returned by value.
    RecvCountsOut,
    recv_counts_out
);

counts_param!(
    /// Per-rank send displacements (in-parameter).
    SendDispls,
    send_displs,
    /// Requests the send displacements the library computed (exclusive
    /// prefix sum over send counts) to be returned by value.
    SendDisplsOut,
    send_displs_out
);

counts_param!(
    /// Per-rank receive displacements (in-parameter).
    RecvDispls,
    recv_displs,
    /// Requests the receive displacements the library computed (exclusive
    /// prefix sum over receive counts) to be returned by value.
    RecvDisplsOut,
    recv_displs_out
);

// ---------------------------------------------------------------------------
// Reduction operation
// ---------------------------------------------------------------------------

/// A reduction operation parameter. Created by [`op`].
#[derive(Clone, Copy, Debug)]
pub struct OpParam<O>(pub(crate) O);

/// Declares the reduction operation of a reduce/allreduce/scan call.
/// Accepts the built-in operations (`ops::Sum`, `ops::Min`, …) — the
/// analogue of mapping `std::plus` to `MPI_SUM` — as well as plain
/// closures and [`kmp_mpi::op::non_commutative`] lambdas.
pub fn op<O>(operation: O) -> OpParam<O> {
    OpParam(operation)
}

// ---------------------------------------------------------------------------
// Scalar parameters (validated at runtime)
// ---------------------------------------------------------------------------

/// Runtime-checked scalar parameters of a call. Buffer-shaped parameters
/// get compile-time presence checks through the [`ArgSet`] slots; scalars
/// (root, destination, source, tag, counts of single messages) are
/// carried here and validated when the call executes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Meta {
    pub(crate) root: Option<Rank>,
    pub(crate) destination: Option<Rank>,
    pub(crate) source: Option<Src>,
    pub(crate) tag: Option<Tag>,
    pub(crate) recv_count: Option<usize>,
    pub(crate) send_count: Option<usize>,
    pub(crate) tuning: Option<CollTuning>,
}

macro_rules! scalar_param {
    ($(#[$meta:meta])* $name:ident, $factory:ident, $t:ty, $field:ident) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug)]
        pub struct $name(pub(crate) $t);

        $(#[$meta])*
        pub fn $factory(value: $t) -> $name {
            $name(value)
        }
    };
}

scalar_param!(
    /// The root rank of a rooted collective (default: 0).
    Root,
    root,
    Rank,
    root
);
scalar_param!(
    /// The destination rank of a point-to-point send.
    Destination,
    destination,
    Rank,
    destination
);
scalar_param!(
    /// The number of elements a receive expects (optional; the element
    /// count otherwise travels with the message).
    RecvCount,
    recv_count,
    usize,
    recv_count
);
scalar_param!(
    /// The number of elements to send (optional; defaults to the length
    /// of the send buffer).
    SendCount,
    send_count,
    usize,
    send_count
);

/// The source rank of a receive (wildcard by default).
#[derive(Clone, Copy, Debug)]
pub struct Source(pub(crate) Src);

/// Restricts a receive to messages from `rank`.
pub fn source(rank: Rank) -> Source {
    Source(Src::Rank(rank))
}

/// Accepts messages from any rank (mirrors `MPI_ANY_SOURCE`; the default
/// for receives).
pub fn any_source() -> Source {
    Source(Src::Any)
}

/// The message tag of a point-to-point operation (default: 0).
#[derive(Clone, Copy, Debug)]
pub struct TagParam(pub(crate) Tag);

/// Sets the message tag of a send or receive.
pub fn tag(value: Tag) -> TagParam {
    TagParam(value)
}

/// A per-call collective tuning override. Created by [`tuning`].
#[derive(Clone, Copy, Debug)]
pub struct TuningParam(pub(crate) CollTuning);

/// Overrides the communicator's collective-algorithm tuning for this
/// one call (see [`kmp_mpi::CollTuning`]): force an algorithm or
/// configure the cost model, e.g.
/// `tuning(CollTuning::default().allreduce(AllreduceAlgo::Rabenseifner))`.
/// The binding stays policy-free — the substrate's selection engine
/// reads the tuning at call time. Like every collective argument, all
/// ranks must pass the same tuning to matching calls. A persistent
/// per-communicator policy is set with
/// [`Communicator::set_tuning`](crate::Communicator::set_tuning).
pub fn tuning(t: CollTuning) -> TuningParam {
    TuningParam(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_wrap_values() {
        let v = vec![1u32, 2];
        let sb = send_buf(&v);
        assert_eq!(sb.0, &v);
        let r = root(3);
        assert_eq!(r.0, 3);
        let d = destination(1);
        assert_eq!(d.0, 1);
        let t = tag(7);
        assert_eq!(t.0, 7);
    }

    #[test]
    fn recv_buf_policy_transitions() {
        let mut storage = vec![0u8; 4];
        let p = recv_buf(&mut storage);
        let p = p.resize_to_fit();
        let p = p.grow_only();
        let _p = p.no_resize();
    }

    #[test]
    fn source_selectors() {
        assert_eq!(source(2).0, Src::Rank(2));
        assert_eq!(any_source().0, Src::Any);
    }

    #[test]
    fn meta_defaults_empty() {
        let m = Meta::default();
        assert!(m.root.is_none());
        assert!(m.destination.is_none());
        assert!(m.source.is_none());
        assert!(m.tag.is_none());
    }
}
