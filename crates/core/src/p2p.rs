//! Point-to-point communication with named parameters and non-blocking
//! memory safety (§III-E of the paper).
//!
//! Blocking: [`Communicator::send`] / [`Communicator::recv`]. Non-blocking:
//! [`Communicator::isend`] / [`Communicator::issend`] /
//! [`Communicator::irecv`], which return buffer-owning results — send
//! buffers are *moved into* the call and come back with `wait()` (as a
//! [`SharedPayload`](kmp_mpi::SharedPayload) handle: free to read,
//! `take()` for the vector), and received data is only accessible after
//! completion, so no send buffer can be mutated and no receive buffer
//! read while an operation is in flight (the guarantee the paper notes
//! only rsmpi's ownership model otherwise provides).
//!
//! `isend` / `send_init` and `irecv` / `recv_init` are each declared
//! once, by [`IsendArgs`] and [`IrecvArgs`]: the trait's one method
//! resolves the slots and hands them to the immediate driver (here) or
//! the persistent one ([`crate::persistent`]). Every receive of either,
//! and the blocking [`Communicator::recv`], ends in the receive slot's
//! one lowering ([`RecvBufSpec::lower`]; the futures and persistent
//! cycles use the `Absent` slot), which applies `recv_count` and reports
//! a message that is not whole elements as
//! [`MpiError::Truncated`] in every lifecycle.

use std::marker::PhantomData;

use kmp_mpi::request::{Completion, TestOutcome};
use kmp_mpi::{Comm, MpiError, PersistentRequest, Plain, Rank, Request, RequestSet, Result};
use kmp_mpi::{Src, Tag, TagSel};

use crate::communicator::Communicator;
use crate::params::argset::{ArgSet, IntoArgs};
use crate::params::output::{FinalOf, Finalize, Push1, PushComponent};
use crate::params::slots::{
    counted, Delivered, Layout, ProvidesSendData, RecvBufSpec, SendToTransport,
};
use crate::params::{Absent, Meta, SendBuf};

pub(crate) fn send_meta(meta: &Meta) -> Result<(Rank, Tag)> {
    let missing = || MpiError::InvalidLayout("missing required parameter `destination`".into());
    Ok((meta.destination.ok_or_else(missing)?, meta.tag.unwrap_or(0)))
}

fn recv_meta(meta: &Meta) -> (Src, TagSel) {
    let src = meta.source.unwrap_or(Src::Any);
    let tag = meta.tag.map(TagSel::Is).unwrap_or(TagSel::Any);
    (src, tag)
}

// ---------------------------------------------------------------------------
// Blocking send / recv
// ---------------------------------------------------------------------------

/// Valid argument sets for [`Communicator::send`]. The mode parameter `M`
/// is the element type for plain sends and
/// [`SerialMode`](crate::serialization::SerialMode) for serialized ones.
pub trait SendArgs<M> {
    /// Executes the send.
    fn run(self, comm: &Communicator) -> Result<()>;
}

// The plain-mode impls enumerate concrete container shapes instead of a
// blanket `B` so that they cannot unify with the serialized-mode impls in
// `crate::serialization` (Rust coherence ignores where-clauses when
// checking impl overlap).
macro_rules! plain_send_impls {
    ($([$($gen:tt)*] $container:ty),+ $(,)?) => {$(
        impl<$($gen)* T: Plain> SendArgs<T>
            for ArgSet<SendBuf<$container>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
        where
            SendBuf<$container>: ProvidesSendData<T>,
        {
            fn run(self, comm: &Communicator) -> Result<()> {
                let (dest, tag) = send_meta(&self.meta)?;
                comm.raw().send(self.send_buf.send_slice(), dest, tag)
            }
        }
    )+};
}

plain_send_impls!(
    ['a,] &'a Vec<T>,
    ['a,] &'a [T],
    [const N: usize,] [T; N],
    ['a, const N: usize,] &'a [T; N],
);

// Owned vectors move into the transport without copying (§III-E meets
// zero-copy: the allocation itself becomes the in-flight payload).
impl<T: Plain> SendArgs<T>
    for ArgSet<SendBuf<Vec<T>>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
{
    fn run(self, comm: &Communicator) -> Result<()> {
        let (dest, tag) = send_meta(&self.meta)?;
        comm.raw().send_vec(self.send_buf.0, dest, tag)
    }
}

/// Valid argument sets for [`Communicator::isend`], `issend` and
/// [`Communicator::send_init`]: `send_buf` and `destination` (required),
/// `tag` (default 0).
pub trait IsendArgs<M> {
    /// What `wait()` returns: the handle of a moved-in send container,
    /// `()` for borrowed buffers.
    type Hold;
    /// Resolves the slots and drives the send into lifecycle `L`; `sync`
    /// selects the synchronous mode, which only `issend` has.
    fn run<'c, L: Lifecycle<'c>>(
        self,
        comm: &'c Communicator,
        sync: bool,
    ) -> Result<L::Out<M, Self::Hold>>;
}

impl<T, B> IsendArgs<T>
    for ArgSet<SendBuf<B>, Absent, Absent, Absent, Absent, Absent, Absent, Absent>
where
    T: Plain,
    SendBuf<B>: SendToTransport<T>,
{
    type Hold = <SendBuf<B> as SendToTransport<T>>::Hold;

    fn run<'c, L: Lifecycle<'c>>(
        self,
        comm: &'c Communicator,
        sync: bool,
    ) -> Result<L::Out<T, Self::Hold>> {
        let (dest, tag) = send_meta(&self.meta)?;
        // Owned buffers move into the transport: zero call-time copies.
        let (payload, hold) = self.send_buf.into_payload();
        L::drive(
            comm.raw(),
            (payload, hold, None),
            |c, p| match sync {
                true => c.issend_bytes(p, dest, tag),
                false => c.isend_bytes(p, dest, tag),
            },
            |c, p| c.send_init_bytes(p, dest, tag),
        )
    }
}

/// Valid argument sets for [`Communicator::recv`].
pub trait RecvArgs<M> {
    /// The received result.
    type Output;
    /// Executes the receive.
    fn run(self, comm: &Communicator) -> Result<Self::Output>;
}

// Same enumeration rationale as for the send impls: the receive-buffer
// shapes are listed concretely so the serialized `as_deserializable`
// receive cannot unify with them.
macro_rules! plain_recv_impls {
    ($([$($gen:tt)*] $rb:ty),+ $(,)?) => {$(
        impl<$($gen)* T: Plain> RecvArgs<T>
            for ArgSet<Absent, Absent, $rb, Absent, Absent, Absent, Absent, Absent>
        where
            $rb: RecvBufSpec<T>,
            <$rb as RecvBufSpec<T>>::Out: PushComponent<()>,
            Push1<<$rb as RecvBufSpec<T>>::Out>: Finalize,
        {
            type Output = FinalOf<Push1<<$rb as RecvBufSpec<T>>::Out>>;

            fn run(self, comm: &Communicator) -> Result<Self::Output> {
                let (src, tag) = recv_meta(&self.meta);
                let (payload, _) = comm.raw().recv_bytes(src, tag)?;
                let layout = Layout::each(self.meta.recv_count);
                let rb_out = self.recv_buf.lower(Delivered::lone(payload), layout)?;
                Ok(rb_out.push_component(()).finalize())
            }
        }
    )+};
}

plain_recv_impls!(
    [] Absent,
    ['a, P: crate::params::ResizePolicy,] crate::params::RecvBuf<&'a mut Vec<T>, P>,
    [P: crate::params::ResizePolicy,] crate::params::RecvBuf<Vec<T>, P>,
);

// ---------------------------------------------------------------------------
// Non-blocking results
// ---------------------------------------------------------------------------

/// The two drivers of one declaration, as the substrate's `icoll` /
/// `persistent_coll` are the drivers of one plan.
pub(crate) mod lifecycle {
    use kmp_mpi::{Comm, PersistentRequest, Request, Result};

    /// Drives an operation's one declaration — its `I*Args` trait, whose
    /// method resolves the slots once — into a lifecycle: the resolved
    /// arguments `A` go to the substrate's `i*` form (`now`) or to its
    /// `*_init` form (`plan`), beside the handle `H` of whatever the
    /// caller moved in and `recv_count` in bytes.
    pub trait Lifecycle<'c> {
        /// The driven call: the operation in flight, or the frozen plan.
        type Out<T, H>;

        /// Runs the resolved call.
        fn drive<T, H, A>(
            comm: &'c Comm,
            call: (A, H, Option<usize>),
            now: impl FnOnce(&'c Comm, A) -> Result<Request<'c>>,
            plan: impl FnOnce(&'c Comm, A) -> Result<PersistentRequest<'c>>,
        ) -> Result<Self::Out<T, H>>;
    }
}

pub(crate) use lifecycle::Lifecycle;

/// The immediate driver: the `i*` request, held with the handle until
/// its future completes.
pub(crate) struct Immediate;

impl<'c> Lifecycle<'c> for Immediate {
    type Out<T, H> = InFlight<'c, H>;

    fn drive<T, H, A>(
        comm: &'c Comm,
        (args, hold, expected_bytes): (A, H, Option<usize>),
        now: impl FnOnce(&'c Comm, A) -> Result<Request<'c>>,
        _: impl FnOnce(&'c Comm, A) -> Result<PersistentRequest<'c>>,
    ) -> Result<InFlight<'c, H>> {
        Ok(InFlight {
            req: now(comm, args)?,
            hold,
            expected_bytes,
        })
    }
}

/// The operation in flight behind every non-blocking future of this
/// crate ([`NonBlockingSend`], [`NonBlockingRecv`],
/// [`NonBlockingCollective`](crate::collectives::NonBlockingCollective),
/// [`NonBlockingBcast`](crate::collectives::NonBlockingBcast)): the
/// substrate request, the handle `H` of whatever the caller moved into
/// the call, and a receive's `recv_count` assertion. The futures are
/// typed views of it.
pub(crate) struct InFlight<'a, H> {
    req: Request<'a>,
    hold: H,
    /// `recv_count` in bytes: the completing message must be exactly
    /// this long.
    expected_bytes: Option<usize>,
}

impl<'a, H> InFlight<'a, H> {
    /// Blocks until the operation completes: its data ([`lowered`];
    /// `counts` collects the per-block counts where asked) and the
    /// handle.
    pub(crate) fn wait<T: Plain>(self, counts: Option<&mut Vec<usize>>) -> Result<(Vec<T>, H)> {
        let data = lowered(self.req.wait()?, self.expected_bytes, counts)?;
        Ok((data, self.hold))
    }

    /// One poll: the data and the handle, or the operation back, as the
    /// future `pending` makes of it.
    #[allow(clippy::type_complexity)]
    pub(crate) fn test<T: Plain, F>(
        self,
        pending: impl FnOnce(Self) -> F,
    ) -> Result<std::result::Result<(Vec<T>, H), F>> {
        Ok(match self.req.test()? {
            TestOutcome::Ready(done) => Ok((lowered(done, self.expected_bytes, None)?, self.hold)),
            TestOutcome::Pending(req) => Err(pending(InFlight { req, ..self })),
        })
    }

    /// Becomes a pool entry: the request for the pool to wait on, and
    /// what the operation still owes when it completes.
    fn into_entry(self) -> (Request<'a>, Finisher<'a>)
    where
        H: 'a,
    {
        let finisher = Finisher {
            expected_bytes: self.expected_bytes,
            _hold: Box::new(self.hold),
        };
        (self.req, finisher)
    }
}

/// The completion of every future and every persistent cycle, handed to
/// the `Absent` slot's [`lower`](RecvBufSpec::lower) — which checks
/// `recv_count` (held here in bytes) and whole `T`s — as what it is: a
/// lone message, which the lowering takes back without a copy where it
/// can (the allreduce result, which only this rank holds), or blocks by
/// source; a send completes with an empty vector.
pub(crate) fn lowered<T: Plain>(
    completion: Completion,
    expected_bytes: Option<usize>,
    counts_out: Option<&mut Vec<usize>>,
) -> Result<Vec<T>> {
    let delivered = match completion {
        Completion::Done => Delivered::Vec(Vec::new()),
        Completion::Message(payload, _) => Delivered::lone(payload),
        Completion::Blocks(blocks) => Delivered::Blocks(blocks),
    };
    let recv_count = expected_bytes.map(|bytes| bytes / std::mem::size_of::<T>().max(1));
    let layout = Layout {
        counts_out,
        uncounted: true,
        ..Layout::each(recv_count)
    };
    Absent.lower(delivered, layout)
}

/// A non-blocking send in flight. An owned send buffer has **moved into
/// the transport** (zero-copy: the payload aliases its allocation);
/// [`NonBlockingSend::wait`] completes the request and returns its
/// handle `H` — a [`SharedPayload`](kmp_mpi::SharedPayload) for an owned
/// buffer (Fig. 6's `v = r1.wait()` reads `v = r1.wait()?.take()` here:
/// zero-copy once the receiver has consumed the message, one counted
/// copy before that), `()` for a borrowed one.
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingSend<'a, H>(InFlight<'a, H>);

impl<'a, H> NonBlockingSend<'a, H> {
    /// Blocks until the send completes, returning the handle of the
    /// moved-in buffer.
    pub fn wait(self) -> Result<H> {
        // A send completes with nothing to lower.
        self.0.wait::<u8>(None).map(|(_, hold)| hold)
    }

    /// Completion test: `Ok(Ok(handle))` when complete, `Ok(Err(self))`
    /// when still pending.
    pub fn test(self) -> Result<std::result::Result<H, Self>> {
        let polled = self.0.test::<u8, _>(NonBlockingSend)?;
        Ok(polled.map(|(_, hold)| hold))
    }
}

/// A non-blocking receive in flight; the data is only accessible through
/// [`NonBlockingRecv::wait`] / [`NonBlockingRecv::test`] (§III-E: no read
/// of incomplete receive buffers).
#[must_use = "non-blocking operations must be completed with wait() or test()"]
pub struct NonBlockingRecv<'a, T>(InFlight<'a, ()>, PhantomData<T>);

impl<'a, T: Plain> NonBlockingRecv<'a, T> {
    /// Blocks until a message arrives and returns it.
    pub fn wait(self) -> Result<Vec<T>> {
        self.0.wait(None).map(|(data, ())| data)
    }

    /// Completion test, mirroring the paper's `test()` returning
    /// `std::optional`: `Ok(Ok(Some(data)))` when complete,
    /// `Ok(Err(self))` when pending.
    pub fn test(self) -> Result<std::result::Result<Vec<T>, Self>> {
        let polled = self.0.test(|op| NonBlockingRecv(op, PhantomData))?;
        Ok(polled.map(|(data, ())| data))
    }
}

// ---------------------------------------------------------------------------
// Request pool
// ---------------------------------------------------------------------------

/// Whatever a pooled operation moved in, kept alive until it completes.
trait Held {}
impl<H> Held for H {}

/// What a pooled operation still owes at completion: a receive's
/// `recv_count` check, and the release of its moved-in buffer's handle.
/// The values the operation carries are discarded undecoded.
struct Finisher<'a> {
    expected_bytes: Option<usize>,
    _hold: Box<dyn Held + 'a>,
}

impl Finisher<'_> {
    /// `recv_count` against the delivered length, read off the status:
    /// the payload is dropped undecoded.
    fn finish(self, completion: &Completion) -> Result<()> {
        if let Completion::Message(_, status) = completion {
            counted::<u8>(status.bytes, self.expected_bytes)?;
        }
        Ok(())
    }
}

/// Collects non-blocking operations for bulk completion (§III-E's request
/// pools). Values carried by the operations are discarded on completion;
/// await operations individually when their results are needed.
///
/// A pool is a typed view of the substrate's [`RequestSet`]: the set
/// holds the requests and does all the waiting — parked, never polled,
/// with one standing registration per pooled receive across `wait_any`
/// calls (how is [`kmp_mpi::completion`]'s business) — and the pool adds
/// one small finisher per entry.
#[derive(Default)]
pub struct RequestPool<'a> {
    set: RequestSet<'a>,
    /// Parallel to the set's requests.
    finishers: Vec<Finisher<'a>>,
}

impl<'a> RequestPool<'a> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        RequestPool::default()
    }

    fn submit<H: 'a>(&mut self, op: InFlight<'a, H>) {
        let (req, finisher) = op.into_entry();
        self.set.push(req);
        self.finishers.push(finisher);
    }

    /// Submits a non-blocking send.
    pub fn submit_send<H: 'a>(&mut self, op: NonBlockingSend<'a, H>) {
        self.submit(op.0);
    }

    /// Submits a non-blocking receive.
    pub fn submit_recv<T: Plain>(&mut self, op: NonBlockingRecv<'a, T>) {
        self.submit(op.0);
    }

    /// Submits a non-blocking collective (`iallgatherv`, `ialltoallv`,
    /// `iallreduce`, …). The carried values are discarded on completion;
    /// await the future individually when its result is needed.
    pub fn submit_collective<T: Plain, H: 'a>(
        &mut self,
        op: crate::collectives::NonBlockingCollective<'a, T, H>,
    ) {
        self.submit(op.0);
    }

    /// Submits a non-blocking broadcast.
    pub fn submit_bcast<T: Plain>(&mut self, op: crate::collectives::NonBlockingBcast<'a, T>) {
        self.submit(op.0);
    }

    /// Number of pending operations.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if the pool holds no operations.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Completes all pooled operations (mirrors `MPI_Waitall`).
    pub fn wait_all(self) -> Result<()> {
        let completions = self.set.wait_all()?;
        let mut entries = self.finishers.into_iter().zip(&completions);
        entries.try_for_each(|(finisher, completion)| finisher.finish(completion))
    }

    /// Retires the next completed operation — the set's request and this
    /// pool's finisher for it — parking for one if `block`. Returns its
    /// index at call time. An operation that fails is retired the same
    /// way (the rest stay pooled, so survivors remain completable).
    fn complete_one(&mut self, block: bool) -> Result<Option<usize>> {
        let Some((index, outcome)) = self.set.complete_any(block) else {
            return Ok(None);
        };
        self.finishers.remove(index).finish(&outcome?)?;
        Ok(Some(index))
    }

    /// Blocks until *one* pooled operation completes (mirrors
    /// `MPI_Waitany`), removing it. Returns its index at call time, or
    /// `None` for an empty pool; later entries shift down by one.
    pub fn wait_any(&mut self) -> Result<Option<usize>> {
        self.complete_one(true)
    }

    /// Blocks until *at least one* pooled operation completes (mirrors
    /// `MPI_Waitsome`), removing all completed ones. Returns their
    /// indices at call time, in order; an empty pool yields an empty
    /// vector.
    pub fn wait_some(&mut self) -> Result<Vec<usize>> {
        let mut done: Vec<usize> = Vec::new();
        while let Some(index) = self.complete_one(done.is_empty())? {
            // Undo the shifts of the entries this call already removed
            // (`done` is ascending).
            let at_call = done.iter().fold(index, |at, &d| at + usize::from(d <= at));
            done.insert(done.partition_point(|&d| d < at_call), at_call);
        }
        Ok(done)
    }
}

/// A request pool with a **fixed number of slots** (§III-E: the paper
/// describes this variant as the designed extension of the unbounded
/// pool): submitting into a full pool first completes the oldest pending
/// operation, bounding the number of concurrent non-blocking requests —
/// and with it, buffer memory held by in-flight sends.
pub struct BoundedRequestPool<'a> {
    slots: std::collections::VecDeque<(Request<'a>, Finisher<'a>)>,
    capacity: usize,
}

impl<'a> BoundedRequestPool<'a> {
    /// Creates a pool with `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a request pool needs at least one slot");
        BoundedRequestPool {
            slots: std::collections::VecDeque::new(),
            capacity,
        }
    }

    /// Number of in-flight operations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no operations are in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum number of concurrent operations.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Completes the oldest operations until at most `room` are left.
    fn drain_to(&mut self, room: usize) -> Result<()> {
        while self.slots.len() > room {
            let (req, finisher) = self.slots.pop_front().expect("non-empty");
            finisher.finish(&req.wait()?)?;
        }
        Ok(())
    }

    fn submit<H: 'a>(&mut self, op: InFlight<'a, H>) -> Result<()> {
        self.drain_to(self.capacity - 1)?;
        self.slots.push_back(op.into_entry());
        Ok(())
    }

    /// Submits a non-blocking send, completing the oldest operation
    /// first if the pool is full.
    pub fn submit_send<H: 'a>(&mut self, op: NonBlockingSend<'a, H>) -> Result<()> {
        self.submit(op.0)
    }

    /// Submits a non-blocking receive, completing the oldest operation
    /// first if the pool is full.
    pub fn submit_recv<T: Plain>(&mut self, op: NonBlockingRecv<'a, T>) -> Result<()> {
        self.submit(op.0)
    }

    /// Submits a non-blocking collective, completing the oldest operation
    /// first if the pool is full — bounding both in-flight requests and
    /// the buffer memory held by moved-in send containers.
    pub fn submit_collective<T: Plain, H: 'a>(
        &mut self,
        op: crate::collectives::NonBlockingCollective<'a, T, H>,
    ) -> Result<()> {
        self.submit(op.0)
    }

    /// Completes all remaining operations.
    pub fn wait_all(mut self) -> Result<()> {
        self.drain_to(0)
    }
}

// ---------------------------------------------------------------------------
// Communicator methods
// ---------------------------------------------------------------------------

impl Communicator {
    /// Blocking send (wraps `MPI_Send`). Parameters: `send_buf` and
    /// `destination` (required), `tag` (default 0). Serialized payloads
    /// are sent with `send_buf(as_serialized(&data))`.
    pub fn send<M, A>(&self, args: A) -> Result<()>
    where
        A: IntoArgs,
        A::Out: SendArgs<M>,
    {
        args.into_args().run(self)
    }

    /// Blocking receive (wraps `MPI_Recv`). Parameters: `source` (default
    /// any), `tag` (default any), `recv_buf`, `recv_count` (optional
    /// length assertion). Returns the received data by value unless
    /// storage was passed by reference.
    pub fn recv<M, A>(&self, args: A) -> Result<<A::Out as RecvArgs<M>>::Output>
    where
        A: IntoArgs,
        A::Out: RecvArgs<M>,
    {
        args.into_args().run(self)
    }

    /// Non-blocking send (wraps `MPI_Isend`). Owned send buffers are
    /// moved into the returned [`NonBlockingSend`] and handed back by
    /// `wait()` — the ownership-based safety of §III-E (Fig. 6).
    pub fn isend<M, A>(
        &self,
        args: A,
    ) -> Result<NonBlockingSend<'_, <A::Out as IsendArgs<M>>::Hold>>
    where
        A: IntoArgs,
        A::Out: IsendArgs<M>,
    {
        let op = args.into_args().run::<Immediate>(self, false)?;
        Ok(NonBlockingSend(op))
    }

    /// Non-blocking synchronous-mode send (wraps `MPI_Issend`): completes
    /// only once the receiver has matched the message. The NBX sparse
    /// all-to-all (§V-A) builds on this.
    pub fn issend<M, A>(
        &self,
        args: A,
    ) -> Result<NonBlockingSend<'_, <A::Out as IsendArgs<M>>::Hold>>
    where
        A: IntoArgs,
        A::Out: IsendArgs<M>,
    {
        let op = args.into_args().run::<Immediate>(self, true)?;
        Ok(NonBlockingSend(op))
    }

    /// Non-blocking receive (wraps `MPI_Irecv`). Parameters: `source`
    /// (default any), `tag` (default any), `recv_count` (optional length
    /// assertion). The data is only accessible via `wait()`/`test()`.
    pub fn irecv<T: Plain, A>(&self, args: A) -> Result<NonBlockingRecv<'_, T>>
    where
        A: IntoArgs,
        A::Out: IrecvArgs,
    {
        let op = args.into_args().run::<T, Immediate>(self)?;
        Ok(NonBlockingRecv(op, PhantomData))
    }
}

/// Argument sets valid for [`Communicator::irecv`] and
/// [`Communicator::recv_init`]: scalar parameters only (the receive
/// buffer is always produced by the completion) — `source`, `tag`,
/// `recv_count`.
pub trait IrecvArgs {
    /// Resolves the envelope and `recv_count` and drives the receive
    /// into lifecycle `L`.
    fn run<'c, T, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, ()>>;
}

impl IrecvArgs for ArgSet<Absent, Absent, Absent, Absent, Absent, Absent, Absent, Absent> {
    fn run<'c, T, L: Lifecycle<'c>>(self, comm: &'c Communicator) -> Result<L::Out<T, ()>> {
        let (src, tag) = recv_meta(&self.meta);
        let expected_bytes = self.meta.recv_count.map(|n| n * std::mem::size_of::<T>());
        L::drive(
            comm.raw(),
            ((), (), expected_bytes),
            |c, ()| Ok(c.irecv(src, tag)),
            // A plan registers on one concrete stream: tag 0 by default,
            // and a wildcard source cannot be frozen.
            |c, ()| match src {
                Src::Rank(src) => c.recv_init(src, self.meta.tag.unwrap_or(0)),
                Src::Any => Err(MpiError::InvalidLayout(
                    "recv_init needs source(rank)".into(),
                )),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use kmp_mpi::Universe;

    #[test]
    fn blocking_send_recv() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(&[1u32, 2, 3][..]), destination(1)))
                    .unwrap();
            } else {
                let v: Vec<u32> = comm.recv((source(0),)).unwrap();
                assert_eq!(v, vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn send_with_tag_recv_selective() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(&vec![1u8]), destination(1), tag(7)))
                    .unwrap();
                comm.send((send_buf(&vec![2u8]), destination(1), tag(8)))
                    .unwrap();
            } else {
                let v8: Vec<u8> = comm.recv((source(0), tag(8))).unwrap();
                let v7: Vec<u8> = comm.recv((source(0), tag(7))).unwrap();
                assert_eq!((v7, v8), (vec![1], vec![2]));
            }
        });
    }

    #[test]
    fn recv_into_provided_buffer() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(&vec![9u64; 4]), destination(1)))
                    .unwrap();
            } else {
                let mut buf = Vec::new();
                comm.recv::<u64, _>((recv_buf(&mut buf).resize_to_fit(),))
                    .unwrap();
                assert_eq!(buf, vec![9; 4]);
            }
        });
    }

    #[test]
    fn isend_moves_and_returns_buffer() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                // Fig. 6: the buffer is moved into the call and comes
                // back with wait() once the operation completed.
                let v = vec![1u32, 2, 3];
                let r1 = comm.isend((send_buf(v), destination(1))).unwrap();
                let v = r1.wait().unwrap().take();
                assert_eq!(v, vec![1, 2, 3]);
            } else {
                let data: Vec<u32> = comm.recv((source(0),)).unwrap();
                assert_eq!(data, vec![1, 2, 3]);
            }
        });
    }

    #[test]
    fn irecv_data_only_after_wait() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(&vec![5u16; 42]), destination(1)))
                    .unwrap();
            } else {
                // Fig. 6: r2 = comm.irecv<int>(recv_count(42)).
                let r2 = comm.irecv::<u16, _>(recv_count(42)).unwrap();
                let data = r2.wait().unwrap();
                assert_eq!(data.len(), 42);
            }
        });
    }

    #[test]
    fn irecv_test_returns_pending_then_data() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 1 {
                let mut r = comm.irecv::<u8, _>(()).unwrap();
                let data = loop {
                    match r.test().unwrap() {
                        Ok(data) => break data,
                        Err(pending) => {
                            r = pending;
                            std::thread::yield_now();
                        }
                    }
                };
                assert_eq!(data, vec![3]);
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
                comm.send((send_buf(&vec![3u8]), destination(1))).unwrap();
            }
        });
    }

    #[test]
    fn issend_completes_after_match() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let r = comm.issend((send_buf(vec![1u8]), destination(1))).unwrap();
                let v = r.wait().unwrap();
                assert_eq!(&v[..], [1]);
            } else {
                let v: Vec<u8> = comm.recv((source(0),)).unwrap();
                assert_eq!(v, vec![1]);
            }
        });
    }

    #[test]
    fn request_pool_waits_all() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let mut pool = crate::p2p::RequestPool::new();
                for peer in 1..3 {
                    let r = comm
                        .isend((send_buf(vec![peer as u8]), destination(peer)))
                        .unwrap();
                    pool.submit_send(r);
                }
                assert_eq!(pool.len(), 2);
                pool.wait_all().unwrap();
            } else {
                let v: Vec<u8> = comm.recv((source(0),)).unwrap();
                assert_eq!(v, vec![comm.rank() as u8]);
            }
        });
    }

    #[test]
    fn recv_count_mismatch_errors() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                comm.send((send_buf(&vec![1u8; 3]), destination(1)))
                    .unwrap();
            } else {
                let r = comm.recv::<u8, _>((recv_count(5),));
                assert!(r.is_err());
            }
        });
    }

    #[test]
    fn bounded_pool_limits_in_flight_requests() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let mut pool = crate::p2p::BoundedRequestPool::with_capacity(3);
                for i in 0..10u8 {
                    let r = comm.isend((send_buf(vec![i]), destination(1))).unwrap();
                    pool.submit_send(r).unwrap();
                    assert!(pool.len() <= 3, "pool exceeded its capacity");
                }
                pool.wait_all().unwrap();
            } else {
                for i in 0..10u8 {
                    let v: Vec<u8> = comm.recv((source(0),)).unwrap();
                    assert_eq!(v, vec![i]);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn bounded_pool_rejects_zero_capacity() {
        let _ = crate::p2p::BoundedRequestPool::with_capacity(0);
    }

    #[test]
    fn pool_wait_any_and_wait_some() {
        Universe::run(3, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let mut pool = crate::p2p::RequestPool::new();
                assert!(pool.wait_any().unwrap().is_none());
                pool.submit_recv(comm.irecv::<u8, _>(source(1)).unwrap());
                pool.submit_recv(comm.irecv::<u8, _>(source(2)).unwrap());
                let first = pool.wait_any().unwrap().expect("one completes");
                assert!(first <= 1);
                assert_eq!(pool.len(), 1);
                let rest = pool.wait_some().unwrap();
                assert_eq!(rest, vec![0]);
                assert!(pool.is_empty());
            } else {
                std::thread::sleep(std::time::Duration::from_millis(comm.rank() as u64 * 2));
                comm.send((send_buf(&[comm.rank() as u8][..]), destination(0)))
                    .unwrap();
            }
        });
    }

    #[test]
    fn pool_wait_any_parks_instead_of_polling() {
        // The park-before-send ordering is timing-dependent, so the
        // scenario retries a few times — the pool must demonstrably
        // park (claimed multi-waiter) on at least one attempt.
        for attempt in 0..5 {
            let parked = Universe::run(2, |comm| {
                let comm = Communicator::new(comm);
                if comm.rank() == 0 {
                    let mut pool = crate::p2p::RequestPool::new();
                    pool.submit_recv(comm.irecv::<u8, _>(source(1)).unwrap());
                    let first = pool.wait_any().unwrap();
                    assert_eq!(first, Some(0));
                    assert!(pool.is_empty());
                    // The sender ran well after the pool went to sleep,
                    // so its push claimed the parked multi-waiter — the
                    // pool waits through the substrate's parking
                    // protocol, not a poll loop.
                    comm.raw().mailbox_stats().multi_wakeups >= 1
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                    comm.send((send_buf(&[7u8][..]), destination(0))).unwrap();
                    true
                }
            })
            .into_iter()
            .all(|ok| ok);
            if parked {
                return;
            }
            eprintln!("attempt {attempt}: the send outran the park; retrying");
        }
        panic!("the pool never parked across 5 attempts — wait_any is polling");
    }

    /// Satellite of the persistent-ops PR: draining an n-receive pool
    /// through `wait_any` must make O(n) waiter registrations total (one
    /// standing registration per receive, retired as each completes) —
    /// not the O(n²/2) of transiently re-registering every survivor on
    /// every park. Pinned by the mailbox's monotonic registration
    /// counter.
    #[test]
    fn pool_wait_any_drain_makes_one_registration_per_receive() {
        const N: u64 = 12;
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            if comm.rank() == 0 {
                let mut pool = crate::p2p::RequestPool::new();
                for _ in 0..N {
                    pool.submit_recv(comm.irecv::<u8, _>(source(1)).unwrap());
                }
                let before = comm.raw().mailbox_stats().notify_registrations;
                let mut drained = 0;
                while pool.wait_any().unwrap().is_some() {
                    drained += 1;
                }
                assert_eq!(drained, N);
                let after = comm.raw().mailbox_stats().notify_registrations;
                assert!(
                    after - before <= N,
                    "drained {N} receives with {} registrations — the pool \
                     is re-registering instead of keeping its session",
                    after - before
                );
            } else {
                for i in 0..N {
                    // Stagger so the pool actually parks between
                    // completions instead of sweeping everything up.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    comm.send((send_buf(&[i as u8][..]), destination(0)))
                        .unwrap();
                }
            }
        });
    }

    #[test]
    fn pool_mixes_p2p_and_collectives() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mut pool = crate::p2p::RequestPool::new();
            // Collectives must be started in the same order on all ranks.
            pool.submit_collective(
                comm.iallreduce((send_buf(vec![1u64]), op(ops::Sum)))
                    .unwrap(),
            );
            pool.submit_collective(
                comm.iallgatherv(send_buf(vec![comm.rank() as u32]))
                    .unwrap(),
            );
            if comm.rank() == 0 {
                pool.submit_send(comm.isend((send_buf(vec![7u8]), destination(1))).unwrap());
            } else {
                pool.submit_recv(comm.irecv::<u8, _>(source(0)).unwrap());
            }
            assert_eq!(pool.len(), 3);
            pool.wait_all().unwrap();
        });
    }

    #[test]
    fn bounded_pool_accepts_collectives() {
        Universe::run(2, |comm| {
            let comm = Communicator::new(comm);
            let mut pool = crate::p2p::BoundedRequestPool::with_capacity(2);
            for _ in 0..5 {
                let fut = comm
                    .iallreduce((send_buf(vec![1u32]), op(ops::Sum)))
                    .unwrap();
                pool.submit_collective(fut).unwrap();
                assert!(pool.len() <= 2);
            }
            pool.wait_all().unwrap();
        });
    }

    /// A send without `destination` is a typed error in every form that
    /// takes one — blocking (plain and serialized), `isend`, `issend`
    /// and `send_init` — not a panic.
    #[test]
    fn send_without_destination_is_an_error() {
        Universe::run(1, |comm| {
            let comm = Communicator::new(comm);
            let missing = |r: Result<(), crate::MpiError>| match r {
                Err(crate::MpiError::InvalidLayout(text)) => assert!(text.contains("destination")),
                other => panic!("{other:?}"),
            };
            missing(comm.send((send_buf(&vec![1u8]),)));
            missing(comm.send((send_buf(as_serialized(&1u8)),)));
            missing(comm.isend((send_buf(vec![1u8]),)).map(drop));
            missing(comm.issend((send_buf(&[1u8][..]),)).map(drop));
            missing(comm.send_init((send_buf(&vec![1u8]),)).map(drop));
        });
    }
}
