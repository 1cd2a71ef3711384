//! Non-blocking operations: requests, test/wait, request sets. How a
//! thread *blocks* on them is decided in [`crate::completion`].
//!
//! Substrate requests are byte-level; the binding layer wraps them in the
//! buffer-owning `NonBlockingResult` that provides the paper's §III-E
//! memory-safety guarantees. Requests borrow the communicator, so a
//! request can never outlive the universe it communicates in.
//!
//! # How a request completes
//!
//! The *non-blocking* paths are unchanged from PR 4: `test` and the
//! collective engines' drain loops hit the matching engine's
//! `(source, tag)` index ([`crate::mailbox`]) — each poll is an O(1)
//! lookup rather than a linear scan of everything queued at the rank.
//!
//! The *blocking* paths never poll. Every one of them — `wait` on a
//! receive, on a synchronous-mode send, on a collective engine;
//! [`RequestSet::wait_any`] / [`RequestSet::wait_some`] over a mixed
//! set — parks under the one protocol of [`crate::completion`], whose
//! module doc is the state machine, the registration kinds and the
//! no-lost-wakeup / bounded-spurious-wakeup argument.
//!
//! What this module contributes to it is the *sources*: each request
//! kind reports what it is blocked on through `Request::park_spec` — a
//! posted receive its `(context, source, tag)` selectors, a collective
//! engine the receives its state machine is stalled on (the hook every
//! engine in `crate::collectives::nonblocking` implements — `ibarrier`
//! is one of them, with no state of its own here), a synchronous-mode
//! send its acknowledgement slot. Sends buffered at creation report
//! "ready" and never park.
//!
//! The seed's sweep-and-yield strategy survives as
//! [`crate::completion::reference`] — the differential-testing baseline
//! and the `completion_experiment` benchmark's yardstick.
//!
//! # Request lifecycles
//!
//! Every pending operation is one `OpState` — an eager send, a
//! synchronous-mode send, a posted receive, a collective engine, or a
//! partitioned receive's reassembly — with one non-blocking completion
//! step, `OpState::try_complete`. A one-shot [`Request`] carries an
//! `OpState` from its call to its first observed completion; a
//! persistent request ([`crate::persistent::PersistentRequest`]) keeps
//! one as its frozen plan and cycles it through started → complete →
//! restartable without re-doing any setup. `test` on either, and a
//! [`PersistentSet`](crate::PersistentSet)'s sweep, are that one step;
//! only the blocking strategies differ:
//!
//! ```text
//!   one-shot:    [started] ──wait/test──> [complete]      (consumed)
//!                (a collective: engine built and `start`ed by the call;
//!                 `wait` parks in the receive's, the ack's or the
//!                 engine's own blocking path)
//!
//!   persistent:  *_init  (the same OpState, built once; every `start`
//!                         re-arms it — a collective: the engine's `start`)
//!              ─────────> [inactive] ──start──> [started]
//!                             ^                     │ wait/test
//!                             │    restartable      v
//!                             └───────────────  [complete]
//!                (`wait` parks on the standing registrations; a failed
//!                 cycle poisons every later `start`)
//! ```
//!
//! Both lifetimes are visible in traces as async `"b"`/`"e"` span
//! pairs (categories `async_op` and `persist`, see [`crate::trace`]).

use std::sync::Arc;

use bytes::Bytes;

use crate::collectives::nonblocking::{message_completion, CollEngine};
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::{AckSlot, Src, Status, TagSel};
use crate::partitioned::Reassembly;
use crate::plain::bytes_from_slice;
use crate::{Plain, Rank, Tag};

/// What a completed request yields: receives carry a payload,
/// per-rank-block collectives carry one payload per rank.
#[derive(Clone, Debug)]
pub enum Completion {
    /// A send (or barrier, or the no-result side of a rooted collective)
    /// completed; nothing to return.
    Done,
    /// A receive (or single-result collective) completed with this
    /// payload.
    Message(Bytes, Status),
    /// A per-rank-block collective (`igatherv`, `iallgatherv`,
    /// `ialltoallv`) completed: one payload per rank, in rank order.
    Blocks(Vec<Bytes>),
}

impl Completion {
    /// The payload of a completed receive, decoded as `Vec<T>`: the
    /// vector behind it, without a copy, when this rank holds its only
    /// view (every allreduce result of a commutative operation); else
    /// one counted copy.
    pub fn into_vec<T: Plain>(self) -> Option<(Vec<T>, Status)> {
        match self {
            Completion::Done | Completion::Blocks(_) => None,
            Completion::Message(b, st) => {
                let v = crate::plain::reclaim_vec(b).unwrap_or_else(|b| crate::bytes_to_vec(&b));
                Some((v, st))
            }
        }
    }

    /// The raw payload of a completed receive.
    pub fn into_bytes(self) -> Option<(Bytes, Status)> {
        match self {
            Completion::Done | Completion::Blocks(_) => None,
            Completion::Message(b, st) => Some((b, st)),
        }
    }

    /// The per-rank payloads of a completed collective. Single-payload
    /// completions yield one block, so callers can treat every data-
    /// carrying completion uniformly.
    pub fn into_blocks(self) -> Option<Vec<Bytes>> {
        match self {
            Completion::Done => None,
            Completion::Message(b, _) => Some(vec![b]),
            Completion::Blocks(blocks) => Some(blocks),
        }
    }
}

/// Outcome of a non-blocking [`Request::test`].
pub enum TestOutcome<'a> {
    /// The operation completed.
    Ready(Completion),
    /// Not yet complete; the request is handed back.
    Pending(Request<'a>),
}

/// The one definition of a pending operation: what a one-shot
/// [`Request`] carries from its call to its completion, and the plan a
/// persistent request ([`crate::persistent::PersistentRequest`])
/// re-runs every cycle. Its [`try_complete`](OpState::try_complete) is
/// the one non-blocking completion step of both.
pub(crate) enum OpState {
    /// Eager send: the payload is buffered when the send is posted (at
    /// the call, or at each persistent `start`), so it is complete from
    /// then on.
    Send { dest: Rank, tag: Tag },
    /// Synchronous-mode send: completes when the receiver matches.
    SyncSend { ack: Arc<AckSlot>, dest: Rank },
    /// Posted receive: matches lazily in test/wait.
    Recv { src: Src, tag: TagSel },
    /// Non-blocking collective engine
    /// (see [`crate::collectives::nonblocking`]).
    Coll(Box<dyn CollEngine>),
    /// Partitioned receive: one cycle's indexed partitions reassembled
    /// (persistent only, see [`crate::partitioned`]).
    Partitioned(Box<Reassembly>),
}

impl OpState {
    /// The one non-blocking completion attempt: the completion, `None`
    /// while pending, or the peer failure / revocation that ended it.
    pub(crate) fn try_complete(&mut self, comm: &Comm) -> Result<Option<Completion>> {
        match self {
            OpState::Send { .. } => Ok(Some(Completion::Done)),
            OpState::SyncSend { ack, dest } => {
                if ack.is_complete() {
                    return Ok(Some(Completion::Done));
                }
                let dest_world = comm.translate_to_world(*dest)?;
                if comm.world.is_revoked(comm.context) {
                    return Err(MpiError::Revoked);
                }
                if comm.world.is_failed(dest_world) {
                    return Err(MpiError::ProcessFailed {
                        world_rank: dest_world,
                    });
                }
                Ok(None)
            }
            OpState::Recv { src, tag } => match comm.try_recv_envelope(*src, *tag) {
                Some(env) => Ok(Some(message_completion(env.src, env.tag, env.payload))),
                None => comm.wait_interrupted(*src).map_or(Ok(None), Err),
            },
            OpState::Coll(engine) => engine.advance(comm, false),
            OpState::Partitioned(plan) => plan.try_complete(comm),
        }
    }

    /// The static name shared by a one-shot request's async begin/end
    /// events.
    fn name(&self) -> &'static str {
        match self {
            OpState::Send { .. } => "isend",
            OpState::SyncSend { .. } => "issend",
            OpState::Recv { .. } => "irecv",
            OpState::Coll(_) => "icoll",
            OpState::Partitioned(_) => "precv",
        }
    }
}

/// A handle to an in-flight non-blocking operation
/// (mirrors `MPI_Request`).
pub struct Request<'a> {
    comm: &'a Comm,
    state: OpState,
    /// Async-trace correlation id: the constructor's `"b"` event and
    /// the completing wait/test's `"e"` event share it, so the
    /// operation's whole initiate→complete lifetime renders as one
    /// span on Perfetto's async tracks (0 when tracing is off).
    id: u64,
}

impl<'a> Request<'a> {
    /// Allocates the request and opens its async trace span.
    fn new(comm: &'a Comm, state: OpState) -> Self {
        let req = Request {
            comm,
            state,
            id: crate::trace::next_async_id(),
        };
        crate::trace::async_begin(crate::trace::cat::ASYNC, req.state.name(), req.id);
        req
    }

    /// Wraps a non-blocking collective engine (crate-internal; users
    /// obtain these from the `Comm::i*` collectives).
    pub(crate) fn collective(comm: &'a Comm, engine: Box<dyn CollEngine>) -> Self {
        Request::new(comm, OpState::Coll(engine))
    }

    /// Blocks until the operation completes (mirrors `MPI_Wait`).
    pub fn wait(self) -> Result<Completion> {
        let _sp = crate::trace::span(crate::trace::cat::WAIT, "wait", 0, 0);
        let comm = self.comm;
        let (id, name) = (self.id, self.state.name());
        let result = match self.state {
            OpState::Send { .. } => Ok(Completion::Done),
            OpState::SyncSend { ack, dest } => {
                // Event-driven: parks on the acknowledgement slot; the
                // receiver's match (or an interrupt epoch bump) wakes it.
                crate::completion::wait_sync_send(comm, &ack, dest)
            }
            OpState::Recv { src, tag } => comm
                .recv_envelope(src, tag)
                .map(|env| message_completion(env.src, env.tag, env.payload)),
            OpState::Coll(mut engine) => {
                let c = engine.advance(comm, true)?;
                Ok(c.expect("blocking advance completes the collective"))
            }
            OpState::Partitioned(_) => unreachable!("partitioned receives are persistent"),
        };
        if result.is_ok() {
            crate::trace::async_end(crate::trace::cat::ASYNC, name, id);
        }
        result
    }

    /// Non-blocking completion check (mirrors `MPI_Test`). Returns
    /// [`TestOutcome::Pending`] with the request handed back if the
    /// operation has not completed yet.
    pub fn test(mut self) -> Result<TestOutcome<'a>> {
        Ok(match self.state.try_complete(self.comm)? {
            Some(c) => {
                crate::trace::async_end(crate::trace::cat::ASYNC, self.state.name(), self.id);
                TestOutcome::Ready(c)
            }
            None => TestOutcome::Pending(self),
        })
    }

    /// [`test`](Request::test) as request sets book it: the outcome
    /// that consumed the request — completion or error — or the request
    /// back while it is still pending.
    pub(crate) fn settle(self) -> std::result::Result<Result<Completion>, Request<'a>> {
        match self.test() {
            Ok(TestOutcome::Pending(req)) => Err(req),
            Ok(TestOutcome::Ready(c)) => Ok(Ok(c)),
            Err(e) => Ok(Err(e)),
        }
    }

    /// The communicator this request operates on.
    pub(crate) fn comm(&self) -> &'a Comm {
        self.comm
    }

    /// The `(context, source, tag)` selectors of a plain posted
    /// receive — the requests whose park sources never change, making
    /// them eligible for a set's standing registrations
    /// (`crate::completion::Session`).
    pub(crate) fn recv_selectors(&self) -> Option<(u64, Src, TagSel)> {
        match &self.state {
            OpState::Recv { src, tag } => Some((self.comm.context, *src, *tag)),
            _ => None,
        }
    }

    /// Appends the sources whose completion could let this request make
    /// progress (the completion subsystem registers a parked waiter on
    /// each). Returns `true` if the request needs no parking — it is
    /// intrinsically complete and the caller's next sweep collects it.
    ///
    /// The reported sources are *sufficient for liveness*, not a
    /// completion certificate: a request is allowed to still be pending
    /// when a source fires (the caller re-tests), but whenever a
    /// request is pending, at least one reported source must eventually
    /// fire or an interrupt epoch bump must occur.
    pub(crate) fn park_spec<'r>(
        &'r self,
        out: &mut Vec<crate::completion::ParkSource<'r>>,
    ) -> bool {
        use crate::completion::ParkSource;
        match &self.state {
            OpState::Send { .. } => true,
            OpState::SyncSend { ack, .. } => {
                out.push(ParkSource::Ack(ack));
                false
            }
            OpState::Recv { src, tag } => {
                out.push(ParkSource::Mailbox {
                    context: self.comm.context,
                    src: *src,
                    tag: *tag,
                });
                false
            }
            OpState::Coll(engine) => {
                let before = out.len();
                let mut pairs: Vec<(Rank, Tag)> = Vec::new();
                engine.sources(self.comm, &mut pairs);
                out.extend(pairs.into_iter().map(|(r, t)| ParkSource::Mailbox {
                    context: self.comm.context,
                    src: Src::Rank(r),
                    tag: TagSel::Is(t),
                }));
                out.len() == before
            }
            OpState::Partitioned(_) => unreachable!("partitioned receives are persistent"),
        }
    }
}

impl Comm {
    /// Starts a non-blocking send (mirrors `MPI_Isend`). The eager
    /// transport buffers the payload, so the request is complete on
    /// creation — but, as in MPI, completion must still be observed via
    /// wait/test.
    pub fn isend<T: Plain>(&self, data: &[T], dest: Rank, tag: Tag) -> Result<Request<'_>> {
        self.isend_bytes(bytes_from_slice(data), dest, tag)
    }

    /// Byte-level [`Comm::isend`]: the payload enters the transport
    /// as-is (zero-copy for adopted owned buffers).
    pub fn isend_bytes(&self, payload: Bytes, dest: Rank, tag: Tag) -> Result<Request<'_>> {
        self.count_op("isend");
        self.check_tag(tag)?;
        self.deliver_bytes(dest, tag, payload, None)?;
        Ok(Request::new(self, OpState::Send { dest, tag }))
    }

    /// Starts a non-blocking *synchronous-mode* send (mirrors
    /// `MPI_Issend`): the request completes only once the receiver has
    /// matched the message. This is the primitive the NBX sparse
    /// all-to-all (§V-A) is built on.
    pub fn issend<T: Plain>(&self, data: &[T], dest: Rank, tag: Tag) -> Result<Request<'_>> {
        self.issend_bytes(bytes_from_slice(data), dest, tag)
    }

    /// Byte-level [`Comm::issend`] (zero-copy for adopted owned buffers).
    pub fn issend_bytes(&self, payload: Bytes, dest: Rank, tag: Tag) -> Result<Request<'_>> {
        self.count_op("issend");
        self.check_tag(tag)?;
        let ack = AckSlot::new();
        self.deliver_bytes(dest, tag, payload, Some(ack.clone()))?;
        Ok(Request::new(self, OpState::SyncSend { ack, dest }))
    }

    /// Posts a non-blocking receive (mirrors `MPI_Irecv`). The payload is
    /// delivered by `wait`/`test`.
    pub fn irecv(&self, src: impl Into<Src>, tag: impl Into<TagSel>) -> Request<'_> {
        self.count_op("irecv");
        Request::new(
            self,
            OpState::Recv {
                src: src.into(),
                tag: tag.into(),
            },
        )
    }
}

/// A set of requests completed together
/// (mirrors `MPI_Waitall` over an array of requests; the substrate
/// counterpart of KaMPIng's request pools, which are typed views of
/// it).
#[derive(Default)]
pub struct RequestSet<'a> {
    pub(crate) requests: Vec<Request<'a>>,
    /// Standing registrations kept across `wait_any` calls (sets of
    /// plain receives only — see `crate::completion::Session`). Ended
    /// by any other mutation of the set.
    pub(crate) session: Option<crate::completion::Session>,
}

impl<'a> RequestSet<'a> {
    pub fn new() -> Self {
        RequestSet::default()
    }

    /// Adds a request to the set.
    pub fn push(&mut self, req: Request<'a>) {
        crate::completion::teardown_session(&self.requests, &mut self.session);
        self.requests.push(req);
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the set holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Waits for all requests, returning completions in insertion order.
    pub fn wait_all(mut self) -> Result<Vec<Completion>> {
        let _sp = crate::trace::span(
            crate::trace::cat::WAIT,
            "wait_all",
            self.requests.len() as u64,
            0,
        );
        crate::completion::teardown_session(&self.requests, &mut self.session);
        std::mem::take(&mut self.requests)
            .into_iter()
            .map(|r| r.wait())
            .collect()
    }

    /// Tests all requests once; completed ones are returned (with their
    /// insertion index), pending ones are kept. If a request errors
    /// (peer failure, revocation), that request is consumed but every
    /// other one stays in the set, so fault-tolerant callers can keep
    /// waiting on the survivors.
    pub fn test_some(&mut self) -> Result<Vec<(usize, Completion)>> {
        crate::completion::teardown_session(&self.requests, &mut self.session);
        let mut done = Vec::new();
        let mut pending = Vec::new();
        let mut erred = None;
        for (i, req) in std::mem::take(&mut self.requests).into_iter().enumerate() {
            if erred.is_some() {
                pending.push(req);
                continue;
            }
            match req.test() {
                Ok(TestOutcome::Ready(c)) => done.push((i, c)),
                Ok(TestOutcome::Pending(r)) => pending.push(r),
                Err(e) => erred = Some(e),
            }
        }
        self.requests = pending;
        match erred {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }

    /// One non-blocking sweep of the `wait_any` loop: tests requests in
    /// order until one completes or errors, keeping the rest. Returns
    /// that request's index and outcome; either way it is consumed.
    pub(crate) fn sweep_outcome(&mut self) -> Option<(usize, Result<Completion>)> {
        let mut hit = None;
        let mut kept = Vec::with_capacity(self.requests.len());
        for (i, req) in std::mem::take(&mut self.requests).into_iter().enumerate() {
            if hit.is_some() {
                kept.push(req);
                continue;
            }
            match req.settle() {
                Ok(outcome) => hit = Some((i, outcome)),
                Err(pending) => kept.push(pending),
            }
        }
        self.requests = kept;
        hit
    }

    /// [`sweep_outcome`](Self::sweep_outcome) in `wait_any`'s return
    /// shape (the sweep of [`crate::completion::reference`]).
    pub(crate) fn sweep_any(&mut self) -> Result<Option<(usize, Completion)>> {
        flatten(self.sweep_outcome())
    }

    /// Tests only the request at `index` (the fast path after a
    /// targeted wakeup named that index): its outcome if that consumed
    /// it, `None` if it is still pending (handed back in place).
    pub(crate) fn test_at(&mut self, index: usize) -> Option<(usize, Result<Completion>)> {
        if index >= self.requests.len() {
            return None;
        }
        match self.requests.remove(index).settle() {
            Ok(outcome) => Some((index, outcome)),
            Err(pending) => {
                self.requests.insert(index, pending);
                None
            }
        }
    }

    /// Blocks until *one* request completes (mirrors `MPI_Waitany`),
    /// removing it from the set. Returns the completed request's index
    /// *at call time* together with its completion, or `None` if the set
    /// is empty. Remaining requests shift down by one, as after
    /// `Vec::remove`. If a request errors (peer failure, revocation),
    /// that request is consumed but every other one stays in the set, so
    /// fault-tolerant callers can keep waiting on the survivors.
    ///
    /// Fully event-driven: after one test sweep the thread parks with a
    /// waiter registered on every pending source, and the first
    /// completion wakes it with the index to re-test (see
    /// [`crate::completion`]). The seed's sweep-and-yield loop survives
    /// as [`crate::completion::reference::wait_any`].
    pub fn wait_any(&mut self) -> Result<Option<(usize, Completion)>> {
        flatten(self.complete_any(true))
    }

    /// [`wait_any`](Self::wait_any) for callers that keep per-request
    /// state beside the set (the binding layer's request pools): the
    /// request this call removed is reported with its index at call
    /// time **whether it completed or failed** — as `MPI_Waitany` sets
    /// `index` even when it returns an error — so the caller can retire
    /// its own entry for it. With `block` false the call never parks
    /// (`MPI_Testany`): `None` then also means "nothing is complete
    /// yet".
    pub fn complete_any(&mut self, block: bool) -> Option<(usize, Result<Completion>)> {
        let _sp = crate::trace::span(
            crate::trace::cat::WAIT,
            "wait_any",
            self.requests.len() as u64,
            0,
        );
        crate::completion::complete_any(self, block)
    }

    /// Blocks until *at least one* request completes (mirrors
    /// `MPI_Waitsome`), removing every completed request from the set.
    /// Returns `(index at call time, completion)` pairs in index order;
    /// an empty set yields an empty vector. Event-driven, like
    /// [`RequestSet::wait_any`].
    pub fn wait_some(&mut self) -> Result<Vec<(usize, Completion)>> {
        let _sp = crate::trace::span(
            crate::trace::cat::WAIT,
            "wait_some",
            self.requests.len() as u64,
            0,
        );
        crate::completion::wait_some(self)
    }
}

/// `wait_any`'s return shape from a per-request outcome.
fn flatten(hit: Option<(usize, Result<Completion>)>) -> Result<Option<(usize, Completion)>> {
    hit.map(|(i, outcome)| outcome.map(|c| (i, c))).transpose()
}

impl Drop for RequestSet<'_> {
    /// Dropping a set with a live session must remove its standing
    /// registrations from the mailbox — abandoned sets (e.g. the
    /// wait-for-fastest pattern that drops the losers) would otherwise
    /// accumulate dead entries for the communicator's lifetime.
    fn drop(&mut self) {
        crate::completion::teardown_session(&self.requests, &mut self.session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn isend_irecv_roundtrip() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let req = comm.isend(&[5u32, 6], 1, 0).unwrap();
                req.wait().unwrap();
            } else {
                let req = comm.irecv(0, 0);
                let (v, st) = req.wait().unwrap().into_vec::<u32>().unwrap();
                assert_eq!(v, vec![5, 6]);
                assert_eq!(st.source, 0);
            }
        });
    }

    #[test]
    fn irecv_test_pending_then_ready() {
        Universe::run(2, |comm| {
            if comm.rank() == 1 {
                let mut req = comm.irecv(0, 3);
                loop {
                    match req.test().unwrap() {
                        TestOutcome::Ready(c) => {
                            let (v, _) = c.into_vec::<u8>().unwrap();
                            assert_eq!(v, vec![77]);
                            break;
                        }
                        TestOutcome::Pending(r) => {
                            req = r;
                            std::thread::yield_now();
                        }
                    }
                }
            } else {
                std::thread::sleep(std::time::Duration::from_millis(5));
                comm.send(&[77u8], 1, 3).unwrap();
            }
        });
    }

    #[test]
    fn issend_completes_only_on_match() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let req = comm.issend(&[1u8], 1, 0).unwrap();
                // Until rank 1 posts its receive, the request stays pending.
                let req = match req.test().unwrap() {
                    TestOutcome::Pending(r) => r,
                    TestOutcome::Ready(_) => {
                        // Possible only if rank 1 already received; tolerated.
                        return;
                    }
                };
                req.wait().unwrap();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(10));
                let (v, _) = comm.recv_vec::<u8>(0, 0).unwrap();
                assert_eq!(v, vec![1]);
            }
        });
    }

    #[test]
    fn ibarrier_overlaps_compute() {
        Universe::run(4, |comm| {
            let req = comm.ibarrier().unwrap();
            // Overlap: do local work while the barrier progresses.
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            req.wait().unwrap();
        });
    }

    #[test]
    fn ibarrier_via_polling() {
        Universe::run(3, |comm| {
            let mut req = comm.ibarrier().unwrap();
            loop {
                match req.test().unwrap() {
                    TestOutcome::Ready(_) => break,
                    TestOutcome::Pending(r) => {
                        req = r;
                        std::thread::yield_now();
                    }
                }
            }
        });
    }

    #[test]
    fn request_set_wait_all() {
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                set.push(comm.irecv(1, 0));
                set.push(comm.irecv(2, 0));
                assert_eq!(set.len(), 2);
                let done = set.wait_all().unwrap();
                let mut got: Vec<u8> = done
                    .into_iter()
                    .map(|c| c.into_vec::<u8>().unwrap().0[0])
                    .collect();
                got.sort_unstable();
                assert_eq!(got, vec![1, 2]);
            } else {
                comm.send(&[comm.rank() as u8], 0, 0).unwrap();
            }
        });
    }

    #[test]
    fn request_set_test_some_drains() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                set.push(comm.irecv(1, 0));
                set.push(comm.irecv(1, 1));
                let mut seen = 0;
                while !set.is_empty() {
                    seen += set.test_some().unwrap().len();
                    std::thread::yield_now();
                }
                assert_eq!(seen, 2);
            } else {
                comm.send(&[1u8], 0, 0).unwrap();
                comm.send(&[2u8], 0, 1).unwrap();
            }
        });
    }

    #[test]
    fn wait_any_returns_first_completed() {
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                set.push(comm.irecv(1, 0)); // arrives late
                set.push(comm.irecv(2, 0)); // arrives immediately
                let (idx, c) = set.wait_any().unwrap().expect("non-empty set");
                let (v, st) = c.into_vec::<u8>().unwrap();
                assert_eq!(v, vec![st.source as u8]);
                assert_eq!(set.len(), 1);
                // Drain the other one too.
                let (idx2, c2) = set.wait_any().unwrap().expect("one left");
                assert_eq!(idx2, 0, "indices are relative to the shrunken set");
                c2.into_vec::<u8>().unwrap();
                assert!(idx <= 1);
                assert!(set.wait_any().unwrap().is_none(), "empty set yields None");
            } else if comm.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                comm.send(&[1u8], 0, 0).unwrap();
            } else {
                comm.send(&[2u8], 0, 0).unwrap();
            }
        });
    }

    #[test]
    fn wait_any_error_keeps_surviving_requests() {
        // A failed peer must error its own request out of the set while
        // the survivor's request stays completable (ULFM recovery).
        let outcomes = crate::Universe::run_with(crate::Config::new(3), |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                set.push(comm.irecv(1, 0)); // peer that dies
                set.push(comm.irecv(2, 0)); // survivor (sends late)
                let mut survivor_data = None;
                let mut saw_error = false;
                while !set.is_empty() {
                    match set.wait_any() {
                        Ok(Some((_, c))) => survivor_data = c.into_vec::<u8>(),
                        Ok(None) => break,
                        Err(crate::MpiError::ProcessFailed { world_rank }) => {
                            assert_eq!(world_rank, 1);
                            saw_error = true;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                assert!(saw_error, "the dead peer's request must error");
                let (v, _) = survivor_data.expect("survivor's message delivered");
                assert_eq!(v, vec![2]);
            } else if comm.rank() == 1 {
                comm.fail_here();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(&[2u8], 0, 0).unwrap();
            }
        });
        assert!(matches!(outcomes[1], crate::RankOutcome::Failed));
    }

    #[test]
    fn wait_some_drains_everything_eventually() {
        Universe::run(4, |comm| {
            if comm.rank() == 0 {
                let mut set = RequestSet::new();
                for peer in 1..4 {
                    set.push(comm.irecv(peer, 7));
                }
                let mut seen = 0;
                while !set.is_empty() {
                    let done = set.wait_some().unwrap();
                    assert!(!done.is_empty(), "wait_some blocks until progress");
                    seen += done.len();
                }
                assert_eq!(seen, 3);
                assert!(
                    set.wait_some().unwrap().is_empty(),
                    "empty set yields empty vec"
                );
            } else {
                std::thread::sleep(std::time::Duration::from_millis(comm.rank() as u64 * 3));
                comm.send(&[comm.rank() as u8], 0, 7).unwrap();
            }
        });
    }

    #[test]
    fn completion_done_has_no_payload() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let c = comm.isend(&[1u8], 1, 0).unwrap().wait().unwrap();
                assert!(c.into_bytes().is_none());
            } else {
                comm.recv_vec::<u8>(0, 0).unwrap();
            }
        });
    }
}
