//! Partitioned point-to-point communication (MPI-4 `MPI_Psend_init` /
//! `MPI_Precv_init` / `MPI_Pready`): one persistent send whose payload
//! is produced **piecewise by multiple threads**.
//!
//! A partitioned send splits one logical message into `partitions`
//! equal-sized parts. After [`PartitionedSend::start`] arms a cycle,
//! any producer thread holding a [`PartitionWriter`] may call
//! [`PartitionWriter::pready`] to publish its partition the moment the
//! data is computed — the partition travels immediately (this substrate
//! is eager), overlapping communication with the computation of the
//! remaining partitions. The rank thread's
//! [`PartitionedSend::wait`] completes once every partition of the
//! cycle has been published.
//!
//! Like the [`persistent`](crate::persistent) operations this builds
//! on, all shape-dependent work happens once at `*_init`: envelope
//! validation and the frozen `(dest, tag)` stream. The receive *is* a
//! persistent request: [`PartitionedRecv`] is a typed view of a
//! [`PersistentRequest`] whose plan reassembles one cycle's partitions,
//! so its `start` checks, its standing, wake-only completion
//! registration (see [`crate::completion`]), its park and the poisoning
//! of a failed cycle are the persistent request's own.
//!
//! # Wire format and cycle alignment
//!
//! Each partition is one envelope on the frozen `(source, tag)` stream:
//! a 4-byte little-endian partition index followed by exactly
//! `part_bytes` of data. The receiver consumes exactly `partitions`
//! envelopes per cycle. Because `start` cycles never overlap (enforced
//! by [`MpiError::RequestActive`]) and per-`(source, tag)` delivery is
//! FIFO, the k-th group of `partitions` envelopes is always cycle k —
//! partition *indices* may arrive in any order (producers race), cycle
//! *boundaries* cannot.

use std::marker::PhantomData;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::collectives::nonblocking::message_completion;
use crate::comm::Comm;
use crate::error::{MpiError, Result};
use crate::message::{Envelope, Src, TagSel};
use crate::persistent::PersistentRequest;
use crate::plain::{
    as_bytes, as_bytes_mut, bytes_from_vec, bytes_to_vec, copy_slice, extend_vec_from_bytes,
    vec_with_capacity, zeroed_vec,
};
use crate::request::{Completion, OpState};
use crate::trace;
use crate::universe::WorldState;
use crate::{Plain, Rank, Tag};

/// Producer-side cycle state, shared between the owning
/// [`PartitionedSend`] and every [`PartitionWriter`] clone.
struct SendShared {
    state: Mutex<SendState>,
    /// Signals the rank thread's `wait` when the last partition of a
    /// cycle is published (or the cycle is poisoned). Producers are
    /// local threads, not messages: this is not a completion park.
    published: Condvar,
}

struct SendState {
    /// True between `start` and the completion `wait` observes; `pready`
    /// outside an armed cycle is erroneous.
    armed: bool,
    /// Which partitions have been published this cycle.
    ready: Vec<bool>,
    /// Count of `true`s in `ready` (saves a scan per `pready`).
    done: usize,
    /// First error a producer hit; surfaced by `wait`.
    poisoned: Option<MpiError>,
}

/// A persistent partitioned send (mirrors the request returned by
/// `MPI_Psend_init`). The rank thread drives the
/// `start` → producers `pready` → `wait` cycle; producer threads only
/// ever touch [`PartitionWriter`]s.
pub struct PartitionedSend<'a, T> {
    comm: &'a Comm,
    dest: Rank,
    tag: Tag,
    partitions: usize,
    part_bytes: usize,
    shared: Arc<SendShared>,
    cycles: u64,
    _ty: PhantomData<fn(&[T])>,
}

impl<'a, T: Plain> PartitionedSend<'a, T> {
    /// A sendable, cloneable handle for producer threads. Any number of
    /// clones may publish partitions concurrently.
    pub fn writer(&self) -> PartitionWriter<T> {
        PartitionWriter {
            world: Arc::clone(&self.comm.world),
            shared: Arc::clone(&self.shared),
            dest_world: self
                .comm
                .translate_to_world(self.dest)
                .expect("validated at init"),
            src: self.comm.rank(),
            src_world: self.comm.world_rank(),
            context: self.comm.context,
            tag: self.tag,
            partitions: self.partitions,
            part_bytes: self.part_bytes,
            _ty: PhantomData,
        }
    }

    /// Number of partitions per cycle (frozen at init).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Completed cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Arms one cycle (mirrors `MPI_Start` on a partitioned request):
    /// after this, producer threads may `pready` each partition exactly
    /// once. Errors if the previous cycle is still active or the
    /// communicator is revoked.
    pub fn start(&mut self) -> Result<()> {
        self.comm.count_op("start");
        let mut st = self.shared.state.lock();
        if st.armed {
            return Err(MpiError::RequestActive);
        }
        if self.comm.world.is_revoked(self.comm.context) {
            return Err(MpiError::Revoked);
        }
        trace::async_begin(trace::cat::PERSIST, "partitioned_cycle", self.trace_id());
        st.ready.iter_mut().for_each(|r| *r = false);
        st.done = 0;
        st.poisoned = None;
        st.armed = true;
        Ok(())
    }

    /// Blocks until every partition of the armed cycle has been
    /// published (all `pready` calls landed); inactive requests return
    /// immediately. A producer error (revocation, double-`pready`, bad
    /// length) poisons the cycle and resurfaces here.
    pub fn wait(&mut self) -> Result<()> {
        let mut st = self.shared.state.lock();
        if !st.armed {
            return Ok(());
        }
        while st.done < self.partitions && st.poisoned.is_none() {
            self.shared.published.wait(&mut st);
        }
        st.armed = false;
        drop(st);
        trace::async_end(trace::cat::PERSIST, "partitioned_cycle", self.trace_id());
        self.cycles += 1;
        let st = self.shared.state.lock();
        match &st.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn trace_id(&self) -> u64 {
        Arc::as_ptr(&self.shared) as u64 ^ self.cycles.rotate_left(48)
    }
}

/// A `Send + Sync + Clone` producer handle for one [`PartitionedSend`]
/// (mirrors the request argument of `MPI_Pready`): lets worker threads
/// publish partitions without touching the rank-thread-only [`Comm`].
pub struct PartitionWriter<T> {
    world: Arc<WorldState>,
    shared: Arc<SendShared>,
    dest_world: Rank,
    /// Sender's communicator rank / world rank (envelope provenance).
    src: Rank,
    src_world: Rank,
    context: u64,
    tag: Tag,
    partitions: usize,
    part_bytes: usize,
    _ty: PhantomData<fn(&[T])>,
}

impl<T> Clone for PartitionWriter<T> {
    fn clone(&self) -> Self {
        PartitionWriter {
            world: Arc::clone(&self.world),
            shared: Arc::clone(&self.shared),
            _ty: PhantomData,
            ..*self
        }
    }
}

impl<T: Plain> PartitionWriter<T> {
    /// Publishes partition `partition` of the current cycle (mirrors
    /// `MPI_Pready`): the partition's bytes leave immediately on the
    /// frozen `(dest, tag)` stream. Callable from any thread;
    /// partitions may be published in any order, each exactly once per
    /// cycle. `data` must hold exactly the partition length fixed at
    /// init. Errors poison the cycle so the rank thread's `wait` sees
    /// them too.
    pub fn pready(&self, partition: usize, data: &[T]) -> Result<()> {
        self.world.counters[self.src_world].lock().inc("pready");
        crate::fault::point("partitioned/pready");
        let err = self.check(partition, data);
        let mut st = self.shared.state.lock();
        if let Err(e) = err {
            st.poisoned.get_or_insert(e.clone());
            self.shared.published.notify_all();
            return Err(e);
        }
        if !st.armed {
            return Err(MpiError::InvalidLayout(
                "pready: no armed cycle (call start first)".into(),
            ));
        }
        if st.ready[partition] {
            let e = MpiError::InvalidLayout(format!(
                "pready: partition {partition} already published this cycle"
            ));
            st.poisoned.get_or_insert(e.clone());
            self.shared.published.notify_all();
            return Err(e);
        }
        // Push while holding the cycle lock: the armed/double-publish
        // check and the envelope hitting the FIFO are one atomic step,
        // so a racing duplicate can never slip an extra envelope into
        // the stream and shear the receiver's cycle alignment.
        let mut payload = vec_with_capacity::<u8>(4 + self.part_bytes);
        payload.extend_from_slice(&(partition as u32).to_le_bytes());
        extend_vec_from_bytes(&mut payload, as_bytes(data));
        let env = Envelope {
            src: self.src,
            src_world: self.src_world,
            context: self.context,
            tag: self.tag,
            payload: Bytes::from(payload),
            // Producer threads have no virtual clock; partitions arrive
            // at clock zero (they are overlapped with compute by
            // construction).
            arrival_ns: 0,
            ack: None,
        };
        crate::fault::deliver(&self.world, self.dest_world, env, |e| {
            self.world.mailboxes[self.dest_world].push(e)
        });
        st.ready[partition] = true;
        st.done += 1;
        if st.done == self.partitions {
            self.shared.published.notify_all();
        }
        Ok(())
    }

    /// Rank-independent validation (no lock held).
    fn check(&self, partition: usize, data: &[T]) -> Result<()> {
        if self.world.is_revoked(self.context) {
            return Err(MpiError::Revoked);
        }
        // Partitioned sends are rendezvous-like: the receiver froze a
        // matching plan, so a dead peer means the cycle can never
        // complete. Fail (and poison) now instead of letting producers
        // publish into a mailbox nobody will drain.
        if self.world.is_failed(self.dest_world) {
            return Err(MpiError::ProcessFailed {
                world_rank: self.dest_world,
            });
        }
        if partition >= self.partitions {
            return Err(MpiError::InvalidLayout(format!(
                "pready: partition {partition} out of range (plan has {})",
                self.partitions
            )));
        }
        if std::mem::size_of_val(data) != self.part_bytes {
            return Err(MpiError::InvalidLayout(format!(
                "pready: partition holds {} bytes but the plan fixed {} bytes",
                std::mem::size_of_val(data),
                self.part_bytes
            )));
        }
        Ok(())
    }
}

/// The plan of a partitioned receive: one cycle's `partitions` indexed
/// envelopes on the frozen `(source, tag)` stream, reassembled in
/// partition order — one more [`OpState`] a [`PersistentRequest`]
/// cycles through.
pub(crate) struct Reassembly {
    src: Rank,
    tag: Tag,
    part_bytes: usize,
    /// This cycle's reassembly buffer, typed by the receive's element
    /// so that the completion hands it out whole.
    buf: Box<dyn PartBuf>,
    /// Which partitions have landed this cycle (duplicate detection).
    received: Vec<bool>,
    got: usize,
}

/// A typed reassembly buffer, seen as bytes.
trait PartBuf {
    fn bytes(&self) -> &[u8];
    fn bytes_mut(&mut self) -> &mut [u8];
    /// Hands the filled buffer out as the cycle's payload and leaves a
    /// fresh one of the same length for the next cycle.
    fn hand_out(&mut self) -> Bytes;
}

impl<T: Plain> PartBuf for Vec<T> {
    fn bytes(&self) -> &[u8] {
        as_bytes(self)
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        as_bytes_mut(self)
    }

    fn hand_out(&mut self) -> Bytes {
        bytes_from_vec(std::mem::replace(self, zeroed_vec(self.len())))
    }
}

impl Reassembly {
    /// Re-arms the plan for one cycle.
    pub(crate) fn start(&mut self) {
        self.received.fill(false);
        self.got = 0;
    }

    /// The plan's completion step: places every partition already
    /// delivered; once all have landed, the reassembled message.
    pub(crate) fn try_complete(&mut self, comm: &Comm) -> Result<Option<Completion>> {
        self.place_queued(comm)?;
        if self.got < self.received.len() {
            return comm
                .wait_interrupted(Src::Rank(self.src))
                .map_or(Ok(None), Err);
        }
        Ok(Some(message_completion(
            self.src,
            self.tag,
            self.buf.hand_out(),
        )))
    }

    /// Places every partition envelope already delivered, up to the
    /// cycle's count (the next cycle's stay queued).
    fn place_queued(&mut self, comm: &Comm) -> Result<()> {
        while self.got < self.received.len() {
            let (src, tag) = (Src::Rank(self.src), TagSel::Is(self.tag));
            let Some(env) = comm.try_recv_envelope(src, tag) else {
                break;
            };
            self.place(env.payload)?;
        }
        Ok(())
    }

    /// Decodes one partition envelope into the reassembly buffer.
    fn place(&mut self, payload: Bytes) -> Result<()> {
        if payload.len() != 4 + self.part_bytes {
            return Err(MpiError::InvalidLayout(format!(
                "precv: partition envelope holds {} bytes, expected {}",
                payload.len(),
                4 + self.part_bytes
            )));
        }
        let idx = u32::from_le_bytes(payload[..4].try_into().expect("length checked")) as usize;
        if idx >= self.received.len() {
            return Err(MpiError::InvalidLayout(format!(
                "precv: partition index {idx} out of range (plan has {})",
                self.received.len()
            )));
        }
        if self.received[idx] {
            return Err(MpiError::InvalidLayout(format!(
                "precv: duplicate partition {idx} in one cycle"
            )));
        }
        let at = idx * self.part_bytes;
        copy_slice(
            &payload[4..],
            &mut self.buf.bytes_mut()[at..at + self.part_bytes],
        );
        self.received[idx] = true;
        self.got += 1;
        Ok(())
    }
}

/// A persistent partitioned receive (mirrors `MPI_Precv_init`): a typed
/// view of a [`PersistentRequest`] whose plan reassembles `partitions`
/// indexed envelopes into one contiguous vector each cycle. Its
/// `start` / `wait` are the persistent request's — one standing
/// completion registration installed at init serves every cycle, and a
/// cycle that fails poisons every later `start`.
pub struct PartitionedRecv<'a, T> {
    req: PersistentRequest<'a>,
    _ty: PhantomData<fn() -> T>,
}

impl<'a, T: Plain> PartitionedRecv<'a, T> {
    /// Arms one receive cycle (see [`PersistentRequest::start`]).
    pub fn start(&mut self) -> Result<()> {
        self.req.start()
    }

    /// Blocks until all `partitions` partitions of the cycle have
    /// arrived, returning the reassembled message in partition order —
    /// the reassembly buffer itself, not a copy of it (see
    /// [`PersistentRequest::wait`]). An inactive request returns an
    /// empty vector.
    pub fn wait(&mut self) -> Result<Vec<T>> {
        let done = self.req.wait()?.into_vec();
        Ok(done.map_or_else(Vec::new, |(v, _)| v))
    }

    /// Non-blocking per-partition arrival check (mirrors
    /// `MPI_Parrived`): drains any partition envelopes already
    /// delivered, then reports whether `partition` has landed this
    /// cycle. Lets a consumer process early partitions while producers
    /// are still computing later ones — the receive-side half of the
    /// overlap that `pready` gives the send side. On an inactive
    /// request this returns `true`, like the MPI call.
    pub fn parrived(&mut self, partition: usize) -> Result<bool> {
        let (comm, active) = (self.req.comm, self.req.is_active());
        let plan = self.plan_mut();
        if partition >= plan.received.len() {
            return Err(MpiError::InvalidLayout(format!(
                "parrived: partition {partition} out of range (plan has {})",
                plan.received.len()
            )));
        }
        if !active {
            return Ok(true);
        }
        plan.place_queued(comm)?;
        Ok(plan.received[partition])
    }

    /// Copies one arrived partition's elements out of the reassembly
    /// buffer, or `None` if it has not arrived this cycle (use
    /// [`parrived`](Self::parrived) to drain and check). The full
    /// message is still returned by [`wait`](Self::wait) once every
    /// partition has landed.
    pub fn partition(&self, partition: usize) -> Option<Vec<T>> {
        let plan = self.plan();
        if !self.req.is_active() || !plan.received.get(partition).copied().unwrap_or(false) {
            return None;
        }
        let at = partition * plan.part_bytes;
        Some(bytes_to_vec::<T>(
            &plan.buf.bytes()[at..at + plan.part_bytes],
        ))
    }

    fn plan(&self) -> &Reassembly {
        let OpState::Partitioned(plan) = &self.req.state else {
            unreachable!("a partitioned receive holds a partitioned plan");
        };
        plan
    }

    fn plan_mut(&mut self) -> &mut Reassembly {
        let OpState::Partitioned(plan) = &mut self.req.state else {
            unreachable!("a partitioned receive holds a partitioned plan");
        };
        plan
    }

    /// Completed cycles so far.
    pub fn cycles(&self) -> u64 {
        self.req.cycles()
    }
}

impl Comm {
    /// Creates a persistent partitioned send of `partitions * part_elems`
    /// elements of `T` per cycle to `dest` on `tag` (mirrors
    /// `MPI_Psend_init`). Producer threads publish partitions through
    /// [`PartitionedSend::writer`] handles.
    pub fn psend_init<T: Plain>(
        &self,
        partitions: usize,
        part_elems: usize,
        dest: Rank,
        tag: Tag,
    ) -> Result<PartitionedSend<'_, T>> {
        self.count_op("psend_init");
        self.check_tag(tag)?;
        self.check_rank(dest)?;
        check_partitions(partitions)?;
        Ok(PartitionedSend {
            comm: self,
            dest,
            tag,
            partitions,
            part_bytes: part_elems * std::mem::size_of::<T>(),
            shared: Arc::new(SendShared {
                state: Mutex::new(SendState {
                    armed: false,
                    ready: vec![false; partitions],
                    done: 0,
                    poisoned: None,
                }),
                published: Condvar::new(),
            }),
            cycles: 0,
            _ty: PhantomData,
        })
    }

    /// Creates the matching persistent partitioned receive (mirrors
    /// `MPI_Precv_init`): `partitions * part_elems` elements of `T` per
    /// cycle from `src` on `tag`. The partition layout must match the
    /// sender's — it is part of the frozen plan, not the wire messages.
    pub fn precv_init<T: Plain>(
        &self,
        partitions: usize,
        part_elems: usize,
        src: Rank,
        tag: Tag,
    ) -> Result<PartitionedRecv<'_, T>> {
        self.count_op("precv_init");
        self.check_tag(tag)?;
        self.check_rank(src)?;
        check_partitions(partitions)?;
        let plan = Reassembly {
            src,
            tag,
            part_bytes: part_elems * std::mem::size_of::<T>(),
            buf: Box::new(zeroed_vec::<T>(partitions * part_elems)),
            received: vec![false; partitions],
            got: 0,
        };
        let state = OpState::Partitioned(Box::new(plan));
        Ok(PartitionedRecv {
            req: PersistentRequest::new(self, state, None, &[(src, tag)]),
            _ty: PhantomData,
        })
    }
}

fn check_partitions(partitions: usize) -> Result<()> {
    if partitions == 0 {
        return Err(MpiError::InvalidLayout(
            "partitioned init: at least one partition required".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn partitioned_send_recv_single_thread() {
        Universe::run(2, |comm| {
            const PARTS: usize = 4;
            const ELEMS: usize = 3;
            if comm.rank() == 0 {
                let mut send = comm.psend_init::<u32>(PARTS, ELEMS, 1, 5).unwrap();
                let w = send.writer();
                for cycle in 0..3u32 {
                    send.start().unwrap();
                    // Reverse order: indices decouple arrival from layout.
                    for p in (0..PARTS).rev() {
                        let base = cycle * 100 + p as u32 * 10;
                        w.pready(p, &[base, base + 1, base + 2]).unwrap();
                    }
                    send.wait().unwrap();
                }
                assert_eq!(send.cycles(), 3);
            } else {
                let mut recv = comm.precv_init::<u32>(PARTS, ELEMS, 0, 5).unwrap();
                for cycle in 0..3u32 {
                    recv.start().unwrap();
                    let data = recv.wait().unwrap();
                    let want: Vec<u32> = (0..PARTS as u32)
                        .flat_map(|p| {
                            let base = cycle * 100 + p * 10;
                            [base, base + 1, base + 2]
                        })
                        .collect();
                    assert_eq!(data, want);
                }
            }
        });
    }

    /// The point of the API: many producer threads fill one send while
    /// the rank thread waits; delivery is correct across cycles.
    #[test]
    fn partitioned_send_with_threaded_producers() {
        Universe::run(2, |comm| {
            const PARTS: usize = 8;
            const ELEMS: usize = 16;
            if comm.rank() == 0 {
                let mut send = comm.psend_init::<u64>(PARTS, ELEMS, 1, 9).unwrap();
                for cycle in 0..4u64 {
                    send.start().unwrap();
                    std::thread::scope(|s| {
                        for p in 0..PARTS {
                            let w = send.writer();
                            s.spawn(move || {
                                let data: Vec<u64> = (0..ELEMS as u64)
                                    .map(|i| cycle * 10_000 + p as u64 * 100 + i)
                                    .collect();
                                w.pready(p, &data).unwrap();
                            });
                        }
                    });
                    send.wait().unwrap();
                }
            } else {
                let mut recv = comm.precv_init::<u64>(PARTS, ELEMS, 0, 9).unwrap();
                for cycle in 0..4u64 {
                    recv.start().unwrap();
                    let data = recv.wait().unwrap();
                    let want: Vec<u64> = (0..PARTS as u64)
                        .flat_map(|p| (0..ELEMS as u64).map(move |i| cycle * 10_000 + p * 100 + i))
                        .collect();
                    assert_eq!(data, want, "cycle {cycle} reassembled wrong");
                }
            }
        });
    }

    #[test]
    fn pready_misuse_is_rejected_and_poisons_wait() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut send = comm.psend_init::<u8>(2, 1, 1, 0).unwrap();
                let w = send.writer();
                // Before start: rejected, nothing sent.
                assert!(matches!(
                    w.pready(0, &[1]).unwrap_err(),
                    MpiError::InvalidLayout(_)
                ));
                send.start().unwrap();
                // Wrong length and out-of-range index: rejected.
                assert!(matches!(
                    w.pready(0, &[1, 2]).unwrap_err(),
                    MpiError::InvalidLayout(_)
                ));
                assert!(matches!(
                    w.pready(9, &[1]).unwrap_err(),
                    MpiError::InvalidLayout(_)
                ));
                w.pready(0, &[10]).unwrap();
                // Duplicate publish: rejected and the cycle poisoned.
                assert!(matches!(
                    w.pready(0, &[10]).unwrap_err(),
                    MpiError::InvalidLayout(_)
                ));
                assert!(matches!(
                    send.wait().unwrap_err(),
                    MpiError::InvalidLayout(_)
                ));
                // The failed wait disarmed the request: publishing now
                // is "no armed cycle" again.
                w.pready(1, &[11]).unwrap_err();
            } else {
                // Only the one good partition envelope exists; drain it
                // raw so the universe shuts down clean.
                let (v, _) = comm
                    .recv_vec::<u8>(crate::ANY_SOURCE, crate::ANY_TAG)
                    .unwrap();
                assert_eq!(v.len(), 5);
            }
        });
    }

    #[test]
    fn start_while_armed_is_an_error() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut send = comm.psend_init::<u8>(1, 1, 1, 0).unwrap();
                send.start().unwrap();
                assert_eq!(send.start().unwrap_err(), MpiError::RequestActive);
                send.writer().pready(0, &[7]).unwrap();
                send.wait().unwrap();
            } else {
                let mut recv = comm.precv_init::<u8>(1, 1, 0, 0).unwrap();
                recv.start().unwrap();
                assert_eq!(recv.start().unwrap_err(), MpiError::RequestActive);
                assert_eq!(recv.wait().unwrap(), vec![7]);
            }
        });
    }

    /// The consumer drains an early partition with `parrived` while the
    /// later partitions are provably still unsent: the producer holds
    /// them back until the consumer acknowledges reading partition 0,
    /// so the early read cannot be satisfied by a completed message.
    #[test]
    fn parrived_drains_early_partition_while_rest_in_flight() {
        Universe::run(2, |comm| {
            const PARTS: usize = 3;
            const ELEMS: usize = 4;
            let data = |cycle: u32, p: u32| -> Vec<u32> {
                (0..ELEMS as u32)
                    .map(|i| cycle * 100 + p * 10 + i)
                    .collect()
            };
            if comm.rank() == 0 {
                let mut send = comm.psend_init::<u32>(PARTS, ELEMS, 1, 7).unwrap();
                let w = send.writer();
                for cycle in 0..3u32 {
                    send.start().unwrap();
                    w.pready(0, &data(cycle, 0)).unwrap();
                    // Gate the rest on the consumer's ack: while it
                    // reads partition 0, partitions 1.. do not exist
                    // on the wire yet.
                    comm.recv_vec::<u8>(1, 70).unwrap();
                    for p in 1..PARTS {
                        w.pready(p, &data(cycle, p as u32)).unwrap();
                    }
                    send.wait().unwrap();
                }
            } else {
                let mut recv = comm.precv_init::<u32>(PARTS, ELEMS, 0, 7).unwrap();
                for cycle in 0..3u32 {
                    recv.start().unwrap();
                    while !recv.parrived(0).unwrap() {
                        std::thread::yield_now();
                    }
                    // Unsent partitions report not-arrived and yield no
                    // data; the arrived one is readable early.
                    assert!(!recv.parrived(1).unwrap());
                    assert!(recv.partition(1).is_none());
                    assert_eq!(recv.partition(0).unwrap(), data(cycle, 0));
                    comm.send(&[1u8], 0, 70).unwrap();
                    let all = recv.wait().unwrap();
                    let want: Vec<u32> = (0..PARTS as u32).flat_map(|p| data(cycle, p)).collect();
                    assert_eq!(all, want, "cycle {cycle}");
                }
                // Inactive request: arrived-by-definition, like MPI;
                // out-of-range partitions are still rejected.
                assert!(recv.parrived(0).unwrap());
                assert!(recv.partition(0).is_none());
                assert!(recv.parrived(PARTS).is_err());
            }
        });
    }

    /// Steady-state law carries over from persistent ops: cycles after
    /// init make zero additional completion registrations.
    #[test]
    fn partitioned_steady_state_makes_zero_registrations() {
        Universe::run(2, |comm| {
            const CYCLES: u64 = 10;
            if comm.rank() == 0 {
                let mut send = comm.psend_init::<u32>(2, 4, 1, 3).unwrap();
                let w = send.writer();
                for _ in 0..CYCLES {
                    send.start().unwrap();
                    w.pready(0, &[0, 1, 2, 3]).unwrap();
                    w.pready(1, &[4, 5, 6, 7]).unwrap();
                    send.wait().unwrap();
                }
                comm.send(&[0u8], 1, 99).unwrap();
            } else {
                let mut recv = comm.precv_init::<u32>(2, 4, 0, 3).unwrap();
                recv.start().unwrap();
                recv.wait().unwrap();
                let before = comm.mailbox_stats().notify_registrations;
                for _ in 1..CYCLES {
                    recv.start().unwrap();
                    let data = recv.wait().unwrap();
                    assert_eq!(data, vec![0, 1, 2, 3, 4, 5, 6, 7]);
                }
                assert_eq!(comm.mailbox_stats().notify_registrations, before);
                comm.recv_vec::<u8>(crate::ANY_SOURCE, crate::ANY_TAG)
                    .unwrap();
            }
        });
    }
}
