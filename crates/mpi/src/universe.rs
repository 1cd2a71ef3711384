//! SPMD execution: spawning ranks and shared world state.
//!
//! [`Universe::run`] is the substrate's `mpirun`: it spawns one OS thread
//! per rank, hands each a [`Comm`] for the world communicator, and joins
//! them. Rank panics are contained per-rank; a rank that panics (or calls
//! [`Comm::fail_here`](crate::Comm::fail_here)) is marked *failed* so that
//! peers blocked on it observe `MpiError::ProcessFailed` instead of
//! hanging — the substrate behaviour ULFM (§V-B) builds on.
//! [`Universe::run_report`] additionally returns everything the run
//! observed, in one [`RunReport`].

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::CostModel;
use crate::collectives::algos::model::{self as tuning_model, TuningStats};
use crate::comm::Comm;
use crate::counter::CallCounts;
use crate::fault::{self, FaultPlan};
use crate::mailbox::{Mailbox, MailboxStats};
use crate::metrics::{self, CopyStats};
use crate::trace::{self, TraceData};
use crate::ulfm::AgreementTable;
use crate::Rank;

/// Panic payload used by [`Comm::fail_here`](crate::Comm::fail_here) to
/// simulate a process crash.
pub(crate) struct RankFailure;

/// Stack size per rank thread, in bytes.
const RANK_STACK_BYTES: usize = 8 << 20;

/// The description of one run: rank count, cost model and fault plan.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of ranks to spawn.
    pub size: usize,
    /// Message cost model for the virtual clock.
    pub cost: CostModel,
    faults: FaultPlan,
}

impl Config {
    pub fn new(size: usize) -> Self {
        Config {
            size,
            cost: CostModel::disabled(),
            faults: FaultPlan::new(),
        }
    }

    /// Sets the message cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Runs under a deterministic [`FaultPlan`] (see [`crate::fault`]):
    /// planned crashes unwind the victim exactly like
    /// [`Comm::fail_here`](crate::Comm::fail_here) (outcome
    /// [`RankOutcome::Failed`]), and message rules drop / delay /
    /// duplicate matching envelopes at delivery. Without the `fault`
    /// feature the plan is inert.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

/// Shared state of one universe: mailboxes, failure flags, revocation set,
/// context allocation, call counters, and the ULFM agreement table.
pub struct WorldState {
    pub(crate) size: usize,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) failed: Vec<AtomicBool>,
    pub(crate) revoked: Mutex<HashSet<u64>>,
    /// `(parent, child)` contexts of the library's private duplicates (a
    /// topology's communicator), in creation order: revoking the parent
    /// revokes the child, so the recovery protocol's `revoke` reaches a
    /// rank parked in an exchange on it whose peer bailed out earlier.
    private_dups: Mutex<Vec<(u64, u64)>>,
    next_context: AtomicU64,
    pub(crate) cost: CostModel,
    pub(crate) counters: Vec<Mutex<CallCounts>>,
    /// Each rank's thread-local counters — copy bill and self-tuning
    /// stats — harvested as its thread exits (they die with it).
    finals: Vec<Mutex<(CopyStats, TuningStats)>>,
    /// Live-snapshot slots each running rank publishes its ring into
    /// on request (see [`Universe::trace_snapshot`]); an exited rank's
    /// slot holds its final trace.
    pub(crate) snap_slots: Vec<Arc<trace::SnapshotSlot>>,
    pub(crate) agreements: AgreementTable,
    /// The universe's fault-injection state (see [`crate::fault`]); a
    /// zero-sized no-op (which nothing reads) without the `fault`
    /// feature.
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    pub(crate) faults: fault::WorldFaults,
}

impl WorldState {
    pub(crate) fn new(config: &Config) -> Arc<Self> {
        Arc::new(WorldState {
            size: config.size,
            mailboxes: (0..config.size).map(|_| Mailbox::new()).collect(),
            failed: (0..config.size).map(|_| AtomicBool::new(false)).collect(),
            revoked: Mutex::new(HashSet::new()),
            private_dups: Mutex::new(Vec::new()),
            // Context 0 is the world communicator.
            next_context: AtomicU64::new(1),
            cost: config.cost,
            counters: (0..config.size).map(|_| Default::default()).collect(),
            finals: (0..config.size).map(|_| Default::default()).collect(),
            snap_slots: (0..config.size).map(|_| Default::default()).collect(),
            agreements: AgreementTable::default(),
            faults: fault::WorldFaults::new(&config.faults, config.size),
        })
    }

    /// Allocates `n` fresh communicator context ids, returning the first.
    pub(crate) fn alloc_contexts(&self, n: u64) -> u64 {
        self.next_context.fetch_add(n, Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn is_failed(&self, world_rank: Rank) -> bool {
        self.failed[world_rank].load(Ordering::Acquire)
    }

    /// Marks a rank failed and wakes every blocked waiter so the failure
    /// is observed. Idempotent: the voluntary `fail_here` marks before
    /// unwinding and the universe marks again on catching the unwind.
    pub(crate) fn mark_failed(&self, world_rank: Rank) {
        if self.failed[world_rank].swap(true, Ordering::AcqRel) {
            return;
        }
        trace::instant(trace::cat::ULFM, "ulfm/detect", world_rank as u64, 0);
        self.interrupt_all();
    }

    #[inline]
    pub(crate) fn is_revoked(&self, context: u64) -> bool {
        self.revoked.lock().contains(&context)
    }

    pub(crate) fn revoke(&self, context: u64) {
        let mut revoked = self.revoked.lock();
        revoked.insert(context);
        for &(parent, child) in self.private_dups.lock().iter() {
            if revoked.contains(&parent) {
                revoked.insert(child);
            }
        }
        drop(revoked);
        self.interrupt_all();
    }

    /// Allocates the context of a private duplicate of `parent` (see
    /// `private_dups`).
    pub(crate) fn alloc_private_dup(&self, parent: u64) -> u64 {
        let child = self.alloc_contexts(1);
        self.private_dups.lock().push((parent, child));
        child
    }

    pub(crate) fn interrupt_all(&self) {
        for mb in &self.mailboxes {
            mb.interrupt();
        }
    }

    /// Number of ranks in the world communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Everything the world observed, read after every rank has exited.
    fn report(&self) -> RunReport {
        let stats = (0..self.size)
            .map(|rank| {
                let (copy, tuning) = *self.finals[rank].lock();
                RankStats {
                    copy,
                    mailbox: self.mailboxes[rank].stats(),
                    calls: self.counters[rank].lock().clone(),
                    tuning,
                }
            })
            .collect();
        let ranks = self.snap_slots.iter().map(|s| s.data.lock().clone());
        RunReport {
            stats,
            trace: TraceData {
                ranks: ranks.collect(),
            },
        }
    }
}

/// Outcome of a single rank's execution under
/// [`Universe::run_with`] or [`Universe::run_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankOutcome<R> {
    /// The rank ran to completion.
    Completed(R),
    /// The rank simulated a process failure via `fail_here`.
    Failed,
    /// The rank panicked (a bug in rank code).
    Panicked(String),
}

impl<R> RankOutcome<R> {
    /// Unwraps a completed outcome.
    pub fn unwrap(self) -> R {
        match self {
            RankOutcome::Completed(r) => r,
            RankOutcome::Failed => panic!("rank failed"),
            RankOutcome::Panicked(msg) => panic!("rank panicked: {msg}"),
        }
    }

    /// The completed value, if any.
    pub fn completed(self) -> Option<R> {
        match self {
            RankOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }
}

/// The SPMD launcher.
pub struct Universe;

impl Universe {
    /// Runs `f` on `size` ranks with default configuration and returns the
    /// per-rank results in rank order.
    ///
    /// # Panics
    ///
    /// Panics if any rank panics or simulates a failure; use
    /// [`Universe::run_with`] for fault-tolerance scenarios.
    pub fn run<R: Send, F: Fn(Comm) -> R + Sync>(size: usize, f: F) -> Vec<R> {
        Self::run_with(Config::new(size), f)
            .into_iter()
            .enumerate()
            .map(|(rank, o)| match o {
                RankOutcome::Completed(r) => r,
                RankOutcome::Failed => panic!("rank {rank} failed"),
                RankOutcome::Panicked(msg) => panic!("rank {rank} panicked: {msg}"),
            })
            .collect()
    }

    /// Runs `f` on `config.size` ranks, returning each rank's outcome.
    /// Panics and simulated failures are contained per-rank.
    pub fn run_with<R: Send, F: Fn(Comm) -> R + Sync>(config: Config, f: F) -> Vec<RankOutcome<R>> {
        Self::run_on(config, f).0
    }

    /// Runs `f` like [`Universe::run_with`] and also returns the
    /// [`RunReport`]: each rank's whole-run counters and its final trace
    /// (empty but well-formed without the `trace` feature). Under a
    /// [`Config::faults`] plan the trace puts a whole crash-and-recover
    /// story on one timeline — the injected crash (`fault/crash`), its
    /// detection (`ulfm/detect`), and the survivors' recovery
    /// (`ulfm/agree`, `ulfm/shrink` spans).
    pub fn run_report<R: Send, F: Fn(Comm) -> R + Sync>(
        config: Config,
        f: F,
    ) -> (Vec<RankOutcome<R>>, RunReport) {
        let (outcomes, world) = Self::run_on(config, f);
        (outcomes, world.report())
    }

    fn run_on<R: Send, F: Fn(Comm) -> R + Sync>(
        config: Config,
        f: F,
    ) -> (Vec<RankOutcome<R>>, Arc<WorldState>) {
        assert!(config.size > 0, "universe needs at least one rank");
        let world = WorldState::new(&config);
        let f = &f;

        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..config.size)
                .map(|rank| {
                    let world = Arc::clone(&world);
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(RANK_STACK_BYTES)
                        .spawn_scoped(scope, move || {
                            trace::register_snapshot_slot(Arc::clone(&world.snap_slots[rank]));
                            fault::register_rank_thread(&world, rank);
                            let comm = Comm::world(world.clone(), rank);
                            let result = catch_unwind(AssertUnwindSafe(|| f(comm)));
                            if result.is_err() {
                                // Mark the rank dead *before* harvesting
                                // its trace: peers stop waiting on it as
                                // early as possible, and the `ulfm/detect`
                                // instant lands on this rank's timeline
                                // instead of a discarded thread-local.
                                world.mark_failed(rank);
                            }
                            // Preserve the rank's thread-local counters
                            // and trace before the thread exits. The
                            // snapshot slot keeps the final trace: exited
                            // ranks answer every later snapshot with it.
                            *world.finals[rank].lock() =
                                (metrics::snapshot(), tuning_model::stats_snapshot());
                            let slot = &world.snap_slots[rank];
                            *slot.data.lock() = trace::take_thread();
                            slot.gen.store(u64::MAX, Ordering::Release);
                            match result {
                                Ok(r) => RankOutcome::Completed(r),
                                Err(payload) => {
                                    if payload.is::<RankFailure>() {
                                        RankOutcome::Failed
                                    } else {
                                        let msg = panic_message(&payload);
                                        RankOutcome::Panicked(msg)
                                    }
                                }
                            }
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();

            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread join failed"))
                .collect()
        });
        (outcomes, world)
    }

    /// Snapshots every rank's trace ring **while the universe is still
    /// running** — no thread exit required (callable from a rank
    /// thread via [`Comm::trace_snapshot`](crate::Comm::trace_snapshot)
    /// or from any observer holding the world).
    ///
    /// The rings are thread-local, so the snapshot is cooperative:
    /// this bumps a global generation and interrupts parked ranks;
    /// each rank publishes a copy of its ring the next time it records
    /// an event or wakes from a park (one relaxed load on the record
    /// path — the tracing stays zero-overhead). Ranks that have
    /// already exited answer with their final trace. A rank stuck in
    /// pure computation cannot publish; after a bounded wait its slot's
    /// last published trace (possibly empty) is returned rather than
    /// blocking the observer. Without the `trace` feature the result
    /// is empty but well-formed.
    pub fn trace_snapshot(world: &WorldState) -> TraceData {
        let gen = trace::request_snapshot();
        // The calling thread serves itself (it may be a rank mid-run).
        trace::publish_now();
        if trace::COMPILED {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                // Wake parked ranks; the one park's interrupt wakeup
                // polls the publish hook.
                world.interrupt_all();
                let pending = world
                    .snap_slots
                    .iter()
                    .enumerate()
                    .any(|(r, s)| !world.is_failed(r) && s.gen.load(Ordering::Acquire) < gen);
                if !pending || std::time::Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        TraceData {
            ranks: world
                .snap_slots
                .iter()
                .map(|s| s.data.lock().clone())
                .collect(),
        }
    }
}

/// Everything one run observed, returned by [`Universe::run_report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Each rank's whole-run counters, in rank order.
    pub stats: Vec<RankStats>,
    /// Each rank's final trace: event timeline plus the aggregates —
    /// event counts, span latency histograms, and the unexpected-queue
    /// depth gauge (see [`crate::trace`]).
    pub trace: TraceData,
}

/// One rank's whole-run counters in a [`RunReport`], each counter group
/// once (the trace aggregates live in [`RunReport::trace`]). A rank that
/// died reports what it recorded before it died.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankStats {
    /// Payload copy/allocation counters (see [`crate::metrics`]).
    pub copy: CopyStats,
    /// Matching-engine diagnostics, including the max unexpected-queue
    /// depth — the matching pressure a bench put on this rank.
    pub mailbox: MailboxStats,
    /// PMPI-style per-operation call counts (see [`crate::counter`]).
    pub calls: CallCounts,
    /// Self-tuning counters: how many algorithm decisions this rank
    /// made, how they were decided (static threshold / exploration /
    /// model prediction / forced / frozen plan), and how many
    /// measurements fed the cost model (see
    /// [`TuningStats`]). All zeros unless the
    /// communicator's tuning enables the model.
    pub tuning: TuningStats,
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_ranks() {
        let out = Universe::run(4, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_rank_universe() {
        let out = Universe::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            assert_eq!(comm.rank(), 0);
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn panics_are_contained_with_run_with() {
        let out = Universe::run_with(Config::new(2), |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            comm.rank()
        });
        assert_eq!(out[0], RankOutcome::Completed(0));
        match &out[1] {
            RankOutcome::Panicked(msg) => assert!(msg.contains("boom")),
            o => panic!("expected panic outcome, got {o:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn run_propagates_panics() {
        Universe::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("die");
            }
        });
    }

    #[test]
    fn context_allocation_is_unique() {
        let ws = WorldState::new(&Config::new(2));
        let a = ws.alloc_contexts(3);
        let b = ws.alloc_contexts(1);
        assert!(a >= 1);
        assert_eq!(b, a + 3);
    }

    #[test]
    #[cfg(feature = "copy-metrics")]
    fn run_stats_aggregates_per_rank_copy_bills() {
        let (outcomes, report) = Universe::run_report(Config::new(3), |comm| {
            // Rank r sends r+1 bytes to the next rank; serialization
            // copies are charged to the sender.
            let next = (comm.rank() + 1) % comm.size();
            let data = vec![7u8; comm.rank() + 1];
            comm.send(&data, next, 0).unwrap();
            let (_got, _) = comm.recv_vec::<u8>((comm.rank() + 2) % 3, 0).unwrap();
        });
        assert!(outcomes.into_iter().all(|o| o.completed().is_some()));
        for (rank, s) in report.stats.iter().enumerate() {
            assert!(
                s.copy.bytes_copied >= (rank + 1) as u64,
                "rank {rank} must have charged its send serialization: {s:?}"
            );
        }
    }

    #[test]
    fn run_stats_reports_matching_pressure() {
        let (_, RunReport { stats, .. }) = Universe::run_report(Config::new(2), |comm| {
            if comm.rank() == 0 {
                // Run ahead of the receiver: the unexpected queue on
                // rank 1 must grow to (at least briefly) hold the burst.
                for i in 0..16u32 {
                    comm.send(&[i], 1, 0).unwrap();
                }
                comm.send(&[99u32], 1, 1).unwrap();
            } else {
                let (v, _) = comm.recv_vec::<u32>(0, 1).unwrap();
                assert_eq!(v, vec![99]);
                for i in 0..16u32 {
                    let (v, _) = comm.recv_vec::<u32>(0, 0).unwrap();
                    assert_eq!(v, vec![i]);
                }
            }
        });
        assert!(
            stats[1].mailbox.max_unexpected_depth >= 1,
            "the burst must register as matching pressure: {:?}",
            stats[1].mailbox
        );
        assert_eq!(stats[1].mailbox.queued, 0, "everything was drained");
    }

    /// A snapshot taken while ranks are alive — one of them parked in
    /// a blocking receive whose message arrives only *after* the
    /// snapshot — collects every ring and exports a valid Chrome
    /// trace, without any thread exiting.
    #[cfg(feature = "trace")]
    #[test]
    fn trace_snapshot_collects_running_ranks() {
        Universe::run(3, |comm| {
            comm.barrier().unwrap();
            if comm.rank() == 0 {
                let snap = comm.trace_snapshot();
                assert_eq!(snap.ranks.len(), 3);
                for (r, rt) in snap.ranks.iter().enumerate() {
                    assert!(
                        rt.stats.events > 0,
                        "rank {r} ran a barrier; its published ring must not be empty"
                    );
                }
                let summary = trace::export::validate_chrome(&snap.to_chrome_json())
                    .expect("snapshot must export a valid Chrome trace");
                assert!(summary.pids.len() == 3 && summary.spans + summary.instants > 0);
                // Release the parked peers only after the snapshot: the
                // collection provably did not depend on rank exit.
                for peer in 1..comm.size() {
                    comm.send(&[1u8], peer, 42).unwrap();
                }
            } else {
                // Parks in a bare recv until after the snapshot is done.
                let (v, _) = comm.recv_vec::<u8>(0, 42).unwrap();
                assert_eq!(v, vec![1]);
            }
        });
    }

    /// Exited ranks answer later snapshots with their final trace.
    #[cfg(feature = "trace")]
    #[test]
    fn trace_snapshot_after_exit_returns_final_traces() {
        let (out, world) = Universe::run_on(Config::new(2), |comm| {
            comm.barrier().unwrap();
            comm.rank()
        });
        assert_eq!(out.len(), 2);
        let snap = Universe::trace_snapshot(&world);
        for rt in &snap.ranks {
            assert!(rt.stats.events > 0);
        }
        assert_eq!(snap.ranks, world.report().trace.ranks);
    }

    /// A rank that dies — by a panic or by `fail_here` — is harvested
    /// like one that returns: the report holds exactly the copy bill,
    /// call counts and tuning stats it recorded before it died, and
    /// (with `trace`) its final events, the detection instant included.
    #[test]
    fn dead_ranks_report_what_they_recorded() {
        let before_death: Vec<Mutex<Option<RankStats>>> =
            (0..3).map(|_| Mutex::new(None)).collect();
        let (out, report) = Universe::run_report(Config::new(3), |comm| {
            let next = (comm.rank() + 1) % 3;
            comm.send(&[comm.rank() as u8; 64], next, 0).unwrap();
            let _ = comm.recv_vec::<u8>((comm.rank() + 2) % 3, 0).unwrap();
            comm.allreduce_one(1u64, crate::op::Sum).unwrap();
            comm.barrier().unwrap();
            if comm.rank() > 0 {
                *before_death[comm.rank()].lock() = Some(RankStats {
                    copy: comm.copy_stats(),
                    mailbox: MailboxStats::default(),
                    calls: comm.call_counts(),
                    tuning: comm.tuning_stats(),
                });
            }
            match comm.rank() {
                1 => panic!("rank 1 dies"),
                2 => comm.fail_here(),
                _ => {}
            }
        });
        assert!(matches!(out[0], RankOutcome::Completed(())));
        assert!(matches!(&out[1], RankOutcome::Panicked(m) if m.contains("rank 1 dies")));
        assert!(matches!(out[2], RankOutcome::Failed));
        for (rank, recorded) in before_death.into_iter().enumerate().skip(1) {
            let recorded = recorded.into_inner().expect("recorded before death");
            let got = &report.stats[rank];
            assert_eq!(got.copy, recorded.copy, "rank {rank} copy bill");
            assert_eq!(got.calls, recorded.calls, "rank {rank} call counts");
            assert_eq!(got.tuning, recorded.tuning, "rank {rank} tuning stats");
            assert!(got.calls.get("allreduce") >= 1 && got.tuning.decisions >= 1);
            #[cfg(feature = "copy-metrics")]
            assert!(got.copy.bytes_copied >= 64, "rank {rank}: {:?}", got.copy);
            if trace::COMPILED {
                let names: Vec<_> = report.trace.ranks[rank]
                    .events
                    .iter()
                    .map(|e| e.name)
                    .collect();
                for needle in ["send", "ulfm/detect"] {
                    assert!(
                        names.contains(&needle),
                        "rank {rank} trace lacks {needle}: {names:?}"
                    );
                }
                assert!(
                    names.iter().any(|n| n.starts_with("allreduce/")),
                    "rank {rank}: {names:?}"
                );
            }
        }
    }

    #[test]
    fn zero_ranks_rejected() {
        let r = std::panic::catch_unwind(|| Universe::run(0, |_c| ()));
        assert!(r.is_err());
    }
}
