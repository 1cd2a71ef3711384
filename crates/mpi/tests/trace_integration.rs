//! End-to-end coverage for the tracing subsystem in both build
//! configurations: with `--features trace` a full universe run records
//! spans on every rank and exports a schema-valid Chrome trace; without
//! the feature the whole surface stays callable, allocation-free, and
//! degrades gracefully.

use kmp_mpi::{trace, Config, RequestSet, Universe};

/// A small workload touching every instrumented layer: p2p matching,
/// a collective (with algorithm selection), and a `wait_any` drain
/// through the completion subsystem.
fn workload(comm: &kmp_mpi::Comm) {
    let p = comm.size();
    let me = comm.rank();
    // p2p ring: everyone sends to the next rank, receives from the
    // previous — send/recv spans plus matching instants.
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    comm.send(&[me as u8; 256], next, 3).unwrap();
    let mut buf = [0u8; 256];
    comm.recv_into(&mut buf, prev, 3).unwrap();
    assert_eq!(buf[0], prev as u8);
    // A collective: records a `coll` span named after the selected
    // algorithm.
    let sum = comm.allreduce_one(me as u64, kmp_mpi::op::Sum).unwrap();
    assert_eq!(sum, (p * (p - 1) / 2) as u64);
    // Completion subsystem: a parked wait_any drain.
    if me == 0 {
        let mut set = RequestSet::new();
        for peer in 1..p {
            set.push(comm.irecv(peer, 9));
        }
        while !set.is_empty() {
            set.wait_any().unwrap().expect("set non-empty");
        }
    } else {
        comm.send(&[me as u8; 64], 0, 9).unwrap();
    }
    comm.barrier().unwrap();
}

fn assert_completed<R>(outcomes: &[kmp_mpi::RankOutcome<R>]) {
    for (rank, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o, kmp_mpi::RankOutcome::Completed(_)),
            "rank {rank} did not complete"
        );
    }
}

/// The runtime enable flag is process-global and one test below toggles
/// it; every `trace`-enabled test holds this lock so the phases cannot
/// interleave.
#[cfg(feature = "trace")]
static TRACE_TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// With tracing compiled out, every entry point must stay callable and
/// free: the span guard is a ZST, runs collect no events, allocate no
/// ring storage, and the report says why instead of failing.
#[cfg(not(feature = "trace"))]
#[test]
fn disabled_build_records_nothing_and_degrades_gracefully() {
    const {
        assert!(!trace::COMPILED);
        assert!(std::mem::size_of::<trace::SpanGuard>() == 0);
    }
    // The toggle is accepted and ignored.
    trace::set_enabled(true);
    assert!(!trace::enabled());
    trace::set_ring_capacity(8);

    let (outcomes, data) = Universe::run_traced(Config::new(4), |comm| workload(&comm));
    assert_completed(&outcomes);
    assert_eq!(data.ranks.len(), 4);
    for rt in &data.ranks {
        assert_eq!(
            rt.stats,
            trace::TraceStats::default(),
            "stats must be zeroed"
        );
        assert!(rt.events.is_empty());
        // Not just empty: no ring storage was ever allocated.
        assert_eq!(rt.events.capacity(), 0);
    }
    let report = data.report();
    assert!(report.contains("feature disabled"), "got: {report}");
    assert!(report.contains("--features trace"), "got: {report}");

    // The unified per-rank stats carry a zeroed trace block.
    let (outcomes, stats) = Universe::run_stats(Config::new(2), |comm| workload(&comm));
    assert_completed(&outcomes);
    for s in &stats {
        assert_eq!(s.trace, trace::TraceStats::default());
    }
}

/// With tracing compiled in: a universe run records events on every
/// rank, folds aggregates into `RankStats`, exports a schema-valid
/// Chrome trace with one pid per rank, and the runtime toggle drops
/// the whole run to zero events. One test function: the enable flag is
/// process-global, so the phases must not interleave with each other.
#[cfg(feature = "trace")]
#[test]
fn enabled_build_records_aggregates_exports_and_toggles() {
    let _toggle = TRACE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let p = 4;

    // --- enabled run: every layer shows up ---------------------------
    trace::set_enabled(true);
    let (outcomes, data) = Universe::run_traced(Config::new(p), |comm| workload(&comm));
    assert_completed(&outcomes);
    assert_eq!(data.ranks.len(), p);
    for (rank, rt) in data.ranks.iter().enumerate() {
        assert!(!rt.events.is_empty(), "rank {rank} recorded no events");
        assert_eq!(rt.stats.events, rt.events.len() as u64 + rt.stats.dropped);
        let coll = &rt.stats.spans[trace::cat::COLL as usize];
        assert!(coll.count > 0, "rank {rank} has no collective spans");
        let send = &rt.stats.spans[trace::cat::SEND as usize];
        assert!(send.count > 0, "rank {rank} has no send spans");
        // The collective span is named after the selected algorithm.
        assert!(
            rt.events
                .iter()
                .any(|e| e.cat == trace::cat::COLL && e.name.starts_with("allreduce/")),
            "rank {rank} lacks a named allreduce span"
        );
    }

    // Aggregates also surface through the unified RankStats.
    let (outcomes, stats) = Universe::run_stats(Config::new(p), |comm| workload(&comm));
    assert_completed(&outcomes);
    for (rank, s) in stats.iter().enumerate() {
        assert!(s.trace.events > 0, "rank {rank} stats.trace is empty");
    }

    // --- export: schema-valid, one pid per rank ----------------------
    let json = data.to_chrome_json();
    let summary = trace::export::validate_chrome(&json).expect("exported trace must validate");
    assert_eq!(summary.pids, (0..p as u64).collect::<Vec<_>>());
    assert!(summary.spans > 0);
    assert!(summary.instants > 0);
    let report = data.report();
    assert!(
        report.contains("rank 0") && report.contains("coll"),
        "got: {report}"
    );

    // --- runtime toggle: disabled runs record nothing ----------------
    trace::set_enabled(false);
    let (outcomes, quiet) = Universe::run_traced(Config::new(p), |comm| workload(&comm));
    trace::set_enabled(true);
    assert_completed(&outcomes);
    for (rank, rt) in quiet.ranks.iter().enumerate() {
        assert_eq!(rt.stats.events, 0, "rank {rank} recorded while disabled");
        assert!(rt.events.is_empty());
    }
}

/// With both `trace` and `fault` compiled in, a crash-and-recover run
/// leaves the whole story on one timeline: the injected crash
/// (`fault/crash` instant on the victim), its detection
/// (`ulfm/detect`), and the survivors' recovery (`ulfm/agree` and
/// `ulfm/shrink` spans) — the events a Perfetto view needs to explain
/// *why* a collective stalled.
#[cfg(all(feature = "trace", feature = "fault"))]
#[test]
fn fault_injection_and_recovery_land_on_the_timeline() {
    use kmp_mpi::{op, FaultPlan, RankOutcome};

    let _toggle = TRACE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    let plan = FaultPlan::new().crash_at(1, "mailbox/match", 1);
    let (out, data) = Universe::run_traced_faulted(Config::new(3), &plan, |comm| {
        let mut active = comm;
        let mut rounds = 0;
        while rounds < 3 {
            let r = active.allreduce_one(1u64, op::Sum);
            if r.is_err() && !active.is_revoked() {
                active.revoke();
            }
            if active.agree_and(r.is_ok()).unwrap() {
                rounds += 1;
            } else {
                active = active.shrink().unwrap();
            }
        }
        active.size()
    });
    assert!(matches!(out[1], RankOutcome::Failed), "{:?}", out[1]);
    assert!(matches!(out[0], RankOutcome::Completed(2)));
    assert!(matches!(out[2], RankOutcome::Completed(2)));

    let json = data.to_chrome_json();
    trace::export::validate_chrome(&json).expect("faulted trace must validate");
    for needle in ["fault/crash", "ulfm/detect", "ulfm/agree", "ulfm/shrink"] {
        assert!(json.contains(needle), "timeline lacks {needle}: {json}");
    }
}

/// A model-driven run keeps the established `op/algorithm` span names:
/// the exploration phase visits every allreduce candidate (so both
/// spellings land on the timeline), and once warm the model takes over
/// — all on the same rings, with nothing new for a Perfetto view to
/// learn.
#[cfg(feature = "trace")]
#[test]
fn model_driven_run_names_every_explored_algorithm() {
    use kmp_mpi::{CollTuning, ModelConfig};

    let _toggle = TRACE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    let (outcomes, data) = Universe::run_traced(Config::new(4), |comm| {
        comm.set_tuning(
            CollTuning::default().model(
                ModelConfig::default()
                    .drive(true)
                    .epoch_len(1)
                    .warmup_obs(1),
            ),
        );
        let mine = vec![comm.rank() as u64; 512];
        for _ in 0..10 {
            comm.allreduce_vec(&mine, |a: &u64, b: &u64| a.wrapping_add(*b))
                .unwrap();
        }
        let stats = comm.tuning_stats();
        assert!(stats.model_picks > 0, "model must take over once warm");
        assert!(
            stats.explore_picks > 0,
            "warm-up must explore the cold class"
        );
    });
    assert_completed(&outcomes);
    for (rank, rt) in data.ranks.iter().enumerate() {
        for name in ["allreduce/recursive_doubling", "allreduce/rabenseifner"] {
            assert!(
                rt.events
                    .iter()
                    .any(|e| e.cat == trace::cat::COLL && e.name == name),
                "rank {rank} timeline lacks {name}"
            );
        }
    }
}

/// An initiation's instant is named from the row it selected: for the
/// four `i*` and the four `*_init` sites — under the default tuning and
/// with every slot forced off its eager row — the instant's suffix is
/// the algorithm name of the class whose `selections` counter the call
/// bumped, so a plan's name, its `frozen_picks` class and
/// `AlgoClass::name()` cannot drift apart.
#[cfg(feature = "trace")]
#[test]
fn initiation_instants_are_named_from_the_selected_row() {
    use kmp_mpi::{AlgoClass, AllgatherAlgo, AlltoallAlgo, CollTuning, Comm, ReduceAlgo};

    /// The class `call` selected, by `selections` delta.
    fn selected(comm: &Comm, call: impl FnOnce()) -> AlgoClass {
        let before = comm.tuning_stats().selections;
        call();
        let after = comm.tuning_stats().selections;
        let mut picked = AlgoClass::ALL
            .into_iter()
            .filter(|c| after[c.index()] > before[c.index()]);
        let class = picked.next().expect("the site takes a decision");
        assert!(picked.next().is_none(), "one decision per call");
        class
    }

    let _toggle = TRACE_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    let (outcomes, data) = Universe::run_traced(Config::new(4), |comm| {
        let forced = CollTuning::default()
            .allgather(AllgatherAlgo::Bruck)
            .alltoall(AlltoallAlgo::Bruck)
            .reduce(ReduceAlgo::BinomialTree);
        let sum = |a: &u64, b: &u64| a.wrapping_add(*b);
        let mine = [comm.rank() as u64; 4];
        let root = (comm.rank() == 0).then_some(&mine[..]);
        let mut expected = Vec::new();
        for tuning in [CollTuning::default(), forced] {
            comm.set_tuning(tuning);
            let comm = &comm;
            type Site<'a> = (&'static str, Box<dyn FnOnce() + 'a>);
            let sites: [Site<'_>; 8] = [
                (
                    "iallgather",
                    Box::new(|| drop(comm.iallgather(&mine).unwrap().wait())),
                ),
                (
                    "ialltoall",
                    Box::new(|| drop(comm.ialltoall(&mine).unwrap().wait())),
                ),
                (
                    "ireduce",
                    Box::new(|| drop(comm.ireduce(&mine, sum, 0).unwrap().wait())),
                ),
                (
                    "iallreduce",
                    Box::new(|| drop(comm.iallreduce(&mine, sum).unwrap().wait())),
                ),
                (
                    "bcast_init",
                    Box::new(|| drop(comm.bcast_init(root, 0).unwrap())),
                ),
                (
                    "allreduce_init",
                    Box::new(|| drop(comm.allreduce_init(&mine, sum).unwrap())),
                ),
                (
                    "allgather_init",
                    Box::new(|| drop(comm.allgather_init(&mine).unwrap())),
                ),
                (
                    "alltoallv_init",
                    Box::new(|| drop(comm.alltoallv_init(&mine, &[1; 4]).unwrap())),
                ),
            ];
            for (site, call) in sites {
                expected.push((site, selected(comm, call)));
            }
        }
        expected
    });
    for (rt, outcome) in data.ranks.iter().zip(outcomes) {
        let kmp_mpi::RankOutcome::Completed(expected) = outcome else {
            panic!("a rank did not complete");
        };
        let site_of = |name: &'static str| name.split_once('/').map(|(site, _)| site);
        let mut instants = rt.events.iter().filter(|e| {
            e.cat == trace::cat::COLL && expected.iter().any(|(s, _)| site_of(e.name) == Some(*s))
        });
        for (site, class) in &expected {
            let algorithm = class.name().split_once('/').expect("op/algorithm").1;
            let event = instants.next().expect("every site leaves an instant");
            assert_eq!(event.name, format!("{site}/{algorithm}"));
        }
        assert!(instants.next().is_none());
    }
}
