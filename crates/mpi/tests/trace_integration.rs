//! End-to-end coverage for the tracing subsystem: with the recorder off
//! (how every process starts) a run records nothing, allocates no ring
//! and says how to switch it on; switched on, a full universe run
//! records spans on every rank and exports a schema-valid Chrome trace.

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

/// The recorder's switch is process-wide: every test here holds this
/// one lock, and [`Recording`] switches the recorder off again before
/// releasing it.
static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn hold_switch() -> std::sync::MutexGuard<'static, ()> {
    SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// The recorder switched on, for as long as the guard lives.
struct Recording {
    _held: std::sync::MutexGuard<'static, ()>,
}

fn recording() -> Recording {
    let held = hold_switch();
    trace::set_enabled(true);
    Recording { _held: held }
}

impl Drop for Recording {
    fn drop(&mut self) {
        trace::set_enabled(false);
    }
}

/// With the recorder at its default (off), every entry point stays
/// callable and free: runs collect no events, allocate no ring storage,
/// keep every rank's counters, and the report says how to switch the
/// recorder on instead of failing.
#[test]
fn recorder_off_records_nothing_and_says_how_to_switch_it_on() {
    let _held = hold_switch();
    assert!(!trace::enabled(), "the recorder starts off");

    let (outcomes, report) = Universe::run_report(Config::new(4), |comm| workload(&comm));
    assert_completed(&outcomes);
    let data = &report.trace;
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
    let profile = data.report();
    assert!(profile.contains("recorder off"), "got: {profile}");
    assert!(
        profile.contains("trace::set_enabled(true)"),
        "got: {profile}"
    );
    assert!(!profile.contains("--features"), "got: {profile}");

    // The same report still carries every rank's counters.
    for s in &report.stats {
        assert_eq!(s.calls.get("allreduce"), 1);
        assert_eq!(s.calls.get("barrier"), 1);
    }
}

/// An untraced run that ends first in a process must not fix the
/// raw-tick scale: calibrated over the moments since that run's first
/// clock read, it would stretch every later traced span. A 20 ms sleep
/// span recorded after an untraced run stays within 25 % of 20 ms.
#[test]
fn an_untraced_run_first_leaves_later_spans_scaled_right() {
    const SLEEP_MS: f64 = 20.0;
    let held = hold_switch();
    trace::set_enabled(false);
    Universe::run(2, |comm| comm.barrier().unwrap());
    drop(held);

    let on = recording();
    let (outcomes, report) = Universe::run_report(Config::new(1), |_| {
        let _sleep = trace::span(trace::cat::USER, "sleep", 0, 0);
        std::thread::sleep(std::time::Duration::from_secs_f64(SLEEP_MS / 1e3));
    });
    drop(on);
    assert_completed(&outcomes);
    let span = report.trace.ranks[0]
        .events
        .iter()
        .find(|e| e.name == "sleep")
        .expect("the sleep span was recorded");
    let ms = span.dur_ns as f64 / 1e6;
    assert!(
        (0.75 * SLEEP_MS..=1.25 * SLEEP_MS).contains(&ms),
        "a {SLEEP_MS} ms sleep recorded as {ms:.2} ms"
    );
}

/// With the recorder on: a universe run records events on every rank
/// beside its counters in one `RunReport`, exports a schema-valid
/// Chrome trace with one pid per rank, and switching the recorder off
/// drops the whole run to zero events. One test function: the switch
/// is process-wide, so the phases must not interleave with each other.
#[test]
fn recorder_on_records_aggregates_exports_and_toggles() {
    let _on = recording();
    let p = 4;

    // --- recorded run: every layer shows up --------------------------
    let (outcomes, report) = Universe::run_report(Config::new(p), |comm| workload(&comm));
    assert_completed(&outcomes);
    let data = &report.trace;
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

    // The trace aggregates and the counters describe the same run:
    // every counted `send` left at least one send span (collective
    // rounds add more), and the one counted `allreduce` one coll span.
    for (rank, (rt, s)) in data.ranks.iter().zip(&report.stats).enumerate() {
        let sends = rt.stats.spans[trace::cat::SEND as usize].count;
        assert!(
            s.calls.get("send") >= 1 && sends >= s.calls.get("send"),
            "rank {rank}: {sends} send spans for {} counted sends",
            s.calls.get("send")
        );
        assert_eq!(s.calls.get("allreduce"), 1, "rank {rank}");
    }

    // --- export: schema-valid, one pid per rank ----------------------
    let json = data.to_chrome_json();
    let summary = trace::export::validate_chrome(&json).expect("exported trace must validate");
    assert_eq!(summary.pids, (0..p as u64).collect::<Vec<_>>());
    assert!(summary.spans > 0);
    assert!(summary.instants > 0);
    let profile = data.report();
    assert!(
        profile.contains("rank 0") && profile.contains("coll"),
        "got: {profile}"
    );

    // --- runtime toggle: runs with the recorder off record nothing ---
    trace::set_enabled(false);
    let (outcomes, quiet) = Universe::run_report(Config::new(p), |comm| workload(&comm));
    assert_completed(&outcomes);
    for (rank, rt) in quiet.trace.ranks.iter().enumerate() {
        assert_eq!(rt.stats.events, 0, "rank {rank} recorded while disabled");
        assert!(rt.events.is_empty());
    }
}

/// With the recorder on, a crash-and-recover run under a fault plan
/// leaves the whole story on one timeline: the injected crash
/// (`fault/crash` instant on the victim), its detection
/// (`ulfm/detect`), and the survivors' recovery (`ulfm/agree` and
/// `ulfm/shrink` spans) — the events a Perfetto view needs to explain
/// *why* a collective stalled.
#[test]
fn fault_injection_and_recovery_land_on_the_timeline() {
    use kmp_mpi::{op, FaultPlan, RankOutcome};

    let on = recording();
    let plan = FaultPlan::new().crash_at(1, "mailbox/match", 1);
    let (out, report) = Universe::run_report(Config::new(3).faults(plan), |comm| {
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
    drop(on);
    assert!(matches!(out[1], RankOutcome::Failed), "{:?}", out[1]);
    assert!(matches!(out[0], RankOutcome::Completed(2)));
    assert!(matches!(out[2], RankOutcome::Completed(2)));

    let json = report.trace.to_chrome_json();
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
#[test]
fn model_driven_run_names_every_explored_algorithm() {
    use kmp_mpi::{CollTuning, ModelConfig};

    let _on = recording();
    let (outcomes, report) = Universe::run_report(Config::new(4), |comm| {
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
    for (rank, rt) in report.trace.ranks.iter().enumerate() {
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
/// five `i*` and the four `*_init` sites — under the default tuning and
/// with every slot forced off its eager row — the instant's suffix is
/// the algorithm name of the class whose `selections` counter the call
/// bumped, so a plan's name, its `frozen_picks` class and
/// `AlgoClass::name()` cannot drift apart. The broadcasts are
/// self-sizing: their root selects and names an instant, the other
/// ranks learn the row from the wire and do neither.
#[test]
fn initiation_instants_are_named_from_the_selected_row() {
    use kmp_mpi::{AlgoClass, AllgatherAlgo, AlltoallAlgo, CollTuning, Comm, ReduceAlgo};

    /// The class `call` selected, by `selections` delta.
    fn selected(comm: &Comm, call: impl FnOnce()) -> Option<AlgoClass> {
        let before = comm.tuning_stats().selections;
        call();
        let after = comm.tuning_stats().selections;
        let mut picked = AlgoClass::ALL
            .into_iter()
            .filter(|c| after[c.index()] > before[c.index()]);
        let class = picked.next();
        assert!(picked.next().is_none(), "one decision per call");
        class
    }

    let _on = recording();
    let (outcomes, report) = Universe::run_report(Config::new(4), |comm| {
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
            let sites: [Site<'_>; 9] = [
                (
                    "ibcast",
                    Box::new(|| drop(comm.ibcast(root, 0).unwrap().wait())),
                ),
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
                let class = selected(comm, call);
                let learns = site.contains("bcast") && comm.rank() != 0;
                assert_eq!(class.is_none(), learns, "{site}: only the root selects");
                expected.extend(class.map(|class| (site, class)));
            }
        }
        expected
    });
    for (rt, outcome) in report.trace.ranks.iter().zip(outcomes) {
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
