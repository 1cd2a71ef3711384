//! Parked waits (`RequestSet::wait_any`, `Request::wait`) against the
//! seed's sweep-and-yield strategy, `kmp_mpi::completion::reference`:
//!
//! - **wait_any_fanin** — rank 0 posts every receive of the run upfront
//!   in one standing set and drains it via `wait_any` while p-1 senders,
//!   pacing themselves with rank-staggered idle gaps and a per-round
//!   ack, deliver timestamped payloads. The figure is wakeup latency,
//!   push to `wait_any` return, averaged over completions.
//! - **bounded_pipeline** — rank 0 streams `issend`s round-robin to p-1
//!   computing receivers through a fixed window, completing the oldest
//!   when it is full (the `BoundedRequestPool` shape). The figure is
//!   elapsed time per message.
//!
//! Each strategy runs once to warm up, then the mean over [`REPS`]
//! runs: latencies on an oversubscribed host are tail-heavy both ways.

use kmp_mpi::completion::reference;
use kmp_mpi::{Config, RequestSet, Universe};

use crate::{Bound, Floor};

const FANIN_TOTAL: usize = 4800;
const PIPELINE_MESSAGES: usize = 300;
const REPS: usize = 3;
/// Senders' idle-gap unit in the fan-in: arrivals must be sparse enough
/// that the waiter really waits between completions.
const WORK_US: u64 = 200;

#[derive(Clone, Copy)]
enum Strategy {
    Event,
    Sweep,
}

/// Busy-spins for about `us` microseconds (CPU a polling waiter steals
/// shows; sleep would hide it).
fn busy_work(us: u64) {
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    while start.elapsed().as_micros() < us as u128 {
        for i in 0..64u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
    }
}

/// Returns (completions, summed wakeup latency in seconds, rank 0's
/// `multi_wakeups`).
fn wait_any_fanin(strategy: Strategy, p: usize) -> (usize, f64, u64) {
    const ACK_TAG: i32 = 1_000_000;
    let rounds = FANIN_TOTAL / (p - 1);
    let epoch = std::time::Instant::now();
    let wait_one = move |set: &mut RequestSet<'_>| match strategy {
        Strategy::Event => set.wait_any(),
        Strategy::Sweep => reference::wait_any(set),
    };
    let (outcomes, report) = Universe::run_report(Config::new(p), move |world| {
        // Applications mostly run on derived communicators; so does
        // the fan-in (its receives resolve their context through the
        // shard map).
        let comm = world.dup().unwrap();
        if comm.rank() == 0 {
            let mut lat_ns = 0u64;
            let mut set = RequestSet::new();
            for round in 0..rounds {
                for peer in 1..comm.size() {
                    set.push(comm.irecv(peer, round as i32));
                }
            }
            let mut round_left = vec![comm.size() - 1; rounds];
            while !set.is_empty() {
                let (_, c) = wait_one(&mut set).unwrap().expect("set non-empty");
                let now = epoch.elapsed().as_nanos() as u64;
                let (v, st) = c.into_vec::<u64>().unwrap();
                lat_ns += now.saturating_sub(v[0]);
                let round = st.tag as usize;
                round_left[round] -= 1;
                if round_left[round] == 0 {
                    for peer in 1..comm.size() {
                        comm.send(&[1u8], peer, ACK_TAG).unwrap();
                    }
                }
            }
            lat_ns
        } else {
            for round in 0..rounds {
                std::thread::sleep(std::time::Duration::from_micros(
                    WORK_US * (1 + (comm.rank() as u64 - 1) % 8),
                ));
                let sent = epoch.elapsed().as_nanos() as u64;
                comm.send(&[sent], 0, round as i32).unwrap();
                let mut ack = RequestSet::new();
                ack.push(comm.irecv(0, ACK_TAG));
                wait_one(&mut ack).unwrap().expect("ack pending");
            }
            0
        }
    });
    let lat_ns = outcomes.into_iter().next().unwrap().unwrap();
    let multi = report.stats[0].mailbox.multi_wakeups;
    ((p - 1) * rounds, lat_ns as f64 / 1e9, multi)
}

/// Returns (messages, elapsed seconds, rank 0's `multi_wakeups`).
fn bounded_pipeline(strategy: Strategy, p: usize) -> (usize, f64, u64) {
    let messages = PIPELINE_MESSAGES;
    let wait = move |req: kmp_mpi::Request<'_>| match strategy {
        Strategy::Event => req.wait().map(drop),
        Strategy::Sweep => reference::wait(req).map(drop),
    };
    let started = std::time::Instant::now();
    let (_, report) = Universe::run_report(Config::new(p), move |comm| {
        let peers = comm.size() - 1;
        if comm.rank() == 0 {
            let mut window = std::collections::VecDeque::new();
            for m in 0..messages {
                while window.len() >= 2 * peers {
                    wait(window.pop_front().expect("window non-empty")).unwrap();
                }
                window.push_back(comm.issend(&[m as u8], 1 + m % peers, 0).unwrap());
            }
            for req in window {
                wait(req).unwrap();
            }
        } else {
            let mine = messages / peers + usize::from(comm.rank() <= messages % peers);
            for _ in 0..mine {
                busy_work(WORK_US / 8);
                comm.recv_vec::<u8>(0, 0).unwrap();
            }
        }
    });
    let multi = report.stats[0].mailbox.multi_wakeups;
    (messages, started.elapsed().as_secs_f64(), multi)
}

/// Mean µs per completion over [`REPS`] runs after a warm-up, and the
/// summed `multi_wakeups`.
fn measure(
    scenario: fn(Strategy, usize) -> (usize, f64, u64),
    strategy: Strategy,
    p: usize,
) -> (f64, u64) {
    scenario(strategy, p);
    let (mut completions, mut secs, mut multi) = (0, 0.0, 0);
    for _ in 0..REPS {
        let (c, s, m) = scenario(strategy, p);
        completions += c;
        secs += s;
        multi += m;
    }
    (secs * 1e6 / completions as f64, multi)
}

pub fn floors() -> Vec<Floor> {
    let mut floors = Vec::new();
    for p in [4, 8, 16] {
        for (scenario, run) in [
            ("wait_any_fanin", wait_any_fanin as fn(_, _) -> _),
            ("bounded_pipeline", bounded_pipeline),
        ] {
            let (event, multi) = measure(run, Strategy::Event, p);
            let (sweep, _) = measure(run, Strategy::Sweep, p);
            println!(
                "   {scenario} p={p}: sweep / event latency = {:.2}x",
                sweep / event
            );
            let name = |what: &str| format!("completion {scenario} p={p} {what}");
            let latency = |what, bound| Floor::new(name(what), event, sweep, "us/compl", bound);
            floors.push(latency("sanity", Bound::AtMost(2.0, 0.0)));
            if scenario == "wait_any_fanin" {
                // The event rows must really park, or the probe is not
                // exercising the completion subsystem.
                let parks = multi as f64;
                floors.push(Floor::new(
                    name("parks"),
                    parks,
                    1.0,
                    "wakeups",
                    Bound::AtLeast(1.0),
                ));
                if p == 8 {
                    floors.push(latency("win", Bound::Speedup(2.0)));
                }
            }
        }
    }
    floors
}
