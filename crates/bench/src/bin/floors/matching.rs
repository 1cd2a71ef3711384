//! The two-queue matching engine (`kmp_mpi::mailbox::Mailbox`) against
//! the seed's linear-scan matcher (`mailbox::reference::ScanMailbox`)
//! on byte-identical workloads, one thread per rank, no `Universe`:
//!
//! - **many_senders_one_receiver** — p-1 producers flood one mailbox
//!   while the receiver drains with specific `(source, tag)` receives,
//!   round-robin: the backlog makes every linear scan O(queue depth).
//! - **wildcard_heavy** — the same flood drained by alternating
//!   `ANY/ANY` and specific receives (plus a probe every 8th round). The
//!   specific receives take negative-tagged messages the wildcards
//!   cannot see, as collective traffic is kept from user wildcards.
//! - **alltoall_storm** — p mailboxes, p threads; every round each sends
//!   to every peer, then receives p-1 with specific selectors. Queues
//!   stay shallow, so only the sanity floor applies.

use std::sync::Arc;

use bytes::Bytes;
use kmp_mpi::error::{MpiError, Result};
use kmp_mpi::mailbox::{reference::ScanMailbox, Mailbox};
use kmp_mpi::message::{Envelope, Src, Status, TagSel};

use crate::{best_rate, Bound, Floor};

const PER_SENDER: usize = 600;
const STORM_ROUNDS: usize = 150;
const REPS: usize = 3;

/// The matching surface both implementations expose.
trait MatchQueue: Default + Sync + Send + 'static {
    fn push(&self, env: Envelope);
    fn wait_match(
        &self,
        context: u64,
        src: Src,
        tag: TagSel,
        interrupted: impl FnMut() -> Option<MpiError>,
    ) -> Result<Envelope>;
    fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status>;
}

macro_rules! match_queue {
    ($t:ty) => {
        impl MatchQueue for $t {
            fn push(&self, env: Envelope) {
                <$t>::push(self, env)
            }
            fn wait_match(
                &self,
                context: u64,
                src: Src,
                tag: TagSel,
                interrupted: impl FnMut() -> Option<MpiError>,
            ) -> Result<Envelope> {
                <$t>::wait_match(self, context, src, tag, interrupted)
            }
            fn try_peek(&self, context: u64, src: Src, tag: TagSel) -> Option<Status> {
                <$t>::try_peek(self, context, src, tag)
            }
        }
    };
}
match_queue!(Mailbox);
match_queue!(ScanMailbox);

fn env(src: usize, tag: i32, payload: &Bytes) -> Envelope {
    Envelope {
        src,
        src_world: src,
        context: 0,
        tag,
        payload: payload.clone(), // a refcount clone: matching is measured, not memcpy
        more: None,
        arrival_ns: 0,
        ack: None,
    }
}

/// Messages and seconds of one run.
type Run = fn(usize, usize) -> (usize, f64);

fn many_senders_one_receiver<Q: MatchQueue>(p: usize, per_sender: usize) -> (usize, f64) {
    let mb = Arc::new(Q::default());
    let payload = Bytes::from(vec![7u8; 64]);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for s in 1..p {
            let (mb, payload) = (Arc::clone(&mb), payload.clone());
            scope.spawn(move || {
                for _ in 0..per_sender {
                    mb.push(env(s, 100 + s as i32, &payload));
                }
            });
        }
        for _ in 0..per_sender {
            for s in 1..p {
                mb.wait_match(0, Src::Rank(s), TagSel::Is(100 + s as i32), || None)
                    .unwrap();
            }
        }
    });
    ((p - 1) * per_sender, start.elapsed().as_secs_f64())
}

fn wildcard_heavy<Q: MatchQueue>(p: usize, per_sender: usize) -> (usize, f64) {
    let per_sender = per_sender & !1; // even: half per traffic class
    let mb = Arc::new(Q::default());
    let payload = Bytes::from(vec![7u8; 64]);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for s in 1..p {
            let (mb, payload) = (Arc::clone(&mb), payload.clone());
            scope.spawn(move || {
                for i in 0..per_sender {
                    let tag = 100 + s as i32;
                    mb.push(env(s, if i % 2 == 0 { tag } else { -tag }, &payload));
                }
            });
        }
        for round in 0..per_sender / 2 {
            for _ in 1..p {
                mb.wait_match(0, Src::Any, TagSel::Any, || None).unwrap();
            }
            for s in 1..p {
                if round % 8 == 0 {
                    let _ = mb.try_peek(0, Src::Rank(s), TagSel::Any);
                }
                mb.wait_match(0, Src::Rank(s), TagSel::Is(-(100 + s as i32)), || None)
                    .unwrap();
            }
        }
    });
    ((p - 1) * per_sender, start.elapsed().as_secs_f64())
}

fn alltoall_storm<Q: MatchQueue>(p: usize, rounds: usize) -> (usize, f64) {
    let mbs: Arc<Vec<Q>> = Arc::new((0..p).map(|_| Q::default()).collect());
    let payload = Bytes::from(vec![7u8; 64]);
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for rank in 0..p {
            let (mbs, payload) = (Arc::clone(&mbs), payload.clone());
            scope.spawn(move || {
                for round in 0..rounds {
                    let tag = round as i32;
                    for peer in (0..p).filter(|&peer| peer != rank) {
                        mbs[peer].push(env(rank, tag, &payload));
                    }
                    for peer in (0..p).filter(|&peer| peer != rank) {
                        mbs[rank]
                            .wait_match(0, Src::Rank(peer), TagSel::Is(tag), || None)
                            .unwrap();
                    }
                }
            });
        }
    });
    (p * (p - 1) * rounds, start.elapsed().as_secs_f64())
}

pub fn floors() -> Vec<Floor> {
    // (scenario, engine, scan, work, the scenario's own floor).
    let scenarios: [(&str, Run, Run, usize, Option<f64>); 3] = [
        (
            "many_senders_one_receiver",
            many_senders_one_receiver::<Mailbox>,
            many_senders_one_receiver::<ScanMailbox>,
            PER_SENDER,
            Some(2.0),
        ),
        (
            "wildcard_heavy",
            wildcard_heavy::<Mailbox>,
            wildcard_heavy::<ScanMailbox>,
            PER_SENDER,
            Some(1.2),
        ),
        (
            "alltoall_storm",
            alltoall_storm::<Mailbox>,
            alltoall_storm::<ScanMailbox>,
            STORM_ROUNDS,
            None,
        ),
    ];
    let mut floors = Vec::new();
    for p in [4, 8, 16] {
        for (scenario, engine, scan, work, floor_x) in scenarios {
            let e = best_rate(REPS, || engine(p, work));
            let l = best_rate(REPS, || scan(p, work));
            println!("   {scenario} p={p}: engine / scan = {:.2}x", e / l);
            let floor = |what: &str, x| {
                let name = format!("matching {scenario} p={p} {what}");
                Floor::new(name, e, l, "msgs/s", Bound::AtLeast(x))
            };
            floors.push(floor("sanity", 0.5));
            if let Some(x) = floor_x {
                floors.push(floor("win", x));
            }
        }
    }
    floors
}
