//! The self-sizing `allgatherv` against a sequential oracle, and its
//! error path.
//!
//! Without receive counts no rank knows another's block size, so the
//! `allgather/*` latency rows learn the layout in their rounds: round 0
//! carries the bare block, every later round its group's lengths and
//! the blocks whose length is within the per-rank ceiling; a larger
//! block goes from its origin straight to every rank that did not get
//! it in round 0. The grid runs every row — `Auto` and forced recursive
//! doubling, Bruck and ring — through every self-sizing entry point, at
//! `p` in `1..=9` and 16, over size mixes on both sides of the ceiling
//! ([`ALLGATHER_MAX_BYTES`]), and reads back which row ran. The no-hang tests (`fault` feature)
//! cut a message short on its way: every rank must return a typed error
//! before a deadline, and the communicator must stay usable.

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::collectives::algos::ALLGATHER_MAX_BYTES;
use kamping_repro::mpi::{bytes_from_vec, AlgoClass, AllgatherAlgo, CollTuning, Comm, Universe};

/// Bytes per block at the ceiling.
const L: usize = ALLGATHER_MAX_BYTES;

/// Rank `r`'s contribution of `n` bytes, distinct across ranks.
fn contribution(r: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (r * 37 + i * 11) as u8).collect()
}

/// The block lengths of every mix at `p` ranks: all empty, all inline
/// (uneven, below `L`), all exactly `L` (inline) and all one byte over
/// it, one large origin (rank 0, then a middle rank), a mix of empty,
/// `L` and large, and all large.
fn mixes(p: usize) -> Vec<(&'static str, Vec<usize>)> {
    let small = |r: usize| (r * 7 + 3) % L;
    let one_large = |big: usize| (0..p).map(move |r| if r == big { 4 * L + 1 } else { small(r) });
    vec![
        ("all empty", vec![0; p]),
        ("all inline", (0..p).map(small).collect()),
        ("all L", vec![L; p]),
        ("all L + 1", vec![L + 1; p]),
        ("rank 0 large", one_large(0).collect()),
        ("a middle rank large", one_large(p / 2).collect()),
        ("mixed", (0..p).map(|r| [0, L, 3 * L + r][r % 3]).collect()),
        ("all large", (0..p).map(|r| 2 * L + r).collect()),
    ]
}

/// Which `allgather/*` row a call selected, read off the tuning stats.
fn row_of<R>(comm: &Comm, call: impl FnOnce() -> R) -> (AlgoClass, R) {
    let before = comm.tuning_stats().selections;
    let out = call();
    let after = comm.tuning_stats().selections;
    let rows = [
        AlgoClass::AllgatherRing,
        AlgoClass::AllgatherRd,
        AlgoClass::AllgatherBruck,
    ];
    let picked: Vec<AlgoClass> = (rows.into_iter())
        .filter(|c| after[c.index()] != before[c.index()])
        .collect();
    assert_eq!(picked.len(), 1, "one allgather row per call: {picked:?}");
    (picked[0], out)
}

/// The tunings of the grid at `p` — `Auto` and each forced row — with
/// the row each runs.
fn rows(p: usize) -> [(&'static str, CollTuning, AlgoClass); 4] {
    let base = CollTuning::default();
    let ring = AlgoClass::AllgatherRing;
    let latency = if p.is_power_of_two() {
        AlgoClass::AllgatherRd
    } else {
        AlgoClass::AllgatherBruck
    };
    let rd = if p >= 2 && p.is_power_of_two() {
        AlgoClass::AllgatherRd
    } else {
        ring
    };
    let bruck = if p >= 2 {
        AlgoClass::AllgatherBruck
    } else {
        ring
    };
    [
        ("auto", base, if p >= 4 { latency } else { ring }),
        ("rd", base.allgather(AllgatherAlgo::RecursiveDoubling), rd),
        ("bruck", base.allgather(AllgatherAlgo::Bruck), bruck),
        ("ring", base.allgather(AllgatherAlgo::Ring), ring),
    ]
}

fn as_vecs<B: AsRef<[u8]>>(blocks: Vec<B>) -> Vec<Vec<u8>> {
    blocks.iter().map(|b| b.as_ref().to_vec()).collect()
}

#[test]
fn self_sizing_allgatherv_matches_the_oracle_under_every_row() {
    for p in (1..=9).chain([16]) {
        Universe::run(p, move |comm| {
            let kc = Communicator::new(comm);
            let raw = kc.raw();
            let me = kc.rank();
            for (name, tuning, row) in rows(p) {
                raw.set_tuning(tuning);
                for (mix, lens) in mixes(p) {
                    let at = format!("p = {p}, rank {me}, {name}, {mix}");
                    let blocks: Vec<Vec<u8>> = (0..p).map(|r| contribution(r, lens[r])).collect();
                    let all = blocks.concat();
                    let mine = blocks[me].clone();

                    let own = bytes_from_vec(mine.clone());
                    let got = row_of(raw, || raw.allgatherv_blocks(own, None).unwrap());
                    assert_eq!(
                        (got.0, as_vecs(got.1)),
                        (row, blocks.clone()),
                        "blocks, {at}"
                    );
                    let got = row_of(raw, || raw.allgatherv_vec(&mine).unwrap());
                    assert_eq!(got, (row, all.clone()), "allgatherv_vec, {at}");
                    let got = row_of(raw, || raw.iallgatherv(&mine).unwrap());
                    let done = got.1.wait().unwrap().into_blocks().unwrap();
                    assert_eq!(
                        (got.0, as_vecs(done)),
                        (row, blocks.clone()),
                        "iallgatherv, {at}"
                    );

                    let got = row_of(raw, || kc.allgatherv(send_buf(&mine)).unwrap());
                    assert_eq!(got, (row, all.clone()), "binding allgatherv, {at}");
                    let got = row_of(raw, || {
                        kc.allgatherv((send_buf(&mine), recv_counts_out())).unwrap()
                    });
                    assert_eq!(got, (row, (all.clone(), lens.clone())), "counts out, {at}");
                    let got = row_of(raw, || kc.iallgatherv(send_buf(mine.clone())).unwrap());
                    let (data, handle) = got.1.wait().unwrap();
                    assert_eq!((got.0, data), (row, all), "binding iallgatherv, {at}");
                    assert_eq!(handle.take(), mine, "{at}");
                }
                // One plan per row, its blocks resized between cycles:
                // every mix, so every cycle crosses the ceiling somewhere.
                let first = contribution(me, 1);
                let (ran, mut plan) = row_of(raw, || raw.allgatherv_init(&first).unwrap());
                let (bound, mut typed) =
                    row_of(raw, || kc.allgatherv_init(send_buf(&first)).unwrap());
                assert_eq!((ran, bound), (row, row), "allgatherv_init, p = {p}, {name}");
                for (mix, lens) in mixes(p) {
                    let at = format!("p = {p}, rank {me}, {name}, {mix}, allgatherv_init");
                    let blocks: Vec<Vec<u8>> = (0..p).map(|r| contribution(r, lens[r])).collect();
                    plan.set_data(&blocks[me]).unwrap();
                    plan.start().unwrap();
                    let done = plan.wait().unwrap().into_blocks().unwrap();
                    assert_eq!(as_vecs(done), blocks, "{at}");
                    typed.set_data(&blocks[me]).unwrap();
                    typed.start().unwrap();
                    let got = typed.wait_with_counts().unwrap();
                    assert_eq!(got, (blocks.concat(), lens), "binding, {at}");
                }
            }
        });
    }
}

/// Messages cut short in flight, by the fault plane.
mod cut_short {
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    use super::*;
    use kamping_repro::mpi::{Config, FaultPlan, MpiError};

    /// Runs `f` on `p` ranks under `plan` and fails the test if any rank
    /// has not returned within 30 s: a rank left waiting on a peer is a
    /// hang, reported here rather than by the test runner's timeout.
    fn within_deadline<F>(p: usize, plan: FaultPlan, f: F)
    where
        F: Fn(&Comm) + Send + Sync + 'static,
    {
        let (done, deadline) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let outcomes = Universe::run_with(Config::new(p).faults(plan), |comm| f(&comm));
            outcomes.into_iter().for_each(|o| o.unwrap());
            let _ = done.send(());
        });
        match deadline.recv_timeout(Duration::from_secs(30)) {
            Err(RecvTimeoutError::Timeout) => {
                panic!("p = {p}: a rank is still waiting on its peers")
            }
            // Returned or panicked: a rank's panic fails the test as itself.
            _ => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }

    /// Whom `rank` receives round 1 from: `rank ^ 2` under recursive
    /// doubling, `rank + 2` under Bruck.
    fn round_one_sender(row: AlgoClass, p: usize, rank: usize) -> usize {
        match row {
            AlgoClass::AllgatherRd => rank ^ 2,
            _ => (rank + 2) % p,
        }
    }

    /// The three lifecycles of the self-sizing exchange, each one call.
    const LIFECYCLES: [&str; 3] = ["allgatherv_blocks", "iallgatherv", "allgatherv_init"];

    fn exchange(comm: &Comm, lifecycle: &str, mine: &[u8]) -> Result<(), MpiError> {
        match lifecycle {
            "allgatherv_blocks" => comm
                .allgatherv_blocks(bytes_from_vec(mine.to_vec()), None)
                .map(drop),
            "iallgatherv" => comm.iallgatherv(mine)?.wait().map(drop),
            _ => {
                let mut plan = comm.allgatherv_init(mine)?;
                plan.start()?;
                plan.wait().map(drop)
            }
        }
    }

    /// The first message each rank gets from its round-1 sender is cut
    /// short, in every lifecycle and under both latency rows: with
    /// inline blocks it is round 1's group — its header announces more
    /// than it carries, or is cut itself — and with large blocks the
    /// sender's direct block, shorter than its length in the rounds.
    /// Every rank finds the damage itself, returns `InvalidLayout` and
    /// leaves no peer waiting; the next collective succeeds.
    #[test]
    fn a_message_cut_short_fails_every_rank_with_a_typed_error() {
        let base = CollTuning::default();
        let cases = [
            (4, base, AlgoClass::AllgatherRd),
            (8, base, AlgoClass::AllgatherRd),
            (5, base, AlgoClass::AllgatherBruck),
            (6, base, AlgoClass::AllgatherBruck),
            (
                8,
                base.allgather(AllgatherAlgo::Bruck),
                AlgoClass::AllgatherBruck,
            ),
        ];
        // Inline blocks of 3 bytes: round 1 carries 2 lengths and 6
        // bytes. Large blocks of 13000 bytes, over the 12 KiB per-rank
        // ceiling, travel direct.
        let cuts = [(3, 2 * 8 + 6 - 1), (3, 4), (13000, 12999)];
        for (p, tuning, row) in cases {
            for (len, keep) in cuts {
                for lifecycle in LIFECYCLES {
                    let plan = (0..p).fold(FaultPlan::new(), |plan, r| {
                        let from = round_one_sender(row, p, r);
                        plan.truncate_message(from, r, None, 1, keep)
                    });
                    within_deadline(p, plan, move |comm| {
                        comm.set_tuning(tuning);
                        let at = format!(
                            "p = {p}, rank {}, {lifecycle}, {len} B cut to {keep}",
                            comm.rank()
                        );
                        let mine = contribution(comm.rank(), len);
                        match exchange(comm, lifecycle, &mine) {
                            Err(MpiError::InvalidLayout(_)) => {}
                            other => panic!("{at}: {other:?}"),
                        }
                        let all = comm.allgather_vec(&[comm.rank() as u32]).unwrap();
                        assert_eq!(all, (0..p as u32).collect::<Vec<_>>(), "{at}");
                    });
                }
            }
        }
    }

    /// A persistent plan's second cycle, its blocks small this time, has
    /// its round-1 group cut inside the header on every rank. What that
    /// group would have announced is still the first cycle's lengths,
    /// which were large: a failed rank that trusted them would wait for
    /// direct blocks nobody sends. Every rank's second `wait` returns
    /// `InvalidLayout`.
    #[test]
    fn a_failed_cycle_waits_for_no_block_an_earlier_cycle_announced() {
        for (p, row) in [(4, AlgoClass::AllgatherRd), (5, AlgoClass::AllgatherBruck)] {
            // The round-1 sender's first cycle sends each rank its
            // direct block and its header-only round 1; the second
            // cycle's round 1 is its third message to that rank.
            let plan = (0..p).fold(FaultPlan::new(), |plan, r| {
                plan.truncate_message(round_one_sender(row, p, r), r, None, 3, 4)
            });
            within_deadline(p, plan, move |comm| {
                let me = comm.rank();
                let mut plan = comm.allgatherv_init(&contribution(me, 13000)).unwrap();
                plan.start().unwrap();
                plan.wait().unwrap();
                plan.set_data(&contribution(me, 3)).unwrap();
                plan.start().unwrap();
                let got = plan.wait().map(drop);
                let failed = matches!(got, Err(MpiError::InvalidLayout(_)));
                assert!(failed, "p = {p}, rank {me}: {got:?}");
                drop(plan);
                let all = comm.allgather_vec(&[me as u32]).unwrap();
                assert_eq!(all, (0..p as u32).collect::<Vec<_>>(), "p = {p}, rank {me}");
            });
        }
    }
}
