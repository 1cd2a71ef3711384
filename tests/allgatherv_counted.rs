//! The counted `allgatherv` against a sequential oracle, and the
//! log-round allgathers' error path.
//!
//! Counts every rank passes identically are the agreed layout that the
//! `allgather/*` rows carve their rounds by, so their mean block (the
//! total over `p`) selects the row: recursive doubling or Bruck at or
//! below the per-rank allgather ceiling, `ALLGATHER_MAX_BYTES`, the
//! eager fan-out above it.
//! The grid checks every row of both entry points — the substrate's
//! `allgatherv_into` and the binding's `allgatherv` with `recv_counts` —
//! over uneven counts with zeros and displacements with gaps, and reads
//! back which row ran. The no-hang tests break the layout on purpose:
//! every rank must come back before a deadline, with the oracle's result
//! or a typed error, and the communicator must stay usable.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use kamping_repro::kamping::prelude::*;
use kamping_repro::mpi::collectives::algos::ALLGATHER_MAX_BYTES;
use kamping_repro::mpi::collectives::displacements_from_counts;
use kamping_repro::mpi::{AlgoClass, AllgatherAlgo, CollTuning, Comm, MpiError, Universe};

/// Element counts of the grid: uneven, with zeros.
fn uneven_counts(p: usize) -> Vec<usize> {
    (0..p).map(|r| (r * 5 + 2) % 4).collect()
}

/// Rank `r`'s contribution of `n` elements, distinct across ranks.
fn contribution(r: usize, n: usize) -> Vec<u16> {
    (0..n).map(|i| (r * 100 + i) as u16).collect()
}

/// What an `allgatherv` delivers: every contribution, in rank order.
fn concatenation(counts: &[usize]) -> Vec<u16> {
    (counts.iter().enumerate())
        .flat_map(|(r, &n)| contribution(r, n))
        .collect()
}

/// Displacements with a one-element gap before every block.
fn gapped(counts: &[usize]) -> Vec<usize> {
    let mut at = 0;
    (counts.iter().enumerate())
        .map(|(r, &n)| {
            let displ = at + r + 1;
            at += n;
            displ
        })
        .collect()
}

/// Which `allgather/*` row a call selected, read off the tuning stats.
fn row_of(comm: &Comm, call: impl FnOnce()) -> AlgoClass {
    let before = comm.tuning_stats().selections;
    call();
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
    picked[0]
}

/// The latency row that serves `p` ranks: recursive doubling on powers
/// of two, Bruck elsewhere.
fn latency_row(p: usize) -> AlgoClass {
    if p.is_power_of_two() {
        AlgoClass::AllgatherRd
    } else {
        AlgoClass::AllgatherBruck
    }
}

/// The uneven counts topped up to `total` elements, spread evenly.
fn scaled_counts(p: usize, total: usize) -> Vec<usize> {
    let mut counts = uneven_counts(p);
    let share = (total - counts.iter().sum::<usize>()) / p;
    counts.iter_mut().for_each(|n| *n += share);
    counts[p - 1] += total - counts.iter().sum::<usize>();
    counts
}

#[test]
fn counted_allgatherv_matches_the_oracle_under_every_row() {
    for p in (1..=9).chain([16]) {
        Universe::run(p, move |comm| {
            let kc = Communicator::new(comm);
            let raw = kc.raw();
            let base = CollTuning::default();
            let bruck_row = if p >= 2 {
                AlgoClass::AllgatherBruck
            } else {
                AlgoClass::AllgatherRing
            };
            let auto_row = if p >= 4 {
                latency_row(p)
            } else {
                AlgoClass::AllgatherRing
            };
            let rd_row = match p {
                2.. if p.is_power_of_two() => AlgoClass::AllgatherRd,
                _ => AlgoClass::AllgatherRing,
            };
            // `u16` counts whose mean block is the ceiling, and one
            // element more: the mean, rounded up, is above it.
            let at_ceiling = p * ALLGATHER_MAX_BYTES / 2;
            let layouts = [
                ("uneven", uneven_counts(p), auto_row),
                (
                    "mean block at the ceiling",
                    scaled_counts(p, at_ceiling),
                    auto_row,
                ),
                (
                    "mean block above the ceiling",
                    scaled_counts(p, at_ceiling + 1),
                    AlgoClass::AllgatherRing,
                ),
            ];
            for (layout, counts, auto) in layouts {
                let displs = gapped(&counts);
                let mine = contribution(kc.rank(), counts[kc.rank()]);
                let oracle = concatenation(&counts);
                let mut placed = vec![u16::MAX; displs[p - 1] + counts[p - 1] + 1];
                for (r, &d) in displs.iter().enumerate() {
                    placed[d..d + counts[r]].copy_from_slice(&contribution(r, counts[r]));
                }
                let cases = [
                    (
                        "ring",
                        base.allgather(AllgatherAlgo::Ring),
                        AlgoClass::AllgatherRing,
                    ),
                    (
                        "rd",
                        base.allgather(AllgatherAlgo::RecursiveDoubling),
                        rd_row,
                    ),
                    ("bruck", base.allgather(AllgatherAlgo::Bruck), bruck_row),
                    ("auto", base, auto),
                ];
                for (name, tuning, row) in cases {
                    let at = format!("p = {p}, rank {}, {layout}, {name}", kc.rank());
                    raw.set_tuning(tuning);
                    let mut recv = vec![u16::MAX; placed.len()];
                    let ran = row_of(raw, || {
                        raw.allgatherv_into(&mine, &mut recv, &counts, &displs)
                            .unwrap()
                    });
                    assert_eq!((ran, &recv), (row, &placed), "allgatherv_into, {at}");
                    let mut got: Vec<u16> = Vec::new();
                    let ran = row_of(raw, || {
                        got = kc
                            .allgatherv((send_buf(&mine), recv_counts(&counts)))
                            .unwrap();
                    });
                    assert_eq!((ran, &got), (row, &oracle), "binding allgatherv, {at}");
                    let mut recv = vec![u16::MAX; placed.len()];
                    let ran = row_of(raw, || {
                        kc.allgatherv((
                            send_buf(&mine),
                            recv_counts(&counts),
                            recv_displs(&displs),
                            recv_buf(&mut recv),
                        ))
                        .unwrap()
                    });
                    assert_eq!((ran, &recv), (row, &placed), "binding, gaps, {at}");
                }
            }
        });
    }
}

/// Runs `f` on `p` ranks and fails the test if any rank has not
/// returned within a few seconds: a rank left waiting on a peer is a
/// hang, reported here rather than by the test runner's timeout.
fn within_deadline<F>(p: usize, f: F)
where
    F: Fn(&Comm) + Send + Sync + 'static,
{
    let (done, deadline) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        Universe::run(p, |comm| f(&comm));
        let _ = done.send(());
    });
    match deadline.recv_timeout(Duration::from_secs(30)) {
        Err(RecvTimeoutError::Timeout) => panic!("p = {p}: a rank is still waiting on its peers"),
        // Returned or panicked: a rank's panic fails the test as itself.
        _ => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// A returned allgather: the oracle's result, or a typed layout error.
fn oracle_or_layout_error<T: PartialEq + std::fmt::Debug>(
    got: Result<T, MpiError>,
    oracle: &T,
    at: &str,
) {
    match got {
        Ok(got) => assert_eq!(&got, oracle, "{at}"),
        Err(e) => assert!(
            matches!(e, MpiError::InvalidLayout(_) | MpiError::Truncated { .. }),
            "{at}: {e:?}"
        ),
    }
}

/// After a broken call, the next collective on the communicator works:
/// nothing of the broken one is left queued or waiting.
fn communicator_still_works(comm: &Comm) {
    let all = comm.allgather_vec(&[comm.rank() as u32]).unwrap();
    assert_eq!(all, (0..comm.size() as u32).collect::<Vec<_>>());
}

/// Unequal contributions to a log-round allgather: the last rank sends
/// two elements, every other rank one. The rank that finds a group of
/// the wrong length keeps posting its remaining rounds, so its partners
/// are served, and reports the error once the schedule is done.
#[test]
fn unequal_contributions_to_a_log_round_allgather_return_on_every_rank() {
    let base = CollTuning::default();
    let tunings = [
        base.allgather(AllgatherAlgo::RecursiveDoubling),
        base.allgather(AllgatherAlgo::Bruck),
        base,
    ];
    for p in [4, 5, 6] {
        for tuning in tunings {
            within_deadline(p, move |comm| {
                comm.set_tuning(tuning);
                let n = |r: usize| if r == p - 1 { 2 } else { 1 };
                let mine = contribution(comm.rank(), n(comm.rank()));
                let oracle = concatenation(&(0..p).map(n).collect::<Vec<_>>());
                let at = format!("p = {p}, rank {}, {tuning:?}", comm.rank());
                oracle_or_layout_error(comm.allgather_vec(&mine), &oracle, &at);
                communicator_still_works(comm);
            });
        }
    }
}

/// One rank's counts disagree with everyone else's — about a peer's
/// block, or about its own — under every row and through both entry
/// points. The totals stay on one side of the ceilings, so every rank
/// selects the same row.
#[test]
fn disagreeing_counts_return_on_every_rank() {
    let base = CollTuning::default();
    let tunings = [
        base.allgather(AllgatherAlgo::Ring),
        base.allgather(AllgatherAlgo::RecursiveDoubling),
        base.allgather(AllgatherAlgo::Bruck),
        base,
    ];
    for p in [4, 5, 6] {
        for tuning in tunings {
            for (odd, about) in [(1, 0), (2, 2)] {
                within_deadline(p, move |comm| {
                    let kc = Communicator::new(comm.dup().unwrap());
                    kc.raw().set_tuning(tuning);
                    let truth = uneven_counts(p);
                    let oracle = concatenation(&truth);
                    let mut counts = truth.clone();
                    if comm.rank() == odd {
                        counts[about] += 1;
                    }
                    let mine = contribution(comm.rank(), truth[comm.rank()]);
                    let at = format!("p = {p}, rank {}, {tuning:?}", comm.rank());
                    let displs = displacements_from_counts(&counts);
                    let mut recv = vec![0u16; counts.iter().sum()];
                    let substrate = (kc.raw())
                        .allgatherv_into(&mine, &mut recv, &counts, &displs)
                        .map(|()| recv);
                    let binding: Result<Vec<u16>, _> =
                        kc.allgatherv((send_buf(&mine), recv_counts(&counts)));
                    if comm.rank() == odd {
                        let what = "the rank whose counts disagree cannot succeed";
                        assert!(substrate.is_err() && binding.is_err(), "{what}, {at}");
                    }
                    oracle_or_layout_error(substrate, &oracle, &format!("allgatherv_into, {at}"));
                    oracle_or_layout_error(binding, &oracle, &format!("binding, {at}"));
                    communicator_still_works(kc.raw());
                });
            }
        }
    }
}

/// Receive counts that describe no layout — here one entry too many, on
/// every rank — select nothing: the binding's exchange sizes itself and
/// the counts are refused after it, so every rank returns and nothing
/// stays queued.
#[test]
fn counts_of_the_wrong_length_are_refused_after_a_self_sizing_exchange() {
    for p in [4, 5] {
        within_deadline(p, move |comm| {
            let kc = Communicator::new(comm.dup().unwrap());
            let counts = vec![1usize; p + 1];
            let got: Result<Vec<u16>, _> =
                kc.allgatherv((send_buf(&[7u16][..]), recv_counts(&counts)));
            assert!(matches!(got, Err(MpiError::InvalidLayout(_))), "{got:?}");
            communicator_still_works(kc.raw());
        });
    }
}
