//! Golden selection grid: which algorithm serves a call, for every
//! collective × lifecycle × communicator size × message size × tuning —
//! read back through `TuningStats::selections` deltas, so it needs no
//! hook into the selection engine. The literals were recorded on the
//! commit *before* the algorithm table replaced the per-collective
//! selectors; a difference here is a changed decision, i.e. a changed
//! wire protocol. One documented group differs from that recording:
//! blocking `alltoall` at `p = 1` read `-,-,-,-` (it short-circuited
//! before selecting) and now counts its pairwise pick like every other
//! collective does at `p = 1`. A second group was regenerated when one
//! static `Auto` rule came to serve every lifecycle: the `iallreduce`,
//! `allreduce_init` (now under the allreduce slot), `iallgather`,
//! `allgather_init` and `ialltoall` lines read like their blocking
//! twins. The counted `allgatherv` lines were added when its counts'
//! total came to select the `allgather/*` row; their ladder is that
//! total, and they read like
//! the equal-block `allgather`'s. The self-sizing lines (`allgatherv`
//! without counts, `iallgatherv`, `allgatherv_init`) were added when
//! those forms came to learn their layout in the latency rows' rounds:
//! no rank knows the sizes, so their rows read the same on every rung.
//! The `ibcast` and `bcast_init` lines were regenerated when the
//! self-sizing broadcast came to let its root select (its non-roots
//! learn the row from the wire and take no decision): they read like
//! the blocking `bcast_vec` on the root, where `ibcast` used to select
//! nothing and `bcast_init` always froze the tree. The ladders were
//! moved onto the per-rank thresholds when one allgather ceiling of
//! 12 KiB per rank came to serve every form (the counted `allgatherv`'s
//! rung is now its mean block) and Rabenseifner's allreduce came to
//! start at 64 KiB on powers of two: every line reads as before but the
//! `p = 6` allreduce groups, where the rule asks twice the size off
//! powers of two, so the 64 KiB rungs stay on recursive doubling.
//!
//! One line per (call, tuning); one group per `p ∈ P`; one character
//! per rung of the call's size ladder: the selected class's
//! [`AlgoClass::index`] in base 36, `-` where the call takes no
//! decision. Set `SELECTION_GRID_PRINT=1` to print the grid instead of
//! checking it.

use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{
    non_commutative, AlgoClass, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning,
    Comm, ReduceAlgo, Universe,
};

const P: [usize; 7] = [1, 2, 3, 4, 6, 8, 16];

/// Sizes straddling one default threshold by a byte, plus a tiny one.
fn ladder(threshold: usize) -> Vec<usize> {
    vec![1, threshold - 1, threshold, threshold + 1]
}

/// Runs `call` under `tuning` on a cold model and names what it
/// selected.
fn cell(comm: &Comm, tuning: CollTuning, call: impl FnOnce()) -> String {
    comm.set_tuning(tuning);
    comm.reset_model();
    let before = comm.tuning_stats().selections;
    call();
    let after = comm.tuning_stats().selections;
    comm.set_tuning(CollTuning::default());
    let picked: String = AlgoClass::ALL
        .iter()
        .flat_map(|c| {
            let n = (after[c.index()] - before[c.index()]) as usize;
            std::iter::repeat_n(char::from_digit(c.index() as u32, 36).unwrap(), n)
        })
        .collect();
    if picked.is_empty() {
        "-".into()
    } else {
        picked
    }
}

fn sum(a: &u8, b: &u8) -> u8 {
    a.wrapping_add(*b)
}

type Call = (&'static str, fn(&Comm, usize));
type Tunings = Vec<(&'static str, CollTuning)>;

/// Every selecting entry point, as a call over `size` payload bytes
/// (contribution bytes; block bytes for alltoall), with its size ladder
/// and the tunings it is asked under.
fn sized_calls() -> Vec<(Call, Vec<usize>, Tunings)> {
    let base = CollTuning::default();
    let driven = ("driven_cold", base.self_tuning());
    let reduce_slot = vec![
        ("default", base),
        driven,
        ("binomial_tree", base.reduce(ReduceAlgo::BinomialTree)),
        ("flat_gather", base.reduce(ReduceAlgo::FlatGather)),
    ];
    let allreduce_slot = vec![
        ("default", base),
        driven,
        (
            "recursive_doubling",
            base.allreduce(AllreduceAlgo::RecursiveDoubling),
        ),
        ("rabenseifner", base.allreduce(AllreduceAlgo::Rabenseifner)),
    ];
    let bcast_slot = vec![
        ("default", base),
        driven,
        ("binomial", base.bcast(BcastAlgo::Binomial)),
        ("scatter_allgather", base.bcast(BcastAlgo::ScatterAllgather)),
    ];
    let allgather_slot = vec![
        ("default", base),
        driven,
        ("ring", base.allgather(AllgatherAlgo::Ring)),
        (
            "recursive_doubling",
            base.allgather(AllgatherAlgo::RecursiveDoubling),
        ),
        ("bruck", base.allgather(AllgatherAlgo::Bruck)),
    ];
    let alltoall_slot = vec![
        ("default", base),
        driven,
        ("pairwise", base.alltoall(AlltoallAlgo::Pairwise)),
        ("bruck", base.alltoall(AlltoallAlgo::Bruck)),
    ];
    vec![
        (
            ("allreduce", |c, s| {
                c.allreduce_vec(vec![1u8; s], sum).unwrap();
            }),
            ladder(64 << 10),
            allreduce_slot.clone(),
        ),
        (
            ("allreduce(non-commutative)", |c, s| {
                c.allreduce_vec(vec![1u8; s], non_commutative(sum)).unwrap();
            }),
            vec![1],
            allreduce_slot.clone(),
        ),
        (
            ("iallreduce", |c, s| {
                c.iallreduce(&vec![1u8; s], sum).unwrap().wait().unwrap();
            }),
            ladder(64 << 10),
            allreduce_slot.clone(),
        ),
        (
            ("iallreduce(non-commutative)", |c, s| {
                let req = c.iallreduce(&vec![1u8; s], non_commutative(sum)).unwrap();
                req.wait().unwrap();
            }),
            vec![1],
            allreduce_slot.clone(),
        ),
        (
            ("allreduce_init", |c, s| {
                c.allreduce_init(&vec![1u8; s], sum).unwrap();
            }),
            ladder(64 << 10),
            allreduce_slot,
        ),
        (
            ("bcast_into", |c, s| {
                c.bcast_into(&mut vec![1u8; s], 0).unwrap();
            }),
            ladder(256 << 10),
            bcast_slot.clone(),
        ),
        (
            ("bcast_vec", |c, s| {
                let data = vec![1u8; s];
                c.bcast_vec((c.rank() == 0).then_some(&data[..]), 0)
                    .unwrap();
            }),
            ladder(256 << 10),
            bcast_slot.clone(),
        ),
        (
            ("ibcast", |c, s| {
                let data = vec![1u8; s];
                let req = c.ibcast((c.rank() == 0).then_some(&data[..]), 0).unwrap();
                req.wait().unwrap();
            }),
            vec![1, 256 << 10],
            bcast_slot.clone(),
        ),
        (
            ("bcast_init", |c, s| {
                let data = vec![1u8; s];
                c.bcast_init((c.rank() == 0).then_some(&data[..]), 0)
                    .unwrap();
            }),
            vec![1, 256 << 10],
            bcast_slot,
        ),
        (
            ("allgather", |c, s| {
                c.allgather_vec(&vec![1u8; s]).unwrap();
            }),
            ladder(12 << 10),
            allgather_slot.clone(),
        ),
        (
            ("iallgather", |c, s| {
                c.iallgather(&vec![1u8; s]).unwrap().wait().unwrap();
            }),
            ladder(12 << 10),
            allgather_slot.clone(),
        ),
        (
            ("allgather_init", |c, s| {
                c.allgather_init(&vec![1u8; s]).unwrap();
            }),
            vec![1, 12 << 10],
            allgather_slot.clone(),
        ),
        (
            // `s` is the mean block of uneven counts, which selects the
            // row: pairs of ranks hold `s + 1` and `s - 1`.
            ("allgatherv(counted)", |c, s| {
                let p = c.size();
                let count = |r: usize| match r % 2 {
                    0 if r + 1 < p => s + 1,
                    1 => s - 1,
                    _ => s,
                };
                let counts: Vec<usize> = (0..p).map(count).collect();
                let displs = displacements_from_counts(&counts);
                let mine = vec![1u8; counts[c.rank()]];
                c.allgatherv_into(&mine, &mut vec![0u8; s * p], &counts, &displs)
                    .unwrap();
            }),
            ladder(12 << 10),
            allgather_slot.clone(),
        ),
        (
            // Self-sizing: rank `r` contributes `s + r` bytes, a size no
            // other rank knows, so the row cannot depend on it.
            ("allgatherv(self-sizing)", |c, s| {
                c.allgatherv_vec(&vec![1u8; s + c.rank()]).unwrap();
            }),
            ladder(12 << 10),
            allgather_slot.clone(),
        ),
        (
            ("iallgatherv", |c, s| {
                let req = c.iallgatherv(&vec![1u8; s + c.rank()]).unwrap();
                req.wait().unwrap();
            }),
            ladder(12 << 10),
            allgather_slot.clone(),
        ),
        (
            ("allgatherv_init", |c, s| {
                c.allgatherv_init(&vec![1u8; s + c.rank()]).unwrap();
            }),
            vec![1, 12 << 10],
            allgather_slot,
        ),
        (
            ("alltoall", |c, s| {
                let send = vec![1u8; s * c.size()];
                c.alltoall_into(&send, &mut vec![0u8; s * c.size()])
                    .unwrap();
            }),
            ladder(1 << 10),
            alltoall_slot.clone(),
        ),
        (
            ("ialltoall", |c, s| {
                let send = vec![1u8; s * c.size()];
                c.ialltoall(&send).unwrap().wait().unwrap();
            }),
            ladder(1 << 10),
            alltoall_slot.clone(),
        ),
        (
            ("alltoallv_init", |c, s| {
                let send = vec![1u8; s * c.size()];
                c.alltoallv_init(&send, &vec![s; c.size()]).unwrap();
            }),
            vec![1, 1 << 10],
            alltoall_slot,
        ),
        (
            ("reduce", |c, s| {
                c.reduce_vec(&vec![1u8; s][..], sum, 0).unwrap();
            }),
            vec![1, 128 << 10],
            reduce_slot.clone(),
        ),
        (
            ("reduce(non-commutative)", |c, s| {
                c.reduce_vec(&vec![1u8; s][..], non_commutative(sum), 0)
                    .unwrap();
            }),
            vec![1],
            reduce_slot.clone(),
        ),
        (
            ("ireduce", |c, s| {
                c.ireduce(&vec![1u8; s], sum, 0).unwrap().wait().unwrap();
            }),
            vec![1, 128 << 10],
            reduce_slot.clone(),
        ),
        (
            ("ireduce(non-commutative)", |c, s| {
                let req = c.ireduce(&vec![1u8; s], non_commutative(sum), 0).unwrap();
                req.wait().unwrap();
            }),
            vec![1],
            reduce_slot,
        ),
    ]
}

/// The grid of one communicator size: `(line key, group)` pairs in a
/// fixed order.
fn grid_at(p: usize) -> Vec<(String, String)> {
    let per_rank = Universe::run(p, move |comm| {
        let mut out: Vec<(String, String)> = Vec::new();
        for ((name, call), sizes, tunings) in sized_calls() {
            for (tname, tuning) in tunings {
                let group: Vec<String> = sizes
                    .iter()
                    .map(|&s| cell(&comm, tuning, || call(&comm, s)))
                    .collect();
                out.push((format!("{name} {tname}"), group.join(",")));
            }
        }
        out
    });
    // Selection is symmetric — except in the self-sizing broadcasts,
    // where only the root selects and names its row on the wire.
    let self_sizing = ["bcast_vec", "ibcast", "bcast_init"];
    for (rank, other) in per_rank.iter().enumerate().skip(1) {
        for (theirs, root) in other.iter().zip(&per_rank[0]) {
            if self_sizing.iter().any(|call| root.0.starts_with(call)) {
                assert!(theirs.1.chars().all(|c| "-,".contains(c)), "{theirs:?}");
            } else {
                assert_eq!(theirs, root, "rank {rank} disagrees at p = {p}");
            }
        }
    }
    per_rank.into_iter().next().unwrap()
}

fn grid() -> Vec<String> {
    let per_p: Vec<_> = P.iter().map(|&p| grid_at(p)).collect();
    (0..per_p[0].len())
        .map(|i| {
            let groups: Vec<&str> = per_p.iter().map(|g| g[i].1.as_str()).collect();
            format!("{} | {}", per_p[0][i].0, groups.join(" "))
        })
        .collect()
}

#[test]
fn golden_selection_grid() {
    let got = grid();
    if std::env::var_os("SELECTION_GRID_PRINT").is_some() {
        for line in &got {
            println!("    \"{line}\",");
        }
        return;
    }
    assert_eq!(got.len(), GOLDEN.len(), "grid shape changed");
    let changed: Vec<_> = got.iter().zip(GOLDEN).filter(|(g, w)| g != w).collect();
    assert!(changed.is_empty(), "(got, golden): {changed:#?}");
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "allreduce default | -,-,-,- 0,0,0,0 0,0,0,0 0,0,1,1 0,0,0,0 0,0,1,1 0,0,1,1",
    "allreduce driven_cold | -,-,-,- 0,0,0,0 0,0,0,0 0,0,1,1 0,0,0,0 0,0,1,1 0,0,1,1",
    "allreduce recursive_doubling | -,-,-,- 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0",
    "allreduce rabenseifner | -,-,-,- 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1",
    "allreduce(non-commutative) default | - - - - - - -",
    "allreduce(non-commutative) driven_cold | - - - - - - -",
    "allreduce(non-commutative) recursive_doubling | - - - - - - -",
    "allreduce(non-commutative) rabenseifner | - - - - - - -",
    "iallreduce default | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,0,0 0,0,1,1 0,0,1,1",
    "iallreduce driven_cold | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,0,0 0,0,1,1 0,0,1,1",
    "iallreduce recursive_doubling | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0",
    "iallreduce rabenseifner | 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1",
    "iallreduce(non-commutative) default | - - - - - - -",
    "iallreduce(non-commutative) driven_cold | - - - - - - -",
    "iallreduce(non-commutative) recursive_doubling | - - - - - - -",
    "iallreduce(non-commutative) rabenseifner | - - - - - - -",
    "allreduce_init default | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,0,0 0,0,1,1 0,0,1,1",
    "allreduce_init driven_cold | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,0,0 0,0,1,1 0,0,1,1",
    "allreduce_init recursive_doubling | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0",
    "allreduce_init rabenseifner | 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1",
    "bcast_into default | 2,2,2,2 2,2,2,2 2,2,2,2 2,2,3,3 2,2,3,3 2,2,3,3 2,2,3,3",
    "bcast_into driven_cold | 2,2,2,2 2,2,2,2 2,2,2,2 2,2,3,3 2,2,3,3 2,2,3,3 2,2,3,3",
    "bcast_into binomial | 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2",
    "bcast_into scatter_allgather | 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3",
    "bcast_vec default | 2,2,2,2 2,2,2,2 2,2,2,2 2,2,3,3 2,2,3,3 2,2,3,3 2,2,3,3",
    "bcast_vec driven_cold | 2,2,2,2 2,2,2,2 2,2,2,2 2,2,3,3 2,2,3,3 2,2,3,3 2,2,3,3",
    "bcast_vec binomial | 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2 2,2,2,2",
    "bcast_vec scatter_allgather | 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3 3,3,3,3",
    "ibcast default | 2,2 2,2 2,2 2,3 2,3 2,3 2,3",
    "ibcast driven_cold | 2,2 2,2 2,2 2,3 2,3 2,3 2,3",
    "ibcast binomial | 2,2 2,2 2,2 2,2 2,2 2,2 2,2",
    "ibcast scatter_allgather | 3,3 3,3 3,3 3,3 3,3 3,3 3,3",
    "bcast_init default | 2,2 2,2 2,2 2,3 2,3 2,3 2,3",
    "bcast_init driven_cold | 2,2 2,2 2,2 2,3 2,3 2,3 2,3",
    "bcast_init binomial | 2,2 2,2 2,2 2,2 2,2 2,2 2,2",
    "bcast_init scatter_allgather | 3,3 3,3 3,3 3,3 3,3 3,3 3,3",
    "allgather default | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,4 6,6,6,4 5,5,5,4 5,5,5,4",
    "allgather driven_cold | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,4 6,6,6,4 5,5,5,4 5,5,5,4",
    "allgather ring | 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4",
    "allgather recursive_doubling | 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 5,5,5,5",
    "allgather bruck | 4,4,4,4 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6",
    "iallgather default | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,4 6,6,6,4 5,5,5,4 5,5,5,4",
    "iallgather driven_cold | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,4 6,6,6,4 5,5,5,4 5,5,5,4",
    "iallgather ring | 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4",
    "iallgather recursive_doubling | 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 5,5,5,5",
    "iallgather bruck | 4,4,4,4 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6",
    "allgather_init default | 4,4 4,4 4,4 5,5 6,6 5,5 5,5",
    "allgather_init driven_cold | 4,4 4,4 4,4 5,5 6,6 5,5 5,5",
    "allgather_init ring | 4,4 4,4 4,4 4,4 4,4 4,4 4,4",
    "allgather_init recursive_doubling | 4,4 5,5 4,4 5,5 4,4 5,5 5,5",
    "allgather_init bruck | 4,4 6,6 6,6 6,6 6,6 6,6 6,6",
    "allgatherv(counted) default | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,4 6,6,6,4 5,5,5,4 5,5,5,4",
    "allgatherv(counted) driven_cold | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,4 6,6,6,4 5,5,5,4 5,5,5,4",
    "allgatherv(counted) ring | 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4",
    "allgatherv(counted) recursive_doubling | 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 5,5,5,5",
    "allgatherv(counted) bruck | 4,4,4,4 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6",
    "allgatherv(self-sizing) default | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,5 6,6,6,6 5,5,5,5 5,5,5,5",
    "allgatherv(self-sizing) driven_cold | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,5 6,6,6,6 5,5,5,5 5,5,5,5",
    "allgatherv(self-sizing) ring | 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4",
    "allgatherv(self-sizing) recursive_doubling | 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 5,5,5,5",
    "allgatherv(self-sizing) bruck | 4,4,4,4 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6",
    "iallgatherv default | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,5 6,6,6,6 5,5,5,5 5,5,5,5",
    "iallgatherv driven_cold | 4,4,4,4 4,4,4,4 4,4,4,4 5,5,5,5 6,6,6,6 5,5,5,5 5,5,5,5",
    "iallgatherv ring | 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4 4,4,4,4",
    "iallgatherv recursive_doubling | 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 4,4,4,4 5,5,5,5 5,5,5,5",
    "iallgatherv bruck | 4,4,4,4 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6 6,6,6,6",
    "allgatherv_init default | 4,4 4,4 4,4 5,5 6,6 5,5 5,5",
    "allgatherv_init driven_cold | 4,4 4,4 4,4 5,5 6,6 5,5 5,5",
    "allgatherv_init ring | 4,4 4,4 4,4 4,4 4,4 4,4 4,4",
    "allgatherv_init recursive_doubling | 4,4 5,5 4,4 5,5 4,4 5,5 5,5",
    "allgatherv_init bruck | 4,4 6,6 6,6 6,6 6,6 6,6 6,6",
    "alltoall default | 7,7,7,7 7,7,7,7 7,7,7,7 8,8,8,7 8,8,8,7 8,8,8,7 8,8,8,7",
    "alltoall driven_cold | 7,7,7,7 7,7,7,7 7,7,7,7 8,8,8,7 8,8,8,7 8,8,8,7 8,8,8,7",
    "alltoall pairwise | 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7",
    "alltoall bruck | 7,7,7,7 8,8,8,8 8,8,8,8 8,8,8,8 8,8,8,8 8,8,8,8 8,8,8,8",
    "ialltoall default | 7,7,7,7 7,7,7,7 7,7,7,7 8,8,8,7 8,8,8,7 8,8,8,7 8,8,8,7",
    "ialltoall driven_cold | 7,7,7,7 7,7,7,7 7,7,7,7 8,8,8,7 8,8,8,7 8,8,8,7 8,8,8,7",
    "ialltoall pairwise | 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7 7,7,7,7",
    "ialltoall bruck | 7,7,7,7 8,8,8,8 8,8,8,8 8,8,8,8 8,8,8,8 8,8,8,8 8,8,8,8",
    "alltoallv_init default | 7,7 7,7 7,7 7,7 7,7 7,7 7,7",
    "alltoallv_init driven_cold | 7,7 7,7 7,7 7,7 7,7 7,7 7,7",
    "alltoallv_init pairwise | 7,7 7,7 7,7 7,7 7,7 7,7 7,7",
    "alltoallv_init bruck | 7,7 7,7 7,7 7,7 7,7 7,7 7,7",
    "reduce default | 9,9 9,9 9,9 9,9 9,9 9,9 9,9",
    "reduce driven_cold | 9,9 9,9 9,9 9,9 9,9 9,9 9,9",
    "reduce binomial_tree | 9,9 9,9 9,9 9,9 9,9 9,9 9,9",
    "reduce flat_gather | a,a a,a a,a a,a a,a a,a a,a",
    "reduce(non-commutative) default | a a a a a a a",
    "reduce(non-commutative) driven_cold | a a a a a a a",
    "reduce(non-commutative) binomial_tree | a a a a a a a",
    "reduce(non-commutative) flat_gather | a a a a a a a",
    "ireduce default | a,a a,a a,a a,a a,a a,a a,a",
    "ireduce driven_cold | a,a a,a a,a a,a a,a a,a a,a",
    "ireduce binomial_tree | 9,9 9,9 9,9 9,9 9,9 9,9 9,9",
    "ireduce flat_gather | a,a a,a a,a a,a a,a a,a a,a",
    "ireduce(non-commutative) default | a a a a a a a",
    "ireduce(non-commutative) driven_cold | a a a a a a a",
    "ireduce(non-commutative) binomial_tree | a a a a a a a",
    "ireduce(non-commutative) flat_gather | a a a a a a a",
];

/// Each pick over `sizes` by its capitals (`RecursiveDoubling` → `RD`,
/// `Ring` → `R`), space-separated.
fn picks<A: std::fmt::Debug>(sizes: Vec<usize>, pick: impl Fn(usize) -> A) -> String {
    let initials = |s| -> String {
        let name = format!("{:?}", pick(s));
        name.chars().filter(char::is_ascii_uppercase).collect()
    };
    let picks: Vec<String> = sizes.into_iter().map(initials).collect();
    picks.join(" ")
}

/// Static `Auto` as the default tuning's `*_algo` queries answer it, a
/// byte either side of every threshold — 64 and 128 KiB for allreduce
/// (Rabenseifner's size on and off powers of two), 256 KiB for
/// broadcast, 12 KiB per rank for allgather, 1 KiB blocks for
/// all-to-all — at communicator sizes on and off powers of two. The lines were
/// recorded while the thresholds were settable fields of `CollTuning`,
/// before they became constants; a difference is a moved pick.
#[test]
fn static_auto_picks_around_every_threshold() {
    let t = CollTuning::default();
    let around = |thresholds: &[usize]| -> Vec<usize> {
        thresholds.iter().flat_map(|&c| [c - 1, c, c + 1]).collect()
    };
    let mut got = Vec::new();
    for p in [2usize, 3, 4, 5, 8, 12, 16] {
        let (ar, bc) = (around(&[64 << 10, 128 << 10]), around(&[256 << 10]));
        let (ag, aa) = (around(&[12 << 10]), around(&[1 << 10]));
        let lines = [
            ("allreduce", picks(ar, |s| t.allreduce_algo(p, s))),
            ("bcast", picks(bc, |s| t.bcast_algo(p, s))),
            ("allgather", picks(ag, |s| t.allgather_algo(p, s))),
            ("alltoall", picks(aa, |s| t.alltoall_algo(p, s))),
        ];
        got.extend(lines.map(|(name, picks)| format!("{name} p={p}: {picks}")));
    }
    if std::env::var_os("SELECTION_GRID_PRINT").is_some() {
        for line in &got {
            println!("    \"{line}\",");
        }
        return;
    }
    assert_eq!(got, STATIC_AUTO);
}

#[rustfmt::skip]
const STATIC_AUTO: &[&str] = &[
    "allreduce p=2: RD RD RD RD RD RD",
    "bcast p=2: B B B",
    "allgather p=2: R R R",
    "alltoall p=2: P P P",
    "allreduce p=3: RD RD RD RD RD RD",
    "bcast p=3: B B B",
    "allgather p=3: R R R",
    "alltoall p=3: P P P",
    "allreduce p=4: RD R R R R R",
    "bcast p=4: B SA SA",
    "allgather p=4: RD RD R",
    "alltoall p=4: B B P",
    "allreduce p=5: RD RD RD RD R R",
    "bcast p=5: B SA SA",
    "allgather p=5: B B R",
    "alltoall p=5: B B P",
    "allreduce p=8: RD R R R R R",
    "bcast p=8: B SA SA",
    "allgather p=8: RD RD R",
    "alltoall p=8: B B P",
    "allreduce p=12: RD RD RD RD R R",
    "bcast p=12: B SA SA",
    "allgather p=12: B B R",
    "alltoall p=12: B B P",
    "allreduce p=16: RD R R R R R",
    "bcast p=16: B SA SA",
    "allgather p=16: RD RD R",
    "alltoall p=16: B B P",
];
