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
//!
//! One line per (call, tuning); one group per `p ∈ P`; one character
//! per rung of the call's size ladder: the selected class's
//! [`AlgoClass::index`] in base 36, `-` where the call takes no
//! decision. Set `SELECTION_GRID_PRINT=1` to print the grid instead of
//! checking it.

use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::{
    non_commutative, AlgoClass, AllgatherAlgo, AllreduceAlgo, AlltoallAlgo, BcastAlgo, CollTuning,
    Comm, NeighborhoodAlgo, NeighborhoodColl, ReduceAlgo, Universe,
};

const P: [usize; 7] = [1, 2, 3, 4, 6, 8, 16];

/// Sizes straddling one default threshold by a byte, plus a tiny one.
fn ladder(threshold: usize) -> Vec<usize> {
    vec![1, threshold - 1, threshold, threshold + 1]
}

/// Degrees straddling the dense switch-over (90 % of `p - 1`), plus the
/// sparsest and the complete circulant graph.
fn degrees(p: usize) -> Vec<usize> {
    let full = p.saturating_sub(1).max(1);
    let threshold = (90 * p.saturating_sub(1)).div_ceil(100).max(1);
    let mut d = vec![1, threshold.saturating_sub(1).max(1), threshold, full];
    d.dedup();
    d
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
            ladder(128 << 10),
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
            ladder(128 << 10),
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
            ladder(128 << 10),
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
            ladder(8 << 10),
            allgather_slot.clone(),
        ),
        (
            ("iallgather", |c, s| {
                c.iallgather(&vec![1u8; s]).unwrap().wait().unwrap();
            }),
            ladder(8 << 10),
            allgather_slot.clone(),
        ),
        (
            ("allgather_init", |c, s| {
                c.allgather_init(&vec![1u8; s]).unwrap();
            }),
            vec![1, 8 << 10],
            allgather_slot.clone(),
        ),
        (
            // `s` is the total of uneven counts, which selects the row.
            ("allgatherv(counted)", |c, s| {
                let p = c.size();
                let counts: Vec<usize> = (0..p).map(|r| s / p + usize::from(r < s % p)).collect();
                let displs = displacements_from_counts(&counts);
                let mine = vec![1u8; counts[c.rank()]];
                c.allgatherv_into(&mine, &mut vec![0u8; s], &counts, &displs)
                    .unwrap();
            }),
            ladder(8 << 10),
            allgather_slot.clone(),
        ),
        (
            // Self-sizing: rank `r` contributes `s + r` bytes, a size no
            // other rank knows, so the row cannot depend on it.
            ("allgatherv(self-sizing)", |c, s| {
                c.allgatherv_vec(&vec![1u8; s + c.rank()]).unwrap();
            }),
            ladder(8 << 10),
            allgather_slot.clone(),
        ),
        (
            ("iallgatherv", |c, s| {
                let req = c.iallgatherv(&vec![1u8; s + c.rank()]).unwrap();
                req.wait().unwrap();
            }),
            ladder(8 << 10),
            allgather_slot.clone(),
        ),
        (
            ("allgatherv_init", |c, s| {
                c.allgatherv_init(&vec![1u8; s + c.rank()]).unwrap();
            }),
            vec![1, 8 << 10],
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
        // Neighborhood exchanges: the ladder is the degree of a
        // circulant graph (rank r sends to r+1 ..= r+d), plus one
        // topology with a duplicate neighbor (dense-ineligible).
        let base = CollTuning::default();
        let tunings = [
            ("default", base),
            ("driven_cold", base.self_tuning()),
            ("sparse", base.neighborhood(NeighborhoodAlgo::Sparse)),
            ("dense", base.neighborhood(NeighborhoodAlgo::Dense)),
        ];
        let me = comm.rank();
        let mut graphs: Vec<(Vec<usize>, Vec<usize>)> = degrees(p)
            .into_iter()
            .map(|d| {
                (
                    (1..=d).map(|k| (me + p - k % p) % p).collect(),
                    (1..=d).map(|k| (me + k) % p).collect(),
                )
            })
            .collect();
        graphs.push((vec![(me + p - 1) % p; 2], vec![(me + 1) % p; 2]));
        let graphs: Vec<_> = graphs
            .iter()
            .map(|(src, dst)| comm.create_dist_graph_adjacent(src, dst).unwrap())
            .collect();
        for (tname, tuning) in tunings {
            let mut groups = [Vec::new(), Vec::new(), Vec::new()];
            for g in &graphs {
                let d = g.destinations().len();
                let c = g.comm();
                groups[0].push(cell(c, tuning, || {
                    g.neighbor_alltoall_vecs(&vec![vec![1u8]; d]).unwrap();
                }));
                groups[1].push(cell(c, tuning, || {
                    let req = g.ineighbor_alltoallv(&vec![1u8; d], &vec![1; d]).unwrap();
                    req.wait().unwrap();
                }));
                groups[2].push(cell(c, tuning, || {
                    g.neighbor_alltoallv_init(&vec![1u8; d], &vec![1; d])
                        .unwrap();
                }));
            }
            for (name, group) in [
                "neighbor_alltoall",
                "ineighbor_alltoallv",
                "neighbor_alltoallv_init",
            ]
            .iter()
            .zip(groups)
            {
                out.push((format!("{name} {tname}"), group.join(",")));
            }
        }
        out
    });
    // Selection is symmetric — except in `bcast_vec`, where only the
    // root selects and its choice travels as the message's shape.
    for (rank, other) in per_rank.iter().enumerate().skip(1) {
        for (theirs, root) in other.iter().zip(&per_rank[0]) {
            if root.0.starts_with("bcast_vec") {
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
    "allreduce default | -,-,-,- 0,0,0,0 0,0,0,0 0,0,1,1 0,0,1,1 0,0,1,1 0,0,1,1",
    "allreduce driven_cold | -,-,-,- 0,0,0,0 0,0,0,0 0,0,1,1 0,0,1,1 0,0,1,1 0,0,1,1",
    "allreduce recursive_doubling | -,-,-,- 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0",
    "allreduce rabenseifner | -,-,-,- 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1",
    "allreduce(non-commutative) default | - - - - - - -",
    "allreduce(non-commutative) driven_cold | - - - - - - -",
    "allreduce(non-commutative) recursive_doubling | - - - - - - -",
    "allreduce(non-commutative) rabenseifner | - - - - - - -",
    "iallreduce default | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,1,1 0,0,1,1 0,0,1,1",
    "iallreduce driven_cold | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,1,1 0,0,1,1 0,0,1,1",
    "iallreduce recursive_doubling | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0 0,0,0,0",
    "iallreduce rabenseifner | 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1 1,1,1,1",
    "iallreduce(non-commutative) default | - - - - - - -",
    "iallreduce(non-commutative) driven_cold | - - - - - - -",
    "iallreduce(non-commutative) recursive_doubling | - - - - - - -",
    "iallreduce(non-commutative) rabenseifner | - - - - - - -",
    "allreduce_init default | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,1,1 0,0,1,1 0,0,1,1",
    "allreduce_init driven_cold | 0,0,0,0 0,0,0,0 0,0,0,0 0,0,1,1 0,0,1,1 0,0,1,1 0,0,1,1",
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
    "ibcast default | -,- -,- -,- -,- -,- -,- -,-",
    "ibcast driven_cold | -,- -,- -,- -,- -,- -,- -,-",
    "ibcast binomial | -,- -,- -,- -,- -,- -,- -,-",
    "ibcast scatter_allgather | -,- -,- -,- -,- -,- -,- -,-",
    "bcast_init default | 2,2 2,2 2,2 2,2 2,2 2,2 2,2",
    "bcast_init driven_cold | 2,2 2,2 2,2 2,2 2,2 2,2 2,2",
    "bcast_init binomial | 2,2 2,2 2,2 2,2 2,2 2,2 2,2",
    "bcast_init scatter_allgather | 2,2 2,2 2,2 2,2 2,2 2,2 2,2",
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
    "neighbor_alltoall default | b,b c,b b,c,b b,b,c,b b,b,c,b b,b,c,b b,b,c,c,b",
    "ineighbor_alltoallv default | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoallv_init default | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoall driven_cold | b,b c,b b,c,b b,b,c,b b,b,c,b b,b,c,b b,b,c,c,b",
    "ineighbor_alltoallv driven_cold | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoallv_init driven_cold | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoall sparse | b,b b,b b,b,b b,b,b,b b,b,b,b b,b,b,b b,b,b,b,b",
    "ineighbor_alltoallv sparse | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoallv_init sparse | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoall dense | c,b c,b c,c,b c,c,c,b c,c,c,b c,c,c,b c,c,c,c,b",
    "ineighbor_alltoallv dense | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
    "neighbor_alltoallv_init dense | -,- -,- -,-,- -,-,-,- -,-,-,- -,-,-,- -,-,-,-,-",
];
