//! `coll_blocking`, `coll_nonblocking`, `coll_persistent` — one matrix
//! (`bcast`, `allreduce`, `allgather`, `alltoallv` × three sizes per
//! rank × owned and borrowed send buffers) run in each request
//! lifecycle, each against the substrate twin of the same lifecycle.
//!
//! Why three workloads and not one: they are three uses of the one
//! collectives layer. A schedule or frozen-plan change that buys one
//! lifecycle at another's cost shows as a regression in a named
//! workload instead of cancelling inside an aggregate.

use kamping::prelude::*;
use kmp_mpi::collectives::displacements_from_counts;
use kmp_mpi::request::Completion;
use kmp_mpi::{bytes_from_vec, bytes_into_vec, PersistentRequest};
use rand::prelude::*;

use crate::harness::{intern, Ctx, Phase, Phases, Scale, Verdict, Workload};
use crate::trace::Side;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifecycle {
    /// Blocking calls.
    Blocking,
    /// `i*`, a fixed calibrated compute slice, `wait`.
    Nonblocking,
    /// `*_init` once (in `setup_s`), then `start`/`wait` per round.
    Persistent,
}

pub struct Coll(pub Lifecycle);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Bcast,
    Allreduce,
    Allgather,
    Alltoallv,
}

const OPS: [(Op, &str); 4] = [
    (Op::Bcast, "bcast"),
    (Op::Allreduce, "allreduce"),
    (Op::Allgather, "allgather"),
    (Op::Alltoallv, "alltoallv"),
];

/// Target length of the compute slice between `i*` and `wait`.
const SLICE_NS: u64 = 20_000;

struct Cell {
    name: &'static str,
    op: Op,
    size: usize,
    /// Owned: the caller gives its buffer away (blocking, `i*`) or the
    /// plan keeps replaying its own payload (persistent). Borrowed: the
    /// caller keeps the buffer, so the library copies (or, persistent,
    /// `set_data` refreshes the plan every cycle).
    owned: bool,
}

/// One size of the matrix: every rank's data and the sequential oracle
/// of every operation, all computed from the seed.
struct SizeSet {
    /// `data[rank]`, values below 2^32 so that sums stay exact.
    data: Vec<Vec<u64>>,
    /// `counts[rank][dest]`, summing to the rank's element count.
    counts: Vec<Vec<usize>>,
    allreduce: Vec<u64>,
    allgather: Vec<u64>,
    /// `alltoallv[rank]`: what rank must receive.
    alltoallv: Vec<Vec<u64>>,
}

pub struct Inputs {
    sizes: Vec<SizeSet>,
    cells: Vec<Cell>,
    slice_iters: u64,
}

/// The compute slice: `iters` dependent multiply-adds.
pub fn spin(iters: u64) -> u64 {
    let mut acc = 0x9e37u64;
    for i in 0..iters {
        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    acc
}

/// Iterations of `spin` that take about `SLICE_NS` on this host,
/// single-threaded, best of five.
fn calibrate_slice() -> u64 {
    const PROBE: u64 = 1 << 16;
    let best = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(spin(PROBE));
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(1)
        .max(1);
    (PROBE * SLICE_NS / best).max(1)
}

fn size_set(rng: &mut StdRng, p: usize, bytes: usize) -> SizeSet {
    let n = bytes / 8;
    let data: Vec<Vec<u64>> = (0..p)
        .map(|_| (0..n).map(|_| rng.random_range(0..1u64 << 32)).collect())
        .collect();
    // Uneven blocks: cut points drawn from the seed.
    let counts: Vec<Vec<usize>> = (0..p)
        .map(|_| {
            let mut cuts: Vec<usize> = (0..p - 1).map(|_| rng.random_range(0..=n)).collect();
            cuts.sort_unstable();
            cuts.insert(0, 0);
            cuts.push(n);
            cuts.windows(2).map(|w| w[1] - w[0]).collect()
        })
        .collect();
    let allreduce = (0..n).map(|i| data.iter().map(|d| d[i]).sum()).collect();
    let allgather = data.iter().flatten().copied().collect();
    let alltoallv = (0..p)
        .map(|dest| {
            (0..p)
                .flat_map(|src| {
                    let lo: usize = counts[src][..dest].iter().sum();
                    data[src][lo..lo + counts[src][dest]].iter().copied()
                })
                .collect()
        })
        .collect();
    SizeSet {
        data,
        counts,
        allreduce,
        allgather,
        alltoallv,
    }
}

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MiB", bytes >> 20)
    } else {
        format!("{}KiB", bytes >> 10)
    }
}

impl Workload for Coll {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        match self.0 {
            Lifecycle::Blocking => "coll_blocking",
            Lifecycle::Nonblocking => "coll_nonblocking",
            Lifecycle::Persistent => "coll_persistent",
        }
    }

    fn unit(&self) -> &'static str {
        "payload bytes delivered"
    }

    fn make_inputs(&self, seed: u64, p: usize, scale: Scale) -> Inputs {
        let sizes: [usize; 3] = match scale {
            Scale::Full => [1 << 10, 64 << 10, 1 << 20],
            // An allgather result is p times the contribution on each of
            // p ranks; at p = 16 the largest rung is cut to keep the
            // model run's memory near the measured run's.
            Scale::Model => [1 << 10, 64 << 10, 256 << 10],
            Scale::Smoke => [1 << 10, 8 << 10, 64 << 10],
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc011);
        let mut cells = Vec::new();
        for (op, op_name) in OPS {
            for (size, &bytes) in sizes.iter().enumerate() {
                for owned in [true, false] {
                    let own = if owned { "owned" } else { "borrowed" };
                    cells.push(Cell {
                        name: intern(format!("{op_name}_{}_{own}", human(bytes))),
                        op,
                        size,
                        owned,
                    });
                }
            }
        }
        Inputs {
            sizes: sizes.iter().map(|&b| size_set(&mut rng, p, b)).collect(),
            cells,
            slice_iters: calibrate_slice(),
        }
    }

    fn phases<'a>(&self, inputs: &'a Inputs, kc: &'a Communicator) -> Phases<'a> {
        inputs
            .cells
            .iter()
            .map(|cell| {
                let set = &inputs.sizes[cell.size];
                let mut phase = CollPhase {
                    cell,
                    set,
                    lifecycle: self.0,
                    rank: kc.rank(),
                    p: kc.size(),
                    slice_iters: inputs.slice_iters,
                    moved: None,
                    out: Vec::new(),
                    plans: None,
                };
                if self.0 == Lifecycle::Persistent {
                    phase.plans = Some(phase.build_plans(kc).expect("persistent init"));
                }
                Box::new(phase) as Box<dyn Phase + 'a>
            })
            .collect()
    }
}

/// What a hand-written substrate caller does with a completion.
fn decode(c: Completion) -> Vec<u64> {
    match c {
        Completion::Done => Vec::new(),
        Completion::Message(bytes, _) => bytes_into_vec(bytes),
        Completion::Blocks(blocks) => {
            let mut out = Vec::with_capacity(blocks.iter().map(|b| b.len()).sum::<usize>() / 8);
            for b in &blocks {
                kmp_mpi::plain::extend_vec_from_bytes(&mut out, b);
            }
            out
        }
    }
}

struct CollPhase<'a> {
    cell: &'a Cell,
    set: &'a SizeSet,
    lifecycle: Lifecycle,
    rank: usize,
    p: usize,
    slice_iters: u64,
    /// The buffer an owned cell gives away, cloned outside the timed
    /// region.
    moved: Option<Vec<u64>>,
    out: Vec<u64>,
    plans: Option<(Persistent<'a, u64>, PersistentRequest<'a>)>,
}

impl<'a> CollPhase<'a> {
    fn data(&self) -> &'a [u64] {
        &self.set.data[self.rank]
    }

    fn counts(&self) -> &'a [usize] {
        &self.set.counts[self.rank]
    }

    fn is_root(&self) -> bool {
        self.rank == 0
    }

    fn expected(&self) -> &[u64] {
        match self.cell.op {
            Op::Bcast => &self.set.data[0],
            Op::Allreduce => &self.set.allreduce,
            Op::Allgather => &self.set.allgather,
            Op::Alltoallv => &self.set.alltoallv[self.rank],
        }
    }

    fn build_plans(
        &self,
        kc: &'a Communicator,
    ) -> kmp_mpi::Result<(Persistent<'a, u64>, PersistentRequest<'a>)> {
        let (raw, data, counts) = (kc.raw(), self.data(), self.counts());
        Ok(match self.cell.op {
            Op::Bcast => {
                let content = if self.is_root() {
                    data.to_vec()
                } else {
                    Vec::new()
                };
                (
                    kc.bcast_init((send_recv_buf(content), root(0)))?,
                    raw.bcast_init(self.is_root().then_some(data), 0)?,
                )
            }
            Op::Allreduce => (
                kc.allreduce_init((send_buf(data), op(ops::Sum)))?,
                raw.allreduce_init(data, kmp_mpi::op::Sum)?,
            ),
            Op::Allgather => (
                kc.allgather_init(send_buf(data))?,
                raw.allgather_init(data)?,
            ),
            Op::Alltoallv => (
                kc.alltoallv_init((send_buf(data), send_counts(counts)))?,
                raw.alltoallv_init(data, counts)?,
            ),
        })
    }

    fn blocking(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let (kc, raw, p) = (cx.kc, cx.raw(), self.p);
        let (data, counts) = (self.data(), self.counts());
        let moved = self.moved.take();
        self.out = match (self.cell.op, side) {
            (Op::Bcast, Side::Kamping) => match moved {
                Some(buf) => kc.bcast((send_recv_buf(buf),))?,
                None => {
                    let mut buf = std::mem::take(&mut self.out);
                    kc.bcast((send_recv_buf(&mut buf),))?;
                    buf
                }
            },
            (Op::Bcast, Side::Twin) => match moved {
                Some(buf) => {
                    let payload = self.is_root().then(|| bytes_from_vec(buf));
                    bytes_into_vec(raw.bcast_bytes(payload, 0)?)
                }
                None => {
                    let mut buf = std::mem::take(&mut self.out);
                    raw.bcast_into(&mut buf, 0)?;
                    buf
                }
            },
            (Op::Allreduce, Side::Kamping) => match moved {
                Some(buf) => kc.allreduce((send_buf(buf), op(ops::Sum)))?,
                None => kc.allreduce((send_buf(data), op(ops::Sum)))?,
            },
            (Op::Allreduce, Side::Twin) => raw.allreduce_vec(data, kmp_mpi::op::Sum)?,
            (Op::Allgather, Side::Kamping) => match moved {
                Some(buf) => kc.allgather(send_buf(buf))?,
                None => kc.allgather(send_buf(data))?,
            },
            (Op::Allgather, Side::Twin) => raw.allgather_vec(data)?,
            (Op::Alltoallv, Side::Kamping) => match moved {
                Some(buf) => kc.alltoallv((send_buf(buf), send_counts(counts)))?,
                None => kc.alltoallv((send_buf(data), send_counts(counts)))?,
            },
            (Op::Alltoallv, Side::Twin) => {
                let sdispls = displacements_from_counts(counts);
                let mut rcounts = vec![0usize; p];
                raw.alltoall_into(counts, &mut rcounts)?;
                let rdispls = displacements_from_counts(&rcounts);
                let mut recv = vec![0u64; rcounts.iter().sum()];
                raw.alltoallv_into(data, counts, &sdispls, &mut recv, &rcounts, &rdispls)?;
                recv
            }
        };
        Ok(())
    }

    fn nonblocking(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let (kc, raw) = (cx.kc, cx.raw());
        let (data, counts) = (self.data(), self.counts());
        let moved = self.moved.take();
        let slice = || {
            std::hint::black_box(spin(self.slice_iters));
        };
        self.out = match (self.cell.op, side) {
            (Op::Bcast, Side::Kamping) => {
                // `ibcast` takes its buffer by value: a caller who must
                // keep the data clones it first, inside the call's cost.
                let buf = match moved {
                    Some(buf) => buf,
                    None if self.is_root() => data.to_vec(),
                    None => Vec::new(),
                };
                let fut = kc.ibcast((send_recv_buf(buf), root(0)))?;
                slice();
                fut.wait()?
            }
            (Op::Bcast, Side::Twin) => {
                let req = match moved {
                    Some(buf) => {
                        raw.ibcast_bytes(self.is_root().then(|| bytes_from_vec(buf)), 0)?
                    }
                    None => raw.ibcast(self.is_root().then_some(data), 0)?,
                };
                slice();
                decode(req.wait()?)
            }
            (Op::Allreduce, Side::Kamping) => match moved {
                Some(buf) => {
                    let fut = kc.iallreduce((send_buf(buf), op(ops::Sum)))?;
                    slice();
                    fut.wait()?.0
                }
                None => {
                    let fut = kc.iallreduce((send_buf(data), op(ops::Sum)))?;
                    slice();
                    fut.wait()?.0
                }
            },
            (Op::Allreduce, Side::Twin) => {
                let req = match moved {
                    Some(buf) => {
                        raw.iallreduce_bytes::<u64, _>(bytes_from_vec(buf), kmp_mpi::op::Sum)?
                    }
                    None => raw.iallreduce(data, kmp_mpi::op::Sum)?,
                };
                slice();
                decode(req.wait()?)
            }
            (Op::Allgather, Side::Kamping) => match moved {
                Some(buf) => {
                    let fut = kc.iallgather(send_buf(buf))?;
                    slice();
                    fut.wait()?.0
                }
                None => {
                    let fut = kc.iallgather(send_buf(data))?;
                    slice();
                    fut.wait()?.0
                }
            },
            (Op::Allgather, Side::Twin) => {
                let req = match moved {
                    Some(buf) => raw.iallgather_bytes(bytes_from_vec(buf))?,
                    None => raw.iallgather(data)?,
                };
                slice();
                decode(req.wait()?)
            }
            (Op::Alltoallv, Side::Kamping) => match moved {
                Some(buf) => {
                    let fut = kc.ialltoallv((send_buf(buf), send_counts(counts)))?;
                    slice();
                    fut.wait()?.0
                }
                None => {
                    let fut = kc.ialltoallv((send_buf(data), send_counts(counts)))?;
                    slice();
                    fut.wait()?.0
                }
            },
            (Op::Alltoallv, Side::Twin) => {
                let req = match moved {
                    Some(buf) => {
                        let byte_counts: Vec<usize> = counts.iter().map(|c| c * 8).collect();
                        raw.ialltoallv_bytes(bytes_from_vec(buf), &byte_counts)?
                    }
                    None => raw.ialltoallv(data, counts)?,
                };
                slice();
                decode(req.wait()?)
            }
        };
        Ok(())
    }

    fn persistent(&mut self, side: Side) -> kmp_mpi::Result<()> {
        let data = self.data();
        // A broadcast plan holds content on the root only.
        let refresh = !self.cell.owned && (self.cell.op != Op::Bcast || self.is_root());
        let (kplan, tplan) = self.plans.as_mut().expect("plans built in set-up");
        self.out = match side {
            Side::Kamping => {
                if refresh {
                    kplan.set_data(data)?;
                }
                kplan.start()?;
                kplan.wait()?
            }
            Side::Twin => {
                if refresh {
                    tplan.set_data(data)?;
                }
                tplan.start()?;
                decode(tplan.wait()?)
            }
        };
        Ok(())
    }
}

impl Phase for CollPhase<'_> {
    fn name(&self) -> &'static str {
        self.cell.name
    }

    /// Result bytes over all ranks.
    fn unit_ops(&self) -> f64 {
        let bytes = (8 * self.data().len() * self.p) as f64;
        match self.cell.op {
            Op::Allgather => bytes * self.p as f64,
            _ => bytes,
        }
    }

    fn payload_bytes(&self) -> u64 {
        match self.cell.op {
            Op::Bcast if !self.is_root() => 0,
            _ => 8 * self.data().len() as u64,
        }
    }

    fn prepare(&mut self, _side: Side) {
        let n = self.data().len();
        self.out.clear();
        self.moved = None;
        if self.lifecycle == Lifecycle::Persistent {
            return;
        }
        let root_only = self.cell.op == Op::Bcast;
        if self.cell.owned {
            self.moved = Some(if !root_only || self.is_root() {
                self.data().to_vec()
            } else {
                Vec::new()
            });
        } else if root_only && self.lifecycle == Lifecycle::Blocking {
            // The in-place broadcast buffer: content on the root, zeros
            // (not last round's answer) elsewhere.
            self.out.resize(n, 0);
            if self.is_root() {
                let data = self.data();
                self.out.copy_from_slice(data);
            }
        }
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        match self.lifecycle {
            Lifecycle::Blocking => self.blocking(side, cx),
            Lifecycle::Nonblocking => self.nonblocking(side, cx),
            Lifecycle::Persistent => self.persistent(side),
        }
    }

    fn verify(&mut self, _side: Side, _cx: &Ctx) -> Verdict {
        Verdict::of(self.out[..] == *self.expected())
    }
}
