//! `call_rate` — the §IV-C RAxML-NG loop plus a small-message ladder.
//!
//! Why it exists: per-call cost is everything here — parameter
//! resolution, serialization, the small-message engine path and
//! park/unpark — so this is where binding overhead shows undiluted.

use kamping::prelude::*;
use kmp_apps::phylo::{
    custom_layer, kamping_broadcast, local_loglik, run_custom_layer, run_kamping, Model,
};
use kmp_mpi::collectives::displacements_from_counts;
use rand::prelude::*;

use crate::harness::{intern, Ctx, Phase, Phases, Scale, Verdict, Workload};
use crate::trace::{layer, Side};

pub struct CallRate;

/// Back-to-back calls per ladder cell and round: enough that the two
/// harness barriers around the cell are a small share of its time.
const BATCH: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Ranks 0 and 1 only (p = 2); the others wait in the barrier.
    PingPong,
    Allreduce,
    Bcast,
    Gatherv,
    /// `allgatherv` with receive counts given.
    AllgathervCounts,
    /// `allgatherv` with counts inferred; the twin exchanges them by
    /// hand before `allgatherv_into`.
    AllgathervInferred,
    /// `send`/`recv` of an `as_serialized` struct, ranks 0 and 1.
    SerializedSendRecv,
}

const OPS: [(Op, &str); 7] = [
    (Op::PingPong, "pingpong"),
    (Op::Allreduce, "allreduce"),
    (Op::Bcast, "bcast"),
    (Op::Gatherv, "gatherv"),
    (Op::AllgathervCounts, "allgatherv_counts"),
    (Op::AllgathervInferred, "allgatherv_inferred"),
    (Op::SerializedSendRecv, "serialized_sendrecv"),
];

/// Payload bytes per rank of the ladder's rungs.
const RUNGS: [(usize, &str); 4] = [(8, "8B"), (64, "64B"), (512, "512B"), (4096, "4KiB")];

pub struct Inputs {
    sites_per_rank: u64,
    iterations: u64,
    /// Sequential sum of the per-rank likelihoods of the last iteration.
    loglik_oracle: f64,
    /// `data[rung][rank]`, values below 2^32 so that sums stay exact.
    data: Vec<Vec<Vec<u64>>>,
    names: Vec<&'static str>,
}

impl Workload for CallRate {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "call_rate"
    }

    fn unit(&self) -> &'static str {
        "kamping calls completed"
    }

    fn make_inputs(&self, seed: u64, p: usize, scale: Scale) -> Inputs {
        // Iteration and site counts from the seed (about 200 iterations,
        // as in the paper's loop): the likelihood values and the length
        // of the loop depend on it, the call pattern does not.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xca11);
        let iterations = if scale == Scale::Smoke {
            10
        } else {
            rng.random_range(192..=208u64)
        };
        let sites_per_rank = rng.random_range(48..64u64);
        let mut model = Model::initial(16);
        for it in 0..iterations {
            model.perturb(it);
        }
        let loglik_oracle = (0..p as u64)
            .map(|r| local_loglik(r * sites_per_rank..(r + 1) * sites_per_rank, &model))
            .sum();
        let data = RUNGS
            .iter()
            .map(|&(bytes, _)| {
                (0..p)
                    .map(|_| {
                        (0..bytes / 8)
                            .map(|_| rng.random_range(0..1u64 << 32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let names = OPS
            .iter()
            .flat_map(|&(_, op)| {
                RUNGS
                    .iter()
                    .map(move |&(_, rung)| intern(format!("{op}_{rung}")))
            })
            .collect();
        Inputs {
            sites_per_rank,
            iterations,
            loglik_oracle,
            data,
            names,
        }
    }

    fn phases<'a>(&self, inputs: &'a Inputs, kc: &'a Communicator) -> Phases<'a> {
        let mut phases: Phases<'a> = vec![Box::new(PhyloPhase {
            inputs,
            p: kc.size(),
            rank: kc.rank(),
            loglik: [None, None],
        })];
        for (oi, &(op, _)) in OPS.iter().enumerate() {
            for rung in 0..RUNGS.len() {
                phases.push(Box::new(LadderPhase {
                    name: inputs.names[oi * RUNGS.len() + rung],
                    op,
                    data: &inputs.data[rung],
                    rank: kc.rank(),
                    out: Vec::new(),
                    model: rung_model(&inputs.data[rung][0]),
                    model_out: None,
                }));
            }
        }
        phases
    }
}

struct PhyloPhase<'a> {
    inputs: &'a Inputs,
    p: usize,
    rank: usize,
    loglik: [Option<f64>; 2],
}

impl Phase for PhyloPhase<'_> {
    fn name(&self) -> &'static str {
        "raxml_loop"
    }

    /// One serialized broadcast and one allreduce per iteration and rank.
    fn unit_ops(&self) -> f64 {
        (2 * self.inputs.iterations * self.p as u64) as f64
    }

    /// The root hands the serialized model to the broadcast; every rank
    /// hands one likelihood to the allreduce.
    fn payload_bytes(&self) -> u64 {
        let model = custom_layer::serialize(&Model::initial(16)).len() as u64;
        self.inputs.iterations * (8 + if self.rank == 0 { model } else { 0 })
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let (sites, its) = (self.inputs.sites_per_rank, self.inputs.iterations);
        self.loglik[side as usize] = Some(match side {
            Side::Kamping => run_kamping(sites, its, cx.kc)?,
            Side::Twin => run_custom_layer(sites, its, cx.raw())?,
        });
        Ok(())
    }

    /// `run_kamping` / `run_custom_layer` re-composed from their public
    /// pieces.
    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let rank = cx.rank() as u64;
        let sites = self.inputs.sites_per_rank;
        let range = rank * sites..(rank + 1) * sites;
        let mut model = Model::initial(16);
        let mut global = 0.0;
        for it in 0..self.inputs.iterations {
            if rank == 0 {
                model.perturb(it);
            }
            match side {
                Side::Kamping => cx.span(layer::KAMPING, "bcast_serialized", || {
                    kamping_broadcast(&mut model, cx.kc)
                })?,
                Side::Twin => cx.span(layer::SUBSTRATE, "mpi_broadcast", || {
                    custom_layer::mpi_broadcast(&mut model, cx.raw())
                })?,
            }
            let local = cx.span(layer::APPS, "local_loglik", || {
                local_loglik(range.clone(), &model)
            });
            global = match side {
                Side::Kamping => {
                    let out: Vec<f64> = cx.span(layer::KAMPING, "allreduce", || {
                        cx.kc.allreduce((send_buf(&[local]), op(ops::Sum)))
                    })?;
                    out[0]
                }
                Side::Twin => {
                    let mut out = [0.0f64];
                    cx.span(layer::SUBSTRATE, "allreduce_into", || {
                        cx.raw()
                            .allreduce_into(&[local], &mut out, kmp_mpi::op::Sum)
                    })?;
                    out[0]
                }
            };
        }
        self.loglik[side as usize] = Some(global);
        Ok(())
    }

    /// Bit-identical across the two layers, and the sequential sum to
    /// rounding (the reduction tree fixes the order, not the oracle).
    fn verify(&mut self, side: Side, _cx: &Ctx) -> Verdict {
        let mine = self.loglik[side as usize].expect("ran");
        let near = (mine - self.inputs.loglik_oracle).abs()
            <= 1e-9 * self.inputs.loglik_oracle.abs().max(1.0);
        let same = match self.loglik {
            [Some(k), Some(t)] => k.to_bits() == t.to_bits(),
            _ => true,
        };
        Verdict::of(near && same)
    }
}

struct LadderPhase<'a> {
    name: &'static str,
    op: Op,
    /// This rung's data of every rank (the oracle needs all of it).
    data: &'a [Vec<u64>],
    rank: usize,
    out: Vec<u64>,
    /// What the serialized rung ships.
    model: Model,
    model_out: Option<Model>,
}

/// The struct the serialized rung ships: the phylo model with the
/// rung's payload as branch lengths.
fn rung_model(payload: &[u64]) -> Model {
    let mut m = Model::initial(1);
    m.branch_lengths = payload.iter().map(|&v| v as f64).collect();
    m
}

impl LadderPhase<'_> {
    fn mine(&self) -> &[u64] {
        &self.data[self.rank]
    }

    fn participates(&self) -> bool {
        !matches!(self.op, Op::PingPong | Op::SerializedSendRecv) || self.rank < 2
    }

    /// What the last call must have returned on this rank.
    fn expected(&self) -> Vec<u64> {
        let all = || self.data.iter().flatten().copied().collect::<Vec<u64>>();
        match self.op {
            Op::PingPong if self.rank < 2 => self.data[0].clone(),
            Op::Allreduce => (0..self.mine().len())
                .map(|i| self.data.iter().map(|d| d[i]).sum())
                .collect(),
            Op::Bcast => self.data[0].clone(),
            Op::Gatherv if self.rank == 0 => all(),
            Op::AllgathervCounts | Op::AllgathervInferred => all(),
            _ => Vec::new(),
        }
    }

    fn call(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let (kc, raw, p, rank) = (cx.kc, cx.raw(), cx.size(), self.rank);
        let mine = &self.data[rank];
        let n = mine.len();
        let k = layer::KAMPING;
        let s = layer::SUBSTRATE;
        match (self.op, side) {
            (Op::PingPong, Side::Kamping) => {
                if rank == 0 {
                    cx.span(k, "send", || {
                        kc.send((send_buf(mine), destination(1), tag(0)))
                    })?;
                    self.out = cx.span(k, "recv", || kc.recv((source(1), tag(1))))?;
                } else {
                    let got: Vec<u64> = cx.span(k, "recv", || kc.recv((source(0), tag(0))))?;
                    cx.span(k, "send", || {
                        kc.send((send_buf(&got), destination(0), tag(1)))
                    })?;
                    self.out = got;
                }
            }
            (Op::PingPong, Side::Twin) => {
                if rank == 0 {
                    cx.span(s, "send", || raw.send(mine, 1, 0))?;
                    self.out = cx.span(s, "recv_vec", || raw.recv_vec::<u64>(1, 1))?.0;
                } else {
                    let got = cx.span(s, "recv_vec", || raw.recv_vec::<u64>(0, 0))?.0;
                    cx.span(s, "send", || raw.send(&got, 0, 1))?;
                    self.out = got;
                }
            }
            (Op::Allreduce, Side::Kamping) => {
                self.out = cx.span(k, "allreduce", || {
                    kc.allreduce((send_buf(mine), op(ops::Sum)))
                })?;
            }
            (Op::Allreduce, Side::Twin) => {
                self.out = cx.span(s, "allreduce_vec", || {
                    raw.allreduce_vec(mine, kmp_mpi::op::Sum)
                })?;
            }
            (Op::Bcast, _) => {
                let mut buf = std::mem::take(&mut self.out);
                buf.clear();
                buf.resize(n, 0);
                if rank == 0 {
                    buf.copy_from_slice(mine);
                }
                match side {
                    Side::Kamping => {
                        cx.span(k, "bcast", || kc.bcast((send_recv_buf(&mut buf),)))?
                    }
                    Side::Twin => cx.span(s, "bcast_into", || raw.bcast_into(&mut buf, 0))?,
                }
                self.out = buf;
            }
            (Op::Gatherv, Side::Kamping) => {
                self.out = cx.span(k, "gatherv", || kc.gatherv(send_buf(mine)))?;
            }
            (Op::Gatherv, Side::Twin) => {
                self.out = cx
                    .span(s, "gatherv_vec", || raw.gatherv_vec(mine, 0))?
                    .map_or(Vec::new(), |(data, _counts)| data);
            }
            (Op::AllgathervCounts, Side::Kamping) => {
                let counts = vec![n; p];
                self.out = cx.span(k, "allgatherv", || {
                    kc.allgatherv((send_buf(mine), recv_counts(&counts)))
                })?;
            }
            (Op::AllgathervCounts, Side::Twin) => {
                let counts = vec![n; p];
                let displs = displacements_from_counts(&counts);
                let mut recv = vec![0u64; n * p];
                cx.span(s, "allgatherv_into", || {
                    raw.allgatherv_into(mine, &mut recv, &counts, &displs)
                })?;
                self.out = recv;
            }
            (Op::AllgathervInferred, Side::Kamping) => {
                self.out = cx.span(k, "allgatherv", || kc.allgatherv(send_buf(mine)))?;
            }
            (Op::AllgathervInferred, Side::Twin) => {
                let mut counts = vec![0usize; p];
                cx.span(s, "allgather_into", || {
                    raw.allgather_into(&[n], &mut counts)
                })?;
                let displs = displacements_from_counts(&counts);
                let mut recv = vec![0u64; counts.iter().sum()];
                cx.span(s, "allgatherv_into", || {
                    raw.allgatherv_into(mine, &mut recv, &counts, &displs)
                })?;
                self.out = recv;
            }
            (Op::SerializedSendRecv, Side::Kamping) => {
                if rank == 0 {
                    cx.span(k, "send_serialized", || {
                        kc.send((send_buf(as_serialized(&self.model)), destination(1)))
                    })?;
                } else {
                    self.model_out = Some(cx.span(k, "recv_deserializable", || {
                        kc.recv((recv_buf(as_deserializable::<Model>()), source(0)))
                    })?);
                }
            }
            (Op::SerializedSendRecv, Side::Twin) => {
                let err = |e: kmp_serialize::Error| kmp_mpi::MpiError::Serialize(e.to_string());
                if rank == 0 {
                    let bytes = cx
                        .span(layer::SERIALIZE, "to_bytes", || {
                            kmp_serialize::to_bytes(&self.model)
                        })
                        .map_err(err)?;
                    cx.span(s, "send_vec", || raw.send_vec(bytes, 1, 0))?;
                } else {
                    let (bytes, _) = cx.span(s, "recv_bytes", || raw.recv_bytes(0, 0))?;
                    self.model_out = Some(
                        cx.span(layer::SERIALIZE, "from_bytes", || {
                            kmp_serialize::from_bytes::<Model>(&bytes)
                        })
                        .map_err(err)?,
                    );
                }
            }
        }
        Ok(())
    }
}

impl Phase for LadderPhase<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Calls issued over all ranks: a ping-pong is a send and a receive
    /// on each of two ranks, a serialized transfer one call on each.
    fn unit_ops(&self) -> f64 {
        let per_batch = match self.op {
            Op::PingPong => 4,
            Op::SerializedSendRecv => 2,
            _ => self.data.len(),
        };
        (BATCH * per_batch) as f64
    }

    fn payload_bytes(&self) -> u64 {
        let bytes = 8 * self.mine().len() as u64;
        let per_call = match self.op {
            Op::PingPong if self.rank < 2 => bytes,
            Op::SerializedSendRecv if self.rank == 0 => {
                kmp_serialize::to_bytes(&self.model).map_or(0, |b| b.len() as u64)
            }
            Op::PingPong | Op::SerializedSendRecv => 0,
            Op::Bcast if self.rank != 0 => 0,
            _ => bytes,
        };
        BATCH as u64 * per_call
    }

    fn prepare(&mut self, _side: Side) {
        self.out.clear();
        self.model_out = None;
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        if self.participates() {
            for _ in 0..BATCH {
                self.call(side, cx)?;
            }
        }
        Ok(())
    }

    /// Every call of a cell is already one call into one layer; the
    /// spans sit inside `call` and cost one branch when tracing is off.
    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        self.run(side, cx)
    }

    fn verify(&mut self, _side: Side, _cx: &Ctx) -> Verdict {
        let ok = if self.op == Op::SerializedSendRecv {
            self.rank != 1 || self.model_out.as_ref() == Some(&self.model)
        } else {
            self.out == self.expected()
        };
        Verdict::of(ok)
    }
}
