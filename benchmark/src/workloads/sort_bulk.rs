//! `sort_bulk` — Fig. 8 sample sort (uniform and duplicate-heavy keys)
//! plus the §IV-A prefix-doubling suffix array.
//!
//! Why it exists: local sort and one large `alltoallv` dominate;
//! parameter resolution, matching and small messages do almost nothing.
//! It is the control on which binding, matching and small-message
//! changes must show no movement, and the one where copy-path changes
//! show.

use kamping::prelude::*;
use kmp_apps::sample_sort::{
    build_buckets, draw_samples, num_samples, pick_splitters, sample_sort_kamping, sample_sort_mpi,
};
use kmp_apps::suffix::{
    blocks, suffix_array_kamping, suffix_array_mpi, suffix_array_sequential, IdxVal, PdTriple,
};
use kmp_mpi::collectives::displacements_from_counts;
use rand::prelude::*;

use crate::harness::{Ctx, Phase, Phases, Scale, Verdict, Workload};
use crate::trace::{layer, Side};

pub struct SortBulk;

pub struct KeySet {
    name: &'static str,
    /// Per-rank input.
    input: Vec<Vec<u64>>,
    /// Sorted concatenation of all ranks' input.
    oracle: Vec<u64>,
}

pub struct Inputs {
    keys: Vec<KeySet>,
    text: Vec<u8>,
    sa_oracle: Vec<u64>,
    /// Doubling iterations the text needs (from its longest repeat).
    sa_iterations: u32,
}

fn key_set(name: &'static str, seed: u64, p: usize, n: usize, distinct: Option<u64>) -> KeySet {
    let input: Vec<Vec<u64>> = (0..p)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x5011 + r as u64));
            (0..n)
                .map(|_| match distinct {
                    Some(d) => rng.random_range(0..d),
                    None => rng.random(),
                })
                .collect()
        })
        .collect();
    let mut oracle: Vec<u64> = input.iter().flatten().copied().collect();
    oracle.sort_unstable();
    KeySet {
        name,
        input,
        oracle,
    }
}

/// Longest common prefix of two neighbouring suffixes of the oracle SA.
fn max_lcp(text: &[u8], sa: &[u64]) -> usize {
    sa.windows(2)
        .map(|w| {
            let (a, b) = (&text[w[0] as usize..], &text[w[1] as usize..]);
            a.iter().zip(b).take_while(|(x, y)| x == y).count()
        })
        .max()
        .unwrap_or(0)
}

impl Workload for SortBulk {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "sort_bulk"
    }

    fn unit(&self) -> &'static str {
        "elements sorted"
    }

    fn make_inputs(&self, seed: u64, p: usize, scale: Scale) -> Inputs {
        // Keys and text characters per rank.
        let (n, text_len) = match scale {
            Scale::Smoke => (1 << 10, 1 << 8),
            _ => (1 << 16, 1 << 12),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e47);
        // Six letters put the longest repeat (about 2 log6 n: 11 at p = 4,
        // 12 at p = 16) mid-way between 8 and 16, so every seed needs the
        // same four doubling iterations; with four letters it straddled
        // 16 and a fifth iteration came and went with the seed.
        let text: Vec<u8> = (0..text_len * p)
            .map(|_| b"acgtnx"[rng.random_range(0..6usize)])
            .collect();
        let sa_oracle = suffix_array_sequential(&text);
        let lcp = max_lcp(&text, &sa_oracle);
        Inputs {
            keys: vec![
                key_set("sample_sort_uniform", seed, p, n, None),
                key_set("sample_sort_dups", seed ^ 0xd0b5, p, n, Some(1 << 10)),
            ],
            sa_iterations: if lcp == 0 { 1 } else { lcp.ilog2() + 1 },
            text,
            sa_oracle,
        }
    }

    fn phases<'a>(&self, inputs: &'a Inputs, kc: &'a Communicator) -> Phases<'a> {
        let mut phases: Phases<'a> = inputs
            .keys
            .iter()
            .map(|k| {
                Box::new(SortPhase {
                    keys: k,
                    rank: kc.rank(),
                    data: Vec::new(),
                }) as Box<dyn Phase + 'a>
            })
            .collect();
        let ranges = blocks(inputs.text.len(), kc.size());
        phases.push(Box::new(SuffixPhase {
            inputs,
            lo: ranges[kc.rank()],
            hi: ranges[kc.rank() + 1],
            out: Vec::new(),
        }));
        phases
    }
}

struct SortPhase<'a> {
    keys: &'a KeySet,
    rank: usize,
    data: Vec<u64>,
}

impl Phase for SortPhase<'_> {
    fn name(&self) -> &'static str {
        self.keys.name
    }

    fn unit_ops(&self) -> f64 {
        self.keys.oracle.len() as f64
    }

    fn payload_bytes(&self) -> u64 {
        // The sample allgather plus the bucket exchange.
        let p = self.keys.input.len();
        8 * (num_samples(p) + self.keys.input[0].len()) as u64
    }

    /// Each run sorts a fresh copy of this rank's keys.
    fn prepare(&mut self, _side: Side) {
        self.data.clear();
        self.data.extend_from_slice(&self.keys.input[self.rank]);
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        match side {
            Side::Kamping => sample_sort_kamping(&mut self.data, cx.kc),
            Side::Twin => sample_sort_mpi(&mut self.data, cx.raw()),
        }
    }

    /// Fig. 7 re-composed from the app's public pieces, one span per
    /// call into a layer.
    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let (p, rank) = (cx.size(), cx.rank());
        let s = num_samples(p);
        let data = &mut self.data;
        let mut lsamples = cx.span(layer::APPS, "draw_samples", || {
            draw_samples(data, s, rank as u64)
        });
        lsamples.resize(s, *data.first().unwrap_or(&0));
        match side {
            Side::Kamping => {
                let mut gsamples: Vec<u64> = cx.span(layer::KAMPING, "allgather", || {
                    cx.kc.allgather(send_buf(&lsamples))
                })?;
                let splitters = cx.span(layer::APPS, "pick_splitters", || {
                    pick_splitters(&mut gsamples, p)
                });
                let scounts = cx.span(layer::APPS, "build_buckets", || {
                    build_buckets(data, &splitters, p)
                });
                let moved = std::mem::take(data);
                let mut recv: Vec<u64> = cx.span(layer::KAMPING, "alltoallv", || {
                    cx.kc.alltoallv((send_buf(moved), send_counts(scounts)))
                })?;
                cx.span(layer::APPS, "local_sort", || recv.sort_unstable());
                *data = recv;
            }
            Side::Twin => {
                let raw = cx.raw();
                let mut gsamples = vec![0u64; s * p];
                cx.span(layer::SUBSTRATE, "allgather_into", || {
                    raw.allgather_into(&lsamples, &mut gsamples)
                })?;
                let splitters = cx.span(layer::APPS, "pick_splitters", || {
                    pick_splitters(&mut gsamples, p)
                });
                let scounts = cx.span(layer::APPS, "build_buckets", || {
                    build_buckets(data, &splitters, p)
                });
                let sdispls = displacements_from_counts(&scounts);
                let mut rcounts = vec![0usize; p];
                cx.span(layer::SUBSTRATE, "alltoall_into", || {
                    raw.alltoall_into(&scounts, &mut rcounts)
                })?;
                let rdispls = displacements_from_counts(&rcounts);
                let mut recv = vec![0u64; rcounts.iter().sum()];
                cx.span(layer::SUBSTRATE, "alltoallv_into", || {
                    raw.alltoallv_into(data, &scounts, &sdispls, &mut recv, &rcounts, &rdispls)
                })?;
                cx.span(layer::APPS, "local_sort", || recv.sort_unstable());
                *data = recv;
            }
        }
        Ok(())
    }

    /// Sorted order and multiset in one comparison: this rank's run must
    /// be exactly its slice of the sorted concatenation.
    fn verify(&mut self, _side: Side, cx: &Ctx) -> Verdict {
        let lens = cx
            .raw()
            .allgather_vec(&[self.data.len()])
            .expect("verify allgather");
        let offset: usize = lens[..cx.rank()].iter().sum();
        let total: usize = lens.iter().sum();
        let ok = total == self.keys.oracle.len()
            && self.keys.oracle.get(offset..offset + self.data.len()) == Some(&self.data[..]);
        Verdict::of(ok)
    }
}

struct SuffixPhase<'a> {
    inputs: &'a Inputs,
    lo: usize,
    hi: usize,
    out: Vec<u64>,
}

impl Phase for SuffixPhase<'_> {
    fn name(&self) -> &'static str {
        "suffix_array"
    }

    fn unit_ops(&self) -> f64 {
        self.inputs.text.len() as f64
    }

    /// Summed over ranks, the bulk exchanges of one run hand over, per
    /// doubling iteration with shift `h`: `n - h` shifted ranks and `n`
    /// write-backs (16 B) and `n` triples (24 B); then `n` final
    /// placements (16 B). The per-iteration samples, boundary keys and
    /// two reduction words are left out (under 1 % at these sizes).
    /// Rank 0 reports the total.
    fn payload_bytes(&self) -> u64 {
        if self.lo != 0 {
            return 0;
        }
        let n = self.inputs.text.len() as u64;
        let idx = std::mem::size_of::<IdxVal>() as u64;
        let triple = std::mem::size_of::<PdTriple>() as u64;
        let mut total = n * idx;
        for it in 0..self.inputs.sa_iterations {
            let h = 1u64 << it;
            total += n.saturating_sub(h) * idx + n * triple + n * idx;
        }
        total
    }

    fn run(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        let block = &self.inputs.text[self.lo..self.hi];
        let n = self.inputs.text.len();
        self.out = match side {
            Side::Kamping => suffix_array_kamping(block, n, cx.kc)?,
            Side::Twin => suffix_array_mpi(block, n, cx.raw())?,
        };
        Ok(())
    }

    /// The app has no public pieces to compose, so the traced run can
    /// only bracket it whole; its communication stays inside the span.
    fn run_traced(&mut self, side: Side, cx: &Ctx) -> kmp_mpi::Result<()> {
        cx.span(layer::APPS_OPAQUE, "suffix_array", || self.run(side, cx))
    }

    fn verify(&mut self, _side: Side, _cx: &Ctx) -> Verdict {
        Verdict::of(self.out[..] == self.inputs.sa_oracle[self.lo..self.hi])
    }
}
