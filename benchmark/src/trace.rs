//! The benchmark's own span recorder.
//!
//! Spans are recorded by benchmark code around its calls into each
//! layer (`kamping`, `kmp_mpi`, `kmp_serialize`, `kmp_graphgen`, the
//! apps' public pieces) — nothing inside the library is instrumented.
//! Each rank thread owns a [`Tracer`]; spans stay in memory until the
//! run ends and are then merged, summarised and written out.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

use kmp_mpi::Comm;

/// Which implementation a span (or a timed phase) belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// Through the `kamping` bindings.
    Kamping,
    /// The hand-written substrate twin doing the same communication.
    Twin,
}

impl Side {
    pub fn name(self) -> &'static str {
        match self {
            Side::Kamping => "kamping",
            Side::Twin => "twin",
        }
    }
}

/// Layer names used by the traced drivers. A span's layer is the crate
/// (or benchmark role) the call goes into.
pub mod layer {
    /// Local computation from the apps' public pieces.
    pub const APPS: &str = "apps";
    /// A library app called whole (no public pieces to compose): its
    /// communication cannot be separated from outside.
    pub const APPS_OPAQUE: &str = "apps_opaque";
    pub const KAMPING: &str = "kamping";
    pub const PLUGINS: &str = "plugins";
    pub const SUBSTRATE: &str = "kmp_mpi";
    pub const SERIALIZE: &str = "serialize";
    /// The barrier closing every timed phase: waiting for the slowest
    /// rank, not work.
    pub const BARRIER: &str = "barrier";
    /// Root span of a timed phase; its self time is what no named
    /// layer span covers.
    pub const HARNESS: &str = "harness";
}

/// Nanoseconds since the first call in this process: one time base for
/// all rank threads, so entry skew between ranks is measurable.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub side: Side,
    pub rank: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<u32>,
    /// Counter deltas between the span's boundaries.
    pub copied_bytes: u64,
    pub allocs: u64,
    pub envelopes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-rank recorder. Disabled tracers cost one branch per span.
pub struct Tracer {
    enabled: Cell<bool>,
    rank: u32,
    round: Cell<u32>,
    side: Cell<Side>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl Tracer {
    pub fn new(enabled: bool, rank: usize) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            rank: rank as u32,
            round: Cell::new(0),
            side: Cell::new(Side::Kamping),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn set_context(&self, round: usize, side: Side) {
        self.round.set(round as u32);
        self.side.set(side);
    }

    /// Runs `f` inside a span. `comm` lets the span record the copy and
    /// envelope counter deltas at its boundaries.
    pub fn span<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        comm: &Comm,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled.get() {
            return f();
        }
        let copy0 = comm.copy_stats();
        let env0 = comm.mailbox_stats().envelopes_posted;
        let index = {
            let mut spans = self.spans.borrow_mut();
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                layer,
                side: self.side.get(),
                rank: self.rank,
                round: self.round.get(),
                start_ns: now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                copied_bytes: 0,
                allocs: 0,
                envelopes: 0,
            });
            index
        };
        self.open.borrow_mut().push(index);
        let out = f();
        let end = now_ns();
        self.open.borrow_mut().pop();
        let copy = comm.copy_stats().since(&copy0);
        let env = comm.mailbox_stats().envelopes_posted - env0;
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[index as usize];
        s.end_ns = end;
        s.copied_bytes = copy.bytes_copied;
        s.allocs = copy.allocations;
        s.envelopes = env;
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of each span of one rank: its duration minus the part its
/// direct children cover. Children of one thread never overlap, so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-(layer, side) totals over a rank's spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub spans: u64,
    pub copied_bytes: u64,
    pub allocs: u64,
    pub envelopes: u64,
}

pub fn layer_totals(
    spans: &[Span],
) -> std::collections::BTreeMap<(&'static str, Side), LayerTotal> {
    let own = self_times(spans);
    let mut out = std::collections::BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let t: &mut LayerTotal = out.entry((s.layer, s.side)).or_default();
        t.self_ns += self_ns;
        t.spans += 1;
        // Counter deltas nest like time does; count them at the leaves
        // of the communication layers only, where the work happens.
        if s.layer != layer::HARNESS {
            t.copied_bytes += s.copied_bytes;
            t.allocs += s.allocs;
            t.envelopes += s.envelopes;
        }
    }
    out
}

/// Share of the collective spans' time that a rank spent before the
/// last rank had entered the same collective — waiting for peers, not
/// work. `per_rank[r]` lists rank r's spans; the k-th span named `name`
/// of a round on each rank is the same collective call.
pub fn peer_wait_share(per_rank: &[Vec<Span>], is_collective: impl Fn(&Span) -> bool) -> f64 {
    use std::collections::HashMap;
    /// (round, side, name, occurrence within the round)
    type Call = (u32, Side, &'static str, u32);
    // One entry per rank: (start, duration).
    let mut calls: HashMap<Call, Vec<(u64, u64)>> = HashMap::new();
    for spans in per_rank {
        let mut seen: HashMap<(u32, Side, &'static str), u32> = HashMap::new();
        for s in spans.iter().filter(|s| is_collective(s)) {
            let k = seen.entry((s.round, s.side, s.name)).or_insert(0);
            calls
                .entry((s.round, s.side, s.name, *k))
                .or_default()
                .push((s.start_ns, s.dur_ns()));
            *k += 1;
        }
    }
    let (mut waited, mut total) = (0u64, 0u64);
    for entries in calls.values().filter(|e| e.len() == per_rank.len()) {
        let last_entry = entries.iter().map(|&(start, _)| start).max().unwrap_or(0);
        for &(start, dur) in entries {
            waited += (last_entry - start).min(dur);
            total += dur;
        }
    }
    if total == 0 {
        0.0
    } else {
        waited as f64 / total as f64
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Writes the trace file: the raw spans of the first `keep_rounds`
/// recorded rounds (all ranks) plus the per-layer totals over every
/// recorded round.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    per_rank: &[Vec<Span>],
    keep_rounds: u32,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let first_round = per_rank
        .iter()
        .flatten()
        .map(|s| s.round)
        .min()
        .unwrap_or(0);
    writeln!(
        w,
        "{{\n  \"workload\": {}, \"seed\": {seed}, \"first_round\": {first_round}, \
         \"rounds_with_spans\": {keep_rounds},",
        json_str(workload)
    )?;
    writeln!(w, "  \"layers\": [")?;
    let mut rows = Vec::new();
    for (rank, spans) in per_rank.iter().enumerate() {
        for ((layer, side), t) in layer_totals(spans) {
            rows.push(format!(
                "    {{\"rank\": {rank}, \"layer\": {}, \"side\": {}, \"self_ns\": {}, \
                 \"spans\": {}, \"copied_bytes\": {}, \"allocs\": {}, \"envelopes\": {}}}",
                json_str(layer),
                json_str(side.name()),
                t.self_ns,
                t.spans,
                t.copied_bytes,
                t.allocs,
                t.envelopes
            ));
        }
    }
    writeln!(w, "{}\n  ],\n  \"spans\": [", rows.join(",\n"))?;
    let mut first = true;
    for spans in per_rank {
        for (i, s) in spans.iter().enumerate() {
            if s.round >= first_round + keep_rounds {
                continue;
            }
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "    {{\"id\": {i}, \"name\": {}, \"layer\": {}, \"side\": {}, \"rank\": {}, \
                 \"round\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"copied_bytes\": {}, \"allocs\": {}, \"envelopes\": {}}}",
                json_str(s.name),
                json_str(s.layer),
                json_str(s.side.name()),
                s.rank,
                s.round,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.copied_bytes,
                s.allocs,
                s.envelopes
            )?;
        }
    }
    writeln!(w, "\n  ]\n}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            layer,
            side: Side::Kamping,
            rank: 0,
            round: 0,
            start_ns: start,
            end_ns: end,
            parent,
            copied_bytes: 0,
            allocs: 0,
            envelopes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(layer::HARNESS, 0, 100, None),
            span(layer::APPS, 10, 40, Some(0)),
            span(layer::KAMPING, 50, 90, Some(0)),
            span(layer::SERIALIZE, 55, 65, Some(2)),
        ];
        // root: 100 - 30 - 40; kamping: 40 - 10; grandchild not
        // subtracted from the root twice.
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times sum to the root's duration");
    }

    #[test]
    fn layer_totals_group_by_layer_and_side() {
        let mut spans = vec![
            span(layer::HARNESS, 0, 100, None),
            span(layer::KAMPING, 10, 40, Some(0)),
            span(layer::KAMPING, 50, 70, Some(0)),
        ];
        spans[1].copied_bytes = 8;
        spans[2].copied_bytes = 4;
        let t = layer_totals(&spans);
        let k = &t[&(layer::KAMPING, Side::Kamping)];
        assert_eq!((k.self_ns, k.spans, k.copied_bytes), (50, 2, 12));
        assert_eq!(t[&(layer::HARNESS, Side::Kamping)].self_ns, 50);
    }

    #[test]
    fn peer_wait_is_time_before_last_entry() {
        // Rank 0 enters at 0, rank 1 at 60; both leave at 100.
        let r0 = vec![span(layer::KAMPING, 0, 100, None)];
        let r1 = vec![span(layer::KAMPING, 60, 100, None)];
        let share = peer_wait_share(&[r0, r1], |_| true);
        assert!((share - 60.0 / 140.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_is_transparent() {
        kmp_mpi::Universe::run(1, |comm| {
            let t = Tracer::new(true, 0);
            t.set_context(3, Side::Twin);
            let v = t.span(layer::HARNESS, "outer", &comm, || {
                t.span(layer::APPS, "inner", &comm, || 7)
            });
            assert_eq!(v, 7);
            let spans = t.take();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[1].parent, Some(0));
            assert_eq!(spans[0].parent, None);
            assert_eq!((spans[1].round, spans[1].side), (3, Side::Twin));
            assert!(spans[0].start_ns <= spans[1].start_ns);
            assert!(spans[1].end_ns <= spans[0].end_ns);

            let off = Tracer::new(false, 0);
            assert_eq!(off.span(layer::APPS, "x", &comm, || 1), 1);
            assert!(off.take().is_empty());
        });
    }
}
