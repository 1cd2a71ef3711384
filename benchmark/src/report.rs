//! Metric names, units and bounds; the result line the driver reads;
//! the table a person reads.
//!
//! The names here are the contract later changes claim against. They
//! are duplicated in `BENCHMARK.json` (a unit test keeps the two in
//! step).

use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported under the same names by every
/// workload. Failures are not a seventh metric here only because the
/// result line carries them as `failed` / `attempted` (a metric that is
/// 0 on every good run cannot take a relative bound); any failure makes
/// the run incorrect and the exit code non-zero.
pub const END_TO_END: [Spec; 6] = [
    Spec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Spec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Spec {
        name: "overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.12,
    },
    Spec {
        name: "copy_amplification",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    Spec {
        name: "virtual_ms_p16",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    Spec {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What one run of one workload reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Shortest representation that round-trips: all measured digits.
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

impl Outcome {
    /// The one-line JSON object the driver parses.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`Outcome::to_json_line`] — that format
    /// only, not JSON in general.
    pub fn from_json_line(line: &str) -> Option<Outcome> {
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\": ");
            let rest = &line[line.find(&pat)? + pat.len()..];
            Some(rest[..rest.find([',', '}'])?].trim())
        };
        let mut out = Outcome {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics: Vec::new(),
        };
        let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
        for entry in body.split("}, ") {
            let entry = entry.trim_start_matches(['"', ' ']);
            let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
                continue;
            };
            let (value, rest) = rest.split_once(", \"unit\": \"")?;
            out.metrics.push(Metric {
                name: name.to_string(),
                value: value.parse().ok()?,
                unit: rest[..rest.find('"')?].to_string(),
            });
        }
        Some(out)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One timing cell of the human-readable report.
pub struct CellRow {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

pub fn print_cells(title: &str, cells: &[CellRow]) {
    println!("-- {title}");
    for c in cells {
        println!(
            "   {:<34} {} {}",
            c.name,
            stats::summarize(&c.samples),
            c.unit
        );
    }
}

pub fn print_metrics(workload: &str, outcome: &Outcome, samples: usize) {
    println!(
        "== {workload}: {} ({} of {} operations failed), {samples} rounds",
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        let bound = END_TO_END
            .iter()
            .find(|s| s.name == m.name)
            .map_or(String::new(), |s| {
                let better = match s.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                format!("{better} is better, bound {:.0}%", s.bound * 100.0)
            });
        println!("   {:<50} {:>16.6} {:<6} {bound}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("ops_per_s", 1.25e7, "1/s"),
                Metric::new("kamping.self_us_per_call", -0.25, "us"),
            ],
        };
        let line = o.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(Outcome::from_json_line(&line), Some(o));
    }

    /// `BENCHMARK.json` and the tables in this crate must name the same
    /// metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for s in &END_TO_END {
            let better = match s.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                s.name, s.unit, s.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in crate::layers::PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workloads::NAMES {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\"")),
                "workload {w}"
            );
        }
    }
}
