//! Chrome trace-event / Perfetto JSON export and schema validation.
//!
//! The emitter writes the [JSON Array Format] understood by
//! `chrome://tracing` and [ui.perfetto.dev]: one process (`pid`) per
//! rank, complete spans as `"ph":"X"` events (`ts`/`dur` in
//! microseconds), instants as `"ph":"i"`, async operation lifetimes
//! (non-blocking requests, persistent cycles) as `"ph":"b"`/`"ph":"e"`
//! pairs correlated by `id`, plus `"ph":"M"` metadata
//! naming each process. Everything is emitted one event per line so
//! the hand-rolled [`validate_chrome`] checker (the workspace has no
//! JSON dependency, by design) can parse it line-wise; timestamps are
//! printed as exact `ns/1000` fixed-point values so validation does
//! not depend on float rounding.
//!
//! [JSON Array Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use super::{cat, ph, RankTrace};

/// Renders per-rank traces as Chrome trace-event JSON. Events of rank
/// `r` carry `pid == r` (and `tid == r`: one thread per rank).
pub fn chrome_trace_json(ranks: &[RankTrace]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[\n");
    let mut first = true;
    for (pid, rt) in ranks.iter().enumerate() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            r#"{{"name":"process_name","ph":"M","ts":0,"pid":{pid},"tid":{pid},"args":{{"name":"rank {pid}"}}}}"#
        );
        for e in &rt.events {
            sep(&mut out, &mut first);
            let name = e.name;
            let category = cat::name(e.cat);
            let ts = us(e.ts_ns);
            if e.ph != ph::CLASSIC {
                let phase = if e.ph == ph::ASYNC_BEGIN { "b" } else { "e" };
                let _ = write!(
                    out,
                    r#"{{"name":"{name}","cat":"{category}","ph":"{phase}","id":{},"ts":{ts},"pid":{pid},"tid":{pid},"args":{{"a":{},"b":{}}}}}"#,
                    e.id, e.a, e.b
                );
            } else if e.dur_ns > 0 {
                let dur = us(e.dur_ns);
                let _ = write!(
                    out,
                    r#"{{"name":"{name}","cat":"{category}","ph":"X","ts":{ts},"dur":{dur},"pid":{pid},"tid":{pid},"args":{{"a":{},"b":{}}}}}"#,
                    e.a, e.b
                );
            } else {
                let _ = write!(
                    out,
                    r#"{{"name":"{name}","cat":"{category}","ph":"i","s":"t","ts":{ts},"pid":{pid},"tid":{pid},"args":{{"a":{},"b":{}}}}}"#,
                    e.a, e.b
                );
            }
        }
    }
    out.push_str("\n]\n");
    out
}

/// Microseconds with exact 3-decimal fixed point (`ns` is integral, so
/// this is lossless).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// What [`validate_chrome`] verified.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Distinct `pid`s, ascending.
    pub pids: Vec<u64>,
    /// Number of complete (`"ph":"X"`) span events.
    pub spans: usize,
    /// Number of instant (`"ph":"i"`) events.
    pub instants: usize,
    /// Number of matched async `"b"`/`"e"` pairs.
    pub async_pairs: usize,
    /// Async `"b"` events whose `"e"` never arrived (abandoned or
    /// errored operations; legal, but surfaced for tests to bound).
    pub async_unclosed: usize,
}

/// Schema check for the exporter's output (used by the tests that
/// write traces, `crates/mpi/tests/trace_integration.rs` among them):
///
/// - the document is a JSON array of one-per-line event objects;
/// - every event has `name`, `ph`, `ts`, `pid`, `tid`; `ph` is one of
///   `X` (which additionally requires `dur`), `i` (requires `s`),
///   `b`/`e` (which require `id`), `M`;
/// - within each `(pid, tid)` timeline, spans nest properly: ordered
///   by start time, no span extends past the end of the span
///   containing it;
/// - async events pair up within `(pid, cat, id)`: every `"e"` closes
///   exactly one earlier `"b"` carrying the same name and a
///   less-or-equal timestamp; double-begin on one id and `"e"` without
///   a `"b"` are rejected. Unclosed `"b"`s (an operation abandoned or
///   errored before completing) are legal and counted.
pub fn validate_chrome(json: &str) -> Result<TraceSummary, String> {
    let body = json.trim();
    let body = body
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or("document is not a JSON array")?;
    let mut summary = TraceSummary::default();
    // (pid, tid) -> [(ts_ns, end_ns)]
    type Timeline = ((u64, u64), Vec<(u64, u64)>);
    let mut timelines: Vec<Timeline> = Vec::new();
    // Open async begins: (pid, cat, id) -> (name, ts_ns).
    type OpenAsync = ((u64, String, u64), (String, u64));
    let mut open_async: Vec<OpenAsync> = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {lineno}: not a one-line JSON object: {line}"));
        }
        let ctx = |what: &str| format!("line {lineno}: {what}: {line}");
        str_field(line, "name").ok_or_else(|| ctx("missing \"name\""))?;
        let ph = str_field(line, "ph").ok_or_else(|| ctx("missing \"ph\""))?;
        let ts = ts_field(line, "ts").ok_or_else(|| ctx("missing/bad \"ts\""))?;
        let pid = int_field(line, "pid").ok_or_else(|| ctx("missing \"pid\""))?;
        let tid = int_field(line, "tid").ok_or_else(|| ctx("missing \"tid\""))?;
        if !summary.pids.contains(&pid) {
            summary.pids.push(pid);
        }
        match ph.as_str() {
            "X" => {
                let dur = ts_field(line, "dur").ok_or_else(|| ctx("X event without \"dur\""))?;
                summary.spans += 1;
                let key = (pid, tid);
                match timelines.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push((ts, ts + dur)),
                    None => timelines.push((key, vec![(ts, ts + dur)])),
                }
            }
            "i" => {
                str_field(line, "s").ok_or_else(|| ctx("instant without scope \"s\""))?;
                summary.instants += 1;
            }
            "b" => {
                let id = int_field(line, "id").ok_or_else(|| ctx("async event without \"id\""))?;
                let c = str_field(line, "cat").ok_or_else(|| ctx("async event without \"cat\""))?;
                let name = str_field(line, "name").expect("checked above");
                let key = (pid, c, id);
                if open_async.iter().any(|(k, _)| *k == key) {
                    return Err(ctx("async \"b\" while the same (pid, cat, id) is open"));
                }
                open_async.push((key, (name, ts)));
            }
            "e" => {
                let id = int_field(line, "id").ok_or_else(|| ctx("async event without \"id\""))?;
                let c = str_field(line, "cat").ok_or_else(|| ctx("async event without \"cat\""))?;
                let name = str_field(line, "name").expect("checked above");
                let key = (pid, c, id);
                let Some(pos) = open_async.iter().position(|(k, _)| *k == key) else {
                    return Err(ctx("async \"e\" without a matching open \"b\""));
                };
                let (_, (b_name, b_ts)) = open_async.swap_remove(pos);
                if b_name != name {
                    return Err(ctx(&format!(
                        "async pair renamed: \"b\" was \"{b_name}\", \"e\" is \"{name}\""
                    )));
                }
                if ts < b_ts {
                    return Err(ctx("async \"e\" precedes its \"b\""));
                }
                summary.async_pairs += 1;
            }
            "M" => {}
            other => return Err(ctx(&format!("invalid \"ph\":\"{other}\""))),
        }
    }
    summary.pids.sort_unstable();
    summary.async_unclosed = open_async.len();
    // Nesting check per timeline. Span events are recorded at drop
    // (end order); sort by (start asc, end desc) so a parent precedes
    // its children, then verify with a stack.
    for ((pid, tid), mut spans) in timelines {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (ts, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_ts, top_end)) = stack.last() {
                if end > top_end {
                    return Err(format!(
                        "pid {pid} tid {tid}: span [{ts}, {end}]ns overlaps \
                         [{top_ts}, {top_end}]ns without nesting"
                    ));
                }
            }
            stack.push((ts, end));
        }
    }
    Ok(summary)
}

/// Extracts a string field `"key":"value"` from a one-line JSON object.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts an unsigned integer field `"key":123`.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts a microsecond timestamp field (bare fixed-point number,
/// optionally string-quoted), returning nanoseconds.
fn ts_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let text: String = line[start..]
        .trim_start_matches('"')
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    if text.is_empty() {
        return None;
    }
    let (whole, frac) = match text.split_once('.') {
        Some((w, f)) => (w, f),
        None => (text.as_str(), ""),
    };
    let mut ns: u64 = whole.parse::<u64>().ok()?.checked_mul(1000)?;
    if !frac.is_empty() {
        if frac.len() > 3 || !frac.chars().all(|c| c.is_ascii_digit()) {
            return None;
        }
        let mut f: u64 = frac.parse().ok()?;
        for _ in frac.len()..3 {
            f *= 10;
        }
        ns += f;
    }
    Some(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Event, RankTrace};

    fn ev(name: &'static str, c: u8, ts: u64, dur: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            cat: c,
            name,
            a: 1,
            b: 2,
            ph: ph::CLASSIC,
            id: 0,
        }
    }

    fn aev(name: &'static str, c: u8, ts: u64, phase: u8, id: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: 0,
            cat: c,
            name,
            a: 0,
            b: 0,
            ph: phase,
            id,
        }
    }

    #[test]
    fn export_roundtrips_through_the_validator() {
        let ranks = vec![
            RankTrace {
                events: vec![
                    ev("umq_enqueue", cat::MATCH, 500, 0),
                    ev("send", cat::SEND, 1_000, 2_500),
                    ev("allreduce/rabenseifner", cat::COLL, 100, 9_000),
                ],
                ..Default::default()
            },
            RankTrace {
                events: vec![ev("recv", cat::RECV, 2_000, 1_000)],
                ..Default::default()
            },
        ];
        let json = chrome_trace_json(&ranks);
        let summary = validate_chrome(&json).expect("valid trace");
        assert_eq!(summary.pids, vec![0, 1]);
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.instants, 1);
    }

    #[test]
    fn validator_rejects_non_nested_spans() {
        let ranks = vec![RankTrace {
            // [100, 300] and [200, 400] overlap without containment.
            events: vec![ev("a", cat::COLL, 100, 200), ev("b", cat::SEND, 200, 200)],
            ..Default::default()
        }];
        let err = validate_chrome(&chrome_trace_json(&ranks)).unwrap_err();
        assert!(err.contains("without nesting"), "got: {err}");
    }

    #[test]
    fn validator_accepts_drop_order_nesting() {
        // Recorded at drop: the child appears before its parent in the
        // ring, the validator must still see proper nesting.
        let ranks = vec![RankTrace {
            events: vec![
                ev("child", cat::SEND, 200, 100),
                ev("parent", cat::COLL, 100, 400),
            ],
            ..Default::default()
        }];
        let summary = validate_chrome(&chrome_trace_json(&ranks)).expect("nested");
        assert_eq!(summary.spans, 2);
    }

    #[test]
    fn validator_rejects_missing_fields_and_bad_ph() {
        assert!(validate_chrome("{}").is_err(), "not an array");
        assert!(
            validate_chrome("[\n{\"name\":\"x\",\"ph\":\"X\",\"ts\":1.000,\"pid\":0}\n]")
                .unwrap_err()
                .contains("tid")
        );
        assert!(validate_chrome(
            "[\n{\"name\":\"x\",\"ph\":\"Q\",\"ts\":1.000,\"pid\":0,\"tid\":0}\n]"
        )
        .unwrap_err()
        .contains("invalid \"ph\""));
        assert!(validate_chrome(
            "[\n{\"name\":\"x\",\"ph\":\"X\",\"ts\":1.000,\"pid\":0,\"tid\":0}\n]"
        )
        .unwrap_err()
        .contains("without \"dur\""));
    }

    #[test]
    fn async_pairs_roundtrip_through_the_validator() {
        // Two interleaved async ops on one rank plus one on another;
        // ids distinguish them even with identical names.
        let ranks = vec![
            RankTrace {
                events: vec![
                    aev("irecv", cat::ASYNC, 100, ph::ASYNC_BEGIN, 7),
                    aev("isend", cat::ASYNC, 200, ph::ASYNC_BEGIN, 8),
                    aev("irecv", cat::ASYNC, 300, ph::ASYNC_END, 7),
                    aev("isend", cat::ASYNC, 400, ph::ASYNC_END, 8),
                ],
                ..Default::default()
            },
            RankTrace {
                events: vec![
                    aev("persistent_cycle", cat::PERSIST, 50, ph::ASYNC_BEGIN, 9),
                    aev("persistent_cycle", cat::PERSIST, 60, ph::ASYNC_END, 9),
                ],
                ..Default::default()
            },
        ];
        let json = chrome_trace_json(&ranks);
        assert!(json.contains("\"ph\":\"b\""), "{json}");
        assert!(json.contains("\"ph\":\"e\""), "{json}");
        let summary = validate_chrome(&json).expect("valid async trace");
        assert_eq!(summary.async_pairs, 3);
        assert_eq!(summary.async_unclosed, 0);
    }

    #[test]
    fn validator_counts_unclosed_begins_and_rejects_orphan_ends() {
        // A "b" with no "e" is legal (abandoned request) but counted.
        let unclosed = vec![RankTrace {
            events: vec![aev("isend", cat::ASYNC, 100, ph::ASYNC_BEGIN, 1)],
            ..Default::default()
        }];
        let summary = validate_chrome(&chrome_trace_json(&unclosed)).expect("legal");
        assert_eq!(summary.async_pairs, 0);
        assert_eq!(summary.async_unclosed, 1);

        // An "e" with no prior "b" is a schema violation.
        let orphan = vec![RankTrace {
            events: vec![aev("isend", cat::ASYNC, 100, ph::ASYNC_END, 1)],
            ..Default::default()
        }];
        let err = validate_chrome(&chrome_trace_json(&orphan)).unwrap_err();
        assert!(err.contains("without a matching open \"b\""), "got: {err}");

        // Double-begin on one (pid, cat, id) is a schema violation.
        let double = vec![RankTrace {
            events: vec![
                aev("isend", cat::ASYNC, 100, ph::ASYNC_BEGIN, 1),
                aev("isend", cat::ASYNC, 200, ph::ASYNC_BEGIN, 1),
            ],
            ..Default::default()
        }];
        let err = validate_chrome(&chrome_trace_json(&double)).unwrap_err();
        assert!(err.contains("is open"), "got: {err}");
    }

    #[test]
    fn timestamps_are_exact_fixed_point() {
        let ranks = vec![RankTrace {
            events: vec![ev("s", cat::SEND, 1_234_567, 89)],
            ..Default::default()
        }];
        let json = chrome_trace_json(&ranks);
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":0.089"), "{json}");
        assert_eq!(ts_field("{\"ts\":1234.567}", "ts"), Some(1_234_567));
        assert_eq!(ts_field("{\"ts\":1234.5}", "ts"), Some(1_234_500));
        assert_eq!(ts_field("{\"ts\":42}", "ts"), Some(42_000));
    }
}
