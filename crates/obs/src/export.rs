//! Trace export: the hand-rolled JSONL writer and the roll-up summary.
//!
//! The writer is deliberately minimal — string escaping per RFC 8259 and
//! Rust's shortest-roundtrip float formatting — so byte-identity of traces
//! depends only on this crate and `std`. Non-finite floats serialize as
//! `null` (JSON has no NaN), matching what the vendored `serde_json` shim
//! does elsewhere in the workspace.

use crate::metrics::{Gauge, Histogram};
use crate::{EventKind, EventRecord, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON value to `out`.
fn push_json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => push_json_str(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Renders the event stream as JSONL (one object per line, `\n`-terminated).
pub fn to_jsonl(events: &[EventRecord]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let _ = write!(
            out,
            "{{\"tick\":{},\"seq\":{},\"depth\":{},\"layer\":\"{}\",\"event\":\"{}\",\"kind\":",
            e.tick, e.seq, e.depth, e.layer, e.name
        );
        match e.kind {
            EventKind::Point => out.push_str("\"point\""),
            EventKind::SpanOpen => out.push_str("\"span_open\""),
            EventKind::SpanClose { open_seq } => {
                let _ = write!(out, "\"span_close\",\"open_seq\":{open_seq}");
            }
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_value(&mut out, v);
        }
        out.push_str("}}\n");
    }
    out
}

/// Renders the roll-up summary table: per-(layer, event) counts, then the
/// counters, gauges, and histograms. Markdown, deterministic ordering
/// (BTreeMap for metrics, sorted keys for event counts).
pub fn summary(
    events: &[EventRecord],
    counters: &BTreeMap<&'static str, u64>,
    gauges: &BTreeMap<&'static str, Gauge>,
    histograms: &BTreeMap<&'static str, Histogram>,
) -> String {
    let mut out = String::new();
    let spans = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanOpen))
        .count();
    let last_tick = events.iter().map(|e| e.tick).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "trace: {} events ({} spans), ticks 0..={}",
        events.len(),
        spans,
        last_tick
    );
    out.push('\n');

    let mut by_kind: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for e in events {
        // Count a span once (at its open), not once per open+close.
        if !matches!(e.kind, EventKind::SpanClose { .. }) {
            *by_kind.entry((e.layer, e.name)).or_insert(0) += 1;
        }
    }
    out.push_str("| layer | event | count |\n|---|---|---:|\n");
    for ((layer, name), count) in &by_kind {
        let _ = writeln!(out, "| {layer} | {name} | {count} |");
    }

    if !counters.is_empty() {
        out.push_str("\n| counter | value |\n|---|---:|\n");
        for (name, v) in counters {
            let _ = writeln!(out, "| {name} | {v} |");
        }
    }
    if !gauges.is_empty() {
        out.push_str("\n| gauge | last | min | max | sets |\n|---|---:|---:|---:|---:|\n");
        for (name, g) in gauges {
            let _ = writeln!(
                out,
                "| {name} | {:.6} | {:.6} | {:.6} | {} |",
                g.last, g.min, g.max, g.count
            );
        }
    }
    if !histograms.is_empty() {
        out.push_str(
            "\n| histogram | count | min | max | ~p50 | ~p95 | ~p99 |\n\
             |---|---:|---:|---:|---:|---:|---:|\n",
        );
        for (name, h) in histograms {
            let _ = writeln!(
                out,
                "| {name} | {} | {:.3e} | {:.3e} | {:.3e} | {:.3e} | {:.3e} |",
                h.count(),
                h.min(),
                h.max(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn jsonl_shape_is_stable() {
        let mut r = Recorder::active();
        r.set_tick(3);
        r.span_open("sra", "solve", &[("seed", 7u64.into())]);
        r.event(
            "lns",
            "iter",
            &[
                ("op", "greedy".into()),
                ("delta", (-0.5f64).into()),
                ("nan", f64::NAN.into()),
                ("ok", true.into()),
            ],
        );
        r.span_close("sra", "solve", &[]);
        let jsonl = r.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"tick\":3,\"seq\":0,\"depth\":0,\"layer\":\"sra\",\"event\":\"solve\",\
             \"kind\":\"span_open\",\"fields\":{\"seed\":7}}"
        );
        assert_eq!(
            lines[1],
            "{\"tick\":3,\"seq\":1,\"depth\":1,\"layer\":\"lns\",\"event\":\"iter\",\
             \"kind\":\"point\",\"fields\":{\"op\":\"greedy\",\"delta\":-0.5,\"nan\":null,\
             \"ok\":true}}"
        );
        assert_eq!(
            lines[2],
            "{\"tick\":3,\"seq\":2,\"depth\":0,\"layer\":\"sra\",\"event\":\"solve\",\
             \"kind\":\"span_close\",\"open_seq\":0,\"fields\":{}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn summary_counts_spans_once() {
        let mut r = Recorder::active();
        r.span_open("sra", "solve", &[]);
        r.event("lns", "iter", &[]);
        r.event("lns", "iter", &[]);
        r.span_close("sra", "solve", &[]);
        r.add("accepted", 2);
        r.gauge("peak", 0.9);
        r.observe("delta", 0.25);
        let s = r.summary();
        assert!(s.contains("| lns | iter | 2 |"), "{s}");
        assert!(s.contains("| sra | solve | 1 |"), "{s}");
        assert!(s.contains("| accepted | 2 |"), "{s}");
        assert!(s.contains("4 events (1 spans)"), "{s}");
    }
}
