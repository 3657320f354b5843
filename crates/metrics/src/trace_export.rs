//! Trace exporters: Chrome trace-event JSON (opens in Perfetto /
//! `chrome://tracing`) and a self-describing JSONL form for ad-hoc
//! analysis.
//!
//! Both walk the track table, then the events in recording order. The
//! Chrome format maps the recorder's track model directly: each track's
//! `process` becomes a `pid` (so Perfetto groups a device's engines under
//! one header) and each track becomes a `tid` row, named via `M` metadata
//! events. Sync spans become `B`/`E` pairs, async spans `b`/`e` pairs
//! keyed by `(cat, id)`, instants `i`, counters `C`. A stage charge
//! renders as the `"stage"` instant it stands for, with `request`, `stage`
//! and `from` args. Timestamps are microseconds (`ts`), rendered with
//! nanosecond precision.

use sim_core::trace::{Stage, Trace, TraceArgs, TraceEvent};
use sim_core::SimTime;
use std::collections::HashMap;

/// Escape a string for inclusion in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render ns as a Chrome `ts` value (µs with ns precision).
fn ts_us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Render [`TraceArgs`] as a JSON object body (no braces).
fn args_body(args: &TraceArgs) -> String {
    args.iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// The args body of the `"stage"` instant a [`TraceEvent::StageCharge`]
/// renders as.
fn stage_args(request: u64, stage: Stage, from: SimTime) -> String {
    format!("\"request\":\"{request}\",\"stage\":\"{stage}\",\"from\":\"{from}\"")
}

/// Export a [`Trace`] as Chrome trace-event JSON (Perfetto-loadable).
pub fn chrome_json(trace: &Trace) -> String {
    let mut lines = Vec::new();
    // Interned process name → pid, and each track's (pid, tid).
    let mut pids: HashMap<&str, u32> = HashMap::new();
    let mut ids = Vec::with_capacity(trace.tracks.len());
    for (i, desc) in trace.tracks.iter().enumerate() {
        let next = pids.len() as u32 + 1;
        let pid = *pids.entry(&desc.process).or_insert_with(|| {
            lines.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{next},\"args\":{{\"name\":\"{}\"}}}}",
                esc(&desc.process)
            ));
            next
        });
        let tid = i as u32 + 1;
        ids.push((pid, tid));
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            esc(&desc.thread)
        ));
    }
    for ev in &trace.events {
        let (pid, tid) = ids[ev.track().0 as usize];
        let ts = ts_us(ev.at());
        let instant = |name: &str, args: &str| {
            format!(
                "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
            )
        };
        let line = match ev {
            TraceEvent::SpanBegin { name, id, args, .. } => {
                let (name, args) = (esc(name), args_body(args));
                match id {
                    None => format!(
                        "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
                    ),
                    Some(aid) => format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"b\",\"id\":{aid},\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
                    ),
                }
            }
            TraceEvent::SpanEnd { name, id, .. } => {
                let name = esc(name);
                match id {
                    None => format!(
                        "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}}}"
                    ),
                    Some(aid) => format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{name}\",\"ph\":\"e\",\"id\":{aid},\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}}}"
                    ),
                }
            }
            TraceEvent::Counter { name, value, .. } => format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"value\":{value}}}}}",
                esc(name)
            ),
            TraceEvent::Instant { name, args, .. } => instant(&esc(name), &args_body(args)),
            TraceEvent::StageCharge {
                request,
                stage,
                from,
                ..
            } => instant("stage", &stage_args(*request, *stage, *from)),
        };
        lines.push(line);
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Export a [`Trace`] as self-describing JSONL: one `track` object per
/// track (in id order), then one object per event in recording order,
/// all times in virtual nanoseconds.
pub fn jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for (id, desc) in trace.tracks.iter().enumerate() {
        out.push_str(&format!(
            "{{\"type\":\"track\",\"id\":{id},\"process\":\"{}\",\"thread\":\"{}\"}}\n",
            esc(&desc.process),
            esc(&desc.thread)
        ));
    }
    let span_id = |id: &Option<u64>| id.map_or("null".to_string(), |i| i.to_string());
    for ev in &trace.events {
        let (track, at) = (ev.track().0, ev.at());
        let instant = |name: &str, args: &str| {
            format!(
                "{{\"type\":\"instant\",\"track\":{track},\"at\":{at},\"name\":\"{name}\",\"args\":{{{args}}}}}"
            )
        };
        let line = match ev {
            TraceEvent::SpanBegin { name, id, args, .. } => format!(
                "{{\"type\":\"span_begin\",\"track\":{track},\"at\":{at},\"name\":\"{}\",\"id\":{},\"args\":{{{}}}}}",
                esc(name),
                span_id(id),
                args_body(args)
            ),
            TraceEvent::SpanEnd { name, id, .. } => format!(
                "{{\"type\":\"span_end\",\"track\":{track},\"at\":{at},\"name\":\"{}\",\"id\":{}}}",
                esc(name),
                span_id(id)
            ),
            TraceEvent::Counter { name, value, .. } => format!(
                "{{\"type\":\"counter\",\"track\":{track},\"at\":{at},\"name\":\"{}\",\"value\":{value}}}",
                esc(name)
            ),
            TraceEvent::Instant { name, args, .. } => instant(&esc(name), &args_body(args)),
            TraceEvent::StageCharge {
                request,
                stage,
                from,
                ..
            } => instant("stage", &stage_args(*request, *stage, *from)),
        };
        out.push_str(&line);
        out.push('\n');
    }
    if out.is_empty() {
        // Every line ends in a newline, and an empty trace is one empty
        // line.
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::trace::Tracer;

    fn sample() -> Trace {
        let t = Tracer::buffered();
        let compute = t.track("GID0", "compute");
        let copy = t.track("GID0", "copy0");
        let slots = t.track("requests", "slot0");
        t.span_begin(
            compute,
            1_000,
            "kernel",
            Some(7),
            vec![("ctx", "C1".into())],
        );
        t.span_begin(copy, 2_000, "h2d", None, vec![("bytes", "4096".into())]);
        t.span_end(copy, 3_000, "h2d", None);
        t.span_end(compute, 4_000, "kernel", Some(7));
        t.instant(slots, 4_500, "dispatch", vec![("request", "0".into())]);
        t.counter(slots, 5_000, "queued", 2.0);
        t.finish().expect("buffered tracer yields a trace")
    }

    #[test]
    fn chrome_json_shape_and_phases() {
        let out = chrome_json(&sample());
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.trim_end().ends_with("]}"));
        // Two processes + three threads named.
        assert_eq!(out.matches("\"process_name\"").count(), 2);
        assert_eq!(out.matches("\"thread_name\"").count(), 3);
        // Async pair for the kernel, sync pair for the copy.
        assert!(out.contains("\"ph\":\"b\",\"id\":7"));
        assert!(out.contains("\"ph\":\"e\",\"id\":7"));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"ph\":\"C\""));
        // ts is µs with ns precision: 1_000 ns = 1.000 µs.
        assert!(out.contains("\"ts\":1.000"));
    }

    #[test]
    fn chrome_tracks_share_pid_within_process() {
        let out = chrome_json(&sample());
        // compute (tid 1) and copy0 (tid 2) live in the same pid 1.
        assert!(out.contains("\"pid\":1,\"tid\":1,\"args\":{\"name\":\"compute\"}"));
        assert!(out.contains("\"pid\":1,\"tid\":2,\"args\":{\"name\":\"copy0\"}"));
        assert!(out.contains("\"pid\":2,\"tid\":3,\"args\":{\"name\":\"slot0\"}"));
    }

    #[test]
    fn jsonl_is_one_object_per_line_in_order() {
        let out = jsonl(&sample());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3 + 6); // 3 tracks + 6 events
        assert!(lines[0].starts_with("{\"type\":\"track\",\"id\":0"));
        assert!(lines[3].contains("\"type\":\"span_begin\""));
        assert!(lines[3].contains("\"at\":1000"));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert_eq!(jsonl(&Trace::default()), "\n");
    }

    #[test]
    fn escaping_handles_quotes_and_newlines() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
