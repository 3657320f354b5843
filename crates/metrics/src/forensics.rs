//! Flight-recorder dump rendering: byte-stable JSONL and a
//! Perfetto-compatible Chrome trace view.
//!
//! A [`FlightDump`] is the frozen window each node's ring held when a
//! trigger fired (see [`sim_core::flight`]). Two renderings:
//!
//! * [`dump_jsonl`] — one self-describing JSON object per line: a dump
//!   header, then per node a window header followed by its records,
//!   oldest first. Identical runs render identical bytes, so CI can
//!   `cmp` dumps across reruns and thread counts.
//! * [`dump_chrome`] — the same window as Chrome trace-event JSON:
//!   each record an instant event, each node a `pid` row, so a 64-node
//!   dump is filterable per node in Perfetto.
//!
//! Id sentinels ([`sim_core::flight::NO_ID`]) render as JSON `null`.

use sim_core::flight::{FlightDump, FlightRecord, NO_ID};

/// Bytes per rendered record, about: a JSONL line runs ~150, a Chrome
/// event ~240 (the record plus its instant-event wrapper).
const JSONL_RECORD_BYTES: usize = 160;
const CHROME_RECORD_BYTES: usize = 256;

/// Append the decimal digits of `v`, the bytes `{v}` gives, without the
/// formatting machinery: a dump renders ten integers per record.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Append an id that may be the [`NO_ID`] sentinel.
fn push_id(out: &mut String, v: u64) {
    if v == NO_ID {
        out.push_str("null");
    } else {
        push_u64(out, v);
    }
}

/// Append a record's fields (no braces).
fn push_record_body(out: &mut String, r: &FlightRecord) {
    out.push_str("\"t\":");
    push_u64(out, r.at);
    out.push_str(",\"node\":");
    push_u64(out, u64::from(r.node));
    out.push_str(",\"kind\":\"");
    out.push_str(r.kind.label());
    out.push_str("\",\"req\":");
    push_id(out, r.request);
    out.push_str(",\"a\":");
    push_u64(out, r.a);
    out.push_str(",\"b\":");
    push_u64(out, r.b);
    out.push_str(",\"id\":");
    push_u64(out, r.id);
    out.push_str(",\"cause\":");
    push_id(out, r.cause);
    out.push_str(",\"ev\":");
    push_id(out, r.ev);
    out.push_str(",\"ev_cause\":");
    push_id(out, r.ev_cause);
}

/// Append virtual time `ns` in microseconds with three decimals, the
/// bytes `{:.3}` gives for `ns as f64 / 1000.0`. Below 2^52 ns (52 days)
/// that quotient is within 2^-11 of `ns / 1000`, less than half the last
/// printed digit, so the integer digits are the same; beyond it the
/// float is formatted.
fn push_micros(out: &mut String, ns: u64) {
    if ns < 1 << 52 {
        push_u64(out, ns / 1000);
        let frac = ns % 1000;
        let digits = [
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ];
        out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
    } else {
        out.push_str(&format!("{:.3}", ns as f64 / 1000.0));
    }
}

/// Records in a dump, over all its nodes.
fn record_count(dump: &FlightDump) -> usize {
    dump.nodes.iter().map(|w| w.records.len()).sum()
}

/// One JSON object per line: dump header, then per-node window headers
/// and records (oldest first). Byte-stable across reruns.
pub fn dump_jsonl(dump: &FlightDump) -> String {
    let mut out = String::with_capacity(
        128 * (1 + dump.nodes.len()) + JSONL_RECORD_BYTES * record_count(dump),
    );
    out.push_str("{\"dump\":{\"reason\":\"");
    out.push_str(dump.reason.label());
    out.push_str("\",\"t\":");
    push_u64(&mut out, dump.at);
    out.push_str(",\"depth\":");
    push_u64(&mut out, dump.depth as u64);
    out.push_str(",\"recorded\":");
    push_u64(&mut out, dump.recorded);
    out.push_str(",\"nodes\":");
    push_u64(&mut out, dump.nodes.len() as u64);
    out.push_str("}}\n");
    for w in &dump.nodes {
        out.push_str("{\"window\":{\"node\":");
        push_u64(&mut out, u64::from(w.node));
        out.push_str(",\"evicted\":");
        push_u64(&mut out, w.evicted);
        out.push_str(",\"records\":");
        push_u64(&mut out, w.records.len() as u64);
        out.push_str("}}\n");
        for r in &w.records {
            out.push('{');
            push_record_body(&mut out, r);
            out.push_str("}\n");
        }
    }
    out
}

/// Chrome trace-event JSON over the dump window: one instant event per
/// record (`pid` = node, `tid` = 0), node rows named `node{N}` so
/// Perfetto's process filter isolates any node of a cluster run.
pub fn dump_chrome(dump: &FlightDump) -> String {
    let mut out = String::with_capacity(
        128 * (1 + dump.nodes.len()) + CHROME_RECORD_BYTES * record_count(dump),
    );
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    for w in &dump.nodes {
        if w.records.is_empty() {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let pid = u64::from(w.node) + 1;
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        push_u64(&mut out, pid);
        out.push_str(",\"args\":{\"name\":\"node");
        push_u64(&mut out, u64::from(w.node));
        out.push_str("\"}}");
        for r in &w.records {
            out.push_str(",\n{\"name\":\"");
            out.push_str(r.kind.label());
            out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
            push_micros(&mut out, r.at);
            out.push_str(",\"pid\":");
            push_u64(&mut out, pid);
            out.push_str(",\"tid\":0,\"args\":{");
            push_record_body(&mut out, r);
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::flight::{DumpReason, FlightKind, FlightRecorder};

    fn sample_dump() -> FlightDump {
        let mut fr = FlightRecorder::new(2, 4);
        for i in 0..6u64 {
            fr.record(FlightRecord {
                at: i * 100,
                node: (i % 2) as u32,
                kind: if i % 2 == 0 {
                    FlightKind::Arrival
                } else {
                    FlightKind::Complete
                },
                request: i,
                a: i * 7,
                b: 0,
                id: 0,
                cause: if i < 2 { NO_ID } else { i - 2 },
                ev: i,
                ev_cause: if i == 0 { NO_ID } else { i - 1 },
            });
        }
        fr.trigger(DumpReason::Fault, 777);
        fr.take_dumps().remove(0)
    }

    #[test]
    fn jsonl_is_stable_and_self_describing() {
        let d = sample_dump();
        let a = dump_jsonl(&d);
        let b = dump_jsonl(&d);
        assert_eq!(a, b);
        assert!(a.starts_with(
            "{\"dump\":{\"reason\":\"fault\",\"t\":777,\"depth\":4,\"recorded\":6,\"nodes\":2}}\n"
        ));
        assert!(a.contains("\"kind\":\"arrival\""));
        assert!(a.contains("\"cause\":null"));
        // One line per dump header + window header per node + record.
        assert_eq!(a.lines().count(), 1 + 2 + 6);
        assert!(a.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    /// The renderers as they were, one `String` per id, record and line.
    mod reference {
        use super::*;
        use std::fmt::Write as _;

        fn opt_id(v: u64) -> String {
            if v == NO_ID {
                "null".into()
            } else {
                v.to_string()
            }
        }

        fn record_body(r: &FlightRecord) -> String {
            format!(
                "\"t\":{},\"node\":{},\"kind\":\"{}\",\"req\":{},\"a\":{},\"b\":{},\"id\":{},\"cause\":{},\"ev\":{},\"ev_cause\":{}",
                r.at,
                r.node,
                r.kind.label(),
                opt_id(r.request),
                r.a,
                r.b,
                r.id,
                opt_id(r.cause),
                opt_id(r.ev),
                opt_id(r.ev_cause),
            )
        }

        pub fn dump_jsonl(dump: &FlightDump) -> String {
            let mut out = String::new();
            writeln!(
                out,
                "{{\"dump\":{{\"reason\":\"{}\",\"t\":{},\"depth\":{},\"recorded\":{},\"nodes\":{}}}}}",
                dump.reason.label(),
                dump.at,
                dump.depth,
                dump.recorded,
                dump.nodes.len(),
            )
            .unwrap();
            for w in &dump.nodes {
                writeln!(
                    out,
                    "{{\"window\":{{\"node\":{},\"evicted\":{},\"records\":{}}}}}",
                    w.node,
                    w.evicted,
                    w.records.len(),
                )
                .unwrap();
                for r in &w.records {
                    writeln!(out, "{{{}}}", record_body(r)).unwrap();
                }
            }
            out
        }

        pub fn dump_chrome(dump: &FlightDump) -> String {
            let mut lines = Vec::new();
            for w in &dump.nodes {
                if w.records.is_empty() {
                    continue;
                }
                lines.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"node{}\"}}}}",
                    w.node + 1,
                    w.node,
                ));
                for r in &w.records {
                    lines.push(format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":0,\"args\":{{{}}}}}",
                        r.kind.label(),
                        r.at as f64 / 1000.0,
                        w.node + 1,
                        record_body(r),
                    ));
                }
            }
            format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
        }
    }

    /// A dump over three nodes, one of them empty, whose record times
    /// span nanoseconds to past 2^52 ns and whose ids include the sentinel.
    fn wide_dump() -> FlightDump {
        let mut fr = FlightRecorder::new(3, 64);
        let times = [
            0,
            1,
            999,
            1_000,
            1_001,
            123_456_789,
            (1 << 52) - 1,
            1 << 52,
            u64::MAX / 3,
        ];
        for (i, &at) in times.iter().enumerate() {
            let i = i as u64;
            fr.record(FlightRecord {
                at,
                node: (i % 2 * 2) as u32,
                kind: FlightKind::Arrival,
                request: if i.is_multiple_of(3) { NO_ID } else { i },
                a: i,
                b: u64::MAX - i,
                id: 0,
                cause: if i.is_multiple_of(2) { NO_ID } else { i - 1 },
                ev: i * 11,
                ev_cause: NO_ID,
            });
        }
        fr.trigger(DumpReason::Fault, 777);
        fr.take_dumps().remove(0)
    }

    #[test]
    fn renders_are_the_per_line_renders_bytes() {
        for d in [sample_dump(), wide_dump()] {
            assert_eq!(dump_jsonl(&d), reference::dump_jsonl(&d));
            assert_eq!(dump_chrome(&d), reference::dump_chrome(&d));
        }
        let empty = FlightRecorder::new(2, 4).snapshot(DumpReason::Explicit, 5);
        assert_eq!(dump_chrome(&empty), reference::dump_chrome(&empty));
        assert_eq!(dump_jsonl(&empty), reference::dump_jsonl(&empty));
    }

    /// The digit writer gives `{v}`'s bytes on both sides of each power
    /// of ten it crosses, at the largest ids and at the sentinel.
    #[test]
    fn digits_match_the_formatter() {
        for v in [0, 9, 10, 999, 1000, u64::MAX - 1, NO_ID] {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"), "{v}");
        }
        let mut id = String::new();
        push_id(&mut id, NO_ID);
        assert_eq!(id, "null");
    }

    /// Integer microseconds match `{:.3}` of the float quotient on both
    /// sides of every thousand and up to the integer path's bound.
    #[test]
    fn micros_match_the_float_rendering() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut probes: Vec<u64> = (0..2_000).collect();
        for shift in 0..64 {
            let base = 1u64 << shift;
            probes.extend([base - 1, base, base + 1, base / 1000 * 1000 + 999]);
        }
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            probes.push(x >> (x % 64));
        }
        for ns in probes {
            let mut out = String::new();
            push_micros(&mut out, ns);
            assert_eq!(out, format!("{:.3}", ns as f64 / 1000.0), "{ns} ns");
        }
    }

    #[test]
    fn chrome_view_groups_records_per_node() {
        let c = dump_chrome(&sample_dump());
        assert!(c.contains("\"name\":\"node0\""));
        assert!(c.contains("\"name\":\"node1\""));
        assert!(c.contains("\"ph\":\"i\""));
        assert!(c.starts_with("{\"traceEvents\":["));
        assert!(c.ends_with("]}\n"));
    }
}
