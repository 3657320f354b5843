//! Unified metrics registry with Prometheus-style export.
//!
//! A [`MetricsRegistry`] is the single sink every layer reports into:
//! sim-core (event-loop counters), gpu-sim (per-device utilization and
//! switch counts), admission (shed/queue gauges) and remoting (RPC
//! counters). The executive *sets* current values — the registry never
//! reads the simulation — and calls [`MetricsRegistry::snapshot`] on a
//! virtual-time cadence, producing two deterministic exports:
//!
//! * [`MetricsRegistry::render_openmetrics`] — Prometheus/OpenMetrics
//!   text exposition of the latest values (`# HELP`/`# TYPE` headers,
//!   `_bucket`/`_sum`/`_count` histogram series, `# EOF` terminator),
//! * [`MetricsRegistry::write_jsonl`] (and [`MetricsRegistry::jsonl`]) —
//!   one JSON object per series per snapshot, a JSONL time series over
//!   virtual time.
//!
//! A snapshot stores numbers, not text, and only what changed: a written
//! series contributes a row — its handle and value, a histogram its
//! handle, count and sum — when it is first written and whenever its
//! value differs from its last row (values compare by bits). The JSONL
//! export replays the rows, carrying each series' value forward, and
//! renders a line for every series that has a row by then, through each
//! series' fields rendered once at resolution. So a run's snapshots cost
//! what changes between them, while the export is unchanged: one line per
//! written series per snapshot.
//!
//! Determinism: families and series render in `BTreeMap` order, values
//! format through Rust's shortest-round-trip float `Display`, and all
//! timestamps are virtual nanoseconds — so output is byte-identical
//! across reruns and host thread counts.

use sim_core::SimTime;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io;

/// What kind of metric a family is (drives the `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing total.
    Counter,
    /// Point-in-time level.
    Gauge,
    /// Fixed-bucket cumulative histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Fixed latency buckets (ns): 1ms … 5s. Fixed so histogram output is
/// comparable across runs and stacks — never derived from the data.
pub const LATENCY_BUCKETS_NS: [u64; 12] = [
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
];

#[derive(Debug, Clone, PartialEq)]
struct Family {
    kind: MetricKind,
    help: &'static str,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Hist {
    /// Cumulative counts per `LATENCY_BUCKETS_NS` bucket (le semantics).
    counts: [u64; LATENCY_BUCKETS_NS.len()],
    sum: u64,
    count: u64,
}

/// Escape a label value per the OpenMetrics exposition grammar: inside a
/// quoted label value, `\`, `"` and newline must be written `\\`, `\"`
/// and `\n`.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Canonical label rendering: `{k1="v1",k2="v2"}` (insertion order of the
/// call site, which every call site keeps fixed), empty string when
/// unlabelled. Values are escaped per the exposition grammar, so tenant
/// names containing `"` or newlines stay parseable.
fn label_str(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Handle to one counter/gauge series, from [`MetricsRegistry::series`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// Handle to one histogram series, from [`MetricsRegistry::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// The state of one series, as a snapshot row keeps it.
trait SeriesState {
    /// What a snapshot keeps: equal rows render the same JSONL line.
    type Row: Copy + PartialEq + fmt::Debug;
    fn row(&self) -> Self::Row;
    /// Write the JSONL fields that follow the series' mid-fields.
    fn write_row(row: Self::Row, out: &mut impl io::Write) -> io::Result<()>;
}

impl SeriesState for f64 {
    /// The value's bits: `-0.0` differs from `0.0`, and NaN equals itself.
    type Row = u64;

    fn row(&self) -> u64 {
        self.to_bits()
    }

    fn write_row(row: u64, out: &mut impl io::Write) -> io::Result<()> {
        write!(out, "{}", FmtValue(f64::from_bits(row)))
    }
}

impl SeriesState for Hist {
    /// `(count, sum)`: what the JSONL line shows.
    type Row = (u64, u64);

    fn row(&self) -> (u64, u64) {
        (self.count, self.sum)
    }

    fn write_row((count, sum): (u64, u64), out: &mut impl io::Write) -> io::Result<()> {
        write!(out, "{count},\"sum\":{sum}")
    }
}

/// Series of one kind, addressed by handle and rendered in
/// `(name, rendered labels)` order. A series' state is `None` until its
/// first write, so a resolved-but-unwritten series renders nowhere.
#[derive(Debug, Clone, PartialEq)]
struct SeriesTable<T: SeriesState> {
    /// `(name, rendered labels)` → handle; iteration order is the render
    /// order.
    index: BTreeMap<(String, String), u32>,
    /// Per handle: the JSONL fields between the timestamp and the value
    /// (`,"name":"…","labels":"…","value":` or `…"count":`), as a byte
    /// range into `mids`.
    mid: Vec<(u32, u32)>,
    /// Every handle's JSONL mid-fields, rendered once, back to back.
    mids: String,
    /// Per handle: the current value.
    state: Vec<Option<T>>,
    /// Per handle: its newest snapshot row (`None` before its first).
    last: Vec<Option<T::Row>>,
    /// Every snapshot's rows, `(handle, row)`, in snapshot order: a
    /// series' first row, then one per snapshot that found it changed.
    rows: Vec<(u32, T::Row)>,
    /// The JSONL field that follows the labels (`value` or `count`).
    field: &'static str,
}

impl<T: SeriesState> SeriesTable<T> {
    fn new(field: &'static str) -> Self {
        SeriesTable {
            index: BTreeMap::new(),
            mid: Vec::new(),
            mids: String::new(),
            state: Vec::new(),
            last: Vec::new(),
            rows: Vec::new(),
            field,
        }
    }

    /// The handle index of `(name, labels)`, resolving it on first use.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)]) -> u32 {
        let next = self.state.len() as u32;
        match self.index.entry((name.to_string(), label_str(labels))) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let (name, labels) = e.key();
                let start = self.mids.len() as u32;
                write!(
                    self.mids,
                    ",\"name\":\"{name}\",\"labels\":\"{}\",\"{}\":",
                    labels.replace('"', "'"),
                    self.field
                )
                .unwrap();
                self.mid.push((start, self.mids.len() as u32));
                self.state.push(None);
                self.last.push(None);
                *e.insert(next)
            }
        }
    }

    /// Append a row for every written series whose state differs from
    /// its newest row; returns where the rows now end.
    fn snapshot(&mut self) -> usize {
        for (i, (state, last)) in self.state.iter().zip(&mut self.last).enumerate() {
            let Some(row) = state.as_ref().map(T::row) else {
                continue;
            };
            if *last != Some(row) {
                *last = Some(row);
                self.rows.push((i as u32, row));
            }
        }
        self.rows.len()
    }

    /// Write the JSONL lines of each snapshot in turn; see [`Replay`].
    fn replay(&self) -> Replay<'_, T> {
        Replay {
            order: self.index.values().copied().collect(),
            current: vec![None; self.state.len()],
            next: 0,
            table: self,
        }
    }

    /// Handle `i`'s JSONL mid-fields.
    fn mid(&self, i: u32) -> &str {
        let (a, b) = self.mid[i as usize];
        &self.mids[a as usize..b as usize]
    }

    /// Written series of family `name`, as `(rendered labels, state)` in
    /// label order.
    fn family<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, &'a T)> {
        self.index
            .range((name.to_string(), String::new())..)
            .take_while(move |((n, _), _)| n == name)
            .filter_map(|((_, labels), &i)| {
                self.state[i as usize]
                    .as_ref()
                    .map(|v| (labels.as_str(), v))
            })
    }

    fn written_count(&self) -> usize {
        self.state.iter().filter(|s| s.is_some()).count()
    }
}

/// Renders a table's snapshots from its rows, oldest first, carrying each
/// series' newest row forward.
struct Replay<'a, T: SeriesState> {
    table: &'a SeriesTable<T>,
    /// Every handle, in render order.
    order: Vec<u32>,
    /// Per handle: its newest row replayed so far.
    current: Vec<Option<T::Row>>,
    /// The first row not replayed yet.
    next: usize,
}

impl<T: SeriesState> Replay<'_, T> {
    /// Apply the next snapshot's rows, which end at `end`, and write one
    /// line stamped `t` per series with a row by then, in render order.
    fn write_snapshot(
        &mut self,
        t: SimTime,
        end: usize,
        out: &mut impl io::Write,
    ) -> io::Result<()> {
        for &(i, row) in &self.table.rows[self.next..end] {
            self.current[i as usize] = Some(row);
        }
        self.next = end;
        for &i in &self.order {
            if let Some(row) = self.current[i as usize] {
                write!(out, "{{\"t\":{t}{}", self.table.mid(i))?;
                T::write_row(row, out)?;
                out.write_all(b"}\n")?;
            }
        }
        Ok(())
    }
}

/// The unified registry. See the module docs for the contract.
///
/// Series are addressed by handle: [`MetricsRegistry::series`] and
/// [`MetricsRegistry::histogram`] resolve a `(name, labels)` pair once,
/// and [`MetricsRegistry::set_series`] / [`MetricsRegistry::observe_series`]
/// then store without building any string. A series exists — in
/// snapshots, the exposition and [`MetricsRegistry::series_count`] —
/// from its first write on; resolving a handle alone changes nothing.
///
/// ```
/// use strings_metrics::registry::{MetricKind, MetricsRegistry};
///
/// let mut r = MetricsRegistry::new();
/// r.register("gpu_busy", MetricKind::Gauge, "Busy fraction");
/// let gid0 = r.series("gpu_busy", &[("gid", "0")]);
/// let _unused = r.series("gpu_busy", &[("gid", "1")]);
/// r.set_series(gid0, 0.5);
/// r.snapshot(1_000);
/// assert_eq!(
///     r.jsonl(),
///     "{\"t\":1000,\"name\":\"gpu_busy\",\"labels\":\"{gid='0'}\",\"value\":0.5}\n"
/// );
/// assert_eq!(r.series_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    families: BTreeMap<&'static str, Family>,
    values: SeriesTable<f64>,
    histograms: SeriesTable<Hist>,
    /// One marker per snapshot: its virtual time and where its rows end
    /// in each table.
    snapshots: Vec<Snapshot>,
}

/// Where one snapshot's rows end (they start where the previous
/// snapshot's end).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Snapshot {
    t: SimTime,
    values_end: usize,
    hists_end: usize,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            families: BTreeMap::new(),
            values: SeriesTable::new("value"),
            histograms: SeriesTable::new("count"),
            snapshots: Vec::new(),
        }
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a metric family. Idempotent; the first registration's
    /// kind/help win.
    pub fn register(&mut self, name: &'static str, kind: MetricKind, help: &'static str) {
        self.families.entry(name).or_insert(Family { kind, help });
    }

    /// Resolve the counter/gauge series `(name, labels)` to a handle for
    /// [`MetricsRegistry::set_series`]. Resolving the same pair again
    /// returns the same handle.
    pub fn series(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        SeriesId(self.values.resolve(name, labels))
    }

    /// Resolve the histogram series `(name, labels)` to a handle for
    /// [`MetricsRegistry::observe_series`].
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        HistogramId(self.histograms.resolve(name, labels))
    }

    /// Set the current value of a counter or gauge series. Counters are
    /// set to their absolute running total (the executive owns the
    /// monotonicity), gauges to the current level.
    #[inline]
    pub fn set_series(&mut self, id: SeriesId, value: f64) {
        self.values.state[id.0 as usize] = Some(value);
    }

    /// [`MetricsRegistry::set_series`] by name, resolving the series on
    /// the way.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let id = self.series(name, labels);
        self.set_series(id, value);
    }

    /// Record one observation into a fixed-bucket latency histogram.
    ///
    /// Bucket upper edges are **inclusive** (`value <= le`, OpenMetrics
    /// `le` semantics): an observation equal to a boundary lands in that
    /// boundary's bucket. Observations above the largest finite bucket
    /// are visible only in `le="+Inf"`, which by construction always
    /// equals the series' total `_count`.
    pub fn observe_series(&mut self, id: HistogramId, value_ns: u64) {
        let h = self.histograms.state[id.0 as usize].get_or_insert_with(Hist::default);
        for (i, &le) in LATENCY_BUCKETS_NS.iter().enumerate() {
            if value_ns <= le {
                h.counts[i] += 1;
            }
        }
        h.sum += value_ns;
        h.count += 1;
    }

    /// [`MetricsRegistry::observe_series`] by name, resolving the series
    /// on the way.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value_ns: u64) {
        let id = self.histogram(name, labels);
        self.observe_series(id, value_ns);
    }

    /// Number of live (written) series, counter/gauge plus histogram.
    pub fn series_count(&self) -> usize {
        self.values.written_count() + self.histograms.written_count()
    }

    /// Number of snapshots taken so far.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Capture the current state as one snapshot stamped `now` (virtual
    /// time, ns): a row, kept as numbers until the JSONL export renders
    /// it, for every written series first written or changed since its
    /// last row.
    pub fn snapshot(&mut self, now: SimTime) {
        self.snapshots.push(Snapshot {
            t: now,
            values_end: self.values.snapshot(),
            hists_end: self.histograms.snapshot(),
        });
    }

    /// Write the JSONL time-series export to `out`: one line per series
    /// per snapshot, each newline-terminated, nothing when no snapshot was
    /// taken. Wrap a file in a [`io::BufWriter`]: every line is several
    /// small writes.
    pub fn write_jsonl(&self, out: &mut impl io::Write) -> io::Result<()> {
        let (mut values, mut hists) = (self.values.replay(), self.histograms.replay());
        for s in &self.snapshots {
            values.write_snapshot(s.t, s.values_end, out)?;
            hists.write_snapshot(s.t, s.hists_end, out)?;
        }
        Ok(())
    }

    /// The JSONL time-series export as one string (see
    /// [`MetricsRegistry::write_jsonl`]).
    pub fn jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the export is UTF-8")
    }

    /// OpenMetrics text exposition of the latest values.
    pub fn render_openmetrics(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            writeln!(out, "# HELP {name} {}", fam.help).unwrap();
            writeln!(out, "# TYPE {name} {}", fam.kind.as_str()).unwrap();
            if fam.kind == MetricKind::Histogram {
                for (labels, h) in self.histograms.family(name) {
                    for (i, &le) in LATENCY_BUCKETS_NS.iter().enumerate() {
                        writeln!(
                            out,
                            "{name}_bucket{} {}",
                            merge_label(labels, "le", &le.to_string()),
                            h.counts[i]
                        )
                        .unwrap();
                    }
                    // `+Inf` is the total observation count, never the
                    // last finite bucket: observations above the top
                    // finite edge must still be counted here.
                    writeln!(
                        out,
                        "{name}_bucket{} {}",
                        merge_label(labels, "le", "+Inf"),
                        h.count
                    )
                    .unwrap();
                    writeln!(out, "{name}_sum{labels} {}", h.sum).unwrap();
                    writeln!(out, "{name}_count{labels} {}", h.count).unwrap();
                }
            } else {
                for (labels, value) in self.values.family(name) {
                    writeln!(out, "{name}{labels} {}", FmtValue(*value)).unwrap();
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Append one label to an already-rendered label set.
fn merge_label(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}

/// Deterministic value formatting: integral values print without a
/// decimal point, everything else through shortest-round-trip Display.
struct FmtValue(f64);

impl fmt::Display for FmtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.fract() == 0.0 && v.abs() < 9e15 {
            write!(f, "{}", v as i64)
        } else {
            write!(f, "{v}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.register("sim_events_total", MetricKind::Counter, "Events dispatched");
        r.register("gpu_occupancy", MetricKind::Gauge, "Compute occupancy");
        r.register(
            "request_latency_ns",
            MetricKind::Histogram,
            "End-to-end request latency",
        );
        r.set("sim_events_total", &[], 1234.0);
        r.set("gpu_occupancy", &[("gid", "0")], 0.75);
        r.set("gpu_occupancy", &[("gid", "1")], 0.5);
        r.observe("request_latency_ns", &[("tenant", "0")], 3_000_000);
        r.observe("request_latency_ns", &[("tenant", "0")], 40_000_000);
        r
    }

    #[test]
    fn openmetrics_layout_and_order() {
        let r = sample_registry();
        let text = r.render_openmetrics();
        // Families render in name order with HELP/TYPE headers.
        let gpu = text.find("# TYPE gpu_occupancy gauge").unwrap();
        let lat = text.find("# TYPE request_latency_ns histogram").unwrap();
        let sim = text.find("# TYPE sim_events_total counter").unwrap();
        assert!(gpu < lat && lat < sim);
        assert!(text.contains("gpu_occupancy{gid=\"0\"} 0.75"));
        assert!(text.contains("sim_events_total 1234"));
        // Histogram: cumulative buckets, merged le label, sum/count.
        assert!(text.contains("request_latency_ns_bucket{tenant=\"0\",le=\"5000000\"} 1"));
        assert!(text.contains("request_latency_ns_bucket{tenant=\"0\",le=\"+Inf\"} 2"));
        assert!(text.contains("request_latency_ns_sum{tenant=\"0\"} 43000000"));
        assert!(text.contains("request_latency_ns_count{tenant=\"0\"} 2"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut r = MetricsRegistry::new();
        r.register("h", MetricKind::Histogram, "x");
        r.observe("h", &[], 1_000_000); // le 1ms and everything above
        r.observe("h", &[], 1_500_000); // le 2ms up
        let text = r.render_openmetrics();
        assert!(text.contains("h_bucket{le=\"1000000\"} 1"));
        assert!(text.contains("h_bucket{le=\"2000000\"} 2"));
        assert!(text.contains("h_bucket{le=\"5000000000\"} 2"));
    }

    /// Boundary conformance: one observation exactly on every finite
    /// bucket edge, plus one strictly above the top edge. Inclusive `le`
    /// semantics put each edge value in its own bucket, so bucket `i`
    /// must read exactly `i + 1`; the over-the-top observation appears
    /// only in `le="+Inf"`, which must equal the series total `_count`
    /// (not the last finite bucket).
    #[test]
    fn histogram_boundary_conformance() {
        let mut r = MetricsRegistry::new();
        r.register("h", MetricKind::Histogram, "boundary probe");
        for &edge in LATENCY_BUCKETS_NS.iter() {
            r.observe("h", &[], edge);
        }
        let above_top = LATENCY_BUCKETS_NS[LATENCY_BUCKETS_NS.len() - 1] + 1;
        r.observe("h", &[], above_top);
        let total = LATENCY_BUCKETS_NS.len() as u64 + 1;

        let text = r.render_openmetrics();
        let mut prev = 0u64;
        for (i, &le) in LATENCY_BUCKETS_NS.iter().enumerate() {
            let line = format!("h_bucket{{le=\"{le}\"}} ");
            let at = text.find(&line).unwrap_or_else(|| panic!("missing {line}"));
            let count: u64 = text[at + line.len()..]
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(count, i as u64 + 1, "inclusive edge at le={le}");
            assert!(count >= prev, "buckets must be monotone non-decreasing");
            prev = count;
        }
        // +Inf strictly exceeds the top finite bucket (the over-the-top
        // sample lives nowhere else) and equals the series total.
        assert!(text.contains(&format!("h_bucket{{le=\"+Inf\"}} {total}")));
        assert!(prev < total);
        assert!(text.contains(&format!("h_count {total}")));
        let sum: u64 = LATENCY_BUCKETS_NS.iter().sum::<u64>() + above_top;
        assert!(text.contains(&format!("h_sum {sum}")));
    }

    #[test]
    fn jsonl_snapshots_accumulate() {
        let mut r = sample_registry();
        assert_eq!(r.jsonl(), "");
        r.snapshot(1_000_000_000);
        r.set("sim_events_total", &[], 2000.0);
        r.snapshot(2_000_000_000);
        assert_eq!(r.snapshot_count(), 2);
        let body = r.jsonl();
        let lines: Vec<&str> = body.lines().map(str::trim).collect();
        // 3 value series + 1 histogram series per snapshot.
        assert_eq!(lines.len(), 8);
        assert!(lines[0].starts_with("{\"t\":1000000000,"));
        assert!(lines.iter().any(|l| l.contains("\"value\":2000")));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    /// A series first written between two snapshots appears from the
    /// second one on, in its render position, and the first snapshot's
    /// lines are unchanged by it.
    #[test]
    fn series_first_written_between_snapshots_joins_later_ones() {
        let mut r = MetricsRegistry::new();
        let b = r.series("g", &[("k", "b")]);
        r.set_series(b, 2.0);
        r.snapshot(1);
        let first = r.jsonl();
        let a = r.series("g", &[("k", "a")]);
        r.set_series(a, 1.0);
        r.observe("h", &[], 5);
        r.snapshot(2);
        let body = r.jsonl();
        assert!(body.starts_with(&first));
        assert_eq!(
            &body[first.len()..],
            concat!(
                "{\"t\":2,\"name\":\"g\",\"labels\":\"{k='a'}\",\"value\":1}\n",
                "{\"t\":2,\"name\":\"g\",\"labels\":\"{k='b'}\",\"value\":2}\n",
                "{\"t\":2,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":5}\n",
            )
        );
        assert_eq!(
            first,
            "{\"t\":1,\"name\":\"g\",\"labels\":\"{k='b'}\",\"value\":2}\n"
        );
    }

    /// Snapshots of a registry nobody wrote count, but render no line.
    #[test]
    fn snapshots_of_an_unwritten_registry_render_nothing() {
        let mut r = MetricsRegistry::new();
        r.register("g", MetricKind::Gauge, "never written");
        let _unused = r.series("g", &[]);
        r.snapshot(1);
        r.snapshot(2);
        assert_eq!(r.snapshot_count(), 2);
        assert_eq!(r.series_count(), 0);
        assert_eq!(r.jsonl(), "");
        assert_eq!(
            r.render_openmetrics(),
            "# HELP g never written\n# TYPE g gauge\n# EOF\n"
        );
    }

    /// The streaming writer and the string export are the same bytes.
    #[test]
    fn write_jsonl_streams_the_jsonl_bytes() {
        let r = pinned_registry();
        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        assert_eq!(out, PINNED_JSONL.as_bytes());
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = sample_registry().render_openmetrics();
        let b = sample_registry().render_openmetrics();
        assert_eq!(a, b);
    }

    #[test]
    fn fmt_value_shapes() {
        let fmt_value = |v: f64| FmtValue(v).to_string();
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(0.25), "0.25");
        assert_eq!(fmt_value(-2.0), "-2");
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = MetricsRegistry::new();
        r.register("g", MetricKind::Gauge, "gauge with hostile labels");
        r.set("g", &[("tenant", "acme \"prod\"\nbeta\\x")], 1.0);
        let text = r.render_openmetrics();
        assert!(
            text.contains(r#"g{tenant="acme \"prod\"\nbeta\\x"} 1"#),
            "got: {text}"
        );
        // The sample stays on one exposition line despite the newline in
        // the label value.
        let sample = text.lines().find(|l| l.starts_with("g{")).unwrap();
        assert!(sample.ends_with(" 1"));
    }

    /// Minimal conformance check against the OpenMetrics text exposition
    /// grammar: every line is a HELP/TYPE comment or a `name{labels} value`
    /// sample with balanced, properly-escaped quoting, and the exposition
    /// ends with the mandatory `# EOF` terminator.
    fn assert_conformant(text: &str) {
        assert!(text.ends_with("# EOF\n"), "missing # EOF terminator");
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !s.starts_with(|c: char| c.is_ascii_digit())
        };
        for line in text.lines() {
            if line == "# EOF" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                let (kw, body) = rest.split_once(' ').expect("comment body");
                assert!(kw == "HELP" || kw == "TYPE", "unknown comment {kw}");
                let (name, tail) = body.split_once(' ').expect("metric name");
                assert!(name_ok(name), "bad family name {name}");
                if kw == "TYPE" {
                    assert!(
                        ["counter", "gauge", "histogram"].contains(&tail),
                        "bad type {tail}"
                    );
                }
                continue;
            }
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').expect("sample value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable value {value}"
            );
            let name = match series.split_once('{') {
                None => series,
                Some((name, labels)) => {
                    let labels = labels.strip_suffix('}').expect("unterminated label set");
                    // Walk `k="v",k="v"` with escape-aware value scanning.
                    let mut rest = labels;
                    while !rest.is_empty() {
                        let (key, tail) = rest.split_once("=\"").expect("label key");
                        assert!(name_ok(key), "bad label key {key}");
                        let mut esc = false;
                        let mut end = None;
                        for (i, c) in tail.char_indices() {
                            if esc {
                                assert!(
                                    matches!(c, '\\' | '"' | 'n'),
                                    "bad escape \\{c} in label value"
                                );
                                esc = false;
                            } else if c == '\\' {
                                esc = true;
                            } else if c == '"' {
                                end = Some(i);
                                break;
                            } else {
                                assert!(c != '\n', "raw newline in label value");
                            }
                        }
                        let end = end.expect("unterminated label value");
                        rest = tail[end + 1..]
                            .strip_prefix(',')
                            .unwrap_or(&tail[end + 1..]);
                    }
                    name
                }
            };
            assert!(
                name_ok(
                    name.trim_end_matches("_bucket")
                        .trim_end_matches("_sum")
                        .trim_end_matches("_count")
                ),
                "bad sample name {name}"
            );
        }
    }

    #[test]
    fn exposition_conforms_to_the_grammar() {
        let mut r = sample_registry();
        r.set("g", &[("tenant", "we\"ird\nname\\7")], 0.5);
        r.register("g", MetricKind::Gauge, "hostile-label gauge");
        assert_conformant(&r.render_openmetrics());
    }

    /// A registry exercising every rendering path: counters, gauges and
    /// histograms, a label value needing every escape, lexicographic label
    /// order (`gid="10"` before `gid="2"`), a family nobody registered, an
    /// observation above the top bucket, and series first written after
    /// earlier snapshots.
    fn pinned_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.register("sim_events_total", MetricKind::Counter, "Events dispatched");
        r.register("gpu_occupancy", MetricKind::Gauge, "Compute occupancy");
        r.register("request_latency_ns", MetricKind::Histogram, "Latency");
        r.register("tenant_level", MetricKind::Gauge, "Hostile labels");
        r.set("sim_events_total", &[], 1234.0);
        r.set("gpu_occupancy", &[("gid", "2")], 0.75);
        r.set("gpu_occupancy", &[("gid", "10")], 0.5);
        r.observe("request_latency_ns", &[("tenant", "0")], 3_000_000);
        r.observe("request_latency_ns", &[("tenant", "0")], 40_000_000);
        r.observe("request_latency_ns", &[("tenant", "1")], 7_000_000_000);
        r.snapshot(1_000_000_000);
        r.set(
            "tenant_level",
            &[("tenant", "acme \"prod\"\nbeta\\x"), ("zone", "b")],
            0.125,
        );
        r.set("unregistered_gauge", &[("k", "v")], 3.0);
        r.observe("request_latency_ns", &[("tenant", "2")], 1_000_000);
        r.set("sim_events_total", &[], 2000.0);
        r.snapshot(2_000_000_000);
        r.set("gpu_occupancy", &[("gid", "2")], 1e20);
        r.set("gpu_occupancy", &[("gid", "10")], -2.5);
        r.snapshot(3_000_000_000);
        r
    }

    /// JSONL bytes of [`pinned_registry`]. Snapshot rendering is an
    /// output format other tools read, so any byte change must fail here.
    const PINNED_JSONL: &str = concat!(
        "{\"t\":1000000000,\"name\":\"gpu_occupancy\",\"labels\":\"{gid='10'}\",\"value\":0.5}\n",
        "{\"t\":1000000000,\"name\":\"gpu_occupancy\",\"labels\":\"{gid='2'}\",\"value\":0.75}\n",
        "{\"t\":1000000000,\"name\":\"sim_events_total\",\"labels\":\"\",\"value\":1234}\n",
        "{\"t\":1000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='0'}\",\"count\":2,\"sum\":43000000}\n",
        "{\"t\":1000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='1'}\",\"count\":1,\"sum\":7000000000}\n",
        "{\"t\":2000000000,\"name\":\"gpu_occupancy\",\"labels\":\"{gid='10'}\",\"value\":0.5}\n",
        "{\"t\":2000000000,\"name\":\"gpu_occupancy\",\"labels\":\"{gid='2'}\",\"value\":0.75}\n",
        "{\"t\":2000000000,\"name\":\"sim_events_total\",\"labels\":\"\",\"value\":2000}\n",
        "{\"t\":2000000000,\"name\":\"tenant_level\",\"labels\":\"{tenant='acme \\'prod\\'\\nbeta\\\\x',zone='b'}\",\"value\":0.125}\n",
        "{\"t\":2000000000,\"name\":\"unregistered_gauge\",\"labels\":\"{k='v'}\",\"value\":3}\n",
        "{\"t\":2000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='0'}\",\"count\":2,\"sum\":43000000}\n",
        "{\"t\":2000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='1'}\",\"count\":1,\"sum\":7000000000}\n",
        "{\"t\":2000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='2'}\",\"count\":1,\"sum\":1000000}\n",
        "{\"t\":3000000000,\"name\":\"gpu_occupancy\",\"labels\":\"{gid='10'}\",\"value\":-2.5}\n",
        "{\"t\":3000000000,\"name\":\"gpu_occupancy\",\"labels\":\"{gid='2'}\",\"value\":100000000000000000000}\n",
        "{\"t\":3000000000,\"name\":\"sim_events_total\",\"labels\":\"\",\"value\":2000}\n",
        "{\"t\":3000000000,\"name\":\"tenant_level\",\"labels\":\"{tenant='acme \\'prod\\'\\nbeta\\\\x',zone='b'}\",\"value\":0.125}\n",
        "{\"t\":3000000000,\"name\":\"unregistered_gauge\",\"labels\":\"{k='v'}\",\"value\":3}\n",
        "{\"t\":3000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='0'}\",\"count\":2,\"sum\":43000000}\n",
        "{\"t\":3000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='1'}\",\"count\":1,\"sum\":7000000000}\n",
        "{\"t\":3000000000,\"name\":\"request_latency_ns\",\"labels\":\"{tenant='2'}\",\"count\":1,\"sum\":1000000}\n",
    );

    /// OpenMetrics bytes of [`pinned_registry`], recorded alongside
    /// [`PINNED_JSONL`].
    const PINNED_OPENMETRICS: &str = concat!(
        "# HELP gpu_occupancy Compute occupancy\n",
        "# TYPE gpu_occupancy gauge\n",
        "gpu_occupancy{gid=\"10\"} -2.5\n",
        "gpu_occupancy{gid=\"2\"} 100000000000000000000\n",
        "# HELP request_latency_ns Latency\n",
        "# TYPE request_latency_ns histogram\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"1000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"2000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"5000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"10000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"20000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"50000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"100000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"200000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"500000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"1000000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"2000000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"5000000000\"} 2\n",
        "request_latency_ns_bucket{tenant=\"0\",le=\"+Inf\"} 2\n",
        "request_latency_ns_sum{tenant=\"0\"} 43000000\n",
        "request_latency_ns_count{tenant=\"0\"} 2\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"1000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"2000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"5000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"10000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"20000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"50000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"100000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"200000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"500000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"1000000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"2000000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"5000000000\"} 0\n",
        "request_latency_ns_bucket{tenant=\"1\",le=\"+Inf\"} 1\n",
        "request_latency_ns_sum{tenant=\"1\"} 7000000000\n",
        "request_latency_ns_count{tenant=\"1\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"1000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"2000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"5000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"10000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"20000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"50000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"100000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"200000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"500000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"1000000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"2000000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"5000000000\"} 1\n",
        "request_latency_ns_bucket{tenant=\"2\",le=\"+Inf\"} 1\n",
        "request_latency_ns_sum{tenant=\"2\"} 1000000\n",
        "request_latency_ns_count{tenant=\"2\"} 1\n",
        "# HELP sim_events_total Events dispatched\n",
        "# TYPE sim_events_total counter\n",
        "sim_events_total 2000\n",
        "# HELP tenant_level Hostile labels\n",
        "# TYPE tenant_level gauge\n",
        "tenant_level{tenant=\"acme \\\"prod\\\"\\nbeta\\\\x\",zone=\"b\"} 0.125\n",
        "# EOF\n",
    );

    #[test]
    fn registry_bytes_are_pinned() {
        let r = pinned_registry();
        assert_eq!(r.jsonl(), PINNED_JSONL);
        assert_eq!(r.render_openmetrics(), PINNED_OPENMETRICS);
        assert_eq!(r.series_count(), 8);
    }

    /// The same history written through handles renders the same bytes,
    /// and handles resolved but never written render nowhere: not in a
    /// snapshot, the exposition or the series count, even when their
    /// family is registered.
    #[test]
    fn handles_match_names_and_unwritten_handles_render_nowhere() {
        let mut r = MetricsRegistry::new();
        let ghost = r.series("gpu_occupancy", &[("gid", "99")]);
        let ghost_hist = r.histogram("request_latency_ns", &[("tenant", "99")]);
        let events = r.series("sim_events_total", &[]);
        assert_eq!(
            r.series("sim_events_total", &[]),
            events,
            "resolution is idempotent"
        );
        r.register("sim_events_total", MetricKind::Counter, "Events dispatched");
        r.register("gpu_occupancy", MetricKind::Gauge, "Compute occupancy");
        r.register("request_latency_ns", MetricKind::Histogram, "Latency");
        r.register("tenant_level", MetricKind::Gauge, "Hostile labels");
        let gid2 = r.series("gpu_occupancy", &[("gid", "2")]);
        let gid10 = r.series("gpu_occupancy", &[("gid", "10")]);
        let t0 = r.histogram("request_latency_ns", &[("tenant", "0")]);
        let t1 = r.histogram("request_latency_ns", &[("tenant", "1")]);
        let t2 = r.histogram("request_latency_ns", &[("tenant", "2")]);
        let level = r.series(
            "tenant_level",
            &[("tenant", "acme \"prod\"\nbeta\\x"), ("zone", "b")],
        );
        let unregistered = r.series("unregistered_gauge", &[("k", "v")]);
        r.set_series(events, 1234.0);
        r.set_series(gid2, 0.75);
        r.set_series(gid10, 0.5);
        r.observe_series(t0, 3_000_000);
        r.observe_series(t0, 40_000_000);
        r.observe_series(t1, 7_000_000_000);
        r.snapshot(1_000_000_000);
        r.set_series(level, 0.125);
        r.set_series(unregistered, 3.0);
        r.observe_series(t2, 1_000_000);
        r.set_series(events, 2000.0);
        r.snapshot(2_000_000_000);
        r.set_series(gid2, 1e20);
        r.set_series(gid10, -2.5);
        r.snapshot(3_000_000_000);
        assert_eq!(r.jsonl(), PINNED_JSONL);
        assert_eq!(r.render_openmetrics(), PINNED_OPENMETRICS);
        assert_eq!(r.series_count(), 8);
        assert!(!r.jsonl().contains("99"));
        assert!(!r.render_openmetrics().contains("99"));
        // A later write brings the series into existence from then on.
        r.set_series(ghost, 1.0);
        r.observe_series(ghost_hist, 1);
        assert_eq!(r.series_count(), 10);
        assert!(r
            .render_openmetrics()
            .contains("gpu_occupancy{gid=\"99\"} 1"));
        assert!(!r.jsonl().contains("99"), "earlier snapshots are unchanged");
    }
}

#[cfg(test)]
mod differential {
    //! Registry-vs-reference differential: the JSONL export must be what
    //! rendering every written series at every snapshot gives — the
    //! reference below renders each snapshot's lines as it is taken —
    //! whatever the history of writes, values and snapshots.

    use super::{label_str, FmtValue, MetricsRegistry};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// Renders every written series' current value at each snapshot.
    #[derive(Default)]
    struct Reference {
        values: BTreeMap<(String, String), f64>,
        hists: BTreeMap<(String, String), (u64, u64)>,
        jsonl: String,
    }

    impl Reference {
        fn key(name: &str, labels: &[(&str, &str)]) -> (String, String) {
            (name.to_string(), label_str(labels))
        }

        fn snapshot(&mut self, t: u64) {
            let out = &mut self.jsonl;
            for ((name, labels), v) in &self.values {
                let labels = labels.replace('"', "'");
                let v = FmtValue(*v);
                writeln!(
                    out,
                    "{{\"t\":{t},\"name\":\"{name}\",\"labels\":\"{labels}\",\"value\":{v}}}"
                )
                .unwrap();
            }
            for ((name, labels), (count, sum)) in &self.hists {
                let labels = labels.replace('"', "'");
                writeln!(out, "{{\"t\":{t},\"name\":\"{name}\",\"labels\":\"{labels}\",\"count\":{count},\"sum\":{sum}}}").unwrap();
            }
        }
    }

    /// One step of a history: set series `k` of family `g` to a value,
    /// observe into histogram `k`, or take a snapshot.
    #[derive(Debug, Clone)]
    enum Op {
        Set(usize, f64),
        Observe(usize, u64),
        Snapshot,
    }

    const LABELS: [&str; 5] = ["a", "b", "c\"q", "10", "2"];

    fn op() -> impl Strategy<Value = Op> {
        const VALUES: [f64; 7] = [0.0, -0.0, 1.0, 2.5, f64::NAN, 1e20, -3.0];
        prop_oneof![
            (0usize..LABELS.len(), 0usize..VALUES.len()).prop_map(|(k, v)| Op::Set(k, VALUES[v])),
            (0usize..LABELS.len(), 0u64..3).prop_map(|(k, v)| Op::Set(k, v as f64)),
            (0usize..LABELS.len(), 0u64..3).prop_map(|(k, v)| Op::Observe(k, v * 1_500_000)),
            Just(Op::Snapshot),
            Just(Op::Snapshot),
        ]
    }

    /// Apply `ops` to a registry and to the reference.
    fn replay(ops: &[Op]) -> (MetricsRegistry, Reference) {
        let mut r = MetricsRegistry::new();
        let mut reference = Reference::default();
        let mut t = 0;
        for op in ops {
            match *op {
                Op::Set(k, v) => {
                    let labels = [("k", LABELS[k])];
                    r.set("g", &labels, v);
                    reference.values.insert(Reference::key("g", &labels), v);
                }
                Op::Observe(k, ns) => {
                    let labels = [("k", LABELS[k])];
                    r.observe("h", &labels, ns);
                    let h = (reference.hists)
                        .entry(Reference::key("h", &labels))
                        .or_default();
                    *h = (h.0 + 1, h.1 + ns);
                }
                Op::Snapshot => {
                    t += 1_000;
                    r.snapshot(t);
                    reference.snapshot(t);
                }
            }
        }
        (r, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn jsonl_matches_the_render_at_every_snapshot(ops in proptest::collection::vec(op(), 0..120)) {
            let (r, reference) = replay(&ops);
            prop_assert_eq!(r.jsonl(), reference.jsonl);
            let snapshots = ops.iter().filter(|o| matches!(o, Op::Snapshot)).count();
            prop_assert_eq!(r.snapshot_count(), snapshots);
        }
    }

    /// Values that return to an earlier one (A, B, A), `0.0` and `-0.0`
    /// (equal as numbers, different as bits), NaN (unequal to itself, the
    /// same bits), a series first written between snapshots, and a
    /// histogram left unchanged over many snapshots.
    fn edge_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let aba = r.series("g", &[("k", "aba")]);
        let zero = r.series("g", &[("k", "zero")]);
        let nan = r.series("g", &[("k", "nan")]);
        let hist = r.histogram("h", &[]);
        r.observe_series(hist, 3_000_000);
        for (i, (a, z)) in [(1.0, 0.0), (2.0, -0.0), (1.0, 0.0), (1.0, -0.0)]
            .into_iter()
            .enumerate()
        {
            r.set_series(aba, a);
            r.set_series(zero, z);
            r.set_series(nan, f64::NAN);
            if i == 2 {
                let late = r.series("g", &[("k", "late")]);
                r.set_series(late, 7.0);
            }
            r.snapshot(i as u64 + 1);
        }
        for t in 5..9 {
            r.snapshot(t);
        }
        r.observe_series(hist, 1);
        r.snapshot(9);
        r
    }

    /// JSONL bytes of [`edge_registry`].
    const EDGE_JSONL: &str = concat!(
        "{\"t\":1,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":1,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":1,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":1,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":2,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":2}\n",
        "{\"t\":2,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":2,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":2,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":3,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":3,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":3,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":3,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":3,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":4,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":4,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":4,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":4,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":4,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":5,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":5,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":5,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":5,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":5,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":6,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":6,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":6,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":6,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":6,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":7,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":7,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":7,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":7,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":7,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":8,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":8,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":8,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":8,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":8,\"name\":\"h\",\"labels\":\"\",\"count\":1,\"sum\":3000000}\n",
        "{\"t\":9,\"name\":\"g\",\"labels\":\"{k='aba'}\",\"value\":1}\n",
        "{\"t\":9,\"name\":\"g\",\"labels\":\"{k='late'}\",\"value\":7}\n",
        "{\"t\":9,\"name\":\"g\",\"labels\":\"{k='nan'}\",\"value\":NaN}\n",
        "{\"t\":9,\"name\":\"g\",\"labels\":\"{k='zero'}\",\"value\":0}\n",
        "{\"t\":9,\"name\":\"h\",\"labels\":\"\",\"count\":2,\"sum\":3000001}\n",
    );

    #[test]
    fn edge_histories_render_their_pinned_bytes() {
        assert_eq!(edge_registry().jsonl(), EDGE_JSONL);
    }
}
