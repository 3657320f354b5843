//! Request-level latency attribution.
//!
//! The paper explains its scheduling wins (Figs 9–13) by decomposing
//! end-to-end request time into queueing, copy-engine, compute, remoting
//! and context-switch "glitch" components. The executive charges every
//! nanosecond of a request's life to exactly one [`Stage`], and the
//! charges are folded online: the run's observers keep a [`StageFold`]
//! with a short charge list per request in flight and close it into one
//! [`RequestAttribution`] row, with an **exact additivity check** — the
//! stage totals of a consistent request sum to its end-to-end latency, to
//! the nanosecond. [`AttributionReport::from_trace`] takes those rows off
//! the finished [`Trace`]'s ledger; for a trace without one (hand built)
//! it runs the same fold over the recorded `"request"` spans and
//! [`TraceEvent::StageCharge`] events.
//!
//! Aggregations are byte-stable: per-tenant tables are keyed through
//! `BTreeMap`, shares are integer-ratio formatted, and the top-K slowest
//! view breaks ties on request id.

use crate::report::{fmt_pct, Table};
use sim_core::trace::{Stage, StageFold, StageLedger, Trace, TraceEvent, REQUEST_SPAN};
use std::collections::{BTreeMap, HashSet};

pub use sim_core::trace::{RequestAttribution, N_STAGES};

/// Aggregated attribution over one run's trace.
#[derive(Debug, Clone, Default)]
pub struct AttributionReport {
    /// Every completed request, sorted by request id. Includes
    /// inconsistent ones (flagged), which aggregates skip.
    pub requests: Vec<RequestAttribution>,
    /// Requests whose charges failed the additivity check.
    pub inconsistent: u64,
    /// Requests still open when the trace ended (no completion to
    /// attribute to).
    pub unfinished: u64,
}

fn arg<'a>(args: &'a [(&'static str, String)], key: &str) -> Option<&'a str> {
    args.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

impl AttributionReport {
    /// The attribution of a recorded run: the rows its recorder folded
    /// online ([`Trace::ledger`]), or, for a trace without a ledger, the
    /// fold of its recorded events ([`AttributionReport::from_events`]).
    pub fn from_trace(trace: &Trace) -> AttributionReport {
        match &trace.ledger {
            Some(ledger) => ledger.clone().into(),
            None => AttributionReport::from_events(trace),
        }
    }

    /// Fold a trace's recorded events, ignoring any ledger it carries.
    ///
    /// Scans the `"requests"`-process tracks for `"request"` spans
    /// (arrival/completion) and [`TraceEvent::StageCharge`] events, each
    /// charging `[from, at)`, and feeds them to a [`StageFold`] in
    /// recording order.
    pub fn from_events(trace: &Trace) -> AttributionReport {
        let slot_tracks: HashSet<_> = trace
            .find_tracks(|d| d.process == "requests")
            .into_iter()
            .collect();
        let mut fold = StageFold::default();
        for ev in &trace.events {
            if !slot_tracks.contains(&ev.track()) {
                continue;
            }
            match ev {
                TraceEvent::SpanBegin {
                    at,
                    name: REQUEST_SPAN,
                    id: Some(idx),
                    args,
                    ..
                } => fold.open(
                    *idx,
                    // The executive stamps tenants in their Display form
                    // ("T3"); accept bare ids too.
                    arg(args, "tenant")
                        .map(|v| v.strip_prefix('T').unwrap_or(v))
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0),
                    arg(args, "class").unwrap_or("?"),
                    *at,
                ),
                TraceEvent::StageCharge {
                    at,
                    request,
                    stage,
                    from,
                    ..
                } => fold.charge(*request, *stage, *from, *at),
                TraceEvent::SpanEnd {
                    at,
                    name: REQUEST_SPAN,
                    id: Some(idx),
                    ..
                } => fold.close(*idx, *at),
                _ => {}
            }
        }
        fold.finish().into()
    }

    /// Consistent requests only (what every aggregate is computed over).
    pub fn consistent(&self) -> impl Iterator<Item = &RequestAttribution> {
        self.requests.iter().filter(|r| r.consistent)
    }

    /// Total nanoseconds charged to each stage across consistent
    /// requests.
    pub fn totals(&self) -> [u64; N_STAGES] {
        let mut t = [0u64; N_STAGES];
        for r in self.consistent() {
            for (slot, ns) in t.iter_mut().zip(r.stage_ns) {
                *slot += ns;
            }
        }
        t
    }

    /// Aggregate end-to-end nanoseconds over consistent requests.
    pub fn total_latency_ns(&self) -> u64 {
        self.consistent().map(RequestAttribution::total_ns).sum()
    }

    /// Fraction of aggregate latency spent queue-waiting (the share the
    /// paper's schedulers compete on).
    pub fn queue_wait_share(&self) -> f64 {
        let total = self.total_latency_ns();
        if total == 0 {
            return 0.0;
        }
        let q: u64 = self
            .consistent()
            .map(RequestAttribution::queue_wait_ns)
            .sum();
        q as f64 / total as f64
    }

    /// Per-tenant `(requests, total_ns, stage_ns)` aggregates over
    /// consistent requests, keyed by tenant id (sorted).
    pub fn per_tenant(&self) -> BTreeMap<u32, (u64, u64, [u64; N_STAGES])> {
        let mut m: BTreeMap<u32, (u64, u64, [u64; N_STAGES])> = BTreeMap::new();
        for r in self.consistent() {
            let e = m.entry(r.tenant).or_insert((0, 0, [0; N_STAGES]));
            e.0 += 1;
            e.1 += r.total_ns();
            for i in 0..N_STAGES {
                e.2[i] += r.stage_ns[i];
            }
        }
        m
    }

    /// The `k` slowest consistent requests, slowest first (ties broken
    /// by request id, ascending).
    pub fn top_k(&self, k: usize) -> Vec<&RequestAttribution> {
        let mut v: Vec<&RequestAttribution> = self.consistent().collect();
        v.sort_by(|a, b| {
            b.total_ns()
                .cmp(&a.total_ns())
                .then(a.request.cmp(&b.request))
        });
        v.truncate(k);
        v
    }

    /// Overall stage-breakdown table: one row per stage with total
    /// nanoseconds and share of aggregate latency.
    pub fn stage_table(&self) -> Table {
        let totals = self.totals();
        let sum: u64 = self.total_latency_ns();
        let mut t = Table::new(vec!["stage", "total_ns", "share"]);
        for s in Stage::ALL {
            let ns = totals[s.index()];
            let share = if sum == 0 {
                0.0
            } else {
                ns as f64 / sum as f64
            };
            t.row(vec![s.as_str().to_string(), ns.to_string(), fmt_pct(share)]);
        }
        t.row(vec![
            "total".to_string(),
            sum.to_string(),
            fmt_pct(if sum == 0 { 0.0 } else { 1.0 }),
        ]);
        t
    }

    /// Per-tenant table: request count, mean latency and the coarse
    /// where-did-it-go split (queue wait / rpc / service / glitch).
    pub fn tenant_table(&self) -> Table {
        let mut t = Table::new(vec![
            "tenant",
            "requests",
            "mean_ns",
            "queue_wait",
            "rpc",
            "service",
            "ctx_switch",
        ]);
        for (tenant, (n, total, stages)) in self.per_tenant() {
            let share = |ns: u64| {
                if total == 0 {
                    fmt_pct(0.0)
                } else {
                    fmt_pct(ns as f64 / total as f64)
                }
            };
            let queue = stages[Stage::AdmissionWait.index()]
                + stages[Stage::H2dWait.index()]
                + stages[Stage::ComputeWait.index()]
                + stages[Stage::D2hWait.index()];
            let service = stages[Stage::H2dXfer.index()]
                + stages[Stage::ComputeService.index()]
                + stages[Stage::D2hXfer.index()];
            t.row(vec![
                format!("T{tenant}"),
                n.to_string(),
                (total / n.max(1)).to_string(),
                share(queue),
                share(stages[Stage::Rpc.index()]),
                share(service),
                share(stages[Stage::CtxSwitch.index()]),
            ]);
        }
        t
    }

    /// Annotated top-K slowest requests.
    pub fn top_k_table(&self, k: usize) -> Table {
        let mut t = Table::new(vec![
            "request",
            "tenant",
            "class",
            "total_ns",
            "dominant",
            "dominant_share",
        ]);
        for r in self.top_k(k) {
            let dom = r.dominant_stage();
            let share = if r.total_ns() == 0 {
                0.0
            } else {
                r.stage(dom) as f64 / r.total_ns() as f64
            };
            t.row(vec![
                r.request.to_string(),
                format!("T{}", r.tenant),
                r.class.to_string(),
                r.total_ns().to_string(),
                dom.as_str().to_string(),
                fmt_pct(share),
            ]);
        }
        t
    }

    /// Full plain-text report: header line, overall breakdown,
    /// per-tenant split and the top-K slowest requests.
    pub fn render(&self, k: usize) -> String {
        let mut out = format!(
            "latency attribution: {} requests ({} inconsistent, {} unfinished)\n",
            self.requests.len(),
            self.inconsistent,
            self.unfinished
        );
        out.push_str(&self.stage_table().render());
        out.push('\n');
        out.push_str(&self.tenant_table().render());
        out.push('\n');
        out.push_str(&self.top_k_table(k).render());
        out
    }
}

impl From<StageLedger> for AttributionReport {
    fn from(ledger: StageLedger) -> Self {
        AttributionReport {
            requests: ledger.requests,
            inconsistent: ledger.inconsistent,
            unfinished: ledger.unfinished,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::trace::Tracer;
    use sim_core::SimTime;

    /// One hand-built request: (id, arrival, end, charges).
    type TestReq = (u64, SimTime, SimTime, Vec<(SimTime, SimTime, Stage)>);

    /// Build a trace with one slot track and hand-emitted charges.
    fn emit(reqs: &[TestReq]) -> Trace {
        let t = Tracer::buffered();
        let trk = t.track("requests", "slot0 MC");
        for (idx, arrival, end, charges) in reqs {
            t.span_begin(
                trk,
                *arrival,
                "request",
                Some(*idx),
                // The "T<N>" form is what the executive actually stamps.
                vec![
                    ("tenant", format!("T{}", idx % 2)),
                    ("class", "MC".to_string()),
                ],
            );
            for &(from, to, stage) in charges {
                t.stage_charge(trk, to, *idx, stage, from);
            }
            t.span_end(trk, *end, "request", Some(*idx));
        }
        t.finish().unwrap()
    }

    #[test]
    fn reconstructs_additive_breakdown() {
        let trace = emit(&[(
            0,
            100,
            1000,
            vec![
                (100, 300, Stage::AdmissionWait),
                (300, 500, Stage::Rpc),
                (500, 900, Stage::ComputeService),
            ],
        )]);
        let rep = AttributionReport::from_trace(&trace);
        assert_eq!(rep.requests.len(), 1);
        assert_eq!(rep.inconsistent, 0);
        let r = &rep.requests[0];
        assert!(r.consistent);
        assert_eq!(r.total_ns(), 900);
        assert_eq!(r.stage(Stage::AdmissionWait), 200);
        assert_eq!(r.stage(Stage::Rpc), 200);
        assert_eq!(r.stage(Stage::ComputeService), 400);
        // Residual [900, 1000) lands on Other; exact additivity holds.
        assert_eq!(r.stage(Stage::Other), 100);
        assert_eq!(r.stage_ns.iter().sum::<u64>(), r.total_ns());
        assert_eq!(r.dominant_stage(), Stage::ComputeService);
    }

    #[test]
    fn gap_or_overrun_marks_inconsistent() {
        // Gap between 300 and 400.
        let gap = emit(&[(
            1,
            100,
            600,
            vec![(100, 300, Stage::Rpc), (400, 500, Stage::ComputeWait)],
        )]);
        let rep = AttributionReport::from_trace(&gap);
        assert_eq!(rep.inconsistent, 1);
        assert!(!rep.requests[0].consistent);
        // Charge past the request's end (the abort/failover shape).
        let over = emit(&[(2, 100, 400, vec![(100, 500, Stage::Rpc)])]);
        assert_eq!(AttributionReport::from_trace(&over).inconsistent, 1);
    }

    #[test]
    fn unfinished_requests_are_counted_not_attributed() {
        let t = Tracer::buffered();
        let trk = t.track("requests", "slot0 MC");
        t.span_begin(trk, 5, "request", Some(9), vec![]);
        let rep = AttributionReport::from_trace(&t.finish().unwrap());
        assert_eq!(rep.unfinished, 1);
        assert!(rep.requests.is_empty());
    }

    #[test]
    fn aggregates_and_render_are_stable() {
        let trace = emit(&[
            (
                0,
                0,
                100,
                vec![
                    (0, 60, Stage::AdmissionWait),
                    (60, 100, Stage::ComputeService),
                ],
            ),
            (
                1,
                10,
                250,
                vec![(10, 30, Stage::Rpc), (30, 250, Stage::ComputeWait)],
            ),
        ]);
        let rep = AttributionReport::from_trace(&trace);
        assert_eq!(rep.total_latency_ns(), 100 + 240);
        let per = rep.per_tenant();
        assert_eq!(per.len(), 2);
        assert_eq!(per[&0].0, 1);
        assert_eq!(per[&1].0, 1);
        // queue wait: 60 (admission) + 220 (compute wait) of 340 total.
        assert!((rep.queue_wait_share() - 280.0 / 340.0).abs() < 1e-12);
        let top = rep.top_k(1);
        assert_eq!(top[0].request, 1);
        let a = rep.render(5);
        let b = AttributionReport::from_trace(&trace).render(5);
        assert_eq!(a, b, "render must be deterministic");
        assert!(a.contains("latency attribution: 2 requests"));
        assert!(a.contains("compute_wait"));
    }
}
