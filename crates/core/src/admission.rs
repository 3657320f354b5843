//! Admission control for open-loop serving.
//!
//! In serve mode (`strings-sim serve`) requests arrive at a configured
//! rate regardless of how fast the supernode drains them, so an untended
//! backlog grows without bound and every latency percentile diverges. The
//! [`AdmissionController`] is the front door between the arrival processes
//! and the GPU Affinity Mapper: it bounds how many requests each tenant
//! may have **in the system** (queued + running) and optionally meters
//! each tenant with a virtual-time token bucket. Requests that do not fit
//! are **shed** immediately — the open-loop analogue of load-balancer
//! overload protection — and show up in the SLO report as shed rate
//! rather than as unbounded tail latency.
//!
//! Determinism: the controller is plain state machine code driven by the
//! simulation clock. Token buckets use `f64` arithmetic but every update
//! happens in a fixed order at integer virtual timestamps, so reruns are
//! bit-identical.
//!
//! ```
//! use strings_core::admission::{AdmissionConfig, AdmissionController, ShedReason};
//!
//! // Two tenants, at most 2 requests in-system each, no rate limit.
//! let cfg = AdmissionConfig { queue_depth: 2, ..AdmissionConfig::default() };
//! let mut adm = AdmissionController::new(2, cfg);
//!
//! assert!(adm.try_admit(0, 0).is_ok());
//! assert!(adm.try_admit(0, 10).is_ok());
//! assert_eq!(adm.try_admit(0, 20), Err(ShedReason::QueueFull)); // tenant 0 full
//! assert!(adm.try_admit(1, 20).is_ok());                        // tenant 1 unaffected
//!
//! adm.release(0);                                               // one completes
//! assert!(adm.try_admit(0, 30).is_ok());
//! assert_eq!(adm.stats().admitted, 4);
//! assert_eq!(adm.stats().shed_queue_full, 1);
//! ```

use sim_core::time::{SimTime, NS_PER_SEC};

/// Why a request was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The tenant already had `queue_depth` requests in the system.
    QueueFull,
    /// The tenant's token bucket was empty.
    RateLimited,
    /// The tenant's smoothed queue wait exceeded its SLO target
    /// ([`SloAdmission`]).
    SloDeadline,
}

impl ShedReason {
    /// Stable numeric code for compact provenance records (flight
    /// recorder payloads). Round-trips through
    /// [`ShedReason::from_code`].
    pub fn code(self) -> u64 {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::RateLimited => 1,
            ShedReason::SloDeadline => 2,
        }
    }

    /// Decode a [`ShedReason::code`] payload back to the reason.
    pub fn from_code(code: u64) -> Option<ShedReason> {
        match code {
            0 => Some(ShedReason::QueueFull),
            1 => Some(ShedReason::RateLimited),
            2 => Some(ShedReason::SloDeadline),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "queue-full"),
            ShedReason::RateLimited => write!(f, "rate-limited"),
            ShedReason::SloDeadline => write!(f, "slo-deadline"),
        }
    }
}

/// Per-tenant token-bucket rate limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, requests per second of virtual time.
    pub rate_rps: f64,
    /// Bucket capacity: how many requests may be admitted back-to-back
    /// after an idle period.
    pub burst: f64,
}

impl RateLimit {
    /// Parse the CLI grammar `RPS` or `RPS:BURST` (e.g. `100`, `100:20`).
    /// Burst defaults to 1 (no burst credit beyond the sustained rate).
    pub fn parse(spec: &str) -> Result<RateLimit, String> {
        let (rate_s, burst_s) = match spec.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (spec, None),
        };
        let rate_rps: f64 = rate_s
            .trim()
            .strip_suffix("rps")
            .unwrap_or(rate_s.trim())
            .parse()
            .map_err(|_| format!("bad rate limit '{spec}' (want RPS or RPS:BURST)"))?;
        if !(rate_rps > 0.0 && rate_rps.is_finite()) {
            return Err(format!("rate limit '{spec}' must be positive"));
        }
        let burst: f64 = match burst_s {
            Some(b) => b
                .trim()
                .parse()
                .map_err(|_| format!("bad burst in rate limit '{spec}'"))?,
            None => 1.0,
        };
        if !(burst >= 1.0 && burst.is_finite()) {
            return Err(format!("burst in '{spec}' must be >= 1"));
        }
        Ok(RateLimit { rate_rps, burst })
    }
}

/// Deadline/SLO-aware admission: shed while a tenant's *smoothed queue
/// wait* — the attribution profiler's per-tenant `admission_wait` stage,
/// fed back via [`AdmissionController::observe_wait`] — exceeds the
/// target. Shedding at the front door converts a growing wait (which
/// would miss the deadline anyway) into an explicit, fast rejection the
/// client can retry elsewhere.
///
/// One request per tenant is always allowed through as a *pilot*
/// (occupancy 0 never sheds), so a tenant whose backlog drained can
/// re-probe and the EWMA can recover — without this floor a breached
/// tenant would shed forever on a stale estimate.
///
/// ```
/// use strings_core::admission::{
///     AdmissionConfig, AdmissionController, ShedReason, SloAdmission,
/// };
///
/// let cfg = AdmissionConfig {
///     slo: Some(SloAdmission { target_wait_ns: 1_000_000 }), // 1 ms
///     ..AdmissionConfig::default()
/// };
/// let mut adm = AdmissionController::new(1, cfg);
/// assert!(adm.try_admit(0, 0).is_ok());
/// adm.observe_wait(0, 8_000_000); // dispatch measured an 8 ms wait
/// // Occupancy 1 and the smoothed wait is over target: shed.
/// assert_eq!(adm.try_admit(0, 10), Err(ShedReason::SloDeadline));
/// // Once the tenant drains, the pilot slot re-probes.
/// adm.release(0);
/// assert!(adm.try_admit(0, 20).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloAdmission {
    /// Queue-wait budget per request, in virtual nanoseconds. A tenant
    /// whose smoothed wait exceeds this sheds new arrivals (beyond the
    /// pilot) with [`ShedReason::SloDeadline`].
    pub target_wait_ns: u64,
}

/// EWMA weight for [`AdmissionController::observe_wait`] samples: recent
/// waits dominate (α = 1/4) but a single outlier cannot flip the gate.
/// A power of two so the arithmetic is exactly reproducible.
const WAIT_EWMA_ALPHA: f64 = 0.25;

/// Admission policy shared by every tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum requests a tenant may have in the system (queued +
    /// running). Arrivals beyond this are shed with
    /// [`ShedReason::QueueFull`].
    pub queue_depth: usize,
    /// Optional per-tenant token-bucket limit; `None` admits at any rate
    /// the queue bound allows.
    pub rate_limit: Option<RateLimit>,
    /// Optional deadline/SLO gate on the smoothed per-tenant queue wait;
    /// `None` admits regardless of measured waits.
    pub slo: Option<SloAdmission>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_depth: 64,
            rate_limit: None,
            slo: None,
        }
    }
}

/// Aggregate admission counters (the per-run totals in the SLO report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests admitted into the system.
    pub admitted: u64,
    /// Requests shed because the tenant queue was full.
    pub shed_queue_full: u64,
    /// Requests shed by the tenant's token bucket.
    pub shed_rate_limited: u64,
    /// Requests shed by the SLO gate ([`SloAdmission`]).
    pub shed_slo: u64,
}

impl AdmissionStats {
    /// Total shed requests across all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_rate_limited + self.shed_slo
    }

    /// Total admission attempts seen.
    pub fn offered(&self) -> u64 {
        self.admitted + self.shed()
    }
}

/// Per-tenant token bucket in virtual time.
#[derive(Debug, Clone)]
struct TokenBucket {
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Credit tokens for the time elapsed since the last refill, clamp to
    /// the burst cap, and advance the refill stamp — in that order, and
    /// unconditionally.
    ///
    /// The ordering is load-bearing: the elapsed credit must be banked (and
    /// `last_refill` advanced) *before* any admit/shed decision, so that a
    /// shed request neither loses the credit it just banked nor re-earns
    /// the same elapsed interval on the next arrival. Getting either wrong
    /// skews the sustained admitted rate away from `rate_rps` under
    /// overload — the long-run proptest below pins it to within 1%.
    fn refill(&mut self, rl: RateLimit, now: SimTime) {
        let elapsed_s = (now - self.last_refill) as f64 / NS_PER_SEC as f64;
        self.tokens = (self.tokens + elapsed_s * rl.rate_rps).min(rl.burst);
        self.last_refill = now;
    }

    /// True when a whole token is available for one admission.
    fn has_token(&self) -> bool {
        self.tokens >= 1.0
    }

    /// Consume one token (the caller checked [`TokenBucket::has_token`]).
    fn take(&mut self) {
        self.tokens -= 1.0;
    }
}

/// Per-tenant admission state.
#[derive(Debug, Clone)]
struct TenantGate {
    in_system: usize,
    bucket: Option<TokenBucket>,
    /// Smoothed queue wait from dispatch-time feedback (ns); `None` until
    /// the first [`AdmissionController::observe_wait`].
    wait_ewma_ns: Option<f64>,
    stats: AdmissionStats,
}

/// The serving front door: bounded per-tenant occupancy plus optional
/// token-bucket rate limits. See the [module docs](self) for the model
/// and a usage example.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    tenants: Vec<TenantGate>,
}

impl AdmissionController {
    /// A controller for `tenants` tenants under one shared `config`.
    /// Token buckets start full (a fresh tenant may burst immediately).
    pub fn new(tenants: usize, config: AdmissionConfig) -> Self {
        let gate = TenantGate {
            in_system: 0,
            bucket: config.rate_limit.map(|rl| TokenBucket {
                tokens: rl.burst,
                last_refill: 0,
            }),
            wait_ewma_ns: None,
            stats: AdmissionStats::default(),
        };
        AdmissionController {
            config,
            tenants: vec![gate; tenants],
        }
    }

    /// The shared per-tenant policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Requests tenant `tenant` currently has in the system.
    pub fn in_system(&self, tenant: usize) -> usize {
        self.tenants[tenant].in_system
    }

    /// Try to admit one request for `tenant` arriving at `now`. On success
    /// the tenant's occupancy grows by one and the caller must pair it
    /// with a [`release`](Self::release) when the request leaves the
    /// system (completes, fails, or is aborted). The rate limit is
    /// checked first: a rate-shed request consumes no queue slot, and a
    /// queue-shed request consumes no token.
    pub fn try_admit(&mut self, tenant: usize, now: SimTime) -> Result<(), ShedReason> {
        let rl = self.config.rate_limit;
        let depth = self.config.queue_depth;
        let gate = &mut self.tenants[tenant];
        // Refill first, unconditionally — even a shed arrival banks the
        // elapsed credit and advances the refill stamp (see
        // [`TokenBucket::refill`] for why the ordering matters).
        if let (Some(rl), Some(bucket)) = (rl, gate.bucket.as_mut()) {
            bucket.refill(rl, now);
            if !bucket.has_token() {
                gate.stats.shed_rate_limited += 1;
                return Err(ShedReason::RateLimited);
            }
        }
        if gate.in_system >= depth {
            // Queue-shed consumes no token: the request never entered.
            gate.stats.shed_queue_full += 1;
            return Err(ShedReason::QueueFull);
        }
        // SLO gate last: it sheds only requests that would otherwise be
        // admitted, so queue/rate counters are unchanged by enabling it.
        // The in_system >= 1 floor keeps one pilot request flowing so the
        // wait estimate can recover once the backlog drains.
        if let Some(slo) = self.config.slo {
            if gate.in_system >= 1 {
                if let Some(ewma) = gate.wait_ewma_ns {
                    if ewma > slo.target_wait_ns as f64 {
                        gate.stats.shed_slo += 1;
                        return Err(ShedReason::SloDeadline);
                    }
                }
            }
        }
        if let Some(bucket) = gate.bucket.as_mut() {
            bucket.take();
        }
        gate.in_system += 1;
        gate.stats.admitted += 1;
        Ok(())
    }

    /// Feed back one measured queue wait for `tenant` — the virtual time
    /// between arrival and dispatch, exactly the attribution profiler's
    /// `admission_wait` stage charge. Folded into the tenant's smoothed
    /// estimate that [`SloAdmission`] gates on. Cheap and safe to call
    /// whether or not an SLO is configured.
    pub fn observe_wait(&mut self, tenant: usize, wait_ns: u64) {
        let gate = &mut self.tenants[tenant];
        gate.wait_ewma_ns = Some(match gate.wait_ewma_ns {
            Some(prev) => WAIT_EWMA_ALPHA * wait_ns as f64 + (1.0 - WAIT_EWMA_ALPHA) * prev,
            None => wait_ns as f64,
        });
    }

    /// The smoothed queue-wait estimate for `tenant`, if any wait has
    /// been observed (inspection; the SLO gate's input).
    pub fn wait_estimate_ns(&self, tenant: usize) -> Option<f64> {
        self.tenants[tenant].wait_ewma_ns
    }

    /// A previously admitted request for `tenant` left the system.
    pub fn release(&mut self, tenant: usize) {
        let gate = &mut self.tenants[tenant];
        debug_assert!(gate.in_system > 0, "release without matching admit");
        gate.in_system = gate.in_system.saturating_sub(1);
    }

    /// Counters for one tenant.
    pub fn tenant_stats(&self, tenant: usize) -> AdmissionStats {
        self.tenants[tenant].stats
    }

    /// Counters summed over all tenants.
    pub fn stats(&self) -> AdmissionStats {
        let mut total = AdmissionStats::default();
        for g in &self.tenants {
            total.admitted += g.stats.admitted;
            total.shed_queue_full += g.stats.shed_queue_full;
            total.shed_rate_limited += g.stats.shed_rate_limited;
            total.shed_slo += g.stats.shed_slo;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::NS_PER_MS;

    #[test]
    fn queue_bound_is_per_tenant() {
        let mut adm = AdmissionController::new(
            2,
            AdmissionConfig {
                queue_depth: 1,
                rate_limit: None,
                slo: None,
            },
        );
        assert!(adm.try_admit(0, 0).is_ok());
        assert_eq!(adm.try_admit(0, 1), Err(ShedReason::QueueFull));
        assert!(adm.try_admit(1, 1).is_ok());
        assert_eq!(adm.in_system(0), 1);
        adm.release(0);
        assert_eq!(adm.in_system(0), 0);
        assert!(adm.try_admit(0, 2).is_ok());
        assert_eq!(adm.tenant_stats(0).shed_queue_full, 1);
        assert_eq!(adm.stats().admitted, 3);
        assert_eq!(adm.stats().offered(), 4);
    }

    #[test]
    fn token_bucket_meters_sustained_rate() {
        // 100 rps, burst 2: two immediate admits, then one per 10 ms.
        let cfg = AdmissionConfig {
            queue_depth: 1000,
            rate_limit: Some(RateLimit {
                rate_rps: 100.0,
                burst: 2.0,
            }),
            slo: None,
        };
        let mut adm = AdmissionController::new(1, cfg);
        assert!(adm.try_admit(0, 0).is_ok());
        assert!(adm.try_admit(0, 0).is_ok());
        assert_eq!(adm.try_admit(0, 0), Err(ShedReason::RateLimited));
        // 5 ms later: half a token — still shed.
        assert_eq!(
            adm.try_admit(0, 5 * NS_PER_MS),
            Err(ShedReason::RateLimited)
        );
        // 10 ms after start: a full token has accrued.
        assert!(adm.try_admit(0, 10 * NS_PER_MS).is_ok());
        assert_eq!(adm.stats().shed_rate_limited, 2);
        // A long idle period refills only up to the burst cap.
        let t = 10_000 * NS_PER_MS;
        assert!(adm.try_admit(0, t).is_ok());
        assert!(adm.try_admit(0, t).is_ok());
        assert_eq!(adm.try_admit(0, t), Err(ShedReason::RateLimited));
    }

    #[test]
    fn rate_shed_consumes_no_queue_slot_and_vice_versa() {
        let cfg = AdmissionConfig {
            queue_depth: 1,
            rate_limit: Some(RateLimit {
                rate_rps: 1.0,
                burst: 5.0,
            }),
            slo: None,
        };
        let mut adm = AdmissionController::new(1, cfg);
        assert!(adm.try_admit(0, 0).is_ok());
        // Queue full: shed, but the token balance is untouched (4 left).
        assert_eq!(adm.try_admit(0, 0), Err(ShedReason::QueueFull));
        adm.release(0);
        for _ in 0..4 {
            assert!(adm.try_admit(0, 0).is_ok());
            adm.release(0);
        }
        assert_eq!(adm.try_admit(0, 0), Err(ShedReason::RateLimited));
    }

    #[test]
    fn slo_gate_sheds_on_breach_and_recovers() {
        let cfg = AdmissionConfig {
            queue_depth: 8,
            slo: Some(SloAdmission {
                target_wait_ns: 1_000_000, // 1 ms budget
            }),
            ..AdmissionConfig::default()
        };
        let mut adm = AdmissionController::new(2, cfg);
        // No wait history: admits freely.
        assert!(adm.try_admit(0, 0).is_ok());
        assert!(adm.try_admit(0, 1).is_ok());
        // Dispatches report long waits: the smoothed estimate breaches.
        adm.observe_wait(0, 10_000_000);
        adm.observe_wait(0, 10_000_000);
        assert!(adm.wait_estimate_ns(0).unwrap() > 1_000_000.0);
        assert_eq!(adm.try_admit(0, 2), Err(ShedReason::SloDeadline));
        assert_eq!(adm.stats().shed_slo, 1);
        assert_eq!(adm.stats().shed(), 1);
        // Tenant 1 has its own estimate: unaffected.
        assert!(adm.try_admit(1, 2).is_ok());
        // Tenant 0 drains fully: the pilot slot re-probes even though the
        // estimate is still breached...
        adm.release(0);
        adm.release(0);
        assert!(adm.try_admit(0, 3).is_ok(), "pilot request must pass");
        // ...and fast waits pull the estimate back under target.
        for _ in 0..12 {
            adm.observe_wait(0, 10_000);
        }
        assert!(adm.wait_estimate_ns(0).unwrap() < 1_000_000.0);
        assert!(adm.try_admit(0, 4).is_ok(), "recovered tenant admits");
    }

    #[test]
    fn slo_gate_off_by_default_and_orthogonal_to_queue_bound() {
        let mut adm = AdmissionController::new(1, AdmissionConfig::default());
        adm.observe_wait(0, u64::MAX / 2);
        assert!(adm.try_admit(0, 0).is_ok(), "no SLO configured: no shed");
        // With an SLO, the queue bound still sheds first (counter split
        // stays stable when the gate is enabled).
        let cfg = AdmissionConfig {
            queue_depth: 1,
            slo: Some(SloAdmission { target_wait_ns: 1 }),
            ..AdmissionConfig::default()
        };
        let mut adm = AdmissionController::new(1, cfg);
        assert!(adm.try_admit(0, 0).is_ok());
        adm.observe_wait(0, 1_000);
        assert_eq!(adm.try_admit(0, 1), Err(ShedReason::QueueFull));
        assert_eq!(adm.stats().shed_queue_full, 1);
        assert_eq!(adm.stats().shed_slo, 0);
    }

    #[test]
    fn rate_limit_parse_grammar() {
        assert_eq!(
            RateLimit::parse("100"),
            Ok(RateLimit {
                rate_rps: 100.0,
                burst: 1.0
            })
        );
        assert_eq!(
            RateLimit::parse("250rps:16"),
            Ok(RateLimit {
                rate_rps: 250.0,
                burst: 16.0
            })
        );
        assert!(RateLimit::parse("0").is_err());
        assert!(RateLimit::parse("10:0.5").is_err());
        assert!(RateLimit::parse("fast").is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under sustained overload (arrivals far denser than the
            /// sustained rate), the token bucket must admit `rate_rps`
            /// requests per virtual second to within 1% over a long run —
            /// the end-to-end guarantee the refill/clamp ordering exists
            /// for. A bucket that forgets banked credit on shed, or that
            /// re-earns an interval by not advancing `last_refill`, fails
            /// this bound within a few simulated seconds.
            #[test]
            fn overloaded_bucket_admits_rate_rps_within_1pct(
                rate_rps in 20.0f64..500.0,
                raw_burst in 1.0f64..8.0,
                // Mean inter-arrival as a fraction of the token period:
                // always well below 1.0 so the bucket, not the arrival
                // process, is the binding constraint.
                density in 3u64..20,
                jitter_seed in 0u64..u64::MAX,
            ) {
                // The sustained-rate guarantee needs headroom for one
                // arrival's credit above the admission threshold: with
                // burst < 1 + 1/density the cap legitimately discards
                // credit between arrivals (bounded banking is the point of
                // the burst cap), and the admitted rate falls below
                // rate_rps by design, not by bug.
                let burst = raw_burst.max(1.0 + 1.5 / density as f64);
                let cfg = AdmissionConfig {
                    queue_depth: usize::MAX,
                    rate_limit: Some(RateLimit { rate_rps, burst }),
                    slo: None,
                };
                let mut adm = AdmissionController::new(1, cfg);
                // ~200 virtual seconds of arrivals, deterministic jitter.
                let horizon: SimTime = 200 * NS_PER_SEC;
                let token_period_ns = (NS_PER_SEC as f64 / rate_rps) as u64;
                let mean_gap = (token_period_ns / density).max(1);
                let mut now: SimTime = 0;
                let mut x = jitter_seed | 1;
                while now < horizon {
                    let _ = adm.try_admit(0, now);
                    // xorshift jitter in [0.5, 1.5) of the mean gap.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    now += mean_gap / 2 + x % mean_gap.max(1);
                }
                let admitted = adm.stats().admitted as f64;
                let expected = rate_rps * (horizon as f64 / NS_PER_SEC as f64);
                // Burst credit admits up to `burst` extra at the front.
                let err = (admitted - burst - expected).abs() / expected;
                prop_assert!(
                    err <= 0.01,
                    "admitted {admitted} vs expected {expected} (err {err:.4})"
                );
            }
        }
    }

    #[test]
    fn determinism_same_inputs_same_counters() {
        let cfg = AdmissionConfig {
            queue_depth: 3,
            rate_limit: Some(RateLimit {
                rate_rps: 333.0,
                burst: 4.0,
            }),
            slo: None,
        };
        let run = || {
            let mut adm = AdmissionController::new(4, cfg);
            let mut log = Vec::new();
            for i in 0..500u64 {
                let tenant = (i % 4) as usize;
                let now = i * 777_777;
                log.push(adm.try_admit(tenant, now).is_ok());
                if i % 3 == 0 && adm.in_system(tenant) > 0 {
                    adm.release(tenant);
                }
            }
            (log, adm.stats())
        };
        assert_eq!(run(), run());
    }
}
