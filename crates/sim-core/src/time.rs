//! Virtual time.
//!
//! All simulation time is expressed in integer **nanoseconds** since the
//! start of the run. Integer time keeps the event queue totally ordered and
//! the simulation bit-deterministic across platforms (no floating-point
//! associativity surprises), while still being fine-grained enough for the
//! microsecond-scale costs we model (RPC marshalling, context switches).

use serde::{Deserialize, Serialize};

/// A point in virtual time, in nanoseconds since simulation start.
pub type SimTime = u64;

/// A span of virtual time in nanoseconds.
///
/// This is a thin wrapper rather than a bare `u64` so that APIs can make the
/// time/duration distinction explicit where it matters; it converts freely.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

/// Nanoseconds per microsecond.
pub const NS_PER_US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NS_PER_MS: u64 = 1_000_000;
/// Nanoseconds per second.
pub const NS_PER_SEC: u64 = 1_000_000_000;

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * NS_PER_US)
    }

    /// Duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * NS_PER_MS)
    }

    /// Duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NS_PER_SEC)
    }

    /// Duration from fractional seconds; saturates at zero for negative
    /// input and rounds to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * NS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NS_PER_SEC as f64
    }

    /// Duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NS_PER_MS as f64
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale a duration by a non-negative factor, rounding to nearest ns.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0 && factor.is_finite());
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Parse a human-entered duration: a number with an `ns`, `us`, `ms`
    /// or `s` suffix (a bare number is nanoseconds). Fractions are fine —
    /// the result rounds to the nearest nanosecond, and must fit in a `u64`
    /// of nanoseconds (about 584 years). This is the one
    /// grammar every CLI surface shares (`--duration`, fault-plan
    /// timestamps, arrival-process dwell times).
    ///
    /// ```
    /// use sim_core::SimDuration;
    ///
    /// assert_eq!(SimDuration::parse("600s"), Ok(SimDuration::from_secs(600)));
    /// assert_eq!(SimDuration::parse("1.5ms"), Ok(SimDuration::from_us(1_500)));
    /// assert_eq!(SimDuration::parse("42"), Ok(SimDuration::from_ns(42)));
    /// assert!(SimDuration::parse("-1s").is_err());
    /// assert!(SimDuration::parse("1e30s").is_err());
    /// assert!(SimDuration::parse("fast").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<SimDuration, String> {
        let s = s.trim();
        let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
            (d, 1)
        } else if let Some(d) = s.strip_suffix("us") {
            (d, NS_PER_US)
        } else if let Some(d) = s.strip_suffix("ms") {
            (d, NS_PER_MS)
        } else if let Some(d) = s.strip_suffix('s') {
            (d, NS_PER_SEC)
        } else {
            (s, 1)
        };
        let v: f64 = digits
            .parse()
            .map_err(|_| format!("bad duration '{s}' (want e.g. 10s, 500ms, 250us, 42ns)"))?;
        if v < 0.0 {
            return Err(format!("negative duration '{s}'"));
        }
        if !v.is_finite() {
            return Err(format!("non-finite duration '{s}'"));
        }
        let ns = (v * mult as f64).round();
        // `u64::MAX as f64` is 2^64, the first value a `u64` cannot hold.
        if ns >= u64::MAX as f64 {
            return Err(format!("duration '{s}' exceeds {} ns", u64::MAX));
        }
        Ok(SimDuration(ns as u64))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ns = self.0;
        if ns >= NS_PER_SEC {
            write!(f, "{:.3}s", ns as f64 / NS_PER_SEC as f64)
        } else if ns >= NS_PER_MS {
            write!(f, "{:.3}ms", ns as f64 / NS_PER_MS as f64)
        } else if ns >= NS_PER_US {
            write!(f, "{:.3}us", ns as f64 / NS_PER_US as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Convenience: advance a [`SimTime`] by a [`SimDuration`].
#[inline]
pub fn after(now: SimTime, d: SimDuration) -> SimTime {
    now + d.as_ns()
}

/// Elapsed duration between two time points (`to >= from`).
#[inline]
pub fn elapsed(from: SimTime, to: SimTime) -> SimDuration {
    debug_assert!(to >= from, "elapsed: to ({to}) < from ({from})");
    SimDuration(to - from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_compose() {
        assert_eq!(SimDuration::from_us(1).as_ns(), 1_000);
        assert_eq!(SimDuration::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_ns(), 1_000_000_000);
        assert_eq!(
            SimDuration::from_secs(2) + SimDuration::from_ms(500),
            SimDuration::from_ms(2500)
        );
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_ns(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_ns(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_ns(), 0);
        assert_eq!(SimDuration::from_secs_f64(0.5e-9).as_ns(), 1); // rounds up
    }

    #[test]
    fn as_secs_roundtrip() {
        let d = SimDuration::from_secs_f64(3.25);
        assert!((d.as_secs_f64() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn saturating_ops() {
        let a = SimDuration::from_ns(5);
        let b = SimDuration::from_ns(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_ns(4));
        assert_eq!(
            SimDuration(u64::MAX).saturating_add(a),
            SimDuration(u64::MAX)
        );
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.5),
            SimDuration::from_secs(5)
        );
        assert_eq!(SimDuration::from_ns(3).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn after_and_elapsed_are_inverses() {
        let t0: SimTime = 42;
        let d = SimDuration::from_us(7);
        let t1 = after(t0, d);
        assert_eq!(elapsed(t0, t1), d);
    }

    #[test]
    fn parse_grammar() {
        assert_eq!(
            SimDuration::parse("10s").unwrap(),
            SimDuration::from_secs(10)
        );
        assert_eq!(SimDuration::parse(" 500ms "), Ok(SimDuration::from_ms(500)));
        assert_eq!(SimDuration::parse("250us"), Ok(SimDuration::from_us(250)));
        assert_eq!(SimDuration::parse("7ns"), Ok(SimDuration::from_ns(7)));
        assert_eq!(SimDuration::parse("7"), Ok(SimDuration::from_ns(7)));
        assert_eq!(SimDuration::parse("0.5s"), Ok(SimDuration::from_ms(500)));
        assert!(SimDuration::parse("").is_err());
        assert!(SimDuration::parse("s").is_err());
        assert!(SimDuration::parse("nan s").is_err());
        assert!(SimDuration::parse("inf").is_err());
        // Values past u64 nanoseconds are rejected, not saturated.
        assert!(SimDuration::parse("18446744073s").is_ok());
        assert!(SimDuration::parse("18446744074s").is_err());
        assert!(SimDuration::parse("18446744073709551616").is_err());
        assert!(SimDuration::parse("1e30s").is_err());
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
