//! Time-weighted telemetry.
//!
//! [`UtilizationTracker`] records a piecewise-constant "level" signal over
//! virtual time (e.g. *fraction of GPU compute engine busy*), supporting:
//!
//! * exact time-weighted averages over any window (for Table-I-style
//!   utilization percentages), and
//! * down-sampling into fixed-width buckets (for the Figure 1 heat-map and
//!   Figure 2 utilization-vs-time series).
//!
//! A tracker may carry a second signal sampled at the same instants as its
//! first ([`UtilizationTracker::record_pair`]), as a GPU's memory-bandwidth
//! use is beside its compute occupancy. The two are lanes of one timeline:
//! a change point stores its time once, with both lanes' levels and which
//! lanes changed there. Each lane answers every query as a tracker of its
//! own would ([`Lane`]); the tracker's own queries read the first lane,
//! [`UtilizationTracker::second`] the second. A lane needs its "changed
//! here" flag, not only its level: a same-instant blip `0.5 → 0.0` leaves a
//! leading `0.0` change point, while a first `0.0` records none.
//!
//! A tracker keeps every change point of a run, so it stores them
//! compactly: a device signal takes a handful of distinct levels, and
//! consecutive change points are close in time. Each change point but the
//! newest two is a LEB128 time delta plus a one-byte index into a palette
//! of the exact level pairs and lane flags seen (about 3–5 bytes for
//! both lanes, where a plain `Sample` takes 16 per lane). The newest two
//! stay unencoded, because recording rewrites them, and a checkpoint
//! every [`CHECKPOINT_EVERY`] change points lets a query start near its
//! window instead of at time zero. Queries decode the same `(at, level)`
//! sequence, in the same order, as a plain vector of the lane's samples
//! would hold, so every sum is bit-identical.

use crate::time::{SimTime, NS_PER_SEC};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of a piecewise-constant signal: the signal holds `level` from
/// `at` until the next sample's `at`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Time at which the level took effect.
    pub at: SimTime,
    /// Signal level from `at` onwards.
    pub level: f64,
}

/// Encoded change points between two checkpoints.
pub const CHECKPOINT_EVERY: usize = 64;

/// Palette byte announcing that a LEB128 palette index follows (indices
/// from 255 on).
const ESCAPE: u8 = u8::MAX;

/// Signals a tracker holds: the first, and the one
/// [`UtilizationTracker::record_pair`] adds.
const LANES: usize = 2;

/// Both lanes at a change point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Levels {
    /// Each lane's level from the change point on; a lane that did not
    /// change there keeps its previous level (0.0 before its first).
    levels: [f64; LANES],
    /// Bit `k` set: lane `k` changed here.
    changed: u8,
}

impl Levels {
    fn same_bits(&self, other: &Levels) -> bool {
        self.changed == other.changed
            && self.levels.map(f64::to_bits) == other.levels.map(f64::to_bits)
    }
}

/// A change point of the timeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Point {
    at: SimTime,
    levels: Levels,
}

/// Where an encoded change point starts, for queries to decode from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Checkpoint {
    /// Byte offset of the change point.
    pos: usize,
    /// Its time.
    at: SimTime,
    /// The time its delta counts from (the previous change point's).
    base: SimTime,
}

/// Records a piecewise-constant signal, or two sampled together, over
/// virtual time. See the module docs for how the change points are stored.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct UtilizationTracker {
    /// The change points before the newest two, oldest first: each a
    /// LEB128 delta from the previous one's time (the first from 0), then
    /// its palette index as one byte, or [`ESCAPE`] and a LEB128 index.
    bytes: Vec<u8>,
    /// Every distinct [`Levels`] encoded so far, by first use, compared by
    /// bits.
    palette: Vec<Levels>,
    /// Per hash of a palette entry's bits: the palette index to try first.
    hints: [u8; 32],
    /// Every [`CHECKPOINT_EVERY`]-th encoded change point, from the first.
    checkpoints: Vec<Checkpoint>,
    /// Number of encoded change points.
    encoded: usize,
    /// Time of the newest encoded change point (the next delta's base).
    encoded_at: SimTime,
    /// The newest change points, at most two, unencoded. Empty only when
    /// nothing is encoded either.
    tail: Vec<Point>,
    /// Change points per lane.
    counts: [usize; LANES],
}

/// Reads the encoded change points from a byte offset on.
struct Decoder<'a> {
    bytes: &'a [u8],
    palette: &'a [Levels],
    pos: usize,
    /// Time of the change point before `pos`.
    at: SimTime,
}

impl Iterator for Decoder<'_> {
    type Item = Point;

    #[inline]
    fn next(&mut self) -> Option<Point> {
        if self.pos == self.bytes.len() {
            return None;
        }
        self.at += read_leb128(self.bytes, &mut self.pos);
        let mut index = u64::from(self.bytes[self.pos]);
        self.pos += 1;
        if index == u64::from(ESCAPE) {
            index = read_leb128(self.bytes, &mut self.pos);
        }
        Some(Point {
            at: self.at,
            levels: self.palette[index as usize],
        })
    }
}

impl Decoder<'_> {
    /// Decode the change points at or before `t`; the levels of the last.
    fn skip_through(&mut self, t: SimTime) -> Option<Levels> {
        let mut levels = None;
        loop {
            let before = (self.pos, self.at);
            match self.next() {
                Some(p) if p.at <= t => levels = Some(p.levels),
                Some(_) => {
                    (self.pos, self.at) = before;
                    return levels;
                }
                None => return levels,
            }
        }
    }
}

/// Write `v` as LEB128 at the start of `out`; returns the bytes written
/// (at most 10).
fn write_leb128(out: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Make room in `v` for `extra` more elements, growing it by an eighth
/// (at least `min` elements) rather than doubling: a tracker grows for the
/// whole run, and doubling would leave up to half of it as slack.
fn reserve_slack<T>(v: &mut Vec<T>, extra: usize, min: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact((v.len() / 8).max(min).max(extra));
    }
}

#[inline]
fn read_leb128(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

impl UtilizationTracker {
    /// New tracker; the signal is implicitly 0.0 until the first sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the signal changed to `level` at time `at`.
    ///
    /// Consecutive equal levels are coalesced, and a second record at the
    /// same instant replaces the first. Out-of-order records are rejected
    /// in debug builds (the executive always observes time forward).
    pub fn record(&mut self, at: SimTime, level: f64) {
        self.record_lanes(at, [Some(level), None]);
    }

    /// Record both lanes at `at`: the first changed to `first`, the second
    /// to `second`. Each lane coalesces and replaces on its own, exactly
    /// as [`UtilizationTracker::record`] does.
    pub fn record_pair(&mut self, at: SimTime, first: f64, second: f64) {
        self.record_lanes(at, [Some(first), Some(second)]);
    }

    fn record_lanes(&mut self, at: SimTime, new: [Option<f64>; LANES]) {
        let newest = self.tail.last().copied();
        debug_assert!(
            newest.is_none_or(|p| at >= p.at),
            "telemetry time went backwards"
        );
        let same_instant = newest.is_some_and(|p| p.at == at);
        // The change point at `at`: the newest one, or a new one that
        // carries every lane's level.
        let mut levels = match newest {
            Some(p) if same_instant => p.levels,
            Some(p) => Levels {
                changed: 0,
                ..p.levels
            },
            None => Levels {
                levels: [0.0; LANES],
                changed: 0,
            },
        };
        for (k, level) in new.into_iter().enumerate() {
            let Some(level) = level else { continue };
            let bit = 1 << k;
            if levels.levels[k] == level {
                // Coalesced (a first 0.0 included: the implicit zero).
                continue;
            }
            if levels.changed & bit == 0 {
                levels.changed |= bit;
                self.counts[k] += 1;
                levels.levels[k] = level;
                continue;
            }
            // Replace this lane's change at the same instant; a blip back
            // to its previous level drops the change.
            let previous = (self.counts[k] > 1).then(|| self.level_before_newest(k));
            match previous {
                Some(p) if p == level => {
                    levels.changed &= !bit;
                    self.counts[k] -= 1;
                    levels.levels[k] = p;
                }
                _ => levels.levels[k] = level,
            }
        }
        if same_instant {
            if levels.changed != 0 {
                self.tail.last_mut().expect("the newest point").levels = levels;
            } else {
                self.tail.pop();
                if self.tail.is_empty() {
                    self.unencode_newest();
                }
            }
        } else if levels.changed != 0 {
            if self.tail.len() == 2 {
                let oldest = self.tail.remove(0);
                self.encode(oldest);
            }
            self.tail.push(Point { at, levels });
        }
    }

    /// Lane `k`'s level before the newest change point, which has another
    /// before it. Decodes that one into the tail when only the newest is
    /// unencoded, which takes a blip at an instant a forward clock left.
    fn level_before_newest(&mut self, k: usize) -> f64 {
        if self.tail.len() < 2 {
            self.unencode_newest();
        }
        self.tail[0].levels.levels[k]
    }

    /// Append `p` to the encoded change points.
    fn encode(&mut self, p: Point) {
        if self.encoded.is_multiple_of(CHECKPOINT_EVERY) {
            reserve_slack(&mut self.checkpoints, 1, 16);
            self.checkpoints.push(Checkpoint {
                pos: self.bytes.len(),
                at: p.at,
                base: self.encoded_at,
            });
        }
        let index = self.palette_index(p.levels);
        // A delta, then an index byte or the escape and an index.
        let mut buf = [0u8; 21];
        let mut n = write_leb128(&mut buf, p.at - self.encoded_at);
        match u8::try_from(index) {
            Ok(i) if i != ESCAPE => buf[n] = i,
            _ => {
                buf[n] = ESCAPE;
                n += write_leb128(&mut buf[n + 1..], index as u64);
            }
        }
        reserve_slack(&mut self.bytes, n + 1, 256);
        self.bytes.extend_from_slice(&buf[..=n]);
        self.encoded += 1;
        self.encoded_at = p.at;
    }

    /// The palette index of `levels`, added when new. The hint for a hash
    /// of its bits usually names it, so a lookup compares one entry
    /// instead of scanning the palette.
    fn palette_index(&mut self, levels: Levels) -> usize {
        let [a, b] = levels.levels.map(f64::to_bits);
        let bits = a ^ b.rotate_left(31) ^ u64::from(levels.changed);
        let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize;
        let hint = usize::from(self.hints[slot]);
        if self.palette.get(hint).is_some_and(|l| l.same_bits(&levels)) {
            return hint;
        }
        let index = match self.palette.iter().position(|l| l.same_bits(&levels)) {
            Some(i) => i,
            None => {
                self.palette.push(levels);
                self.palette.len() - 1
            }
        };
        if let Ok(i) = u8::try_from(index) {
            self.hints[slot] = i;
        }
        index
    }

    /// Move the newest encoded change point, if any, back into the tail,
    /// ahead of what it holds.
    fn unencode_newest(&mut self) {
        let Some(&cp) = self.checkpoints.last() else {
            return;
        };
        let mut dec = self.decoder(cp.pos, cp.base);
        let (mut start, mut base) = (cp.pos, cp.base);
        let mut newest = dec.next().expect("a checkpoint starts a change point");
        loop {
            let (pos, at) = (dec.pos, dec.at);
            let Some(p) = dec.next() else { break };
            (start, base, newest) = (pos, at, p);
        }
        self.bytes.truncate(start);
        self.encoded -= 1;
        self.encoded_at = base;
        if start == cp.pos {
            self.checkpoints.pop();
        }
        self.tail.insert(0, newest);
    }

    fn decoder(&self, pos: usize, at: SimTime) -> Decoder<'_> {
        Decoder {
            bytes: &self.bytes,
            palette: &self.palette,
            pos,
            at,
        }
    }

    /// The second lane, recorded by [`UtilizationTracker::record_pair`].
    pub fn second(&self) -> Lane<'_> {
        Lane {
            tracker: self,
            lane: 1,
        }
    }

    fn first(&self) -> Lane<'_> {
        Lane {
            tracker: self,
            lane: 0,
        }
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.first().len()
    }

    /// True if nothing was recorded (signal identically zero).
    pub fn is_empty(&self) -> bool {
        self.first().is_empty()
    }

    /// Raw samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = Sample> + '_ {
        self.first().samples()
    }

    /// Signal level at time `t`.
    pub fn level_at(&self, t: SimTime) -> f64 {
        self.first().level_at(t)
    }

    /// Exact time-weighted mean of the signal over `[from, to)`.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        self.first().mean_over(from, to)
    }

    /// Total time in `[from, to)` during which the signal was strictly
    /// positive ("busy time"), in nanoseconds.
    pub fn busy_ns(&self, from: SimTime, to: SimTime) -> u64 {
        self.first().busy_ns(from, to)
    }

    /// Down-sample into `n` equal buckets over `[from, to)`; see
    /// [`Lane::bucketize`].
    pub fn bucketize(&self, from: SimTime, to: SimTime, n: usize) -> Vec<f64> {
        self.first().bucketize(from, to, n)
    }

    /// Count "idle gaps" of at least `min_gap_ns`; see [`Lane::idle_gaps`].
    pub fn idle_gaps(&self, from: SimTime, to: SimTime, min_gap_ns: u64) -> usize {
        self.first().idle_gaps(from, to, min_gap_ns)
    }

    /// Render the tracker as `(seconds, level)` pairs for report output.
    pub fn as_seconds_series(&self) -> Vec<(f64, f64)> {
        self.first().as_seconds_series()
    }
}

/// One lane of a [`UtilizationTracker`], queried as a tracker of its own.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    tracker: &'a UtilizationTracker,
    lane: usize,
}

impl<'a> Lane<'a> {
    /// This lane's sample at `p`, if it changed there.
    fn sample(self, p: Point) -> Option<Sample> {
        (p.levels.changed & (1 << self.lane) != 0).then_some(Sample {
            at: p.at,
            level: p.levels.levels[self.lane],
        })
    }

    /// The lane's level at `t`, and its change points after `t`. Starts
    /// at the tail when `t` reaches it (the executive's metrics sample at
    /// `now`), else decodes from the last checkpoint at or before `t`.
    fn split(self, t: SimTime) -> (f64, impl Iterator<Item = Sample> + 'a) {
        let tr = self.tracker;
        let mut dec = match tr.tail.first() {
            Some(p) if p.at <= t => tr.decoder(tr.bytes.len(), tr.encoded_at),
            _ => match tr.checkpoints.partition_point(|c| c.at <= t) {
                0 => tr.decoder(0, 0),
                k => tr.decoder(tr.checkpoints[k - 1].pos, tr.checkpoints[k - 1].base),
            },
        };
        // Every change point carries each lane's level, changed or not.
        let mut level = dec.skip_through(t).map_or(0.0, |l| l.levels[self.lane]);
        let k = tr.tail.partition_point(|p| p.at <= t);
        if let Some(p) = k.checked_sub(1).map(|k| tr.tail[k]) {
            level = p.levels.levels[self.lane];
        }
        let rest = dec.chain(tr.tail[k..].iter().copied());
        (level, rest.filter_map(move |p| self.sample(p)))
    }

    /// Number of recorded steps.
    pub fn len(self) -> usize {
        self.tracker.counts[self.lane]
    }

    /// True if nothing was recorded (signal identically zero).
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Raw samples, oldest first.
    pub fn samples(self) -> impl Iterator<Item = Sample> + 'a {
        let tr = self.tracker;
        (tr.decoder(0, 0).chain(tr.tail.iter().copied())).filter_map(move |p| self.sample(p))
    }

    /// Signal level at time `t`.
    pub fn level_at(self, t: SimTime) -> f64 {
        self.split(t).0
    }

    /// Exact time-weighted mean of the signal over `[from, to)`.
    pub fn mean_over(self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let mut cursor = from;
        let (mut level, rest) = self.split(from);
        for s in rest {
            if s.at >= to {
                break;
            }
            acc += level * (s.at - cursor) as f64;
            cursor = s.at;
            level = s.level;
        }
        acc += level * (to - cursor) as f64;
        acc / (to - from) as f64
    }

    /// Total time in `[from, to)` during which the signal was strictly
    /// positive ("busy time"), in nanoseconds.
    pub fn busy_ns(self, from: SimTime, to: SimTime) -> u64 {
        if to <= from {
            return 0;
        }
        let mut busy = 0u64;
        let mut cursor = from;
        let (mut level, rest) = self.split(from);
        for s in rest {
            if s.at >= to {
                break;
            }
            if level > 0.0 {
                busy += s.at - cursor;
            }
            cursor = s.at;
            level = s.level;
        }
        if level > 0.0 {
            busy += to - cursor;
        }
        busy
    }

    /// Down-sample into `n` equal buckets over `[from, to)`; each bucket is
    /// the time-weighted mean level within it. Used to print utilization
    /// timelines (Figure 2).
    ///
    /// Boundaries are computed in integer arithmetic so adjacent buckets
    /// tile `[from, to)` exactly: bucket `i` covers
    /// `[from + span*i/n, from + span*(i+1)/n)`, and the last bucket ends
    /// exactly at `to` — its mean is weighted by its *actual* width, never
    /// by a rounded-up phantom nanosecond past the window.
    pub fn bucketize(self, from: SimTime, to: SimTime, n: usize) -> Vec<f64> {
        assert!(n > 0 && to > from);
        let span = (to - from) as u128;
        let edge = |i: usize| from + (span * i as u128 / n as u128) as u64;
        (0..n)
            .map(|i| {
                let b0 = edge(i);
                let b1 = edge(i + 1);
                // A degenerate (zero-width) bucket only occurs when n > span;
                // report the instantaneous level there.
                if b1 > b0 {
                    self.mean_over(b0, b1)
                } else {
                    self.level_at(b0)
                }
            })
            .collect()
    }

    /// Count "idle gaps": maximal intervals within `[from, to)` of at least
    /// `min_gap_ns` during which the signal is zero. These are the visible
    /// "glitches" of the paper's Figure 2.
    pub fn idle_gaps(self, from: SimTime, to: SimTime, min_gap_ns: u64) -> usize {
        let mut gaps = 0;
        let mut cursor = from;
        let (mut level, rest) = self.split(from);
        for s in rest {
            if s.at >= to {
                break;
            }
            if level == 0.0 && s.at - cursor >= min_gap_ns {
                gaps += 1;
            }
            cursor = s.at;
            level = s.level;
        }
        if level == 0.0 && to > cursor && to - cursor >= min_gap_ns {
            gaps += 1;
        }
        gaps
    }

    /// Render the lane as `(seconds, level)` pairs for report output.
    pub fn as_seconds_series(self) -> Vec<(f64, f64)> {
        self.samples()
            .map(|s| (s.at as f64 / NS_PER_SEC as f64, s.level))
            .collect()
    }
}

/// Renders as the plain `Vec<Sample>` of a standalone tracker:
/// `UtilizationTracker { samples: [Sample { at: .., level: .. }, ..] }`.
impl fmt::Debug for Lane<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct List<'a>(Lane<'a>);
        impl fmt::Debug for List<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.samples()).finish()
            }
        }
        f.debug_struct("UtilizationTracker")
            .field("samples", &List(*self))
            .finish()
    }
}

/// Renders the first lane, as [`Lane`]'s `Debug` does.
impl fmt::Debug for UtilizationTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.first().fmt(f)
    }
}

/// The union of the trackers' change points within `(from, to)`, plus
/// `from`, ascending; each with whether any tracker is strictly positive
/// there and whether every tracker is zero there. Reads each tracker's
/// first lane.
fn union_points(
    trackers: &[&UtilizationTracker],
    from: SimTime,
    to: SimTime,
) -> Vec<(SimTime, bool, bool)> {
    let mut points: Vec<SimTime> = trackers
        .iter()
        .flat_map(|t| {
            t.first()
                .split(from)
                .1
                .map(|s| s.at)
                .take_while(|&at| at < to)
        })
        .collect();
    points.push(from);
    points.sort_unstable();
    points.dedup();
    let mut cursors: Vec<_> = (trackers.iter())
        .map(|t| {
            let (level, rest) = t.first().split(from);
            (level, rest.peekable())
        })
        .collect();
    points
        .into_iter()
        .map(|p| {
            let (mut any, mut all) = (false, true);
            for (level, rest) in &mut cursors {
                while let Some(s) = rest.next_if(|s| s.at <= p) {
                    *level = s.level;
                }
                any |= *level > 0.0;
                all &= *level == 0.0;
            }
            (p, any, all)
        })
        .collect()
}

/// Fraction of `[from, to)` during which *any* of the trackers is strictly
/// positive — e.g. "some GPU engine is busy".
pub fn combined_busy_fraction(trackers: &[&UtilizationTracker], from: SimTime, to: SimTime) -> f64 {
    if to <= from || trackers.is_empty() {
        return 0.0;
    }
    let points = union_points(trackers, from, to);
    let mut busy = 0u64;
    for (i, &(p, any, _)) in points.iter().enumerate() {
        let next = points.get(i + 1).map_or(to, |q| q.0);
        if any {
            busy += next - p;
        }
    }
    busy as f64 / (to - from) as f64
}

/// Maximal intervals of at least `min_gap_ns` within `[from, to)` during
/// which **every** tracker is zero — the device-wide idle "glitches" of the
/// paper's Figure 2 when applied to the compute + copy engines.
pub fn combined_idle_gaps(
    trackers: &[&UtilizationTracker],
    from: SimTime,
    to: SimTime,
    min_gap_ns: u64,
) -> usize {
    if to <= from || trackers.is_empty() {
        return 0;
    }
    let points = union_points(trackers, from, to);
    let mut gaps = 0;
    let mut idle_since: Option<SimTime> = None;
    for (i, &(p, _, idle)) in points.iter().enumerate() {
        let next = points.get(i + 1).map_or(to, |q| q.0);
        match (idle, idle_since) {
            (true, None) => idle_since = Some(p),
            (false, Some(start)) => {
                if p - start >= min_gap_ns {
                    gaps += 1;
                }
                idle_since = None;
            }
            _ => {}
        }
        if i + 1 == points.len() {
            if let Some(start) = idle_since {
                if next - start >= min_gap_ns {
                    gaps += 1;
                }
            }
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_wave() -> UtilizationTracker {
        // 0 on [0,10), 1 on [10,20), 0 on [20,30), 0.5 on [30,40)
        let mut t = UtilizationTracker::new();
        t.record(10, 1.0);
        t.record(20, 0.0);
        t.record(30, 0.5);
        t.record(40, 0.0);
        t
    }

    #[test]
    fn level_at_queries() {
        let t = square_wave();
        assert_eq!(t.level_at(0), 0.0);
        assert_eq!(t.level_at(10), 1.0);
        assert_eq!(t.level_at(15), 1.0);
        assert_eq!(t.level_at(20), 0.0);
        assert_eq!(t.level_at(35), 0.5);
        assert_eq!(t.level_at(1000), 0.0);
    }

    #[test]
    fn mean_over_windows() {
        let t = square_wave();
        assert!((t.mean_over(0, 20) - 0.5).abs() < 1e-12);
        assert!((t.mean_over(10, 20) - 1.0).abs() < 1e-12);
        assert!((t.mean_over(0, 40) - (10.0 + 5.0) / 40.0).abs() < 1e-12);
        assert_eq!(t.mean_over(5, 5), 0.0);
    }

    #[test]
    fn busy_time() {
        let t = square_wave();
        assert_eq!(t.busy_ns(0, 40), 20);
        assert_eq!(t.busy_ns(0, 15), 5);
        assert_eq!(t.busy_ns(25, 35), 5);
    }

    #[test]
    fn coalesces_equal_levels() {
        let mut t = UtilizationTracker::new();
        t.record(0, 0.0); // implicit zero dropped
        t.record(5, 1.0);
        t.record(7, 1.0); // coalesced
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn instantaneous_blip_replaced() {
        let mut t = UtilizationTracker::new();
        t.record(5, 1.0);
        t.record(5, 0.5); // same instant: replaces
        assert_eq!(t.len(), 1);
        assert_eq!(t.level_at(5), 0.5);
    }

    #[test]
    fn bucketize_square_wave() {
        let t = square_wave();
        let buckets = t.bucketize(0, 40, 4);
        assert_eq!(buckets.len(), 4);
        assert!((buckets[0] - 0.0).abs() < 1e-9);
        assert!((buckets[1] - 1.0).abs() < 1e-9);
        assert!((buckets[2] - 0.0).abs() < 1e-9);
        assert!((buckets[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bucketize_uneven_window_weights_last_bucket_by_actual_width() {
        // Signal: 1.0 on [0, 7), 0.0 afterwards. 3 buckets over [0, 10):
        // integer edges 0|3|6|10 — the last bucket is [6,10), 4 ns wide,
        // of which [6,7) is busy: mean 0.25 exactly.
        let mut t = UtilizationTracker::new();
        t.record(0, 1.0);
        t.record(7, 0.0);
        let b = t.bucketize(0, 10, 3);
        assert_eq!(b.len(), 3);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
        assert!((b[2] - 0.25).abs() < 1e-12, "got {}", b[2]);
    }

    #[test]
    fn bucketize_tiles_window_exactly() {
        // Weighted bucket means must reassemble the whole-window mean —
        // only true when buckets tile [from, to) with no gap or overlap.
        let t = square_wave();
        let (from, to, n) = (1u64, 38, 7);
        let edges: Vec<u64> = (0..=n)
            .map(|i| from + ((to - from) as u128 * i as u128 / n as u128) as u64)
            .collect();
        let b = t.bucketize(from, to, n as usize);
        let stitched: f64 = b
            .iter()
            .zip(edges.windows(2))
            .map(|(m, w)| m * (w[1] - w[0]) as f64)
            .sum::<f64>()
            / (to - from) as f64;
        assert!((stitched - t.mean_over(from, to)).abs() < 1e-12);
    }

    #[test]
    fn bucketize_more_buckets_than_nanoseconds() {
        let mut t = UtilizationTracker::new();
        t.record(1, 1.0);
        t.record(2, 0.0);
        // 4 buckets over a 2 ns window: two are zero-width and must not
        // panic or read outside the window.
        let b = t.bucketize(0, 2, 4);
        assert_eq!(b.len(), 4);
        for v in &b {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn idle_gap_detection() {
        let t = square_wave();
        // idle on [0,10), [20,30), [40,40) -> two gaps of 10
        assert_eq!(t.idle_gaps(0, 40, 10), 2);
        assert_eq!(t.idle_gaps(0, 40, 11), 0);
        assert_eq!(t.idle_gaps(0, 50, 10), 3); // trailing idle [40,50)
    }

    #[test]
    fn combined_busy_unions_trackers() {
        // A busy [10,20), B busy [15,30): union busy [10,30) of [0,40).
        let mut a = UtilizationTracker::new();
        a.record(10, 1.0);
        a.record(20, 0.0);
        let mut b = UtilizationTracker::new();
        b.record(15, 0.5);
        b.record(30, 0.0);
        let f = combined_busy_fraction(&[&a, &b], 0, 40);
        assert!((f - 0.5).abs() < 1e-9, "got {f}");
    }

    #[test]
    fn combined_idle_gaps_require_all_idle() {
        let mut a = UtilizationTracker::new();
        a.record(10, 1.0);
        a.record(20, 0.0);
        let mut b = UtilizationTracker::new();
        b.record(15, 0.5);
        b.record(30, 0.0);
        // Idle: [0,10) and [30,40).
        assert_eq!(combined_idle_gaps(&[&a, &b], 0, 40, 10), 2);
        assert_eq!(combined_idle_gaps(&[&a, &b], 0, 40, 11), 0);
        // A single tracker sees its own gaps.
        assert_eq!(combined_idle_gaps(&[&a], 0, 40, 10), 2);
    }

    #[test]
    fn combined_empty_inputs() {
        let a = UtilizationTracker::new();
        assert_eq!(combined_busy_fraction(&[], 0, 10), 0.0);
        assert_eq!(combined_busy_fraction(&[&a], 10, 10), 0.0);
        assert_eq!(combined_idle_gaps(&[], 0, 10, 1), 0);
        // An always-idle tracker over [0,10) is one big gap.
        assert_eq!(combined_idle_gaps(&[&a], 0, 10, 5), 1);
    }

    #[test]
    fn seconds_series_conversion() {
        let mut t = UtilizationTracker::new();
        t.record(NS_PER_SEC, 0.75);
        let series = t.as_seconds_series();
        assert_eq!(series.len(), 1);
        assert!((series[0].0 - 1.0).abs() < 1e-12);
        assert_eq!(series[0].1, 0.75);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// mean_over of a full window must be bounded by observed levels.
        #[test]
        fn mean_bounded(levels in proptest::collection::vec(0.0f64..1.0, 1..50)) {
            let mut t = UtilizationTracker::new();
            for (i, &l) in levels.iter().enumerate() {
                t.record((i as u64 + 1) * 10, l);
            }
            let end = (levels.len() as u64 + 1) * 10;
            let m = t.mean_over(0, end);
            prop_assert!((0.0..=1.0).contains(&m));
        }

        /// Splitting a window in two and averaging with time weights equals
        /// the whole-window mean.
        #[test]
        fn mean_is_additive(levels in proptest::collection::vec(0.0f64..1.0, 1..30), cut in 1u64..290) {
            let mut t = UtilizationTracker::new();
            for (i, &l) in levels.iter().enumerate() {
                t.record((i as u64 + 1) * 10, l);
            }
            let end = 300u64;
            let cut = cut.min(end - 1).max(1);
            let whole = t.mean_over(0, end);
            let left = t.mean_over(0, cut);
            let right = t.mean_over(cut, end);
            let stitched = (left * cut as f64 + right * (end - cut) as f64) / end as f64;
            prop_assert!((whole - stitched).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod differential {
    //! Tracker-vs-reference differential: the tracker must answer every
    //! query exactly as a plain `Vec<Sample>` of its change points does —
    //! same levels, same `f64` sums bit for bit, same counts, same `Debug`
    //! rendering — under equal-level coalescing, same-instant blips (also
    //! back to the previous level), leading zeros, more than 255 distinct
    //! levels and time steps of 2^32 ns or more. A paired tracker's two
    //! lanes must each answer as a reference of its own, also while one
    //! lane coalesces or blips and the other changes.

    use super::{Lane, Sample, UtilizationTracker};
    use crate::time::{SimTime, NS_PER_SEC};
    use proptest::prelude::*;

    /// The reference: every change point in one `Vec`, searched with
    /// `partition_point`. Named like the tracker so its derived `Debug`
    /// is the rendering the tracker must reproduce.
    mod reference {
        use super::Sample;

        #[derive(Debug, Default)]
        pub struct UtilizationTracker {
            pub samples: Vec<Sample>,
        }
    }
    use reference::UtilizationTracker as Reference;

    impl Reference {
        fn record(&mut self, at: SimTime, level: f64) {
            if let Some(last) = self.samples.last() {
                if last.level == level {
                    return;
                }
                if last.at == at {
                    self.samples.pop();
                    if let Some(prev) = self.samples.last() {
                        if prev.level == level {
                            return;
                        }
                    }
                }
            } else if level == 0.0 {
                return;
            }
            self.samples.push(Sample { at, level });
        }

        fn level_at(&self, t: SimTime) -> f64 {
            match self.samples.partition_point(|s| s.at <= t) {
                0 => 0.0,
                i => self.samples[i - 1].level,
            }
        }

        fn after(&self, from: SimTime) -> &[Sample] {
            &self.samples[self.samples.partition_point(|s| s.at <= from)..]
        }

        fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
            if to <= from {
                return 0.0;
            }
            let (mut acc, mut cursor, mut level) = (0.0f64, from, self.level_at(from));
            for s in self.after(from) {
                if s.at >= to {
                    break;
                }
                acc += level * (s.at - cursor) as f64;
                cursor = s.at;
                level = s.level;
            }
            acc += level * (to - cursor) as f64;
            acc / (to - from) as f64
        }

        fn busy_ns(&self, from: SimTime, to: SimTime) -> u64 {
            if to <= from {
                return 0;
            }
            let (mut busy, mut cursor, mut level) = (0u64, from, self.level_at(from));
            for s in self.after(from) {
                if s.at >= to {
                    break;
                }
                if level > 0.0 {
                    busy += s.at - cursor;
                }
                cursor = s.at;
                level = s.level;
            }
            if level > 0.0 {
                busy += to - cursor;
            }
            busy
        }

        fn bucketize(&self, from: SimTime, to: SimTime, n: usize) -> Vec<f64> {
            let span = (to - from) as u128;
            let edge = |i: usize| from + (span * i as u128 / n as u128) as u64;
            (0..n)
                .map(|i| {
                    let (b0, b1) = (edge(i), edge(i + 1));
                    if b1 > b0 {
                        self.mean_over(b0, b1)
                    } else {
                        self.level_at(b0)
                    }
                })
                .collect()
        }

        fn idle_gaps(&self, from: SimTime, to: SimTime, min_gap_ns: u64) -> usize {
            let (mut gaps, mut cursor, mut level) = (0, from, self.level_at(from));
            for s in self.after(from) {
                if s.at >= to {
                    break;
                }
                if level == 0.0 && s.at - cursor >= min_gap_ns {
                    gaps += 1;
                }
                cursor = s.at;
                level = s.level;
            }
            if level == 0.0 && to > cursor && to - cursor >= min_gap_ns {
                gaps += 1;
            }
            gaps
        }

        fn as_seconds_series(&self) -> Vec<(f64, f64)> {
            (self.samples.iter())
                .map(|s| (s.at as f64 / NS_PER_SEC as f64, s.level))
                .collect()
        }
    }

    /// The union's change points in `(from, to)`, plus `from`, sorted.
    fn points(trackers: &[&Reference], from: SimTime, to: SimTime) -> Vec<SimTime> {
        let mut points: Vec<SimTime> = (trackers.iter())
            .flat_map(|t| t.samples.iter().map(|s| s.at))
            .filter(|&t| t > from && t < to)
            .collect();
        points.push(from);
        points.sort_unstable();
        points.dedup();
        points
    }

    fn combined_busy_fraction(trackers: &[&Reference], from: SimTime, to: SimTime) -> f64 {
        if to <= from || trackers.is_empty() {
            return 0.0;
        }
        let points = points(trackers, from, to);
        let mut busy = 0u64;
        for (i, &p) in points.iter().enumerate() {
            let next = points.get(i + 1).copied().unwrap_or(to);
            if trackers.iter().any(|t| t.level_at(p) > 0.0) {
                busy += next - p;
            }
        }
        busy as f64 / (to - from) as f64
    }

    fn combined_idle_gaps(trackers: &[&Reference], from: SimTime, to: SimTime, min: u64) -> usize {
        if to <= from || trackers.is_empty() {
            return 0;
        }
        let points = points(trackers, from, to);
        let (mut gaps, mut idle_since) = (0, None);
        for (i, &p) in points.iter().enumerate() {
            let next = points.get(i + 1).copied().unwrap_or(to);
            let idle = trackers.iter().all(|t| t.level_at(p) == 0.0);
            match (idle, idle_since) {
                (true, None) => idle_since = Some(p),
                (false, Some(start)) => {
                    gaps += usize::from(p - start >= min);
                    idle_since = None;
                }
                _ => {}
            }
            if i + 1 == points.len() {
                if let Some(start) = idle_since {
                    gaps += usize::from(next - start >= min);
                }
            }
        }
        gaps
    }

    /// Levels drawn from a short palette (coalescing and blips back to a
    /// previous level are frequent, `-0.0` and NaN included) or from 600
    /// distinct values (long runs hold more than 255 of them).
    fn level() -> impl Strategy<Value = f64> {
        const PALETTE: [f64; 8] = [0.0, 1.0, 0.5, 0.25, 0.75, 1.0 / 3.0, -0.0, f64::NAN];
        prop_oneof![
            (0usize..PALETTE.len()).prop_map(|i| PALETTE[i]),
            (0usize..PALETTE.len()).prop_map(|i| PALETTE[i]),
            (1u32..600).prop_map(|i| f64::from(i) / 599.0),
        ]
    }

    /// Time steps: same-instant (blips), small, large, and 2^32 ns or
    /// more (beyond four varint bytes).
    fn step() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            1u64..1_000,
            1_000u64..2_000_000_000,
            (1u64 << 32)..(1u64 << 40),
        ]
    }

    /// Record `ops` (tracker, step, level) into three trackers and three
    /// references on one forward clock; returns the final time.
    fn build(ops: &[(usize, u64, f64)]) -> ([UtilizationTracker; 3], [Reference; 3], SimTime) {
        let mut trackers: [UtilizationTracker; 3] = Default::default();
        let mut refs: [Reference; 3] = Default::default();
        let mut now = 0;
        for &(k, dt, level) in ops {
            now += dt;
            trackers[k].record(now, level);
            refs[k].record(now, level);
        }
        (trackers, refs, now)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every query of one lane, compared bit for bit.
    fn check_one(t: Lane<'_>, r: &Reference, windows: &[(SimTime, SimTime)]) {
        assert_eq!(t.len(), r.samples.len());
        assert_eq!(t.is_empty(), r.samples.is_empty());
        assert_eq!(format!("{t:?}"), format!("{r:?}"));
        assert_eq!(format!("{t:#?}"), format!("{r:#?}"));
        let series = |s: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
            s.into_iter()
                .map(|(a, b)| (a.to_bits(), b.to_bits()))
                .collect()
        };
        assert_eq!(series(t.as_seconds_series()), series(r.as_seconds_series()));
        let probes = (r.samples.iter())
            .flat_map(|s| [s.at.saturating_sub(1), s.at, s.at + 1])
            .chain(windows.iter().flat_map(|&(a, b)| [a, b]));
        for p in probes {
            assert_eq!(
                t.level_at(p).to_bits(),
                r.level_at(p).to_bits(),
                "level_at({p})"
            );
        }
        for &(from, to) in windows {
            let ctx = format!("[{from}, {to})");
            assert_eq!(
                t.mean_over(from, to).to_bits(),
                r.mean_over(from, to).to_bits(),
                "{ctx}"
            );
            assert_eq!(t.busy_ns(from, to), r.busy_ns(from, to), "{ctx}");
            for min in [0, 1, 1_000, 1 << 33] {
                assert_eq!(
                    t.idle_gaps(from, to, min),
                    r.idle_gaps(from, to, min),
                    "{ctx}"
                );
            }
            if to > from {
                for n in [1, 7, 64] {
                    assert_eq!(
                        bits(&t.bucketize(from, to, n)),
                        bits(&r.bucketize(from, to, n))
                    );
                }
            }
        }
    }

    /// Query windows: the whole history, one past its end, and random
    /// ones (some inverted or empty).
    fn windows(end: SimTime, picks: &[(u64, u64)]) -> Vec<(SimTime, SimTime)> {
        let span = end + 10;
        let mut w = vec![(0, end.max(1)), (0, span), (end, span)];
        w.extend(picks.iter().map(|&(a, b)| (a % span, b % span)));
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tracker_matches_the_vec_reference(
            ops in proptest::collection::vec((0usize..3, step(), level()), 0..700),
            picks in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..12),
        ) {
            let (trackers, refs, end) = build(&ops);
            let windows = windows(end, &picks);
            for (t, r) in trackers.iter().zip(&refs) {
                check_one(t.first(), r, &windows);
                prop_assert_eq!(format!("{t:?}"), format!("{r:?}"));
                prop_assert_eq!(t.len(), r.samples.len());
            }
            let (t, r): (Vec<&UtilizationTracker>, Vec<&Reference>) =
                (trackers.iter().collect(), refs.iter().collect());
            for &(from, to) in &windows {
                for k in 0..=3 {
                    prop_assert_eq!(
                        super::combined_busy_fraction(&t[..k], from, to).to_bits(),
                        combined_busy_fraction(&r[..k], from, to).to_bits()
                    );
                    for min in [1, 1_000, 1 << 33] {
                        prop_assert_eq!(
                            super::combined_idle_gaps(&t[..k], from, to, min),
                            combined_idle_gaps(&r[..k], from, to, min)
                        );
                    }
                }
            }
        }
    }

    /// A blip back to the previous level leaves one change point
    /// unencoded; a second blip at that point's own instant (which only a
    /// clock that ran back to it records) reaches the encoded ones, also
    /// across a checkpoint.
    #[test]
    fn blips_at_an_older_instant_reach_the_encoded_points() {
        let level = |i: u64| (i % 3 + 1) as f64;
        for n in [3u64, 4, 5, 64, 65, 66, 67, 130] {
            let mut t = UtilizationTracker::new();
            let mut r = Reference::default();
            // Change points at 1..=n, then a blip back to the level before
            // the newest, at the newest's instant.
            let history = (1..=n).map(|i| (i, level(i))).chain([(n, level(n - 1))]);
            // Then blips at the two instants before it, each tried with a
            // new level and with the one before it, and on from there.
            let blips = [
                (n - 1, 9.0),
                (n - 1, level(n - 2)),
                (n - 2, 8.0),
                (n - 2, level(n - 3)),
                (n + 5, 7.0),
                (n + 6, 0.0),
            ];
            for (at, l) in history.chain(blips) {
                t.record(at, l);
                r.record(at, l);
            }
            check_one(t.first(), &r, &windows(n + 6, &[(0, n), (n / 2, n + 3)]));
        }
    }

    /// One long history with 1,000 distinct levels, every step 2^32 ns or
    /// more, and blips: the escape path and every checkpoint are walked.
    #[test]
    fn many_levels_and_wide_steps() {
        let ops: Vec<(usize, u64, f64)> = (0..3_000u64)
            .map(|i| {
                let dt = if i % 5 == 4 { 0 } else { (1 << 32) + i * 977 };
                (0, dt, ((i * 7_919) % 1_000) as f64 / 999.0)
            })
            .collect();
        let (trackers, refs, end) = build(&ops);
        let picks: Vec<(u64, u64)> = (0..40u64)
            .map(|i| (i * end / 37, (i + 3) * end / 37))
            .collect();
        check_one(trackers[0].first(), &refs[0], &windows(end, &picks));
        assert!(refs[0].samples.len() > 2_000);
    }

    /// A level for one lane of a paired record, or `None` to repeat the
    /// lane's last level (it coalesces while the other lane changes).
    fn paired_level() -> impl Strategy<Value = Option<f64>> {
        prop_oneof![
            level().prop_map(Some),
            level().prop_map(Some),
            level().prop_map(Some),
            Just(None),
        ]
    }

    /// Record `ops` (step, first, second, pair) into one paired tracker
    /// and a reference per lane; `pair == 0` records the first lane alone.
    fn build_paired(
        ops: &[(u64, Option<f64>, Option<f64>, u8)],
    ) -> (UtilizationTracker, [Reference; 2], SimTime) {
        let mut t = UtilizationTracker::new();
        let mut refs: [Reference; 2] = Default::default();
        let (mut now, mut last) = (0, [0.0; 2]);
        for &(dt, a, b, pair) in ops {
            now += dt;
            let (a, b) = (a.unwrap_or(last[0]), b.unwrap_or(last[1]));
            refs[0].record(now, a);
            last[0] = a;
            if pair == 0 {
                t.record(now, a);
            } else {
                t.record_pair(now, a, b);
                refs[1].record(now, b);
                last[1] = b;
            }
        }
        (t, refs, now)
    }

    /// Both lanes of a paired tracker, each against its reference, and the
    /// tracker's own `Debug` and length against the first lane's.
    fn check_paired(t: &UtilizationTracker, refs: &[Reference; 2], windows: &[(SimTime, SimTime)]) {
        check_one(t.first(), &refs[0], windows);
        check_one(t.second(), &refs[1], windows);
        assert_eq!(format!("{t:?}"), format!("{:?}", refs[0]));
        assert_eq!(t.len(), refs[0].samples.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn paired_lanes_match_two_references(
            ops in proptest::collection::vec(
                (step(), paired_level(), paired_level(), 0u8..8),
                0..700,
            ),
            picks in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..12),
        ) {
            let (t, refs, end) = build_paired(&ops);
            check_paired(&t, &refs, &windows(end, &picks));
        }
    }

    /// The blips of `blips_at_an_older_instant_reach_the_encoded_points`
    /// on either lane of a paired tracker. The other lane follows the
    /// blipping one through a many-to-one map, so it coalesces at some
    /// changes and blips back with it at the rest; the instants it leaves
    /// behind are free for the blips to return to.
    #[test]
    fn paired_blips_at_an_older_instant_reach_the_encoded_points() {
        let level = |i: u64| (i % 3 + 1) as f64;
        let other = |l: f64| if l >= 2.0 { 0.5 } else { 0.0 };
        for swap in [false, true] {
            for n in [3u64, 4, 5, 64, 65, 66, 67, 130] {
                let history = (1..=n).map(|i| (i, level(i))).chain([(n, level(n - 1))]);
                let blips = [
                    (n - 1, 9.0),
                    (n - 1, level(n - 2)),
                    (n - 2, 8.0),
                    (n - 2, level(n - 3)),
                    (n + 5, 7.0),
                    (n + 6, 0.0),
                ];
                let mut t = UtilizationTracker::new();
                let mut refs: [Reference; 2] = Default::default();
                for (at, l) in history.chain(blips) {
                    let (a, b) = if swap { (other(l), l) } else { (l, other(l)) };
                    t.record_pair(at, a, b);
                    refs[0].record(at, a);
                    refs[1].record(at, b);
                }
                check_paired(&t, &refs, &windows(n + 6, &[(0, n), (n / 2, n + 3)]));
            }
        }
    }

    /// Wide steps, blips and more than 255 distinct level pairs: the
    /// escape path and every checkpoint of a paired timeline are walked.
    #[test]
    fn paired_many_pairs_and_wide_steps() {
        let ops: Vec<_> = (0..3_000u64)
            .map(|i| {
                let dt = if i % 5 == 4 { 0 } else { (1 << 32) + i * 977 };
                let a = ((i * 7_919) % 1_000) as f64 / 999.0;
                let b = (i % 7 != 3).then_some(((i * 104_729) % 300) as f64 / 299.0);
                (dt, Some(a), b, 1)
            })
            .collect();
        let (t, refs, end) = build_paired(&ops);
        let picks: Vec<(u64, u64)> = (0..40u64)
            .map(|i| (i * end / 37, (i + 3) * end / 37))
            .collect();
        check_paired(&t, &refs, &windows(end, &picks));
        assert!(t.palette.len() > 255);
    }
}
