//! Event queue.
//!
//! A hierarchical timing wheel for discrete-event simulation. Events are
//! totally ordered by `(time, sequence)` where the sequence number is the
//! insertion order — two events scheduled for the same instant pop in the
//! order they were scheduled, which keeps the simulation deterministic.
//!
//! # Timing wheel
//!
//! The near future — one `SPAN`-wide window starting at the wheel base —
//! is covered by `NBUCKETS` fixed-width buckets; an event lands in its
//! bucket with a shift and a mask, no comparisons, and inserts are plain
//! pushes. Buckets are deliberately narrow enough to hold only a handful
//! of events, so the pop path finds the bucket minimum with a linear scan
//! of contiguous memory instead of maintaining sorted order. Events beyond
//! the window go to a calendar overflow (a binary heap); when the wheel
//! drains, the window advances to the overflow minimum and the next
//! window's worth of events cascades into the buckets. Because the
//! simulation clock is monotonic and schedules into the past clamp to
//! `now`, every insert lands at or after the wheel base — the wheel never
//! has to look backwards.
//!
//! Components that re-derive their own next event whenever their state
//! changes (e.g. a GPU compute engine re-solving kernel completion times when
//! a kernel joins) need their stale wakeups discarded. That is built into
//! the queue: a component registers an [`EventKey`] once, schedules its
//! wakeups with [`EventQueue::schedule_keyed`], and calls
//! [`EventQueue::invalidate`] on every state change.
//!
//! Keyed wakeups never touch the wheel in the common case. Each key owns a
//! one-entry *slot* beside the wheel; scheduling parks the entry there and
//! [`EventQueue::invalidate`] cancels it, each in O(log keys) — tallied in
//! [`EventQueue::cancelled`] — and a cancelled entry is simply gone: it
//! never pops, never advances the clock, never counts as an event. Only
//! when a second wakeup is scheduled while one is already parked (a
//! component rescheduling without superseding) does the parked entry spill
//! into the wheel, where a later invalidation kills it lazily at pop time
//! ([`EventQueue::stale_pops`], ~0 in practice).
//!
//! The earliest parked entry across all keys is kept by a tournament
//! (winner) tree over the slots: every internal node holds the smaller
//! `(time, seq)` of its two children, so the root is the cross-slot
//! minimum in O(1), and parking, cancelling or popping one slot replays
//! only the matches on that slot's leaf-to-root path — O(log keys), with
//! no walk over the other slots however many devices the cluster has.
//! `(time, seq)` is unique per entry, so the winner is exactly the entry
//! a full scan would find.
//!
//! A run's planned arrivals never enter the wheel at all.
//! [`EventQueue::schedule_arrivals`] takes them in one go, sorted by
//! `(time, id)`, and the pop path merges that cursor with the queue head:
//! the next arrival pops when it orders before everything queued. Each
//! arrival still gets the id a plain schedule would have given it, so the
//! merged pop order, the clock and every id and cause are exactly those of
//! scheduling the arrivals one by one, while the wheel and its overflow
//! hold only the events the run has generated — the work in flight.
//!
//! Depth ([`EventQueue::live_len`] / [`EventQueue::peak_live_len`]) counts
//! only queued events that can still dispatch: the honest backlog, pending
//! arrivals excluded. [`EventQueue::peak_backlog`] adds those back.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a cancellable event slot, allocated by
/// [`EventQueue::register_key`]. One key typically belongs to one
/// self-rescheduling component (e.g. a simulated device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(u32);

/// Sentinel for "no key" on unkeyed entries.
const NO_KEY: u32 = u32::MAX;

/// Identity of a dispatched event, for causal provenance.
///
/// Every popped event carries a unique id (its insertion sequence number)
/// and remembers the id of the event being dispatched when it was
/// scheduled — its *cause*. Walking `cause` links backwards recovers the
/// scheduling chain that led to any event without recording anything
/// beyond two words per entry. [`EventId::NONE`] marks roots: events
/// scheduled before the first pop (initial arrivals, fault plans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// "No cause": the event was scheduled outside any dispatch (setup).
    pub const NONE: EventId = EventId(u64::MAX);

    /// True unless this is the [`EventId::NONE`] sentinel.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u64::MAX
    }
}

/// log2 of the bucket width: 2^22 ns ≈ 4.2 ms per bucket, sized so the
/// DES hot paths (device wakeups every few hundred µs to a few ms) land a
/// handful of events per bucket — small enough to scan, large enough that
/// the working set of buckets stays cache-resident.
const SHIFT: u32 = 22;
/// Buckets in the near window (power of two; one bitmap word).
const NBUCKETS: usize = 64;
/// Bitmap words covering `NBUCKETS` buckets.
const WORDS: usize = NBUCKETS / 64;
/// Width of the near window: events past `base + SPAN` overflow to the
/// calendar heap until the window advances over them.
const SPAN: u64 = (NBUCKETS as u64) << SHIFT;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    /// Index into `key_gens`, or `NO_KEY` for plain entries.
    key: u32,
    /// The key's generation when this entry was scheduled; the entry is
    /// stale iff it no longer matches `key_gens[key]`.
    key_gen: u64,
    /// Sequence number of the event being dispatched when this entry was
    /// scheduled (`u64::MAX` when scheduled outside any dispatch). Pure
    /// bookkeeping: never consulted by ordering or accounting.
    cause: u64,
    event: E,
}

// Order by (time, seq) only; the payload is irrelevant to ordering.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A run's planned arrivals, held outside the wheel as a cursor (see
/// [`EventQueue::schedule_arrivals`]).
#[derive(Debug)]
struct Arrivals<E> {
    /// `(time, index)` in pop order: sorted by time, ties by index. The
    /// arrival's event id is `base + index`.
    order: Vec<(SimTime, u32)>,
    /// Position of the next arrival to pop in `order`.
    next: usize,
    /// Event id of index 0.
    base: u64,
    /// Cause stamped on every arrival: the event being dispatched when
    /// they were scheduled.
    cause: u64,
    /// Builds the payload of arrival `index`.
    make: fn(u32) -> E,
}

impl<E> Arrivals<E> {
    /// `(time, id)` of the next arrival, if any is left.
    #[inline]
    fn head(&self) -> Option<(SimTime, u64)> {
        self.order
            .get(self.next)
            .map(|&(t, i)| (t, self.base + u64::from(i)))
    }

    fn pending(&self) -> usize {
        self.order.len() - self.next
    }
}

/// A tournament-tree node: the `(time, seq)` of the earliest parked entry
/// in its subtree, and the slot holding it. Empty subtrees carry
/// [`NO_ENTRY`], which loses every match.
type Contender = (SimTime, u64, u32);

/// The contender of an empty slot (and of the padding leaves past the last
/// key). No real entry reaches it: sequence numbers never hit `u64::MAX`.
const NO_ENTRY: Contender = (SimTime::MAX, u64::MAX, NO_KEY);

/// Per-key state: the current generation (for wheel-spilled entries), the
/// parked pending wakeup, if any, and how many spilled entries of the
/// *current* generation are still in the wheel (so an invalidation knows
/// how many live events it just killed without scanning the wheel).
#[derive(Debug)]
struct KeySlot<E> {
    gen: u64,
    pending: Option<Scheduled<E>>,
    spilled_live: u32,
}

/// A deterministic future-event list.
///
/// `E` is the simulation's event payload type (typically one big enum owned
/// by the executive).
///
/// Plain events pop in `(time, insertion-order)` order; a self-rescheduling
/// component uses a keyed slot so a superseded wakeup can be cancelled in
/// O(log keys) instead of being popped and discarded:
///
/// ```
/// use sim_core::event::EventQueue;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// let key = q.register_key();
///
/// q.schedule(10, "tick");
/// q.schedule_keyed(key, 20, "wakeup@20");
///
/// // The device's state changed: its parked wakeup is now stale.
/// q.invalidate(key);
/// q.schedule_keyed(key, 30, "wakeup@30");
///
/// assert_eq!(q.pop(), Some((10, "tick")));
/// // The cancelled entry is gone: it never pops and never counts.
/// assert_eq!(q.pop(), Some((30, "wakeup@30")));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.cancelled(), 1);
/// assert_eq!(q.popped(), 2);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-window buckets, unordered; the pop path scans the head bucket
    /// for its `(time, seq)` minimum (buckets are narrow, so scans touch a
    /// handful of contiguous entries).
    wheel: Vec<Vec<Scheduled<E>>>,
    /// Non-empty-bucket bitmap: bit `i` set iff `wheel[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Virtual time of bucket 0; always ≤ every pending event time.
    base: SimTime,
    /// Total events across all wheel buckets.
    wheel_len: usize,
    /// Calendar fallback for events beyond `base + SPAN`.
    overflow: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    clamped: u64,
    slots: Vec<KeySlot<E>>,
    /// Tournament tree over `slots`, heap-indexed from 1: leaf `i` lives
    /// at `leaves + i`, node `n`'s children at `2n` and `2n + 1`, and the
    /// root `tournament[1]` is the earliest parked entry. Empty until the
    /// first key is registered.
    tournament: Vec<Contender>,
    /// Leaf capacity of `tournament`: the smallest power of two ≥ the
    /// number of keys.
    leaves: usize,
    /// Number of slots with a parked entry.
    parked_count: usize,
    /// Wheel/overflow entries already superseded (their key's generation
    /// moved on) — dead weight awaiting a lazy stale pop.
    dead_in_wheel: usize,
    stale_pops: u64,
    cancelled: u64,
    peak_live: usize,
    /// High-water mark of `live_len()` plus the pending arrivals.
    peak_backlog: usize,
    /// Planned arrivals, merged into the pop order (none until
    /// [`EventQueue::schedule_arrivals`]).
    arrivals: Option<Arrivals<E>>,
    /// Sequence number of the most recently popped live event; schedules
    /// stamp it into new entries as their cause.
    cur_id: u64,
    /// That event's own cause, exposed for provenance recording.
    cur_cause: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            base: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            popped: 0,
            clamped: 0,
            slots: Vec::new(),
            tournament: Vec::new(),
            leaves: 0,
            parked_count: 0,
            dead_in_wheel: 0,
            stale_pops: 0,
            cancelled: 0,
            peak_live: 0,
            peak_backlog: 0,
            arrivals: None,
            cur_id: u64::MAX,
            cur_cause: u64::MAX,
        }
    }

    /// Id of the event currently being dispatched (the most recent
    /// [`EventQueue::pop`]), or [`EventId::NONE`] before the first pop.
    #[inline]
    pub fn current_id(&self) -> EventId {
        EventId(self.cur_id)
    }

    /// Cause of the event currently being dispatched: the id of the event
    /// whose handler scheduled it, or [`EventId::NONE`] for setup-time
    /// roots (initial arrivals, fault plans).
    #[inline]
    pub fn current_cause(&self) -> EventId {
        EventId(self.cur_cause)
    }

    /// Id the next scheduled event will get. Ids grow with scheduling
    /// order, so an event whose id is at least the value read at some
    /// moment was scheduled after that moment.
    #[inline]
    pub fn next_id(&self) -> EventId {
        EventId(self.next_seq)
    }

    /// Current virtual time (time of the most recently popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far (for progress reporting / loop caps):
    /// every dispatched event, arrivals included, plus the wheel's stale
    /// pops. Wakeups cancelled in their slot never pop and are not
    /// counted.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Stale keyed entries that reached the *wheel* pop path before dying
    /// (spilled entries invalidated after the fact). Slot cancellation keeps
    /// this near zero; a subset of [`EventQueue::popped`].
    #[inline]
    pub fn stale_pops(&self) -> u64 {
        self.stale_pops
    }

    /// Keyed wakeups cancelled in their slot by [`EventQueue::invalidate`]
    /// without ever entering the wheel — the queue-cancellation win.
    #[inline]
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// High-water mark of [`EventQueue::live_len`]. Spilled-then-superseded
    /// entries are excluded: they can never dispatch, so counting them
    /// would overstate the backlog on cancel-heavy runs.
    #[inline]
    pub fn peak_live_len(&self) -> usize {
        self.peak_live
    }

    /// High-water mark of [`EventQueue::live_len`] plus
    /// [`EventQueue::pending_arrivals`]: the most events ever waiting to
    /// dispatch, planned arrivals included. Equals what
    /// [`EventQueue::peak_live_len`] would read had the arrivals been
    /// scheduled one by one.
    #[inline]
    pub fn peak_backlog(&self) -> usize {
        self.peak_backlog
    }

    /// Number of queued events that can still dispatch. Pending arrivals
    /// are not queued and not counted (see
    /// [`EventQueue::pending_arrivals`]).
    #[inline]
    pub fn live_len(&self) -> usize {
        self.wheel_len + self.overflow.len() + self.parked_count - self.dead_in_wheel
    }

    /// Arrivals from [`EventQueue::schedule_arrivals`] not yet popped.
    #[inline]
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.as_ref().map_or(0, Arrivals::pending)
    }

    /// True if no pending event can still dispatch: nothing live in the
    /// queue and no arrival left.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0 && self.pending_arrivals() == 0
    }

    /// Schedule a run's planned arrivals in one go: arrival `i` pops at
    /// `times[i]` (clamped to `now` like [`EventQueue::schedule`]) with
    /// payload `make(i)`, exactly as if each had been scheduled in turn
    /// right now — same ids (the next `times.len()` ones, in index order),
    /// same cause, same pop order. They wait in a sorted cursor beside the
    /// queue instead of in it, so they cost 16 bytes each until they pop
    /// and never count in [`EventQueue::live_len`]. A queue takes one
    /// arrival list.
    ///
    /// ```
    /// use sim_core::event::EventQueue;
    ///
    /// let mut q: EventQueue<u32> = EventQueue::new();
    /// q.schedule_arrivals([30, 10, 10], |i| i);
    /// q.schedule(10, 99); // id 3: after the two arrivals at 10
    /// assert_eq!(q.live_len(), 1);
    /// assert_eq!(q.pending_arrivals(), 3);
    /// assert_eq!(q.pop(), Some((10, 1)));
    /// assert_eq!(q.pop(), Some((10, 2)));
    /// assert_eq!(q.pop(), Some((10, 99)));
    /// assert_eq!(q.pop(), Some((30, 0)));
    /// assert!(q.is_empty());
    /// assert_eq!(q.popped(), 4);
    /// ```
    pub fn schedule_arrivals(
        &mut self,
        times: impl IntoIterator<Item = SimTime>,
        make: fn(u32) -> E,
    ) {
        assert!(self.arrivals.is_none(), "arrivals are scheduled once");
        let now = self.now;
        let mut clamped = 0;
        let mut order: Vec<(SimTime, u32)> = times
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                clamped += u64::from(at < now);
                let i = u32::try_from(i).expect("too many arrivals");
                (at.max(now), i)
            })
            .collect();
        order.sort_unstable();
        self.clamped += clamped;
        let base = self.next_seq;
        self.next_seq += order.len() as u64;
        self.arrivals = Some(Arrivals {
            order,
            next: 0,
            base,
            cause: self.cur_id,
            make,
        });
        self.note_depth();
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// The simulation never travels backwards: a timestamp in the past is
    /// clamped to `now` — identically in debug and release builds — and
    /// counted in [`EventQueue::clamped`] so callers can surface the
    /// anomaly in telemetry instead of silently diverging between build
    /// profiles.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Scheduled {
            time: at.max(self.now),
            seq,
            key: NO_KEY,
            key_gen: 0,
            cause: self.cur_id,
            event,
        };
        self.insert(entry);
        self.note_depth();
    }

    /// Allocate a cancellable slot for use with
    /// [`EventQueue::schedule_keyed`] / [`EventQueue::invalidate`].
    pub fn register_key(&mut self) -> EventKey {
        let idx = u32::try_from(self.slots.len()).expect("too many event keys");
        assert!(idx != NO_KEY, "too many event keys");
        self.slots.push(KeySlot {
            gen: 0,
            pending: None,
            spilled_live: 0,
        });
        if self.slots.len() > self.leaves {
            self.grow_tournament();
        }
        EventKey(idx)
    }

    /// Double the tournament's leaf capacity (keys are registered at set-up,
    /// so this runs O(log keys) times) and replay every match.
    fn grow_tournament(&mut self) {
        self.leaves = self.slots.len().next_power_of_two();
        self.tournament = vec![NO_ENTRY; 2 * self.leaves];
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(p) = &slot.pending {
                self.tournament[self.leaves + i] = (p.time, p.seq, i as u32);
            }
        }
        for n in (1..self.leaves).rev() {
            self.tournament[n] = self.tournament[2 * n].min(self.tournament[2 * n + 1]);
        }
    }

    /// Slot `key`'s parked entry changed: refresh its leaf and replay the
    /// matches up to the root, stopping early once a node's winner is
    /// unchanged (every ancestor above it is then unchanged too).
    #[inline]
    fn replay(&mut self, key: u32) {
        let leaf = match &self.slots[key as usize].pending {
            Some(p) => (p.time, p.seq, key),
            None => NO_ENTRY,
        };
        let mut n = self.leaves + key as usize;
        self.tournament[n] = leaf;
        while n > 1 {
            n >>= 1;
            let winner = self.tournament[2 * n].min(self.tournament[2 * n + 1]);
            if self.tournament[n] == winner {
                break;
            }
            self.tournament[n] = winner;
        }
    }

    /// The earliest parked entry across all slots, if any slot is parked.
    #[inline]
    fn slot_min(&self) -> Option<Contender> {
        self.tournament.get(1).copied().filter(|c| c.2 != NO_KEY)
    }

    /// Schedule `event` at absolute time `at` under `key`: the entry is
    /// live until the next [`EventQueue::invalidate`] of the key. Clamping
    /// rules match [`EventQueue::schedule`]. Scheduling does *not* cancel
    /// an earlier entry for the same key — both stay live (the earlier one
    /// spills from the slot into the wheel); call
    /// [`EventQueue::invalidate`] first when superseding.
    pub fn schedule_keyed(&mut self, key: EventKey, at: SimTime, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let cause = self.cur_id;
        let slot = &mut self.slots[key.0 as usize];
        let entry = Scheduled {
            time: at.max(self.now),
            seq,
            key: key.0,
            key_gen: slot.gen,
            cause,
            event,
        };
        if let Some(prev) = slot.pending.replace(entry) {
            // Rare: a second live wakeup for the same key. The older one
            // spills into the wheel so both dispatch in (time, seq) order.
            // A parked entry always carries the slot's current generation,
            // so the spill is live until the next invalidate.
            slot.spilled_live += 1;
            self.insert(prev);
        } else {
            self.parked_count += 1;
        }
        self.replay(key.0);
        self.note_depth();
    }

    /// Cancel the wakeup(s) currently scheduled under `key`. The parked
    /// entry (if any) dies here in O(log keys), never touching the wheel.
    /// Wheel-spilled entries die lazily at their own pop position
    /// ([`EventQueue::stale_pops`]).
    #[inline]
    pub fn invalidate(&mut self, key: EventKey) {
        let slot = &mut self.slots[key.0 as usize];
        slot.gen += 1;
        // Any current-generation spills in the wheel just became dead
        // weight: still in the wheel, no longer live.
        self.dead_in_wheel += slot.spilled_live as usize;
        slot.spilled_live = 0;
        if slot.pending.take().is_some() {
            self.parked_count -= 1;
            self.cancelled += 1;
            self.replay(key.0);
        }
    }

    /// Time of the wakeup parked in `key`'s slot, if one is: a component
    /// about to reschedule can see that an identical wakeup is already
    /// pending instead of spilling it into the wheel with a second copy.
    #[inline]
    pub fn parked_at(&self, key: EventKey) -> Option<SimTime> {
        self.slots[key.0 as usize].pending.as_ref().map(|p| p.time)
    }

    /// Route an entry into its wheel bucket, or to the calendar overflow
    /// when it lies beyond the near window. Entries always satisfy
    /// `entry.time >= self.base` (schedules clamp to `now`, and the base
    /// only ever advances to the timestamp of a popped event).
    fn insert(&mut self, entry: Scheduled<E>) {
        debug_assert!(entry.time >= self.base);
        if self.wheel_len == 0 && self.overflow.is_empty() {
            // Nothing is stored below `now`: move the window up to it, so
            // a queue that ran dry while arrivals moved the clock on does
            // not route its next events through the overflow.
            self.base = (self.now >> SHIFT) << SHIFT;
        }
        let offset = entry.time - self.base;
        if offset >= SPAN {
            self.overflow.push(Reverse(entry));
            return;
        }
        let idx = (offset >> SHIFT) as usize;
        self.wheel[idx].push(entry);
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.wheel_len += 1;
    }

    /// Index of the first non-empty bucket, if any.
    #[inline]
    fn first_occupied(&self) -> Option<usize> {
        for (w, &bits) in self.occupied.iter().enumerate() {
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// `(bucket, position, time, seq)` of the earliest wheel entry: a
    /// linear scan of the head bucket (buckets are narrow by construction).
    fn wheel_candidate(&self) -> Option<(usize, usize, SimTime, u64)> {
        let b = self.first_occupied()?;
        let v = &self.wheel[b];
        let mut pos = 0;
        let (mut bt, mut bs) = (v[0].time, v[0].seq);
        for (i, e) in v.iter().enumerate().skip(1) {
            if (e.time, e.seq) < (bt, bs) {
                pos = i;
                bt = e.time;
                bs = e.seq;
            }
        }
        Some((b, pos, bt, bs))
    }

    /// Remove the entry at `(bucket, position)` found by
    /// [`EventQueue::wheel_candidate`].
    #[inline]
    fn wheel_remove(&mut self, bucket: usize, pos: usize) -> Scheduled<E> {
        let e = self.wheel[bucket].swap_remove(pos);
        if self.wheel[bucket].is_empty() {
            self.occupied[bucket >> 6] &= !(1 << (bucket & 63));
        }
        self.wheel_len -= 1;
        e
    }

    /// The wheel is empty but the overflow calendar is not: advance the
    /// window to the overflow minimum and cascade the next window's worth
    /// of far-future events into the buckets (safe: the caller is about to
    /// advance `now` to at least the overflow minimum, so every future
    /// insert lands at or after the new base).
    fn advance_window(&mut self) {
        debug_assert!(self.wheel_len == 0);
        let t = {
            let Reverse(s) = self.overflow.peek().expect("caller checked");
            s.time
        };
        self.base = (t >> SHIFT) << SHIFT;
        let end = self.base.saturating_add(SPAN);
        while let Some(Reverse(s)) = self.overflow.peek() {
            if s.time >= end {
                break;
            }
            let Reverse(s) = self.overflow.pop().expect("peeked");
            let idx = ((s.time - self.base) >> SHIFT) as usize;
            self.wheel[idx].push(s);
            self.occupied[idx >> 6] |= 1 << (idx & 63);
            self.wheel_len += 1;
        }
    }

    #[inline]
    fn note_depth(&mut self) {
        let live = self.live_len();
        self.peak_live = self.peak_live.max(live);
        self.peak_backlog = self.peak_backlog.max(live + self.pending_arrivals());
    }

    /// Number of schedules whose timestamp lay in the past and was clamped
    /// to `now`. Non-zero values indicate a model bug worth investigating;
    /// the harness exports this as a run statistic and trace counter.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` `delay_ns` nanoseconds from now.
    pub fn schedule_after(&mut self, delay_ns: u64, event: E) {
        let at = self.now + delay_ns;
        self.schedule(at, event);
    }

    /// Pop the earliest live event, advancing the clock to its timestamp.
    ///
    /// Wheel-spilled stale entries ordered before it are skipped on the way
    /// (each advances the clock and counts in [`EventQueue::popped`] and
    /// [`EventQueue::stale_pops`]); they are never returned.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let cand = self.wheel_candidate();
            let wheel_at = match cand {
                Some((_, _, t, s)) => Some((t, s)),
                // Wheel empty: the overflow minimum stands in without
                // cascading — the window only advances if it actually wins.
                None => self.overflow.peek().map(|Reverse(s)| (s.time, s.seq)),
            };
            let slot_min = self.slot_min();
            let slot_at = slot_min.map(|(t, s, _)| (t, s));
            let (from_wheel, head) = match (wheel_at, slot_at) {
                (None, None) => return self.pop_arrival(),
                (Some(h), Some(s)) => (h < s, h.min(s)),
                (Some(h), None) => (true, h),
                (None, Some(s)) => (false, s),
            };
            if self
                .arrivals
                .as_ref()
                .and_then(Arrivals::head)
                .is_some_and(|a| a < head)
            {
                return self.pop_arrival();
            }
            let s = if from_wheel {
                match cand {
                    Some((b, i, _, _)) => self.wheel_remove(b, i),
                    None => {
                        self.advance_window();
                        let (b, i, _, _) = self.wheel_candidate().expect("cascaded");
                        self.wheel_remove(b, i)
                    }
                }
            } else {
                let (_, _, i) = slot_min.expect("checked above");
                let s = self.slots[i as usize]
                    .pending
                    .take()
                    .expect("min slot occupied");
                self.parked_count -= 1;
                self.replay(i);
                s
            };
            debug_assert!(s.time >= self.now);
            self.now = s.time;
            self.popped += 1;
            if s.key != NO_KEY && from_wheel {
                let slot = &mut self.slots[s.key as usize];
                if slot.gen != s.key_gen {
                    self.stale_pops += 1;
                    self.dead_in_wheel -= 1;
                    continue;
                }
                slot.spilled_live -= 1;
            }
            self.cur_id = s.seq;
            self.cur_cause = s.cause;
            return Some((s.time, s.event));
        }
    }

    /// Pop the next arrival from the cursor, if one is left.
    fn pop_arrival(&mut self) -> Option<(SimTime, E)> {
        let a = self.arrivals.as_mut()?;
        let &(time, index) = a.order.get(a.next)?;
        a.next += 1;
        debug_assert!(time >= self.now);
        self.now = time;
        self.popped += 1;
        self.cur_id = a.base + u64::from(index);
        self.cur_cause = a.cause;
        Some((time, (a.make)(index)))
    }

    /// Timestamp of the next entry without popping it (a wheel-spilled
    /// stale entry included: it still pops, and advances the clock).
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = match self.wheel_candidate() {
            Some((_, _, t, _)) => Some(t),
            None => self.overflow.peek().map(|Reverse(s)| s.time),
        };
        let slot = self.slot_min().map(|(t, _, _)| t);
        let arrival = self.arrivals.as_ref().and_then(Arrivals::head);
        wheel
            .into_iter()
            .chain(slot)
            .chain(arrival.map(|(t, _)| t))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cause_links_record_the_scheduling_chain() {
        let mut q = EventQueue::new();
        assert_eq!(q.current_id(), EventId::NONE);
        q.schedule(10, "root"); // seq 0, scheduled outside any dispatch
        assert_eq!(q.pop(), Some((10, "root")));
        assert_eq!(q.current_id(), EventId(0));
        assert_eq!(q.current_cause(), EventId::NONE);
        // Scheduled while dispatching seq 0 → caused by it.
        q.schedule(20, "child"); // seq 1
        assert_eq!(q.pop(), Some((20, "child")));
        assert_eq!(q.current_id(), EventId(1));
        assert_eq!(q.current_cause(), EventId(0));
        // Keyed entries carry causes the same way.
        let key = q.register_key();
        q.schedule_keyed(key, 30, "keyed"); // seq 2, caused by seq 1
        assert_eq!(q.pop(), Some((30, "keyed")));
        assert_eq!(q.current_id(), EventId(2));
        assert_eq!(q.current_cause(), EventId(1));
    }

    #[test]
    fn next_id_is_the_id_the_next_schedule_gets() {
        let mut q = EventQueue::new();
        let before = q.next_id();
        q.schedule(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.current_id(), before);
        assert_eq!(q.next_id(), EventId(before.0 + 1));
    }

    #[test]
    fn parked_at_reports_the_slot_entry() {
        let mut q = EventQueue::new();
        let key = q.register_key();
        assert_eq!(q.parked_at(key), None);
        q.schedule_keyed(key, 40, "first");
        assert_eq!(q.parked_at(key), Some(40));
        // A second wakeup takes the slot; the first spills to the wheel.
        q.schedule_keyed(key, 30, "second");
        assert_eq!(q.parked_at(key), Some(30));
        assert_eq!(q.pop(), Some((30, "second")));
        assert_eq!(q.parked_at(key), None, "the slot entry popped");
        assert_eq!(q.pop(), Some((40, "first")));
        q.schedule_keyed(key, 50, "third");
        q.invalidate(key);
        assert_eq!(q.parked_at(key), None, "cancelled");
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.schedule(100, ());
        q.schedule(250, ());
        let mut last = 0;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), 250);
        assert_eq!(q.popped(), 3);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10, 0u32);
        q.pop();
        q.schedule_after(5, 1u32);
        assert_eq!(q.pop(), Some((15, 1)));
    }

    #[test]
    fn scheduling_into_past_clamps_and_counts() {
        // Regression: this used to panic in debug builds but silently
        // clamp in release builds; behaviour must be identical in both.
        let mut q = EventQueue::new();
        q.schedule(10, "on-time");
        q.pop();
        assert_eq!(q.clamped(), 0);
        q.schedule(5, "late");
        q.schedule(10, "now");
        assert_eq!(q.clamped(), 1);
        // The late event runs at `now`, before the same-instant event
        // scheduled after it (insertion order breaks the tie).
        assert_eq!(q.pop(), Some((10, "late")));
        assert_eq!(q.pop(), Some((10, "now")));
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(7, 'x');
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.pop(), Some((7, 'x')));
    }

    #[test]
    fn far_future_events_round_trip_the_overflow_calendar() {
        // Events past the near window land in the calendar overflow and
        // cascade back into the wheel as the window advances over them.
        let mut q = EventQueue::new();
        let far = SPAN * 3 + 12345;
        let farther = SPAN * 7 + 99;
        q.schedule(far, "far");
        q.schedule(farther, "farther");
        q.schedule(10, "near");
        assert_eq!(q.live_len(), 3);
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        // Inserts after a window advance still order correctly.
        q.schedule(far + 5, "mid");
        assert_eq!(q.pop(), Some((far + 5, "mid")));
        assert_eq!(q.pop(), Some((farther, "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_bucket_interleaved_insert_and_pop_stay_ordered() {
        // Insert into the bucket the pop path is currently draining: the
        // sorted order must be maintained, not clobbered.
        let mut q = EventQueue::new();
        q.schedule(100, 0u32);
        q.schedule(300, 1u32);
        assert_eq!(q.pop(), Some((100, 0)));
        // Bucket 0 is now the sorted bucket; these land inside it.
        q.schedule(200, 2u32);
        q.schedule(150, 3u32);
        assert_eq!(q.pop(), Some((150, 3)));
        assert_eq!(q.pop(), Some((200, 2)));
        assert_eq!(q.pop(), Some((300, 1)));
    }

    #[test]
    fn invalidated_entries_die_in_the_queue() {
        let mut q = EventQueue::new();
        let k = q.register_key();
        q.schedule_keyed(k, 10, "stale");
        q.invalidate(k);
        q.schedule_keyed(k, 10, "live");
        q.schedule(20, "plain");
        assert_eq!(q.pop(), Some((10, "live")));
        // The cancelled entry never reached the wheel and never counts.
        assert_eq!(q.cancelled(), 1);
        assert_eq!(q.stale_pops(), 0);
        assert_eq!(q.popped(), 1);
        assert_eq!(q.pop(), Some((20, "plain")));
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn cancelled_entry_leaves_no_trace() {
        let mut q = EventQueue::new();
        let k = q.register_key();
        q.schedule_keyed(k, 10, ());
        q.invalidate(k);
        // Only a cancelled entry was ever pending: nothing pops, the clock
        // stays put, and the queue reads empty.
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 0);
        assert_eq!(q.popped(), 0);
        assert_eq!(q.stale_pops(), 0);
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn keys_are_independent() {
        let mut q = EventQueue::new();
        let a = q.register_key();
        let b = q.register_key();
        q.schedule_keyed(a, 5, "a");
        q.schedule_keyed(b, 6, "b");
        q.invalidate(a);
        assert_eq!(q.pop(), Some((6, "b")));
        assert_eq!(q.popped(), 1, "cancelled entry never pops");
        assert_eq!(q.cancelled(), 1);
    }

    #[test]
    fn double_schedule_spills_and_both_dispatch() {
        // A component rescheduling without superseding keeps both wakeups
        // live; they dispatch in (time, seq) order like the legacy pattern.
        let mut q = EventQueue::new();
        let k = q.register_key();
        q.schedule_keyed(k, 20, "first");
        q.schedule_keyed(k, 10, "second");
        q.schedule(15, "plain");
        assert_eq!(q.pop(), Some((10, "second")));
        assert_eq!(q.pop(), Some((15, "plain")));
        assert_eq!(q.pop(), Some((20, "first")));
        assert_eq!(q.stale_pops(), 0);
        assert_eq!(q.cancelled(), 0);
    }

    #[test]
    fn spilled_entry_dies_lazily_on_invalidate() {
        let mut q = EventQueue::new();
        let k = q.register_key();
        q.schedule_keyed(k, 10, "spilled");
        q.schedule_keyed(k, 30, "parked");
        q.invalidate(k); // kills both: the parked one in its slot, the spilled one lazily
        q.schedule(20, "plain");
        assert_eq!(q.pop(), Some((20, "plain")));
        assert_eq!(q.popped(), 2, "spilled stale skipped first");
        assert_eq!(q.stale_pops(), 1);
        assert_eq!(q.cancelled(), 1);
        assert_eq!(q.pop(), None);
        assert_eq!(
            q.now(),
            20,
            "the cancelled entry does not advance the clock"
        );
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn keyed_ties_break_by_insertion_order_across_slot_and_heap() {
        let mut q = EventQueue::new();
        let a = q.register_key();
        let b = q.register_key();
        q.schedule(5, "plain-0");
        q.schedule_keyed(a, 5, "a");
        q.schedule_keyed(b, 5, "b");
        q.schedule(5, "plain-1");
        assert_eq!(q.pop(), Some((5, "plain-0")));
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "plain-1")));
    }

    #[test]
    fn peak_live_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_live_len(), 0);
        q.schedule(1, ());
        q.schedule(2, ());
        q.pop();
        q.schedule(3, ());
        assert_eq!(q.peak_live_len(), 2);
    }

    #[test]
    fn live_len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.live_len(), 2);
        q.pop();
        assert_eq!(q.live_len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn arrivals_keep_their_ids_and_win_ties() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_arrivals([20, 10, 20], |i| ["a0", "a1", "a2"][i as usize]);
        assert_eq!(q.next_id(), EventId(3), "ids 0..3 are the arrivals'");
        q.schedule(10, "plain"); // id 3
        assert_eq!(q.live_len(), 1, "pending arrivals are not queued");
        assert_eq!(q.pending_arrivals(), 3);
        assert_eq!(q.peak_live_len(), 1);
        assert_eq!(q.peak_backlog(), 4);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, "a1")));
        assert_eq!(q.current_id(), EventId(1));
        assert_eq!(q.current_cause(), EventId::NONE);
        assert_eq!(q.pop(), Some((10, "plain")));
        // Scheduled while dispatching id 3: it ties with the arrivals at
        // 20 and loses, its id being larger.
        q.schedule(20, "child"); // id 4
        assert_eq!(q.pop(), Some((20, "a0")));
        assert_eq!(q.pop(), Some((20, "a2")));
        assert_eq!(q.current_id(), EventId(2));
        assert!(!q.is_empty(), "the child is still queued");
        assert_eq!(q.pop(), Some((20, "child")));
        assert_eq!(q.current_cause(), EventId(3));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.popped(), 5);
    }

    #[test]
    fn only_arrivals_pending_is_not_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_arrivals([SPAN * 5], |i| i);
        assert_eq!(q.live_len(), 0);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SPAN * 5, 0)));
        // The queue ran dry far past its first window: new events still
        // land in order.
        q.schedule(SPAN * 5 + 1, 7);
        q.schedule(SPAN * 9, 8);
        assert_eq!(q.pop(), Some((SPAN * 5 + 1, 7)));
        assert_eq!(q.pop(), Some((SPAN * 9, 8)));
        assert!(q.is_empty());
    }

    #[test]
    fn arrivals_scheduled_late_clamp_and_take_the_next_ids() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(50, 100); // id 0
        assert_eq!(q.pop(), Some((50, 100)));
        q.schedule_arrivals([40, 60], |i| i); // ids 1, 2; the first clamps
        assert_eq!(q.clamped(), 1);
        assert_eq!(q.pop(), Some((50, 0)));
        assert_eq!(q.current_id(), EventId(1));
        assert_eq!(q.current_cause(), EventId(0));
        assert_eq!(q.pop(), Some((60, 1)));
    }

    /// Cancelled parked entries and spilled-then-superseded entries are not
    /// backlog: `live_len` / `peak_live_len` exclude them.
    #[test]
    fn live_depth_excludes_cancelled_and_superseded_spills() {
        let mut q = EventQueue::new();
        let k = q.register_key();
        let j = q.register_key();

        q.schedule(100, "plain");
        q.schedule_keyed(k, 10, "will-spill");
        q.schedule_keyed(k, 30, "parked-then-cancelled");
        assert_eq!(q.live_len(), 3, "all three still dispatchable");

        // Kills both of k's entries: the parked one vanishes, the spilled
        // one becomes dead weight in the wheel.
        q.invalidate(k);
        assert_eq!(q.cancelled(), 1);
        assert_eq!(q.live_len(), 1, "only the plain event is live");

        // New live work on another key raises the live depth again.
        q.schedule_keyed(j, 50, "live-wakeup");
        assert_eq!(q.live_len(), 2);
        assert_eq!(q.peak_live_len(), 3, "the pre-invalidate high-water mark");

        // Draining: the stale spill pops (not returned), live events
        // dispatch, the cancelled entry never shows up.
        assert_eq!(q.pop(), Some((50, "live-wakeup")));
        assert_eq!(q.stale_pops(), 1, "spilled corpse died on the way");
        assert_eq!(q.pop(), Some((100, "plain")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.popped(), 3, "two dispatches plus one stale pop");
    }
}

#[cfg(test)]
mod differential {
    //! Wheel-vs-heap differential harness: the timing-wheel queue must pop
    //! exactly what a plain binary heap pops — same sequence (FIFO
    //! tie-break at equal timestamps), same clock, same popped / stale /
    //! cancelled / clamped accounting, same live depth — under any
    //! interleaving of schedules, keyed schedules, invalidations and pops.

    use super::*;

    /// The reference queue: every entry (keyed or not) sits in one binary
    /// heap. A key's latest wakeup is its *parked* entry until it pops;
    /// invalidation removes the parked entry outright and turns the key's
    /// older (spilled) entries stale, to be popped and skipped at their own
    /// `(time, seq)` position.
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Scheduled<E>>>,
        gens: Vec<u64>,
        parked: Vec<Option<u64>>,
        /// Per key: current-generation entries in the heap.
        current: Vec<usize>,
        /// Stale entries still in the heap.
        stale: usize,
        next_seq: u64,
        now: SimTime,
        popped: u64,
        stale_pops: u64,
        cancelled: u64,
        clamped: u64,
        /// High-water mark of `live_len()` at each schedule.
        peak: usize,
    }

    impl<E> HeapQueue<E> {
        pub fn new(keys: usize) -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                gens: vec![0; keys],
                parked: vec![None; keys],
                current: vec![0; keys],
                stale: 0,
                next_seq: 0,
                now: 0,
                popped: 0,
                stale_pops: 0,
                cancelled: 0,
                clamped: 0,
                peak: 0,
            }
        }

        pub fn schedule(&mut self, at: SimTime, event: E) {
            self.push(at, NO_KEY, 0, event);
        }

        pub fn schedule_keyed(&mut self, key: usize, at: SimTime, event: E) {
            self.parked[key] = Some(self.next_seq);
            self.current[key] += 1;
            let gen = self.gens[key];
            self.push(at, key as u32, gen, event);
        }

        fn push(&mut self, at: SimTime, key: u32, key_gen: u64, event: E) {
            if at < self.now {
                self.clamped += 1;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Reverse(Scheduled {
                time: at.max(self.now),
                seq,
                key,
                key_gen,
                cause: u64::MAX,
                event,
            }));
            self.peak = self.peak.max(self.live_len());
        }

        pub fn invalidate(&mut self, key: usize) {
            if let Some(seq) = self.parked[key].take() {
                self.heap.retain(|Reverse(e)| e.seq != seq);
                self.current[key] -= 1;
                self.cancelled += 1;
            }
            self.stale += std::mem::take(&mut self.current[key]);
            self.gens[key] += 1;
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(Reverse(s)) = self.heap.pop() {
                self.now = s.time;
                self.popped += 1;
                if s.key != NO_KEY {
                    let k = s.key as usize;
                    if self.gens[k] != s.key_gen {
                        self.stale -= 1;
                        self.stale_pops += 1;
                        continue; // stale: skipped, but counted
                    }
                    self.current[k] -= 1;
                    if self.parked[k] == Some(s.seq) {
                        self.parked[k] = None;
                    }
                }
                return Some((s.time, s.event));
            }
            None
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn live_len(&self) -> usize {
            self.heap.len() - self.stale
        }

        pub fn parked_at(&self, key: usize) -> Option<SimTime> {
            let seq = self.parked[key]?;
            self.heap
                .iter()
                .find(|Reverse(e)| e.seq == seq)
                .map(|Reverse(e)| e.time)
        }
    }

    /// Every observable besides the pop itself agrees.
    fn assert_same_state(q: &EventQueue<u64>, h: &HeapQueue<u64>) {
        assert_eq!(q.now(), h.now(), "clock diverged");
        assert_eq!(q.popped(), h.popped, "popped accounting diverged");
        assert_eq!(q.stale_pops(), h.stale_pops, "stale pops diverged");
        assert_eq!(q.cancelled(), h.cancelled, "cancellations diverged");
        assert_eq!(q.clamped(), h.clamped, "clamping diverged");
        assert_eq!(
            q.live_len() + q.pending_arrivals(),
            h.live_len(),
            "live depth diverged"
        );
        assert_eq!(q.peak_backlog(), h.peak, "backlog high-water diverged");
        assert_eq!(q.next_id().0, h.next_seq, "event ids diverged");
    }

    /// Payload tag of arrival `i`, distinct from every plain payload (the
    /// heap's `next_seq` at the time of the schedule).
    const ARRIVAL: u64 = 1 << 40;

    fn arrival_payload(i: u32) -> u64 {
        ARRIVAL + u64::from(i)
    }

    /// Give `q` the arrival cursor and `h` the same arrivals as plain
    /// schedules, in index order.
    fn arrive_both(q: &mut EventQueue<u64>, h: &mut HeapQueue<u64>, times: &[SimTime]) {
        q.schedule_arrivals(times.iter().copied(), arrival_payload);
        for (i, &at) in times.iter().enumerate() {
            h.schedule(at, arrival_payload(i as u32));
        }
        assert_same_state(q, h);
    }

    /// Key `k`'s parked wakeup agrees.
    fn assert_same_parked(q: &EventQueue<u64>, h: &HeapQueue<u64>, k: usize) {
        assert_eq!(
            q.parked_at(EventKey(k as u32)),
            h.parked_at(k),
            "parked wakeup of key {k} diverged"
        );
    }

    const KEYS: usize = 3;

    /// Drive both queues with one generated op; on pops, assert the full
    /// observable state agrees.
    fn apply_both(
        q: &mut EventQueue<u64>,
        keys: &[EventKey],
        h: &mut HeapQueue<u64>,
        sel: u8,
        k: u8,
        dt: u16,
    ) {
        let k = (k as usize) % KEYS;
        let payload = h.next_seq;
        match sel % 4 {
            0 => {
                // Absolute target time around `now`; dt < 100 lands in the
                // past to exercise clamping.
                let at = (h.now() + dt as SimTime).saturating_sub(100);
                q.schedule_keyed(keys[k], at, payload);
                h.schedule_keyed(k, at, payload);
            }
            1 => {
                let at = (h.now() + dt as SimTime).saturating_sub(100);
                q.schedule(at, payload);
                h.schedule(at, payload);
            }
            2 => {
                q.invalidate(keys[k]);
                h.invalidate(k);
            }
            _ => assert_eq!(q.pop(), h.pop(), "wheel diverged from heap"),
        }
        assert_same_state(q, h);
        for k in 0..KEYS {
            assert_same_parked(q, h, k);
        }
    }

    fn drain_both(q: &mut EventQueue<u64>, h: &mut HeapQueue<u64>) {
        loop {
            let got = q.pop();
            let want = h.pop();
            assert_eq!(got, want, "drain diverged");
            assert_same_state(q, h);
            if got.is_none() {
                break;
            }
        }
    }

    /// Deterministic dense-timer cancellation storm mirroring the fig12
    /// hot-path profile (~50k cancelled wakeups against ~240k events): a
    /// few keyed "devices" perpetually supersede their own wakeups while
    /// plain events stream through, with timers clustered densely enough
    /// that many share a wheel bucket.
    #[test]
    fn cancellation_storm_matches_heap() {
        const DEVICES: usize = 4;
        let mut q: EventQueue<u64> = EventQueue::new();
        let keys: Vec<EventKey> = (0..DEVICES).map(|_| q.register_key()).collect();
        let mut h: HeapQueue<u64> = HeapQueue::new(DEVICES);

        // Seed one wakeup per device.
        for (d, key) in keys.iter().enumerate() {
            let at = (d as u64 + 1) * 257;
            q.schedule_keyed(*key, at, d as u64);
            h.schedule_keyed(d, at, d as u64);
        }

        let mut x: u64 = 0x243f_6a88_85a3_08d3; // deterministic LCG stream
        for i in 0..150_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = (x >> 33) as usize % DEVICES;
            let jitter = (x >> 17) & 0x3_ffff; // ≤ ~262 µs: densely packed timers
                                               // Supersede the device's wakeup — the storm.
            q.invalidate(keys[d]);
            h.invalidate(d);
            let at = h.now() + 500 + jitter;
            q.schedule_keyed(keys[d], at, i);
            h.schedule_keyed(d, at, i);
            if x & 7 == 0 {
                // Occasional plain event (arrival/epoch analogue), some far
                // enough out to exercise the overflow calendar.
                let far = if x & 63 == 0 { SPAN * 2 } else { 0 };
                q.schedule(h.now() + 1_000 + far + (x & 0xffff), i);
                h.schedule(h.now() + 1_000 + far + (x & 0xffff), i);
            }
            assert_same_parked(&q, &h, d);
            if x & 3 != 0 {
                assert_eq!(q.pop(), h.pop(), "storm pop diverged at step {i}");
                assert_eq!(
                    q.live_len(),
                    h.live_len(),
                    "storm depth diverged at step {i}"
                );
            }
        }
        drain_both(&mut q, &mut h);
        assert!(q.cancelled() > 40_000, "storm actually cancelled heavily");
        assert_eq!(q.clamped(), 0);
    }

    /// Keys in the cluster-scale cases: more than a 64×4 cluster's 256
    /// device slots, and not a power of two, so the tournament has padding
    /// leaves.
    const CLUSTER_KEYS: usize = 300;

    /// The cancellation storm at cluster scale: hundreds of keyed devices
    /// superseding their wakeups on a coarse time grid, so many parked
    /// entries share a timestamp and only the sequence number orders them.
    #[test]
    fn cluster_scale_storm_matches_heap() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let keys: Vec<EventKey> = (0..CLUSTER_KEYS).map(|_| q.register_key()).collect();
        let mut h: HeapQueue<u64> = HeapQueue::new(CLUSTER_KEYS);
        let grid = |t: SimTime| t - t % 1_000;
        for (d, key) in keys.iter().enumerate() {
            // Every device wakes at one of four instants.
            let at = 1_000 * (d as u64 % 4 + 1);
            q.schedule_keyed(*key, at, d as u64);
            h.schedule_keyed(d, at, d as u64);
        }
        let mut x: u64 = 0x1319_8a2e_0370_7344;
        for i in 0..60_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = (x >> 33) as usize % CLUSTER_KEYS;
            let op = x >> 61;
            match op {
                // Supersede (the common case), or leave the old wakeup
                // parked so it spills into the wheel.
                0..=4 => {
                    if op != 4 {
                        q.invalidate(keys[d]);
                        h.invalidate(d);
                    }
                    let at = grid(h.now() + 1_000 + ((x >> 17) & 0x7fff));
                    q.schedule_keyed(keys[d], at, i);
                    h.schedule_keyed(d, at, i);
                }
                5 => {
                    q.invalidate(keys[d]);
                    h.invalidate(d);
                }
                _ => {
                    let at = grid(h.now() + ((x >> 20) & 0xffff));
                    q.schedule(at, i);
                    h.schedule(at, i);
                }
            }
            if (x >> 58) & 3 != 0 {
                assert_eq!(q.pop(), h.pop(), "cluster pop diverged at step {i}");
                assert_same_state(&q, &h);
            }
        }
        drain_both(&mut q, &mut h);
        assert!(q.cancelled() > 5_000, "storm actually cancelled heavily");
        assert!(q.stale_pops() > 0, "spilled entries died in the wheel");
    }

    /// The storm with a run's worth of planned arrivals held in the
    /// cursor: arrivals interleave with, and tie against, the keyed
    /// wakeups and plain events they cause, exactly as plain schedules
    /// would.
    #[test]
    fn arrival_cursor_storm_matches_heap() {
        const DEVICES: usize = 16;
        let mut q: EventQueue<u64> = EventQueue::new();
        let keys: Vec<EventKey> = (0..DEVICES).map(|_| q.register_key()).collect();
        let mut h: HeapQueue<u64> = HeapQueue::new(DEVICES);
        let mut x: u64 = 0xa409_3822_299f_31d0;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        // Poisson-like arrivals on a coarse grid, so many share an
        // instant with each other and with caused events, across many
        // wheel windows.
        let mut t = 0;
        let times: Vec<SimTime> = (0..5_000)
            .map(|_| {
                t += (step() >> 40) % 400_000;
                t - t % 10_000
            })
            .collect();
        arrive_both(&mut q, &mut h, &times);
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), h.pop(), "cursor pop diverged");
            assert_same_state(&q, &h);
            let (now, payload) = got;
            if payload >= ARRIVAL || payload % 3 == 0 {
                let r = step();
                let d = (r >> 33) as usize % DEVICES;
                if r & 1 == 0 {
                    q.invalidate(keys[d]);
                    h.invalidate(d);
                }
                let at = now + (r >> 20) % 30_000 - (r >> 20) % 10_000;
                let payload = h.next_seq;
                q.schedule_keyed(keys[d], at, payload);
                h.schedule_keyed(d, at, payload);
                if r & 6 == 0 {
                    let at = now + ((r >> 12) % 3) * 10_000;
                    let payload = h.next_seq;
                    q.schedule(at, payload);
                    h.schedule(at, payload);
                }
                assert_same_parked(&q, &h, d);
            }
        }
        assert_eq!(h.pop(), None);
        assert_eq!(q.pending_arrivals(), 0);
        assert!(q.popped() > 5_000);
        assert!(
            q.peak_live_len() < 100,
            "the queue holds the caused events only"
        );
    }

    /// Keys registered while others are parked grow the tournament in
    /// place; the parked entries keep their order.
    #[test]
    fn keys_registered_mid_run_keep_heap_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut h: HeapQueue<u64> = HeapQueue::new(CLUSTER_KEYS);
        let mut keys = Vec::new();
        for d in 0..CLUSTER_KEYS {
            keys.push(q.register_key());
            // Equal timestamps across keys: the parked order is the
            // registration order, preserved through every regrowth.
            let at = h.now() + 10 * (d as u64 % 3);
            q.schedule_keyed(keys[d], at, d as u64);
            h.schedule_keyed(d, at, d as u64);
            if d % 5 == 0 {
                assert_eq!(q.pop(), h.pop(), "pop diverged after key {d}");
                assert_same_state(&q, &h);
            }
        }
        drain_both(&mut q, &mut h);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The differential at cluster scale: ops spread over hundreds
            /// of keys, with timestamps drawn from a few instants around
            /// `now` so equal timestamps across keys are the norm.
            #[test]
            fn wheel_matches_heap_at_cluster_scale(
                ops in proptest::collection::vec(
                    (0u8..8, 0u16..CLUSTER_KEYS as u16, 0u8..4), 1..600)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> =
                    (0..CLUSTER_KEYS).map(|_| q.register_key()).collect();
                let mut h = HeapQueue::new(CLUSTER_KEYS);
                for (sel, k, dt) in ops {
                    let payload = h.next_seq;
                    let k = k as usize;
                    let at = h.now() + 100 * dt as SimTime;
                    match sel % 4 {
                        0 => {
                            q.schedule_keyed(keys[k], at, payload);
                            h.schedule_keyed(k, at, payload);
                        }
                        1 => {
                            q.schedule(at, payload);
                            h.schedule(at, payload);
                        }
                        2 => {
                            q.invalidate(keys[k]);
                            h.invalidate(k);
                        }
                        _ => {
                            prop_assert_eq!(q.pop(), h.pop());
                            prop_assert_eq!(q.now(), h.now());
                            prop_assert_eq!(q.live_len(), h.live_len());
                        }
                    }
                    prop_assert_eq!(q.parked_at(keys[k]), h.parked_at(k));
                }
                drain_both(&mut q, &mut h);
            }

            /// The timing-wheel queue is observationally identical to the
            /// reference heap: same pop sequence (FIFO tie-break at equal
            /// timestamps), same clock, same accounting and live depth —
            /// cancellation never reorders or miscounts survivors.
            #[test]
            fn wheel_matches_heap(
                ops in proptest::collection::vec((0u8..8, 0u8..8, 0u16..400), 1..120)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
                let mut h = HeapQueue::new(KEYS);
                for (sel, k, dt) in ops {
                    apply_both(&mut q, &keys, &mut h, sel, k, dt);
                }
                drain_both(&mut q, &mut h);
            }

            /// The arrival cursor against plain schedules: arrivals given
            /// before or after other work, at times that tie with it, fall
            /// in the past (and clamp) or span several wheel windows.
            #[test]
            fn arrival_cursor_matches_heap(
                before in proptest::collection::vec((0u8..8, 0u8..8, 0u16..400), 0..30),
                arrivals in proptest::collection::vec(0u32..(2 * SPAN as u32), 0..60),
                near in proptest::collection::vec(0u16..400, 0..20),
                ops in proptest::collection::vec((0u8..8, 0u8..8, 0u16..400), 1..120)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
                let mut h = HeapQueue::new(KEYS);
                for (sel, k, dt) in before {
                    apply_both(&mut q, &keys, &mut h, sel, k, dt);
                }
                let now = h.now();
                let times: Vec<SimTime> = arrivals
                    .iter()
                    .map(|&dt| now + SimTime::from(dt))
                    .chain(near.iter().map(|&dt| (now + SimTime::from(dt)).saturating_sub(100)))
                    .collect();
                arrive_both(&mut q, &mut h, &times);
                for (sel, k, dt) in ops {
                    apply_both(&mut q, &keys, &mut h, sel, k, dt);
                }
                drain_both(&mut q, &mut h);
                prop_assert_eq!(q.pending_arrivals(), 0);
            }

            /// Same differential, but with timestamps spread far enough to
            /// constantly cross the near-window boundary — the overflow
            /// calendar and window advance must not disturb ordering.
            #[test]
            fn wheel_matches_heap_across_windows(
                ops in proptest::collection::vec(
                    (0u8..8, 0u8..8, 0u32..(3 * SPAN as u32)), 1..80)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
                let mut h = HeapQueue::new(KEYS);
                for (sel, k, dt) in ops {
                    let payload = h.next_seq;
                    let k = (k as usize) % KEYS;
                    match sel % 4 {
                        0 => {
                            let at = h.now() + dt as SimTime;
                            q.schedule_keyed(keys[k], at, payload);
                            h.schedule_keyed(k, at, payload);
                        }
                        1 => {
                            let at = h.now() + dt as SimTime;
                            q.schedule(at, payload);
                            h.schedule(at, payload);
                        }
                        2 => {
                            q.invalidate(keys[k]);
                            h.invalidate(k);
                        }
                        _ => {
                            prop_assert_eq!(q.pop(), h.pop());
                            prop_assert_eq!(q.now(), h.now());
                            prop_assert_eq!(q.live_len(), h.live_len());
                        }
                    }
                    prop_assert_eq!(q.parked_at(keys[k]), h.parked_at(k));
                }
                drain_both(&mut q, &mut h);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const KEYS: usize = 3;

    proptest! {
        /// Clamp semantics are data-dependent only (no debug_assert paths):
        /// scheduling into the past always lands at `now` and is counted,
        /// so debug and release builds take the identical path.
        #[test]
        fn clamping_is_profile_independent(
            times in proptest::collection::vec(0u64..1000, 2..60)
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut late = 0u64;
            for (i, &t) in times.iter().enumerate() {
                // A past timestamp must clamp to `now` and count — never
                // panic, in debug exactly as in release.
                q.schedule(t, i as u64);
                let (popped_t, _) = q.pop().expect("just scheduled");
                prop_assert_eq!(popped_t, q.now());
                prop_assert!(popped_t >= t);
                if i + 1 < times.len() && times[i + 1] < q.now() {
                    late += 1;
                }
            }
            prop_assert_eq!(q.clamped(), late);
        }

        /// Survivors pop in strictly increasing (time, seq) order no
        /// matter how cancellation interleaves.
        #[test]
        fn pops_are_monotone(
            ops in proptest::collection::vec((0u8..8, 0u8..8, 0u16..300), 1..100)
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
            let mut now = 0u64;
            let mut last = None;
            for (sel, k, dt) in ops {
                let key = keys[(k as usize) % KEYS];
                match sel % 4 {
                    0 => q.schedule_keyed(key, now + dt as u64, 0),
                    1 => q.schedule(now + dt as u64, 0),
                    2 => q.invalidate(key),
                    _ => {
                        if let Some((t, _)) = q.pop() {
                            now = t;
                            if let Some(prev) = last {
                                prop_assert!(t >= prev, "pop went backwards");
                            }
                            last = Some(t);
                        }
                    }
                }
            }
        }
    }
}
