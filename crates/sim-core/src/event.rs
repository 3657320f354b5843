//! Event queue.
//!
//! A deterministic future-event list for discrete-event simulation: one
//! binary heap ordered by `(time, sequence)`, where the sequence number is
//! the insertion order — two events scheduled for the same instant pop in
//! the order they were scheduled, which keeps the simulation deterministic.
//! Schedules into the past clamp to `now`, so the clock never runs
//! backwards.
//!
//! The heap holds only 24-byte `(time, seq, slot)` handles, so a sift
//! moves small entries whatever the payload type. Each entry's payload,
//! key and cause wait in a slab at the handle's `slot`, read only when
//! the handle pops; the slot then returns to a free list for the next
//! schedule, so the slab never holds more slots than the heap's peak
//! length. `seq` is unique, so the slot never decides the order.
//!
//! Components that re-derive their own next event whenever their state
//! changes (e.g. a GPU compute engine re-solving kernel completion times when
//! a kernel joins) need their stale wakeups discarded. That is built into
//! the queue: a component registers an [`EventKey`] once, schedules its
//! wakeups with [`EventQueue::schedule_keyed`], and calls
//! [`EventQueue::invalidate`] on every state change.
//!
//! A key has at most one live wakeup, and the queue remembers that entry's
//! `(time, seq)` per key. Invalidating the key, or scheduling a new wakeup
//! under it (which supersedes the old one), forgets the pair and counts one
//! [`EventQueue::cancelled`] wakeup in O(1). The dead entry stays in the
//! heap and is dropped silently when it reaches the top: it never pops,
//! never advances the clock, never counts as an event and never counts in
//! the live depth.
//!
//! A run's planned arrivals never enter the heap at all.
//! [`EventQueue::schedule_arrivals`] takes them in one go, sorted by
//! `(time, id)`, and the pop path merges that cursor with the heap's top:
//! the next arrival pops when it orders before everything queued. Each
//! arrival still gets the id a plain schedule would have given it, so the
//! merged pop order, the clock and every id and cause are exactly those of
//! scheduling the arrivals one by one, while the heap holds only the events
//! the run has generated — the work in flight.
//!
//! Depth ([`EventQueue::live_len`] / [`EventQueue::peak_live_len`]) counts
//! only queued events that can still dispatch: the honest backlog, pending
//! arrivals excluded. [`EventQueue::peak_backlog`] adds those back.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle to a cancellable wakeup, allocated by
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

/// What a queued entry carries beside its heap handle. It sits in the
/// queue's slab, at the slot its handle names, until the handle pops.
#[derive(Debug)]
struct Payload<E> {
    /// The key the entry was scheduled under, or `NO_KEY` for plain
    /// entries.
    key: u32,
    /// Sequence number of the event being dispatched when this entry was
    /// scheduled (`u64::MAX` when scheduled outside any dispatch). Pure
    /// bookkeeping: never consulted by ordering or accounting.
    cause: u64,
    event: E,
}

/// A run's planned arrivals, held outside the heap as a cursor (see
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

/// A deterministic future-event list.
///
/// `E` is the simulation's event payload type (typically one big enum owned
/// by the executive).
///
/// Plain events pop in `(time, insertion-order)` order; a self-rescheduling
/// component schedules under a key, so a superseded wakeup is cancelled in
/// O(1) instead of being popped and discarded:
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
/// // The device's state changed: its pending wakeup is now stale.
/// q.invalidate(key);
/// q.schedule_keyed(key, 30, "wakeup@30");
/// // Scheduling under a key with a live wakeup supersedes it.
/// q.schedule_keyed(key, 25, "wakeup@25");
///
/// assert_eq!(q.pop(), Some((10, "tick")));
/// // Cancelled entries are gone: they never pop and never count.
/// assert_eq!(q.pop(), Some((25, "wakeup@25")));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.cancelled(), 2);
/// assert_eq!(q.popped(), 2);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// A `(time, seq, slot)` handle per queued entry, earliest
    /// `(time, seq)` on top; `slot` names its payload in `slab`. Cancelled
    /// keyed entries stay until they surface, then drop without
    /// dispatching.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The payload of every queued entry, at the slot its handle names.
    /// A slot is full exactly while one handle names it.
    slab: Vec<Option<Payload<E>>>,
    /// Empty slots of `slab`, reused last-freed first.
    free: Vec<u32>,
    /// Per key: `(time, seq)` of its live wakeup, if it has one. A keyed
    /// heap entry is live iff it matches its key's pair here.
    live: Vec<Option<(SimTime, u64)>>,
    /// Cancelled entries still in the heap.
    dead: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    clamped: u64,
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
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            live: Vec::new(),
            dead: 0,
            next_seq: 0,
            now: 0,
            popped: 0,
            clamped: 0,
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
    /// every dispatched event, arrivals included. Cancelled wakeups never
    /// pop and are not counted.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Keyed wakeups cancelled before they popped, by
    /// [`EventQueue::invalidate`] or by a superseding
    /// [`EventQueue::schedule_keyed`].
    #[inline]
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// High-water mark of [`EventQueue::live_len`]. Cancelled entries are
    /// excluded: they can never dispatch, so counting them would overstate
    /// the backlog on cancel-heavy runs.
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
        self.heap.len() - self.dead
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
        self.push(at, NO_KEY, event);
    }

    /// Allocate a key for use with [`EventQueue::schedule_keyed`] /
    /// [`EventQueue::invalidate`].
    pub fn register_key(&mut self) -> EventKey {
        let idx = u32::try_from(self.live.len()).expect("too many event keys");
        assert!(idx != NO_KEY, "too many event keys");
        self.live.push(None);
        EventKey(idx)
    }

    /// Schedule `event` at absolute time `at` as `key`'s one live wakeup,
    /// until it pops or the key is invalidated. Clamping rules match
    /// [`EventQueue::schedule`]. A wakeup already live under `key` is
    /// superseded: it is cancelled as by [`EventQueue::invalidate`].
    pub fn schedule_keyed(&mut self, key: EventKey, at: SimTime, event: E) {
        self.invalidate(key);
        self.live[key.0 as usize] = Some(self.push(at, key.0, event));
    }

    /// Cancel the wakeup currently live under `key`, if any, and count it
    /// in [`EventQueue::cancelled`]. Its heap entry is dropped when it
    /// reaches the top.
    #[inline]
    pub fn invalidate(&mut self, key: EventKey) {
        if self.live[key.0 as usize].take().is_some() {
            self.dead += 1;
            self.cancelled += 1;
        }
    }

    /// Time of the wakeup live under `key`, if one is: a component about to
    /// reschedule can see that an identical wakeup is already pending and
    /// keep it, with its event id, instead of superseding it.
    #[inline]
    pub fn parked_at(&self, key: EventKey) -> Option<SimTime> {
        self.live[key.0 as usize].map(|(time, _)| time)
    }

    /// Queue an entry stamped with the next sequence number and the current
    /// cause; returns its `(time, seq)`. The payload takes a free slab slot
    /// (the slab grows only when every slot is full), and the heap gets its
    /// handle.
    fn push(&mut self, at: SimTime, key: u32, event: E) -> (SimTime, u64) {
        if at < self.now {
            self.clamped += 1;
        }
        let (time, seq) = (at.max(self.now), self.next_seq);
        self.next_seq += 1;
        let payload = Some(Payload {
            key,
            cause: self.cur_id,
            event,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = payload;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("too many queued events");
                self.slab.push(payload);
                slot
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
        self.note_depth();
        (time, seq)
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

    /// Pop the earliest live event, advancing the clock to its timestamp.
    /// Cancelled entries that surface first are dropped on the way: they
    /// neither move the clock nor count in [`EventQueue::popped`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let top = self.heap.peek().map(|&Reverse((time, seq, _))| (time, seq));
            let arrival = self.arrivals.as_ref().and_then(Arrivals::head);
            if arrival.is_some_and(|a| top.is_none_or(|t| a < t)) {
                return self.pop_arrival();
            }
            let Reverse((time, seq, slot)) = self.heap.pop()?;
            let p = self.slab[slot as usize]
                .take()
                .expect("a queued handle names a full slot");
            self.free.push(slot);
            if p.key != NO_KEY {
                let live = &mut self.live[p.key as usize];
                if *live != Some((time, seq)) {
                    self.dead -= 1;
                    continue;
                }
                *live = None;
            }
            debug_assert!(time >= self.now);
            self.now = time;
            self.popped += 1;
            self.cur_id = seq;
            self.cur_cause = p.cause;
            return Some((time, p.event));
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
        // A second wakeup supersedes the first.
        q.schedule_keyed(key, 30, "second");
        assert_eq!(q.parked_at(key), Some(30));
        assert_eq!(q.pop(), Some((30, "second")));
        assert_eq!(q.parked_at(key), None, "the live wakeup popped");
        assert_eq!(q.pop(), None, "the superseded wakeup never dispatches");
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
    fn far_future_events_round_trip_the_overflow_calendar() {
        // Events seconds apart order exactly like events nanoseconds
        // apart, including ones scheduled after the clock jumped far.
        let mut q = EventQueue::new();
        let far = 3_000_000_000 + 12345;
        let farther = 7_000_000_000 + 99;
        q.schedule(far, "far");
        q.schedule(farther, "farther");
        q.schedule(10, "near");
        assert_eq!(q.live_len(), 3);
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        q.schedule(far + 5, "mid");
        assert_eq!(q.pop(), Some((far + 5, "mid")));
        assert_eq!(q.pop(), Some((farther, "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_bucket_interleaved_insert_and_pop_stay_ordered() {
        // Inserts between pops, earlier than entries already queued, must
        // still pop first.
        let mut q = EventQueue::new();
        q.schedule(100, 0u32);
        q.schedule(300, 1u32);
        assert_eq!(q.pop(), Some((100, 0)));
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
        // The cancelled entry never dispatches and never counts.
        assert_eq!(q.cancelled(), 1);
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
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 0);
        assert_eq!(q.popped(), 0);
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
    fn double_schedule_supersedes_the_live_wakeup() {
        // A second wakeup under a live key replaces the first, earlier or
        // later, and counts it as cancelled.
        let mut q = EventQueue::new();
        let k = q.register_key();
        q.schedule_keyed(k, 20, "first");
        q.schedule_keyed(k, 10, "second");
        q.schedule(15, "plain");
        assert_eq!(q.cancelled(), 1);
        assert_eq!(q.live_len(), 2);
        assert_eq!(q.pop(), Some((10, "second")));
        assert_eq!(q.pop(), Some((15, "plain")));
        assert_eq!(q.pop(), None, "the superseded wakeup never dispatches");
        assert_eq!(q.now(), 15);
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn cancelled_entry_is_dropped_when_it_surfaces() {
        let mut q = EventQueue::new();
        let k = q.register_key();
        q.schedule_keyed(k, 10, "superseded");
        q.schedule_keyed(k, 30, "cancelled");
        q.invalidate(k);
        q.schedule(20, "plain");
        assert_eq!(q.cancelled(), 2);
        // The entry at 10 is on top; it drops without dispatching.
        assert_eq!(q.pop(), Some((20, "plain")));
        assert_eq!(q.popped(), 1, "dead entries are not counted");
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 20, "a dead entry does not advance the clock");
        assert_eq!(q.popped(), 1);
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
        const FAR: SimTime = 5 << 28;
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_arrivals([FAR], |i| i);
        assert_eq!(q.live_len(), 0);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((FAR, 0)));
        // The queue ran dry while the clock moved far on: new events
        // still land in order.
        q.schedule(FAR + 1, 7);
        q.schedule(9 << 28, 8);
        assert_eq!(q.pop(), Some((FAR + 1, 7)));
        assert_eq!(q.pop(), Some((9 << 28, 8)));
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

    /// Cancelled and superseded wakeups are not backlog: `live_len` /
    /// `peak_live_len` exclude them the moment they die, although their
    /// heap entries stay until they surface.
    #[test]
    fn live_depth_excludes_cancelled_and_superseded_wakeups() {
        let mut q = EventQueue::new();
        let k = q.register_key();
        let j = q.register_key();

        q.schedule(100, "plain");
        q.schedule_keyed(k, 10, "superseded");
        assert_eq!(q.live_len(), 2);
        q.schedule_keyed(k, 30, "then-cancelled");
        assert_eq!(q.live_len(), 2, "the superseded wakeup is not backlog");
        q.invalidate(k);
        assert_eq!(q.cancelled(), 2);
        assert_eq!(q.live_len(), 1, "only the plain event is live");

        // New live work on another key raises the live depth again.
        q.schedule_keyed(j, 50, "live-wakeup");
        assert_eq!(q.live_len(), 2);
        assert_eq!(q.peak_live_len(), 2, "dead entries never counted");

        // Draining: the dead entries drop unseen, live events dispatch.
        assert_eq!(q.pop(), Some((50, "live-wakeup")));
        assert_eq!(q.pop(), Some((100, "plain")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.popped(), 2, "two dispatches, nothing else");
    }
}

#[cfg(test)]
mod differential {
    //! Heap-vs-scan differential harness: the queue must pop exactly what
    //! a plain `Vec` scanned for its `(time, seq)` minimum pops — same
    //! sequence (FIFO tie-break at equal timestamps), same clock, same
    //! popped / cancelled / clamped accounting, same live depth — under
    //! any interleaving of schedules, keyed schedules, invalidations and
    //! pops. The reference shares no structure with the queue: no heap, no
    //! per-key table, and cancellation removes entries eagerly.

    use super::*;

    /// The reference queue: every entry (keyed or not) in one unordered
    /// `Vec`. Pops scan for the minimum `(time, seq)`; invalidating a key
    /// removes its entries on the spot with a `retain`, and a keyed
    /// schedule invalidates its key first.
    pub struct VecQueue<E> {
        /// `(time, seq, key, payload)`, in no particular order.
        entries: Vec<(SimTime, u64, Option<usize>, E)>,
        next_seq: u64,
        now: SimTime,
        popped: u64,
        cancelled: u64,
        clamped: u64,
        /// High-water mark of `live_len()` at each schedule.
        peak: usize,
    }

    impl<E> VecQueue<E> {
        pub fn new() -> Self {
            VecQueue {
                entries: Vec::new(),
                next_seq: 0,
                now: 0,
                popped: 0,
                cancelled: 0,
                clamped: 0,
                peak: 0,
            }
        }

        pub fn schedule(&mut self, at: SimTime, event: E) {
            self.push(at, None, event);
        }

        pub fn schedule_keyed(&mut self, key: usize, at: SimTime, event: E) {
            self.invalidate(key);
            self.push(at, Some(key), event);
        }

        fn push(&mut self, at: SimTime, key: Option<usize>, event: E) {
            if at < self.now {
                self.clamped += 1;
            }
            self.entries
                .push((at.max(self.now), self.next_seq, key, event));
            self.next_seq += 1;
            self.peak = self.peak.max(self.live_len());
        }

        pub fn invalidate(&mut self, key: usize) {
            let before = self.entries.len();
            self.entries.retain(|e| e.2 != Some(key));
            self.cancelled += (before - self.entries.len()) as u64;
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let (i, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.0, e.1))?;
            let (time, _, _, event) = self.entries.swap_remove(i);
            self.now = time;
            self.popped += 1;
            Some((time, event))
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn live_len(&self) -> usize {
            self.entries.len()
        }

        pub fn parked_at(&self, key: usize) -> Option<SimTime> {
            self.entries.iter().find(|e| e.2 == Some(key)).map(|e| e.0)
        }
    }

    /// Every observable besides the pop itself agrees.
    fn assert_same_state(q: &EventQueue<u64>, h: &VecQueue<u64>) {
        assert_eq!(q.now(), h.now(), "clock diverged");
        assert_eq!(q.popped(), h.popped, "popped accounting diverged");
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
    /// reference's `next_seq` at the time of the schedule).
    const ARRIVAL: u64 = 1 << 40;

    /// A gap of about a quarter of a simulated second, for timestamps
    /// spread far apart.
    const FAR: SimTime = 1 << 28;

    fn arrival_payload(i: u32) -> u64 {
        ARRIVAL + u64::from(i)
    }

    /// Give `q` the arrival cursor and `h` the same arrivals as plain
    /// schedules, in index order.
    fn arrive_both(q: &mut EventQueue<u64>, h: &mut VecQueue<u64>, times: &[SimTime]) {
        q.schedule_arrivals(times.iter().copied(), arrival_payload);
        for (i, &at) in times.iter().enumerate() {
            h.schedule(at, arrival_payload(i as u32));
        }
        assert_same_state(q, h);
    }

    /// Key `k`'s live wakeup agrees.
    fn assert_same_parked(q: &EventQueue<u64>, h: &VecQueue<u64>, k: usize) {
        assert_eq!(
            q.parked_at(EventKey(k as u32)),
            h.parked_at(k),
            "live wakeup of key {k} diverged"
        );
    }

    const KEYS: usize = 3;

    /// Drive both queues with one generated op; on pops, assert the full
    /// observable state agrees.
    fn apply_both(
        q: &mut EventQueue<u64>,
        keys: &[EventKey],
        h: &mut VecQueue<u64>,
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
            _ => assert_eq!(q.pop(), h.pop(), "queue diverged from reference"),
        }
        assert_same_state(q, h);
        for k in 0..KEYS {
            assert_same_parked(q, h, k);
        }
    }

    fn drain_both(q: &mut EventQueue<u64>, h: &mut VecQueue<u64>) {
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
    /// that many dead entries sit just ahead of live ones.
    #[test]
    fn cancellation_storm_matches_heap() {
        const DEVICES: usize = 4;
        let mut q: EventQueue<u64> = EventQueue::new();
        let keys: Vec<EventKey> = (0..DEVICES).map(|_| q.register_key()).collect();
        let mut h: VecQueue<u64> = VecQueue::new();

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
                // Occasional plain event (arrival/epoch analogue), some
                // far out.
                let far = if x & 63 == 0 { 2 * FAR } else { 0 };
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
    /// device keys.
    const CLUSTER_KEYS: usize = 300;

    /// The cancellation storm at cluster scale: hundreds of keyed devices
    /// superseding their wakeups on a coarse time grid, so many live and
    /// dead entries share a timestamp and only the sequence number orders
    /// them.
    #[test]
    fn cluster_scale_storm_matches_heap() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let keys: Vec<EventKey> = (0..CLUSTER_KEYS).map(|_| q.register_key()).collect();
        let mut h: VecQueue<u64> = VecQueue::new();
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
                // Invalidate then reschedule (the common case), or
                // reschedule straight over a live wakeup (a supersede).
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
        let mut h: VecQueue<u64> = VecQueue::new();
        let mut x: u64 = 0xa409_3822_299f_31d0;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        // Poisson-like arrivals on a coarse grid, so many share an
        // instant with each other and with caused events.
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

    /// Every slab slot is full exactly while one heap handle names it:
    /// the full slots are the heap's, and the rest are on the free list.
    fn assert_slab_consistent(q: &EventQueue<u64>) {
        let full = q.slab.iter().filter(|p| p.is_some()).count();
        assert_eq!(full, q.heap.len(), "a full slot per handle");
        assert_eq!(
            q.slab.len(),
            full + q.free.len(),
            "every empty slot is free"
        );
        assert!(q.free.iter().all(|&s| q.slab[s as usize].is_none()));
        let mut named: Vec<u32> = q.heap.iter().map(|&Reverse((_, _, s))| s).collect();
        named.sort_unstable();
        named.dedup();
        assert_eq!(named.len(), q.heap.len(), "no two handles share a slot");
    }

    /// Popped and surfaced-dead entries give their slots back, and later
    /// schedules take them instead of growing the slab.
    #[test]
    fn slab_slots_are_reused_after_pops_and_cancelled_entries() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut h: VecQueue<u64> = VecQueue::new();
        let k = q.register_key();
        for at in [10, 20, 30] {
            q.schedule(at, at);
            h.schedule(at, at);
        }
        assert_eq!(q.slab.len(), 3);
        assert_eq!(q.pop(), h.pop());
        assert_eq!(q.free, [0], "the popped entry's slot is free");
        q.schedule(40, 40);
        h.schedule(40, 40);
        assert_eq!(q.slab.len(), 3, "the next schedule takes the freed slot");
        assert!(q.free.is_empty());
        assert_slab_consistent(&q);

        // A cancelled wakeup keeps its slot until its handle surfaces.
        q.schedule_keyed(k, 15, 15);
        h.schedule_keyed(0, 15, 15);
        q.invalidate(k);
        h.invalidate(0);
        assert_eq!(q.slab.len(), 4);
        assert_eq!(q.live_len(), 3);
        assert_eq!(q.pop(), h.pop(), "the dead wakeup drops on the way");
        assert_eq!(q.free.len(), 2, "the dead entry's and the popped one's");
        assert_slab_consistent(&q);
        for at in [25, 26] {
            q.schedule_keyed(k, at, at);
            h.schedule_keyed(0, at, at);
        }
        assert_eq!(q.slab.len(), 4, "both reuse freed slots, none grows");
        assert_slab_consistent(&q);
        drain_both(&mut q, &mut h);
        assert_eq!(
            q.free.len(),
            q.slab.len(),
            "a drained queue frees every slot"
        );
        assert_slab_consistent(&q);
        assert_eq!(q.cancelled(), 2);
    }

    /// Same-instant entries of every kind pop in id order even when
    /// reused slots run against it: plain, keyed and superseded-keyed
    /// entries on slots freed in reverse, and arrivals from the cursor.
    #[test]
    fn same_time_ties_across_plain_keyed_and_arrival_entries() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut h: VecQueue<u64> = VecQueue::new();
        let keys: Vec<EventKey> = (0..3).map(|_| q.register_key()).collect();
        // Arrivals 0..4: two at the tie instant, one before, one after.
        arrive_both(&mut q, &mut h, &[50, 1, 50, 60]);
        for i in 0..4 {
            q.schedule(1, 100 + i);
            h.schedule(1, 100 + i);
        }
        // Free slots 0..4 in pop order, so the free list hands them out
        // in reverse: later ids sit on lower slots.
        for _ in 0..5 {
            assert_eq!(q.pop(), h.pop());
        }
        assert_eq!(q.free, [0, 1, 2, 3]);
        for i in 0..6u64 {
            let payload = h.next_seq;
            match i % 3 {
                0 => {
                    q.schedule(50, payload);
                    h.schedule(50, payload);
                }
                k => {
                    q.schedule_keyed(keys[k as usize], 50, payload);
                    h.schedule_keyed(k as usize, 50, payload);
                }
            }
        }
        q.schedule_keyed(keys[0], 50, h.next_seq);
        h.schedule_keyed(0, 50, h.next_seq);
        assert_eq!(q.cancelled(), 2, "two keyed wakeups were superseded");
        assert_slab_consistent(&q);
        let mut slots_by_id: Vec<(u64, u32)> = q
            .heap
            .iter()
            .map(|&Reverse((_, seq, slot))| (seq, slot))
            .collect();
        slots_by_id.sort_unstable();
        assert!(
            slots_by_id.windows(2).any(|w| w[0].1 > w[1].1),
            "some later id sits on a lower slot"
        );
        let mut at_50 = Vec::new();
        loop {
            let got = q.pop();
            assert_eq!(got, h.pop(), "tie order diverged");
            assert_same_state(&q, &h);
            match got {
                Some((50, _)) => at_50.push(q.current_id().0),
                Some(_) => {}
                None => break,
            }
        }
        assert_eq!(at_50.len(), 2 + 5, "two arrivals and five live entries");
        assert!(
            at_50.windows(2).all(|w| w[0] < w[1]),
            "ids ascend: {at_50:?}"
        );
        assert_slab_consistent(&q);
    }

    /// The cluster-scale storm, checking the slab at every step: its slots
    /// are exactly the heap's handles plus the free list, and it is never
    /// longer than the heap has ever been.
    #[test]
    fn slab_never_outgrows_the_peak_heap_storm() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let keys: Vec<EventKey> = (0..CLUSTER_KEYS).map(|_| q.register_key()).collect();
        let mut h: VecQueue<u64> = VecQueue::new();
        let mut peak_heap = 0;
        let mut x: u64 = 0x0827_efa9_8ec4_e6c8;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = (x >> 33) as usize % CLUSTER_KEYS;
            let at = h.now() + (x >> 20) % 5_000;
            match x >> 61 {
                0..=3 => {
                    q.schedule_keyed(keys[d], at, i);
                    h.schedule_keyed(d, at, i);
                }
                4 => {
                    q.invalidate(keys[d]);
                    h.invalidate(d);
                }
                _ => {
                    q.schedule(at, i);
                    h.schedule(at, i);
                }
            }
            peak_heap = peak_heap.max(q.heap.len());
            // Pop in bursts, so the heap drains and refills.
            let pops = if (i / 2_000) % 2 == 0 {
                (x >> 8) % 2
            } else {
                2
            };
            for _ in 0..pops {
                assert_eq!(q.pop(), h.pop(), "slab storm diverged at step {i}");
            }
            assert!(
                q.slab.len() <= peak_heap,
                "slab outgrew the heap at step {i}"
            );
            if i % 97 == 0 {
                assert_slab_consistent(&q);
            }
        }
        drain_both(&mut q, &mut h);
        assert_slab_consistent(&q);
        assert_eq!(q.slab.len(), peak_heap, "the slab reached the heap's peak");
        assert!(
            q.cancelled() > 1_000,
            "dead entries surfaced and freed slots"
        );
    }

    /// Keys registered while others hold live wakeups; the live wakeups
    /// keep their order.
    #[test]
    fn keys_registered_mid_run_keep_heap_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut h: VecQueue<u64> = VecQueue::new();
        let mut keys = Vec::new();
        for d in 0..CLUSTER_KEYS {
            keys.push(q.register_key());
            // Equal timestamps across keys: the pop order is the
            // registration order.
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
                let mut h = VecQueue::new();
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

            /// The queue is observationally identical to the scanned
            /// `Vec`: same pop sequence (FIFO tie-break at equal
            /// timestamps), same clock, same accounting and live depth —
            /// cancellation never reorders or miscounts survivors.
            #[test]
            fn wheel_matches_heap(
                ops in proptest::collection::vec((0u8..8, 0u8..8, 0u16..400), 1..120)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
                let mut h = VecQueue::new();
                for (sel, k, dt) in ops {
                    apply_both(&mut q, &keys, &mut h, sel, k, dt);
                }
                drain_both(&mut q, &mut h);
            }

            /// The arrival cursor against plain schedules: arrivals given
            /// before or after other work, at times that tie with it, fall
            /// in the past (and clamp) or lie far ahead.
            #[test]
            fn arrival_cursor_matches_heap(
                before in proptest::collection::vec((0u8..8, 0u8..8, 0u16..400), 0..30),
                arrivals in proptest::collection::vec(0u32..(2 * FAR as u32), 0..60),
                near in proptest::collection::vec(0u16..400, 0..20),
                ops in proptest::collection::vec((0u8..8, 0u8..8, 0u16..400), 1..120)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
                let mut h = VecQueue::new();
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

            /// Same differential, but with timestamps spread far apart,
            /// so dead entries can sit deep in the heap for long spans.
            #[test]
            fn wheel_matches_heap_across_windows(
                ops in proptest::collection::vec(
                    (0u8..8, 0u8..8, 0u32..(3 * FAR as u32)), 1..80)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..KEYS).map(|_| q.register_key()).collect();
                let mut h = VecQueue::new();
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

            /// Rescheduling a key while its wakeup is live supersedes it:
            /// keyed schedules that never invalidate first, earlier or
            /// later than the wakeup they replace, against plain events.
            #[test]
            fn superseding_a_live_key_matches_reference(
                ops in proptest::collection::vec((0u8..4, 0u8..2, 0u16..400), 1..200)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..2).map(|_| q.register_key()).collect();
                let mut h = VecQueue::new();
                let mut superseded = 0;
                for (sel, k, dt) in ops {
                    let payload = h.next_seq;
                    let k = k as usize;
                    let at = h.now() + dt as SimTime;
                    match sel {
                        0 | 1 => {
                            superseded += u64::from(h.parked_at(k).is_some());
                            q.schedule_keyed(keys[k], at, payload);
                            h.schedule_keyed(k, at, payload);
                        }
                        2 => {
                            q.schedule(at, payload);
                            h.schedule(at, payload);
                        }
                        _ => prop_assert_eq!(q.pop(), h.pop()),
                    }
                    assert_same_state(&q, &h);
                    prop_assert_eq!(q.parked_at(keys[k]), h.parked_at(k));
                }
                prop_assert_eq!(q.cancelled(), superseded);
                drain_both(&mut q, &mut h);
            }

            /// A cancelled entry that ties a live one — plain or keyed,
            /// scheduled before or after it — neither pops nor moves the
            /// live entry's turn. Every entry lands on one of three
            /// instants; `action` keeps it, cancels it at once, or pops
            /// once after it.
            #[test]
            fn cancelled_ties_match_reference(
                entries in proptest::collection::vec((0u8..3, 0u8..4, 0u8..3), 1..60)
            ) {
                let mut q: EventQueue<u64> = EventQueue::new();
                let keys: Vec<EventKey> = (0..3).map(|_| q.register_key()).collect();
                let mut h = VecQueue::new();
                for (instant, k, action) in entries {
                    let payload = h.next_seq;
                    let at = 100 * SimTime::from(instant);
                    let k = k as usize;
                    if k == 3 {
                        q.schedule(at, payload);
                        h.schedule(at, payload);
                    } else {
                        q.schedule_keyed(keys[k], at, payload);
                        h.schedule_keyed(k, at, payload);
                        if action == 1 {
                            q.invalidate(keys[k]);
                            h.invalidate(k);
                        }
                    }
                    if action == 2 {
                        prop_assert_eq!(q.pop(), h.pop());
                    }
                    assert_same_state(&q, &h);
                }
                drain_both(&mut q, &mut h);
                prop_assert!(q.is_empty());
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
