//! Discrete-event scheduling.
//!
//! [`EventQueue`] pops events in `(at, seq)` order: by [`SimTime`], with a
//! monotone sequence number as tie-breaker, so events scheduled for the
//! same instant pop in FIFO order. Determinism of the tie-break matters: two
//! packets arriving at a queue "simultaneously" must drain in a reproducible
//! order for runs to replay bit-exactly.
//!
//! The queue is a 4-ary hole heap of `Copy` entries, each the packed
//! `(at, seq)` key beside its payload. Callers schedule small values (the
//! network a `u32` flight slot, the fleet a 24-byte event), so a sift moves
//! 32- or 48-byte entries, never a packet. Sifts move a hole instead of
//! swapping: `schedule` moves the hole up from the new leaf, and `pop`
//! walks it from the root down to a leaf along the smallest child, then
//! drops the former last entry into it and moves that entry up (Floyd's
//! bottom-up pop). Every key is unique, so the heap's shape cannot change
//! the pop order: it is the total `(at, seq)` order. Callers consume due
//! events one at a time with [`EventQueue::pop_due`]; an event a handler
//! schedules carries a later `seq` than everything pending, so it pops
//! after every event already due at its instant.
//!
//! # FIFO lanes
//!
//! A caller whose events mostly arrive in order per source (a network
//! link is a FIFO: a packet rarely leaves a link before one admitted
//! ahead of it) schedules them with [`EventQueue::schedule_fifo`] on a
//! lane, one per source. A lane keeps its pending events in key order in a
//! `VecDeque`, and only its earliest event, the lane's head, sits in the
//! heap, as an entry that carries the lane id. When a head pops, the
//! lane's next event takes its place at the root and moves down in one
//! hole walk, instead of a pop followed by a push. An event earlier than
//! its lane's last event skips the lane and enters the heap as a plain
//! entry, so a lane is sorted whatever the caller schedules. The heap then
//! holds one entry per busy lane plus the plain entries, and every pop
//! still takes the least key pending anywhere: a lane's head is its least
//! key, so the pop order is the same total `(at, seq)` order as if every
//! event had been scheduled with [`EventQueue::schedule`].
//!
//! When the [`crate::sanitizer`] is enabled the queue also monitors two
//! invariants observe-only: popped timestamps never regress (virtual-time
//! monotonicity) and occupancy, counting events waiting in lanes, stays
//! under [`OCCUPANCY_BOUND`] (a runaway self-rescheduling loop shows up
//! here long before it OOMs).

use crate::sanitizer;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Occupancy ceiling the sanitizer checks against: no workload in the
/// workspace legitimately keeps this many events pending at once.
pub const OCCUPANCY_BOUND: usize = 1 << 22;

/// An event of payload type `E` scheduled at a virtual instant.
#[derive(Clone, Debug)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion order; breaks ties among same-instant events.
    pub seq: u64,
    /// The payload.
    pub payload: E,
}

/// `(at, seq)` packed so one unsigned compare orders events exactly like
/// the lexicographic `(at, seq)` pair: timestamp in the high 64 bits,
/// insertion sequence in the low 64. One branch-free compare matters
/// because many events share a timestamp in batched packet traffic, where
/// a two-level `cmp().then_with()` chain mispredicts.
#[inline]
const fn pack_key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

/// The timestamp half of a packed key.
#[inline]
const fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The lane of an entry that heads no lane: scheduled with
/// [`EventQueue::schedule`], or one that skipped its lane.
const NO_LANE: u32 = u32::MAX;

/// One heap entry: an event's packed `(at, seq)` key, its payload, and
/// the lane it heads. The lane id fills padding the `u128` key's alignment
/// leaves, so an entry is 32 bytes for a `u32` payload either way.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    key: u128,
    payload: E,
    lane: u32,
}

/// A FIFO lane: the events behind its head, which is in the heap.
#[derive(Debug)]
struct Lane<E> {
    /// Key of the lane's last event while the lane holds any, `None` while
    /// it holds none.
    tail: Option<u128>,
    /// The lane's events after its head, in key order.
    behind: VecDeque<Entry<E>>,
}

impl<E> Default for Lane<E> {
    fn default() -> Self {
        Lane {
            tail: None,
            behind: VecDeque::new(),
        }
    }
}

/// A deterministic discrete-event queue: a 4-ary min-heap of
/// `(key, payload)` entries with optional FIFO lanes (see the module docs).
///
/// The heap's buffer and each lane's keep their capacity, so once they
/// have held the most events ever pending at once, scheduling allocates
/// nothing.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Heap-ordered entries: plain events and the head of every busy lane.
    heap: Vec<Entry<E>>,
    /// Lanes by id; a lane exists once something is scheduled on it.
    lanes: Vec<Lane<E>>,
    /// Events waiting in lanes behind their heads.
    behind: usize,
    next_seq: u64,
    now: SimTime,
    /// One-shot flag so an occupancy breach reports once per queue, not
    /// once per event of a multi-million-event storm.
    occupancy_reported: bool,
}

/// Children per heap node. Four keeps the tree half as deep as a binary
/// heap; arity is a constant-factor choice only, since keys are unique.
const HEAP_ARITY: usize = 4;

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            lanes: Vec::new(),
            behind: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            occupancy_reported: false,
        }
    }

    /// Move the hole at `i` up past every parent with a larger key, then
    /// write `entry` into it: each parent passed moves down one level, and
    /// `entry` is written once.
    #[inline(always)]
    fn fill_hole_up(&mut self, mut i: usize, entry: Entry<E>) {
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            let p = self.heap[parent];
            if p.key < entry.key {
                break;
            }
            self.heap[i] = p;
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// Index of the smallest child of the node whose children start at
    /// `first`, in a heap of `n` entries (`first < n`).
    #[inline(always)]
    fn min_child(&self, first: usize, n: usize) -> usize {
        if first + HEAP_ARITY <= n {
            // Four children: pick the smallest with pairwise selects,
            // which compile to conditional moves rather than branches
            // that mispredict on random keys.
            let c: &[Entry<E>; HEAP_ARITY] = self.heap[first..first + HEAP_ARITY]
                .try_into()
                .expect("slice of HEAP_ARITY entries");
            let lo = usize::from(c[1].key < c[0].key);
            let hi = 2 + usize::from(c[3].key < c[2].key);
            first + if c[hi].key < c[lo].key { hi } else { lo }
        } else {
            // The last internal node may have fewer children.
            let mut m = first;
            for c in first + 1..n {
                if self.heap[c].key < self.heap[m].key {
                    m = c;
                }
            }
            m
        }
    }

    /// Remove the root entry of a non-empty heap (Floyd's bottom-up pop):
    /// walk the root's hole down to a leaf, pulling up the smallest child
    /// at each level, then fill the hole with the former last entry and
    /// move it up. The last entry came from the bottom, so it rarely rises
    /// far, and the walk down needs no compare against it.
    #[inline(always)]
    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("remove_root on an empty heap");
        let n = self.heap.len();
        if n == 0 {
            return;
        }
        let mut i = 0;
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= n {
                break;
            }
            let m = self.min_child(first, n);
            self.heap[i] = self.heap[m];
            i = m;
        }
        self.fill_hole_up(i, last);
    }

    /// Replace the root entry with `entry`: move the root's hole down past
    /// every smaller child, then write `entry` into it. A lane's next event
    /// is rarely far behind the head it replaces, so the walk is short.
    #[inline(always)]
    fn replace_root(&mut self, entry: Entry<E>) {
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let first = i * HEAP_ARITY + 1;
            if first >= n {
                break;
            }
            let m = self.min_child(first, n);
            if self.heap[m].key > entry.key {
                break;
            }
            self.heap[i] = self.heap[m];
            i = m;
        }
        self.heap[i] = entry;
    }

    /// Add `entry` to the heap.
    #[inline(always)]
    fn push(&mut self, entry: Entry<E>) {
        let leaf = self.heap.len();
        self.heap.push(entry);
        self.fill_hole_up(leaf, entry);
    }

    /// The key of a new event at `at`, taking the next sequence number.
    ///
    /// # Panics
    /// If `at` is in the past (before the last popped event).
    #[inline(always)]
    fn next_key(&mut self, at: SimTime) -> u128 {
        assert!(
            at >= self.now,
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        pack_key(at, seq)
    }

    /// Report, once per queue, when more than [`OCCUPANCY_BOUND`] events
    /// are pending.
    #[inline(always)]
    fn check_occupancy(&mut self) {
        if !self.occupancy_reported && self.len() > OCCUPANCY_BOUND {
            self.occupancy_reported = true;
            sanitizer::report(
                "event/occupancy",
                format!(
                    "queue holds {} pending events (bound {OCCUPANCY_BOUND}) at {:?}",
                    self.len(),
                    self.now
                ),
            );
        }
    }

    /// The current virtual time: the timestamp of the last popped event, or
    /// zero before anything has run.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past (before the last popped event); the simulator
    /// has no mechanism for retro-causality, so this is always a bug.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let key = self.next_key(at);
        self.push(Entry {
            key,
            payload,
            lane: NO_LANE,
        });
        self.check_occupancy();
    }

    /// Schedule `payload` at absolute time `at` on FIFO lane `lane` (see
    /// the module docs). The event pops exactly when [`Self::schedule`]
    /// would have popped it; the lane only saves heap work while the
    /// lane's events are scheduled in time order. One earlier than the
    /// lane's last event skips the lane and enters the heap as a plain
    /// entry. Lane ids index a table that grows to the largest id used, so
    /// callers should number their lanes densely from zero.
    ///
    /// # Panics
    /// If `at` is in the past, as [`Self::schedule`], or if `lane` is
    /// `u32::MAX` or more.
    pub fn schedule_fifo(&mut self, lane: usize, at: SimTime, payload: E) {
        let key = self.next_key(at);
        if lane >= self.lanes.len() {
            assert!(lane < NO_LANE as usize, "lane id {lane} out of range");
            self.lanes.resize_with(lane + 1, Lane::default);
        }
        let id = lane as u32;
        let l = &mut self.lanes[lane];
        match l.tail {
            // In order behind the lane's last event: wait in the lane.
            Some(tail) if tail < key => {
                l.tail = Some(key);
                l.behind.push_back(Entry {
                    key,
                    payload,
                    lane: id,
                });
                self.behind += 1;
            }
            // Earlier than the lane's last event: skip the lane.
            Some(_) => self.push(Entry {
                key,
                payload,
                lane: NO_LANE,
            }),
            // An empty lane: the event is its head.
            None => {
                l.tail = Some(key);
                self.push(Entry {
                    key,
                    payload,
                    lane: id,
                });
            }
        }
        self.check_occupancy();
    }

    /// The root, the head of `lane`, has been read: move the lane's next
    /// event into its place, or remove the root if the lane is now empty.
    fn advance_lane(&mut self, lane: u32) {
        let l = &mut self.lanes[lane as usize];
        match l.behind.pop_front() {
            Some(next) => {
                self.behind -= 1;
                self.replace_root(next);
            }
            None => {
                l.tail = None;
                self.remove_root();
            }
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Entry { key, payload, lane } = *self.heap.first()?;
        if lane == NO_LANE {
            self.remove_root();
        } else {
            self.advance_lane(lane);
        }
        let at = key_time(key);
        sanitizer::check(at >= self.now, "event/monotonic", || {
            format!("popped event at {at:?} behind the clock at {:?}", self.now)
        });
        self.now = at;
        Some(ScheduledEvent {
            at,
            seq: key as u64,
            payload,
        })
    }

    /// Pop the earliest event if it is due at or before `until`; `None`
    /// (and an unmoved clock) when nothing is. A loop of `pop_due` runs
    /// every event up to `until` in `(at, seq)` order, including events
    /// the loop's own handlers schedule at or before `until`.
    #[inline]
    pub fn pop_due(&mut self, until: SimTime) -> Option<ScheduledEvent<E>> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| key_time(e.key))
    }

    /// Number of pending events, those waiting in lanes included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.behind
    }

    /// True if no events are pending. A lane holds events only while its
    /// head is in the heap, so an empty heap means an empty queue.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Advance the clock to `until` without processing anything — the idle
    /// fast path for callers that drain events themselves and only need the
    /// virtual time moved.
    ///
    /// # Panics
    /// If an event earlier than `until` is still pending: skipping it would
    /// silently reorder the simulation.
    pub fn advance_to(&mut self, until: SimTime) {
        if let Some(at) = self.peek_time() {
            assert!(
                at > until,
                "advance_to({until:?}) would skip a pending event at {at:?}"
            );
        }
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn advance_to_moves_the_clock_without_dispatch() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.advance_to(SimTime::from_millis(250));
        assert_eq!(q.now(), SimTime::from_millis(250));
        // Never moves backwards.
        q.advance_to(SimTime::from_millis(100));
        assert_eq!(q.now(), SimTime::from_millis(250));
        // Pending events beyond the horizon are untouched.
        q.schedule(SimTime::from_millis(900), 1);
        q.advance_to(SimTime::from_millis(500));
        assert_eq!(q.now(), SimTime::from_millis(500));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_to_refuses_to_skip_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.advance_to(SimTime::from_millis(20));
    }

    #[test]
    fn pop_due_stops_at_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(60), 2u32);
        q.schedule(SimTime::from_millis(50), 1u32);
        // Nothing due before 50 ms: no pop, and the clock stays put.
        assert!(q.pop_due(SimTime::from_millis(49)).is_none());
        assert_eq!(q.now(), SimTime::ZERO);
        // The horizon is inclusive.
        let ev = q.pop_due(SimTime::from_millis(50)).expect("due at 50 ms");
        assert_eq!((ev.at, ev.payload), (SimTime::from_millis(50), 1));
        assert_eq!(q.now(), SimTime::from_millis(50));
        assert!(q.pop_due(SimTime::from_millis(59)).is_none());
        // A same-instant reschedule pops after the event already due there.
        q.schedule(SimTime::from_millis(60), 3);
        let got: Vec<u32> = std::iter::from_fn(|| q.pop_due(SimTime::from_millis(60)))
            .map(|ev| ev.payload)
            .collect();
        assert_eq!(got, [2, 3]);
        assert!(q.is_empty() && q.pop_due(SimTime::MAX).is_none());
    }

    /// Pop everything, as `(at in ms, payload)` pairs.
    fn drain_ms<E: Copy>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop().map(|ev| (ev.at.as_nanos() / 1_000_000, ev.payload)))
            .collect()
    }

    #[test]
    fn lane_events_interleave_with_plain_events_in_key_order() {
        let mut q = EventQueue::new();
        let ms = SimTime::from_millis;
        q.schedule_fifo(0, ms(10), 'a');
        q.schedule(ms(15), 'b');
        q.schedule_fifo(1, ms(12), 'c');
        q.schedule_fifo(0, ms(20), 'd');
        q.schedule_fifo(1, ms(20), 'e');
        q.schedule(ms(20), 'f');
        q.schedule_fifo(0, ms(20), 'g');
        // Same-instant events pop in schedule order across lanes and the
        // plain path alike.
        assert_eq!(
            drain_ms(&mut q),
            [
                (10, 'a'),
                (12, 'c'),
                (15, 'b'),
                (20, 'd'),
                (20, 'e'),
                (20, 'f'),
                (20, 'g')
            ]
        );
        assert_eq!((q.is_empty(), q.len()), (true, 0));
    }

    #[test]
    fn an_event_earlier_than_its_lanes_tail_skips_the_lane() {
        let mut q = EventQueue::new();
        let ms = SimTime::from_millis;
        q.schedule_fifo(3, ms(10), 1u32);
        q.schedule_fifo(3, ms(20), 2);
        // Earlier than the lane's last event: a plain heap entry.
        q.schedule_fifo(3, ms(15), 3);
        // Not earlier than the tail (20 ms): back in the lane.
        q.schedule_fifo(3, ms(20), 4);
        q.schedule_fifo(3, ms(25), 5);
        assert_eq!(q.heap.len(), 2, "the lane's head and the skipped event");
        assert_eq!(q.heap.iter().filter(|e| e.lane == NO_LANE).count(), 1);
        assert_eq!(q.behind, 3);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain_ms(&mut q),
            [(10, 1), (15, 3), (20, 2), (20, 4), (25, 5)]
        );
        assert_eq!(q.lanes[3].tail, None, "a drained lane holds nothing");
    }

    #[test]
    fn len_counts_events_waiting_in_lanes() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_fifo(0, SimTime::from_millis(i), i);
        }
        q.schedule(SimTime::from_millis(2), 99);
        assert_eq!(q.heap.len(), 2, "one lane head and one plain event");
        assert_eq!(q.len(), 6);
        let mut left = 6;
        while q.pop().is_some() {
            left -= 1;
            assert_eq!(q.len(), left);
            assert_eq!(q.is_empty(), left == 0);
        }
        assert_eq!(left, 0);
    }

    #[test]
    fn a_lane_that_empties_takes_a_new_head_at_any_time() {
        let mut q = EventQueue::new();
        let ms = SimTime::from_millis;
        q.schedule_fifo(0, ms(50), 'a');
        q.schedule(ms(5), 'b');
        assert_eq!(q.pop().map(|e| e.payload), Some('b'));
        assert_eq!(q.pop().map(|e| e.payload), Some('a'));
        // The lane is empty, so an event before its old tail heads it
        // rather than skipping it.
        q.schedule_fifo(0, ms(50), 'c');
        q.schedule_fifo(0, ms(60), 'd');
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.heap[0].lane, 0);
        assert_eq!(drain_ms(&mut q), [(50, 'c'), (60, 'd')]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_on_a_lane_panics() {
        let mut q = EventQueue::new();
        q.schedule_fifo(0, SimTime::from_millis(10), ());
        q.pop();
        q.schedule_fifo(0, SimTime::from_millis(5), ());
    }

    #[test]
    fn pop_due_reaches_events_at_the_end_of_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 1u8);
        q.schedule(SimTime::from_millis(1), 0u8);
        q.schedule(SimTime::MAX, 2u8);
        let got: Vec<(SimTime, u8)> = std::iter::from_fn(|| q.pop_due(SimTime::MAX))
            .map(|ev| (ev.at, ev.payload))
            .collect();
        assert_eq!(
            got,
            [
                (SimTime::from_millis(1), 0),
                (SimTime::MAX, 1),
                (SimTime::MAX, 2)
            ]
        );
        assert_eq!(q.now(), SimTime::MAX);
        assert!(q.is_empty());
    }
}
