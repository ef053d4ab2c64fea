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
//! When the [`crate::sanitizer`] is enabled the queue also monitors two
//! invariants observe-only: popped timestamps never regress (virtual-time
//! monotonicity) and occupancy stays under [`OCCUPANCY_BOUND`] (a runaway
//! self-rescheduling loop shows up here long before it OOMs).

use crate::sanitizer;
use crate::time::SimTime;

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

/// One heap entry: an event's packed `(at, seq)` key and its payload.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    key: u128,
    payload: E,
}

/// A deterministic discrete-event queue: a 4-ary min-heap of
/// `(key, payload)` entries (see the module docs).
///
/// The heap's buffer keeps its capacity, so once it has held the most
/// events ever pending at once, scheduling allocates nothing.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Heap-ordered entries.
    heap: Vec<Entry<E>>,
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
            next_seq: 0,
            now: SimTime::ZERO,
            occupancy_reported: false,
        }
    }

    /// Move the hole at `i` up past every parent with a larger key, then
    /// write `entry` into it: each parent passed moves down one level, and
    /// `entry` is written once.
    #[inline]
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

    /// Remove the root entry (Floyd's bottom-up pop): walk the root's hole
    /// down to a leaf, pulling up the smallest child at each level, then
    /// fill the hole with the former last entry and move it up. The last
    /// entry came from the bottom, so it rarely rises far, and the walk
    /// down needs no compare against it.
    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let last = self.heap.pop()?;
        let n = self.heap.len();
        if n == 0 {
            return Some(last);
        }
        let top = self.heap[0];
        let mut i = 0;
        loop {
            let first = i * HEAP_ARITY + 1;
            if first + HEAP_ARITY <= n {
                // Four children: pick the smallest with pairwise selects,
                // which compile to conditional moves rather than branches
                // that mispredict on random keys.
                let c: &[Entry<E>; HEAP_ARITY] = self.heap[first..first + HEAP_ARITY]
                    .try_into()
                    .expect("slice of HEAP_ARITY entries");
                let lo = usize::from(c[1].key < c[0].key);
                let hi = 2 + usize::from(c[3].key < c[2].key);
                let m = if c[hi].key < c[lo].key { hi } else { lo };
                self.heap[i] = c[m];
                i = first + m;
            } else {
                // The last internal node may have fewer children; their
                // own children would start past the end, so it ends the walk.
                if first < n {
                    let mut m = first;
                    for c in first + 1..n {
                        if self.heap[c].key < self.heap[m].key {
                            m = c;
                        }
                    }
                    self.heap[i] = self.heap[m];
                    i = m;
                }
                break;
            }
        }
        self.fill_hole_up(i, last);
        Some(top)
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
        assert!(
            at >= self.now,
            "scheduling into the past: {:?} < {:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            key: pack_key(at, seq),
            payload,
        };
        let leaf = self.heap.len();
        self.heap.push(entry);
        self.fill_hole_up(leaf, entry);
        if !self.occupancy_reported && self.heap.len() > OCCUPANCY_BOUND {
            self.occupancy_reported = true;
            sanitizer::report(
                "event/occupancy",
                format!(
                    "queue holds {} pending events (bound {OCCUPANCY_BOUND}) at {:?}",
                    self.heap.len(),
                    self.now
                ),
            );
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let Entry { key, payload } = self.pop_entry()?;
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
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
