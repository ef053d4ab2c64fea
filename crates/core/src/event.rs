//! Discrete-event scheduling.
//!
//! [`EventQueue`] pops events in `(at, seq)` order: by [`SimTime`], with a
//! monotone sequence number as tie-breaker, so events scheduled for the
//! same instant pop in FIFO order. Determinism of the tie-break matters: two
//! packets arriving at a queue "simultaneously" must drain in a reproducible
//! order for runs to replay bit-exactly.
//!
//! The queue is a slab-backed hole heap. A pending payload waits in a slab
//! slot and never moves until it pops; the 4-ary min-heap holds only small
//! `Copy` entries, the packed `(at, seq)` key and the payload's slot. Sifts
//! move a hole instead of swapping: `schedule` moves the hole up from the
//! new leaf, and `pop` walks it from the root down to a leaf along the
//! smallest child, then drops the former last entry into it and moves that
//! entry up (Floyd's bottom-up pop). Every key is unique, so neither the
//! heap's shape nor which slot an event occupies can change the pop order:
//! it is the total `(at, seq)` order.
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

/// A reusable structure-of-arrays buffer that [`EventQueue::drain_due_into`]
/// fills with one *tick* of events: every pending event sharing the
/// earliest due timestamp, in `(at, seq)` order. Timestamps, sequence
/// numbers, and payloads live in parallel dense arrays so a batch consumer
/// iterates three flat vectors instead of chasing per-event structures.
///
/// The buffer is meant to be allocated once and reused across ticks:
/// `drain_due_into` clears it (keeping capacity), so after the first few
/// ticks reach the steady-state batch width, draining allocates nothing.
#[derive(Debug)]
pub struct ScratchBatch<E> {
    ats: Vec<SimTime>,
    seqs: Vec<u64>,
    payloads: Vec<E>,
}

// Manual impl: an empty buffer needs no `E: Default`.
impl<E> Default for ScratchBatch<E> {
    fn default() -> Self {
        ScratchBatch::new()
    }
}

impl<E> ScratchBatch<E> {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        ScratchBatch {
            ats: Vec::new(),
            seqs: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Drop buffered events, keeping allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.ats.clear();
        self.seqs.clear();
        self.payloads.clear();
    }

    /// Timestamp of event `i` (drained events share one tick timestamp,
    /// but the array is kept per-event so consumers need no side lookup).
    #[inline]
    pub fn at(&self, i: usize) -> SimTime {
        self.ats[i]
    }

    /// Insertion sequence number of event `i`.
    #[inline]
    pub fn seq(&self, i: usize) -> u64 {
        self.seqs[i]
    }

    /// Payload of event `i`.
    #[inline]
    pub fn payload(&self, i: usize) -> &E {
        &self.payloads[i]
    }

    /// Iterate `(at, seq, payload)` in drain order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &E)> {
        self.ats
            .iter()
            .zip(&self.seqs)
            .zip(&self.payloads)
            .map(|((&at, &seq), p)| (at, seq, p))
    }
}

/// One heap entry: an event's packed `(at, seq)` key and the slab slot
/// that holds its payload.
#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u128,
    slot: u32,
}

/// A deterministic discrete-event queue: a 4-ary min-heap of small
/// `(key, slot)` entries over a payload slab (see the module docs).
///
/// Payloads stay in their slot from `schedule` to `pop`, so a sift moves
/// only the fixed-size entries, whatever `E` is. Vacated slots go on a LIFO
/// free list and are reused first, so in steady state the slab stays as
/// large as the most events ever pending at once and scheduling allocates
/// nothing.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Heap-ordered entries.
    heap: Vec<Entry>,
    /// Payload slab: `Some` while the event in that slot is pending.
    slots: Vec<Option<E>>,
    /// Vacant slots, most recently vacated last.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    /// One-shot flag so an occupancy breach reports once per queue, not
    /// once per event of a multi-million-event storm.
    occupancy_reported: bool,
}

/// Children per heap node. Four keeps the tree half as deep as a binary
/// heap; arity is a constant-factor choice only, since keys are unique.
const HEAP_ARITY: usize = 4;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            occupancy_reported: false,
        }
    }

    /// Move the hole at `i` up past every parent with a larger key, then
    /// write `entry` into it: each parent passed moves down one level, and
    /// `entry` is written once.
    #[inline]
    fn fill_hole_up(&mut self, mut i: usize, entry: Entry) {
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
    fn pop_entry(&mut self) -> Option<Entry> {
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
                let c: &[Entry; HEAP_ARITY] = self.heap[first..first + HEAP_ARITY]
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX pending events");
                self.slots.push(Some(payload));
                slot
            }
        };
        let entry = Entry {
            key: pack_key(at, seq),
            slot,
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
        let Entry { key, slot } = self.pop_entry()?;
        let payload = self.slots[slot as usize]
            .take()
            .expect("a pending entry's slot holds its payload");
        self.free.push(slot);
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

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| key_time(e.key))
    }

    /// Drain one *tick* into `batch`: every pending event whose timestamp
    /// equals the earliest due timestamp (≤ `until`), in `(at, seq)` order.
    /// Returns the number of events drained (0 when nothing is due).
    ///
    /// A loop of `drain_due_into` observes exactly the order of a loop of
    /// [`EventQueue::pop`] that stops at `until`, because an event scheduled
    /// *while the drained tick is being processed* carries a later sequence
    /// number than everything drained — it lands in a later tick, precisely
    /// where the one-pop-per-event loop would have popped it. That
    /// equal-timestamp cut is what makes batch processing safe for RNG
    /// draw-order determinism: no handler-scheduled event can ever need to
    /// interleave *between* two drained events.
    ///
    /// `batch` is cleared first (capacity retained), so a reused scratch
    /// buffer makes steady-state draining allocation-free.
    pub fn drain_due_into(&mut self, until: SimTime, batch: &mut ScratchBatch<E>) -> usize {
        batch.clear();
        let Some(tick) = self.peek_time() else {
            return 0;
        };
        if tick > until {
            return 0;
        }
        while self.peek_time() == Some(tick) {
            let ev = self.pop().expect("peeked non-empty");
            batch.ats.push(ev.at);
            batch.seqs.push(ev.seq);
            batch.payloads.push(ev.payload);
        }
        batch.len()
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
    fn drain_due_into_takes_one_timestamp_cohort_in_seq_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(SimTime::from_millis(9), 99u32);
        for i in 0..8 {
            q.schedule(t, i);
        }
        let mut batch = ScratchBatch::new();
        let n = q.drain_due_into(SimTime::from_millis(20), &mut batch);
        assert_eq!(n, 8);
        let got: Vec<u32> = batch.iter().map(|(_, _, &p)| p).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert!(batch.iter().all(|(at, _, _)| at == t));
        assert_eq!(q.now(), t);
        // The 9 ms event is the next tick.
        assert_eq!(q.drain_due_into(SimTime::from_millis(20), &mut batch), 1);
        assert_eq!(*batch.payload(0), 99);
        // Nothing further due: batch comes back empty.
        assert_eq!(q.drain_due_into(SimTime::from_millis(20), &mut batch), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn drain_due_into_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(50), ());
        let mut batch = ScratchBatch::new();
        assert_eq!(q.drain_due_into(SimTime::from_millis(49), &mut batch), 0);
        assert_eq!(q.drain_due_into(SimTime::from_millis(50), &mut batch), 1);
    }

    #[test]
    fn drain_due_into_takes_a_tick_at_the_end_of_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 1u8);
        q.schedule(SimTime::MAX, 2u8);
        let mut batch = ScratchBatch::new();
        assert_eq!(q.drain_due_into(SimTime::MAX, &mut batch), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn a_steady_hold_reuses_its_slots() {
        // Pop one, schedule one: the slab never outgrows the pending depth.
        let mut q = EventQueue::new();
        for i in 0..16u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        for i in 16..1_000u64 {
            let ev = q.pop().expect("pending");
            q.schedule(ev.at + crate::time::SimDuration::from_nanos(i % 7), i);
        }
        assert_eq!(q.len(), 16);
        assert_eq!(q.slots.len(), 16);
        assert_eq!(q.free.len(), 0);
    }
}
