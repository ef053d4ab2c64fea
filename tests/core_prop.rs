//! Randomized property tests for the core substrate, and the event
//! queue's reference-model oracle.
//!
//! Each property is exercised over many deterministic, seed-derived cases
//! (the registry is offline, so the harness is a plain loop over
//! `SimRng`-generated inputs instead of proptest).

use std::collections::BTreeMap;
use visionsim::core::event::{EventQueue, ScratchBatch};
use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::core::stats::{Percentiles, StreamingStats};
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::core::units::{ByteSize, DataRate};

const CASES: u64 = 128;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0xC04E_0001, label, i))
}

fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = rng.uniform_u64(min_len as u64, max_len as u64) as usize;
    (0..n).map(|_| rng.uniform_range(lo, hi)).collect()
}

/// Percentiles are monotone in p and bounded by min/max.
#[test]
fn percentiles_monotone() {
    for i in 0..CASES {
        let mut rng = case_rng("percentiles_monotone", i);
        let samples = vec_f64(&mut rng, -1e9, 1e9, 1, 200);
        let mut p = Percentiles::from_samples(samples.clone());
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0] {
            let v = p.percentile(q);
            assert!(v >= last - 1e-9, "non-monotone at {q}");
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            last = v;
        }
    }
}

/// Welford streaming stats agree with the two-pass computation.
#[test]
fn streaming_stats_match_two_pass() {
    for i in 0..CASES {
        let mut rng = case_rng("streaming_two_pass", i);
        let samples = vec_f64(&mut rng, -1e6, 1e6, 2, 200);
        let mut s = StreamingStats::new();
        for &x in &samples {
            s.push(x);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-5 * (1.0 + var.sqrt()));
    }
}

/// Merging two accumulators equals accumulating the concatenation.
#[test]
fn streaming_merge_is_concatenation() {
    for i in 0..CASES {
        let mut rng = case_rng("streaming_merge", i);
        let a = vec_f64(&mut rng, -1e6, 1e6, 1, 100);
        let b = vec_f64(&mut rng, -1e6, 1e6, 1, 100);
        let mut sa = StreamingStats::new();
        for &x in &a {
            sa.push(x);
        }
        let mut sb = StreamingStats::new();
        for &x in &b {
            sb.push(x);
        }
        let mut all = StreamingStats::new();
        for &x in a.iter().chain(&b) {
            all.push(x);
        }
        sa.merge(&sb);
        assert_eq!(sa.count(), all.count());
        assert!((sa.mean() - all.mean()).abs() < 1e-6 * (1.0 + all.mean().abs()));
        assert!((sa.std_dev() - all.std_dev()).abs() < 1e-5 * (1.0 + all.std_dev()));
    }
}

/// The event queue's reference model: pending events in a `BTreeMap`
/// keyed by `(at, seq)`, which hands them out in that order by
/// construction, plus the clock and the next sequence number.
#[derive(Default)]
struct QueueModel {
    pending: BTreeMap<(SimTime, u64), u64>,
    next_seq: u64,
    now: SimTime,
}

impl QueueModel {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        assert!(at >= self.now, "the oracle never schedules into the past");
        self.pending.insert((at, self.next_seq), payload);
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let ((at, seq), payload) = self.pending.pop_first()?;
        self.now = at;
        Some((at, seq, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(at, _)| at)
    }

    /// Every pending event at the earliest instant, if that is `<= until`.
    fn drain_due(&mut self, until: SimTime) -> Vec<(SimTime, u64, u64)> {
        let mut tick = Vec::new();
        let Some(first) = self.peek_time().filter(|&t| t <= until) else {
            return tick;
        };
        while self.peek_time() == Some(first) {
            tick.push(self.pop().expect("peeked"));
        }
        tick
    }
}

/// Schedule `payload` at `at` on both the queue and its model.
fn schedule_both(q: &mut EventQueue<u64>, m: &mut QueueModel, at: SimTime, payload: u64) {
    q.schedule(at, payload);
    m.schedule(at, payload);
}

/// An instant at or after `now`: mostly a few microseconds ahead, so
/// timestamps collide often, and sometimes exactly `now` or far away.
fn instant(rng: &mut SimRng, now: SimTime) -> SimTime {
    match rng.uniform_u64(0, 19) {
        0..=3 => now,
        4 => now.saturating_add(SimDuration::from_nanos(
            rng.uniform_u64(1_000_000_000, 1 << 40),
        )),
        5 => SimTime::MAX,
        _ => now.saturating_add(SimDuration::from_nanos(rng.uniform_u64(0, 40_000))),
    }
}

/// The event queue matches its `BTreeMap` reference model: interleaved
/// `schedule` (same-instant bursts, `at == now`, far-future and end-of-time
/// events), `pop`, `drain_due_into` (with same-instant rescheduling from
/// inside the drained tick, which must land in a later tick), `peek_time`,
/// `advance_to` and `len`, with every popped or drained `(at, seq,
/// payload)` compared. Payloads are unique, so a payload handed back from
/// the wrong slot shows, and pop order among same-instant events must be
/// the FIFO `seq` order whatever slots the events occupy.
#[test]
fn event_queue_matches_the_reference_model() {
    for i in 0..CASES {
        let mut rng = case_rng("event_queue_oracle", i);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut m = QueueModel::default();
        let mut batch = ScratchBatch::new();
        let mut next_payload = 0u64;
        let mut payload = || {
            next_payload += 1;
            next_payload
        };
        for _ in 0..rng.uniform_u64(50, 800) {
            match rng.uniform_u64(0, 9) {
                0..=3 => {
                    let at = instant(&mut rng, m.now);
                    let burst = if rng.chance(0.3) {
                        rng.uniform_u64(2, 12)
                    } else {
                        1
                    };
                    for _ in 0..burst {
                        schedule_both(&mut q, &mut m, at, payload());
                    }
                }
                4 => {
                    let got = q.pop().map(|ev| (ev.at, ev.seq, ev.payload));
                    assert_eq!(got, m.pop(), "case {i}: pop");
                }
                5 | 6 => {
                    let until = m
                        .now
                        .saturating_add(SimDuration::from_nanos(rng.uniform_u64(0, 60_000)));
                    let n = q.drain_due_into(until, &mut batch);
                    let want = m.drain_due(until);
                    assert_eq!(n, want.len(), "case {i}: drained count");
                    let got: Vec<_> = batch.iter().map(|(at, seq, &p)| (at, seq, p)).collect();
                    assert_eq!(got, want, "case {i}: drained tick");
                    for (k, &event) in want.iter().enumerate() {
                        assert_eq!((batch.at(k), batch.seq(k), *batch.payload(k)), event);
                        if rng.chance(0.25) {
                            // A handler rescheduling at its own instant.
                            schedule_both(&mut q, &mut m, batch.at(k), payload());
                        }
                    }
                }
                7 => assert_eq!(q.peek_time(), m.peek_time(), "case {i}: peek_time"),
                _ => {
                    // Move the clock without skipping a pending event.
                    let room = match m.peek_time() {
                        Some(next) if next > m.now => (next - m.now).as_nanos() - 1,
                        Some(_) => continue,
                        None => 1_000_000,
                    };
                    let until = m.now.saturating_add(SimDuration::from_nanos(
                        rng.uniform_u64(0, room.min(1 << 40)),
                    ));
                    q.advance_to(until);
                    m.now = m.now.max(until);
                }
            }
            assert_eq!(q.len(), m.pending.len(), "case {i}: len");
            assert_eq!(q.is_empty(), m.pending.is_empty(), "case {i}: is_empty");
            assert_eq!(q.now(), m.now, "case {i}: now");
        }
        // Run out the rest, one tick at a time, through the end of time.
        loop {
            let n = q.drain_due_into(SimTime::MAX, &mut batch);
            let want = m.drain_due(SimTime::MAX);
            let got: Vec<_> = batch.iter().map(|(at, seq, &p)| (at, seq, p)).collect();
            assert_eq!(got, want, "case {i}: final drain");
            if n == 0 {
                break;
            }
        }
        assert!(
            q.is_empty() && q.pop().is_none(),
            "case {i}: queue left events behind"
        );
    }
}

/// transmit_time and bytes_in are mutually consistent.
#[test]
fn rate_time_size_consistency() {
    for i in 0..CASES {
        let mut rng = case_rng("rate_time_size", i);
        let mbps = rng.uniform_u64(1, 9_999);
        let kb = rng.uniform_u64(1, 99_999);
        let rate = DataRate::from_mbps(mbps);
        let size = ByteSize::from_kb(kb);
        let t = rate.transmit_time(size).expect("positive rate");
        let back = rate.bytes_in(t);
        // Rounding to nanoseconds loses at most a few bytes.
        let diff = size.as_bytes().abs_diff(back.as_bytes());
        assert!(diff <= 1 + rate.as_bps() / 8 / 1_000_000, "diff {diff}");
    }
}

/// Duration arithmetic: (a + b) - b == a.
#[test]
fn duration_add_sub_inverse() {
    for i in 0..CASES {
        let mut rng = case_rng("duration_inverse", i);
        let a = rng.uniform_u64(0, u32::MAX as u64 - 1);
        let b = rng.uniform_u64(0, u32::MAX as u64 - 1);
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        assert_eq!((da + db) - db, da);
    }
}
