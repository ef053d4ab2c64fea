//! Randomized property tests for the core substrate, the event queue's
//! reference-model oracle, and the flight recorder's lossless follow.
//!
//! Each property is exercised over many deterministic, seed-derived cases
//! (the registry is offline, so the harness is a plain loop over
//! `SimRng`-generated inputs instead of proptest).

use std::collections::BTreeMap;
use visionsim::core::event::EventQueue;
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

/// Percentiles sort their samples unstably; under `total_cmp` two values
/// tie only when their bits are equal, so the sorted samples must match a
/// stable sort bit for bit, whatever mix of repeats, signed zeros,
/// infinities and NaN payloads `from_samples` hands in.
#[test]
fn percentiles_sort_is_bit_identical_to_a_stable_sort() {
    let special = [
        0.0,
        -0.0,
        1.5,
        -1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE / 4.0,
        f64::from_bits(0x7ff8_0000_0000_0000),
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_0000_0000_0000),
        f64::from_bits(0xfff0_0000_dead_beef),
    ];
    for i in 0..CASES {
        let mut rng = case_rng("percentiles_sort_bits", i);
        let n = rng.uniform_u64(1, 300) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                if rng.chance(0.5) {
                    special[rng.index(special.len())]
                } else {
                    rng.uniform_range(-4.0, 4.0).round()
                }
            })
            .collect();
        let mut stable = samples.clone();
        stable.sort_by(f64::total_cmp);
        let mut p = Percentiles::from_samples(samples);
        p.median();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(p.samples()), bits(&stable), "case {i}");
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

    /// The earliest pending event, if it is due at or before `until`.
    fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, u64, u64)> {
        if self.peek_time()? > until {
            return None;
        }
        self.pop()
    }
}

/// Schedule `payload` at `at` on both the queue, through FIFO `lane`
/// when there is one, and its model, which has no lanes: a lane must not
/// change when an event pops.
fn schedule_both(
    q: &mut EventQueue<u64>,
    m: &mut QueueModel,
    lane: Option<usize>,
    at: SimTime,
    payload: u64,
) {
    match lane {
        Some(lane) => q.schedule_fifo(lane, at, payload),
        None => q.schedule(at, payload),
    }
    m.schedule(at, payload);
}

/// Lanes the oracle schedules on; few, so each fills, drains and refills.
const ORACLE_LANES: usize = 4;

/// A FIFO lane for two thirds of the events, else the plain path.
fn lane(rng: &mut SimRng) -> Option<usize> {
    match rng.uniform_u64(0, 2) {
        0 => None,
        _ => Some(rng.uniform_u64(0, ORACLE_LANES as u64 - 1) as usize),
    }
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
/// `schedule` and `schedule_fifo` (same-instant bursts, `at == now`,
/// far-future and end-of-time events), `pop`, loops of `pop_due` (horizons
/// below, at and above the next event and at the end of time, with
/// handlers rescheduling at their own instant, which must pop after every
/// event already pending there), `peek_time`, `advance_to` and `len`, with
/// every popped `(at, seq, payload)` compared. Payloads are unique and
/// unordered with respect to `seq`, so pop order among same-instant events
/// must be the FIFO `seq` order, not an order of payloads.
///
/// Two thirds of the events go through one of [`ORACLE_LANES`] FIFO lanes.
/// Most of those follow the last instant scheduled on their lane, as a
/// link's exits do (same-instant bursts included), and the rest land at a
/// random instant, often earlier than the lane's last event, which must
/// skip the lane. A `pop_due` loop to the end of time empties every lane,
/// and later events refill them.
#[test]
fn event_queue_matches_the_reference_model() {
    for i in 0..CASES {
        let mut rng = case_rng("event_queue_oracle", i);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut m = QueueModel::default();
        // The last instant scheduled on each lane, pending or not.
        let mut lane_last = [SimTime::ZERO; ORACLE_LANES];
        let mut scheduled = 0u64;
        // An odd multiplier is a bijection on u64: unique, scrambled payloads.
        let mut payload = || {
            scheduled += 1;
            scheduled.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        for _ in 0..rng.uniform_u64(50, 800) {
            match rng.uniform_u64(0, 9) {
                0..=3 => {
                    let lane = lane(&mut rng);
                    let mut at = instant(&mut rng, m.now);
                    if let Some(l) = lane.filter(|_| rng.chance(0.6)) {
                        // In order behind the lane's last instant.
                        at = lane_last[l]
                            .max(m.now)
                            .saturating_add(SimDuration::from_nanos(
                                rng.uniform_u64(0, 1) * rng.uniform_u64(0, 5_000),
                            ));
                    }
                    let burst = if rng.chance(0.3) {
                        rng.uniform_u64(2, 12)
                    } else {
                        1
                    };
                    for _ in 0..burst {
                        schedule_both(&mut q, &mut m, lane, at, payload());
                    }
                    if let Some(l) = lane {
                        lane_last[l] = at;
                    }
                }
                4 => {
                    let got = q.pop().map(|ev| (ev.at, ev.seq, ev.payload));
                    assert_eq!(got, m.pop(), "case {i}: pop");
                }
                5 | 6 => {
                    let next = m.peek_time();
                    let until = match rng.uniform_u64(0, 15) {
                        0 => SimTime::MAX,
                        // Just below the next event (at it if that is now).
                        1..=4 => next
                            .filter(|&t| t > m.now)
                            .map_or(m.now, |t| SimTime::from_nanos(t.as_nanos() - 1)),
                        5..=8 => next.unwrap_or(m.now),
                        _ => m
                            .now
                            .saturating_add(SimDuration::from_nanos(rng.uniform_u64(0, 60_000))),
                    };
                    loop {
                        let got = q.pop_due(until).map(|ev| (ev.at, ev.seq, ev.payload));
                        let want = m.pop_due(until);
                        assert_eq!(got, want, "case {i}: pop_due until {until:?}");
                        let Some((at, _, _)) = want else { break };
                        if rng.chance(0.25) {
                            // A handler rescheduling at its own instant.
                            let lane = lane(&mut rng);
                            schedule_both(&mut q, &mut m, lane, at, payload());
                            if let Some(l) = lane {
                                lane_last[l] = at;
                            }
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
        // Run out the rest through the end of time.
        loop {
            let got = q
                .pop_due(SimTime::MAX)
                .map(|ev| (ev.at, ev.seq, ev.payload));
            let want = m.pop_due(SimTime::MAX);
            assert_eq!(got, want, "case {i}: final run-out");
            if want.is_none() {
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

/// `trace::follow` is lossless under concurrent recording: four threads
/// record 10,000 events each while the caller polls, and the followed
/// seqs are exactly the recorded ones, with nothing dropped (the ring's
/// default 65,536 slots hold all 40,000).
#[test]
fn trace_follow_sees_every_concurrently_recorded_event() {
    use visionsim::core::trace::{self, TraceKind};
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10_000;

    let _guard = visionsim::core::par::override_guard();
    trace::force(Some(true));
    trace::reset();
    let start = trace::follow(0).cursor;
    let mut cursor = start;
    let mut dropped = 0;
    // (seq, thread, index) of every followed event.
    let mut seen: Vec<(u64, u64, u64)> = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        trace::record(TraceKind::PacketSend, i, 0, t, i, 0);
                    }
                })
            })
            .collect();
        loop {
            let finished = workers.iter().all(|w| w.is_finished());
            let chunk = trace::follow(cursor);
            dropped += chunk.dropped;
            seen.extend(chunk.events.iter().map(|e| (e.seq, e.a, e.b)));
            cursor = chunk.cursor;
            if finished {
                break;
            }
        }
    });
    trace::reset();
    trace::force(None);

    assert_eq!(dropped, 0, "follow reported dropped events");
    seen.sort_unstable();
    let seqs: Vec<u64> = seen.iter().map(|&(seq, _, _)| seq).collect();
    let total = THREADS * PER_THREAD;
    assert_eq!(seqs, (start..start + total).collect::<Vec<_>>());
    let mut recorded: Vec<(u64, u64)> = seen.iter().map(|&(_, t, i)| (t, i)).collect();
    recorded.sort_unstable();
    let expected: Vec<(u64, u64)> = (0..THREADS)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t, i)))
        .collect();
    assert_eq!(recorded, expected);
}
