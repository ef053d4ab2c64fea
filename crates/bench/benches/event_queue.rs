//! The discrete-event queue in isolation, on the classic hold model.
//!
//! * `event_queue/hold` — pop the earliest event, then schedule one at the
//!   popped time plus a seeded delay, holding the queue at a steady
//!   [`PENDING`] events. It times the plain path only (`schedule`, and a
//!   `pop` of a plain entry): its random delays have no per-source order a
//!   FIFO lane could use, and the plain path is what `vca::fleet`
//!   schedules on. One element is one hold: a pop plus a schedule.
//!
//! [`PENDING`] no longer describes the packet datapath's heap. It was
//! `video_sfu`'s mean count of pending link exits while each of them sat
//! in the heap; each link is now a FIFO lane, so that heap holds about 19
//! entries, one per busy link. The 0.03–40 ms delays span a serialization
//! slot on a fast link up to a long WAN path.

use visionsim_bench::{criterion_group, criterion_main, Criterion, Throughput};
use visionsim_core::event::EventQueue;
use visionsim_core::rng::SimRng;
use visionsim_core::time::SimDuration;

/// Events pending throughout the run.
const PENDING: usize = 625;
/// Holds per timed iteration.
const HOLDS: usize = 10_000;
/// Precomputed delays, cycled, so the timed loop draws no random numbers.
const DELAYS: usize = 4_096;

fn bench_hold(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(0xE7E4_0017);
    let delays: Vec<SimDuration> = (0..DELAYS)
        .map(|_| SimDuration::from_nanos(rng.uniform_u64(30_000, 40_000_000)))
        .collect();
    // A payload the size of the datapath's own (a tagged slot index).
    let mut q: EventQueue<u64> = EventQueue::new();
    for (i, &d) in delays.iter().take(PENDING).enumerate() {
        q.schedule(q.now() + d, i as u64);
    }
    let mut k = PENDING;
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(HOLDS as u64));
    g.bench_function("hold", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for _ in 0..HOLDS {
                let ev = q.pop().expect("the hold keeps the queue non-empty");
                sum = sum.wrapping_add(ev.payload);
                q.schedule(ev.at + delays[k % DELAYS], k as u64);
                k += 1;
            }
            sum
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hold);
criterion_main!(benches);
