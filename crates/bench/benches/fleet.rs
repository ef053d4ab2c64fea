//! Fleet-scale benchmarks: end-to-end session throughput of the sharded
//! conservative-PDES engine, and the cost of its round loop in isolation.
//!
//! * `fleet/sessions_per_sec` — wall-clock session arrivals processed per
//!   second by a scaled-down (seconds-long) fleet run with the full
//!   workload shape: admission, remote attaches over the backbone,
//!   departures, sampling. This is the number the >25% regression gate in
//!   `ci.sh` watches; the artifact itself reports only simulated-domain
//!   figures.
//! * `fleet/barrier_rounds` — lookahead windows per second on a
//!   nearly-empty workload (one tick per shard per round), isolating the
//!   per-round cost of the engine's one loop: floor computation, stepping
//!   each shard in turn on the calling thread, and envelope routing, with
//!   no model work to hide behind.

use visionsim_bench::{criterion_group, criterion_main, Criterion, Throughput};
use visionsim_core::shard::{ConservativeEngine, Envelope, ShardWorld};
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_vca::fleet::{run_fleet, FleetConfig};

/// The paper-scale workload shape compressed to a benchable duration.
fn bench_config() -> FleetConfig {
    let mut cfg = FleetConfig::paper_scale(4242);
    cfg.duration = SimDuration::from_secs(8);
    cfg.base_arrival_hz = 120.0;
    cfg
}

fn bench_sessions(c: &mut Criterion) {
    let cfg = bench_config();
    // The run is deterministic, so one untimed pass tells us exactly how
    // many session arrivals every timed iteration will process.
    let arrivals: u64 = run_fleet(&cfg, 8).sites.iter().map(|s| s.arrivals).sum();
    let mut g = c.benchmark_group("fleet");
    g.throughput(Throughput::Elements(arrivals));
    g.bench_function("sessions_per_sec", |b| {
        b.iter(|| run_fleet(&cfg, 8).sites.len())
    });
}

/// A shard that does nothing but tick once per lookahead window: every
/// round has exactly one event per shard and zero cross-shard messages,
/// so the measured time is the round loop itself.
struct TickWorld {
    t: SimTime,
    step: SimDuration,
    ticks: u64,
}

impl ShardWorld for TickWorld {
    type Msg = ();

    fn next_event(&self) -> Option<SimTime> {
        Some(self.t)
    }

    fn deliver(&mut self, _env: Envelope<()>) {}

    fn advance(&mut self, horizon: SimTime, _out: &mut Vec<Envelope<()>>) {
        while self.t <= horizon {
            self.t = self.t.saturating_add(self.step);
            self.ticks += 1;
        }
    }
}

const TICK_SHARDS: usize = 8;

fn tick_engine() -> ConservativeEngine<TickWorld> {
    let step = SimDuration::from_millis(1);
    let worlds: Vec<TickWorld> = (0..TICK_SHARDS)
        .map(|_| TickWorld {
            t: SimTime::ZERO,
            step,
            ticks: 0,
        })
        .collect();
    ConservativeEngine::new(worlds, (0..TICK_SHARDS).collect(), step)
}

fn bench_barrier(c: &mut Criterion) {
    let end = SimTime::from_secs(1);
    let rounds = tick_engine().run_until(end).rounds;
    let mut g = c.benchmark_group("fleet");
    g.throughput(Throughput::Elements(rounds));
    g.bench_function("barrier_rounds", |b| {
        b.iter(|| tick_engine().run_until(end).rounds)
    });
}

criterion_group!(benches, bench_sessions, bench_barrier);
criterion_main!(benches);
