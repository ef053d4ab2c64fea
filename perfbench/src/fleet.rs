//! The `global_fleet` workload: `FleetConfig::paper_scale`, at a fifth
//! of its arrival rates and capacities, over the 16-site global map on
//! the sharded conservative-PDES engine.
//!
//! Set-up builds every shard world by running the same configuration to
//! a zero-length horizon; the timed phase is one full `run_fleet`, then
//! the fleet artifact is rendered from the outcome for the digest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use visionsim::core::time::SimDuration;
use visionsim::experiments::fleet::Fleet;
use visionsim::vca::fleet::{run_fleet, FleetConfig, FleetOutcome};

use visionsim::core::{metrics, par, sanitizer};

use crate::util::{self, fastest, ms, Fnv};
use crate::{finish_trace, phase_open, probes, spans, Args, Outcome, Timings};

/// Shards the fleet is partitioned into (the artifact's count).
pub const SHARDS: usize = 8;

/// `core::par` workers for the timed runs. The pooled barrier's wall
/// time is dominated by thread wake-ups, which on a shared virtual
/// machine vary several-fold from run to run; one worker runs the same
/// rounds inline and measures the shard engine itself. The traced run
/// adds one run at `nproc` workers (`fleet.nproc_run_ms`).
pub const TIMED_WORKERS: usize = 1;

/// Set-ups per iteration; set-up is a few milliseconds, so one sample per
/// iteration would be mostly noise.
pub const SETUP_REPEATS: usize = 10;

/// `paper_scale` is divided by this: arrival rates and every site's
/// capacity, so hot sites still fill their admission envelopes at the
/// same simulated time, over the same map, shards, horizon and lifetimes.
/// At full scale the fastest of a phase's dozen 1.5 s runs could not
/// track the host's fastest moments; a fifth-scale run takes about 0.3 s,
/// so a phase times about sixty (see [`util::host_speed`]).
pub const SCALE_DOWN: f64 = 5.0;

pub fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::paper_scale(seed);
    cfg.base_arrival_hz /= SCALE_DOWN;
    cfg.capacity.max_sessions = (cfg.capacity.max_sessions as f64 / SCALE_DOWN) as u32;
    cfg.capacity.max_participants = (cfg.capacity.max_participants as f64 / SCALE_DOWN) as u32;
    cfg
}

/// Work done by one fleet run; must repeat exactly for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub rounds: u64,
    pub xsite_msgs: u64,
    pub arrivals: u64,
    pub rejected: u64,
}

pub struct FleetRun {
    pub digest: u64,
    pub counts: Counts,
    pub problems: Vec<String>,
    /// Every set-up of the shard worlds (see [`SETUP_REPEATS`]), and the
    /// reference kernel's time just before them.
    pub setup: Vec<Duration>,
    pub setup_kernel_ns: f64,
    pub wall: Duration,
    pub cpu_s: f64,
    pub sim_s: f64,
}

/// Digest every per-site report and check that each site accounted for
/// every arrival.
fn digest(out: &FleetOutcome, problems: &mut Vec<String>) -> (u64, Counts) {
    let mut h = Fnv::default();
    let mut counts = Counts {
        rounds: out.rounds,
        xsite_msgs: out.messages,
        ..Counts::default()
    };
    h.u64(out.rounds);
    h.u64(out.messages);
    for s in &out.sites {
        h.bytes(s.label.as_bytes());
        for v in [
            s.arrivals,
            s.admitted_sessions,
            s.rejected_sessions,
            s.admitted_participants,
            s.rejected_participants,
            s.departed_sessions,
            s.admitted_in_window,
            s.peak_sessions as u64,
            s.peak_participants as u64,
        ] {
            h.u64(v);
        }
        s.join_samples.iter().for_each(|&x| h.f64(x));
        for &(t, sessions, participants) in &s.samples {
            h.u64(t);
            h.u64(sessions as u64);
            h.u64(participants as u64);
        }
        counts.arrivals += s.arrivals;
        counts.rejected += s.rejected_sessions;
        if s.arrivals != s.admitted_sessions + s.rejected_sessions {
            problems.push(format!(
                "site {}: {} arrivals != {} admitted + {} rejected",
                s.label, s.arrivals, s.admitted_sessions, s.rejected_sessions
            ));
        }
    }
    (h.finish(), counts)
}

/// Set up, run and read out the fleet once.
pub fn run_once(cfg: &FleetConfig, iteration: u32) -> Result<FleetRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut empty = cfg.clone();
        empty.duration = SimDuration::ZERO;
        let setup_kernel_ns = util::kernel_now_ns();
        let setup = (0..SETUP_REPEATS)
            .map(|_| {
                let setup_t0 = Instant::now();
                let _s = spans::open("setup", 0, iteration);
                std::hint::black_box(run_fleet(&empty, SHARDS));
                setup_t0.elapsed()
            })
            .collect();

        let run_span = spans::open("run", 0, iteration);
        let cpu0 = util::thread_cpu_s();
        let t0 = Instant::now();
        let out = {
            let _f = spans::open("fleet.run", run_span.id(), iteration);
            run_fleet(cfg, SHARDS)
        };
        let wall = t0.elapsed();
        // One worker runs the rounds inline, on this thread.
        let cpu_s = util::thread_cpu_s() - cpu0;
        drop(run_span);

        let mut problems = Vec::new();
        let (mut digest, counts) = digest(&out, &mut problems);
        let text = format!(
            "{}",
            Fleet {
                outcome: out,
                floors: (0, 0),
            }
        );
        let mut h = Fnv::default();
        h.u64(digest);
        h.bytes(text.as_bytes());
        digest = h.finish();
        FleetRun {
            digest,
            counts,
            problems,
            setup,
            setup_kernel_ns,
            wall,
            cpu_s,
            sim_s: cfg.duration.as_secs_f64(),
        }
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Everything one phase (untraced or traced) saw.
#[derive(Default)]
struct Phase {
    t: Timings,
    /// Per completed run: wall and CPU time of `run_fleet`.
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    counts: Option<Counts>,
}

impl Phase {
    /// The end-to-end figures from the fastest run, scaled by the host's
    /// speed (see [`crate::Timings`]).
    fn figures(&mut self, sim_s: f64) {
        let host = util::host_speed(&self.t.kernel_ns);
        self.t.sim_x = sim_s / fastest(&self.wall_s) * host;
        self.t.serve_x = sim_s / fastest(&self.cpu_s).max(1e-3) * host;
    }
}

/// Run the fleet until the phase's time is up; every run must reproduce
/// `reference`, the first run's digest. The traced phase turns the
/// registry and the sanitizer (shard causality, participant
/// conservation) on.
fn phase(
    cfg: &FleetConfig,
    seconds: f64,
    traced: bool,
    reference: &mut Option<u64>,
    out: &mut Outcome,
) -> Phase {
    spans::set_enabled(traced);
    metrics::force(Some(traced));
    metrics::reset();
    sanitizer::force(Some(traced));
    sanitizer::reset();
    let mut ph = Phase::default();
    let t0 = Instant::now();
    while phase_open(t0, seconds, ph.t.iterations) {
        let run = run_once(cfg, ph.t.iterations as u32);
        ph.t.iterations += 1;
        out.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(msg) => {
                out.failed += 1;
                out.problem(format!("fleet run panicked: {msg}"));
                continue;
            }
        };
        ph.t.setup_s.extend(
            run.setup
                .iter()
                .map(|d| util::on_reference_host(d.as_secs_f64(), run.setup_kernel_ns)),
        );
        ph.t.wall_sim_x.push(run.sim_s / run.wall.as_secs_f64());
        ph.wall_s.push(run.wall.as_secs_f64());
        ph.cpu_s.push(run.cpu_s);
        // One kernel run between fleet runs, which take about 0.3 s.
        ph.t.kernel_ns.push(util::kernel_ns());
        let mut bad = !run.problems.is_empty();
        run.problems.iter().for_each(|e| out.problem(e.clone()));
        if *reference.get_or_insert(run.digest) != run.digest {
            out.problem(format!(
                "fleet digest {:016x} differs from the first run's",
                run.digest
            ));
            bad = true;
        }
        if *ph.counts.get_or_insert(run.counts) != run.counts {
            out.problem(format!("fleet work counts changed: {:?}", run.counts));
            bad = true;
        }
        if traced {
            // The registry's barrier counters must agree with the outcome;
            // each zero-horizon set-up run may add one round.
            let rounds = metrics::counter_value("shard/barrier_rounds").unwrap_or(0);
            let msgs = metrics::counter_value("shard/xsite_msgs").unwrap_or(0);
            let setup_rounds = rounds.saturating_sub(run.counts.rounds);
            if msgs != run.counts.xsite_msgs || setup_rounds > SETUP_REPEATS as u64 {
                out.problem(format!(
                    "registry saw {rounds} rounds / {msgs} messages, outcome {:?}",
                    run.counts
                ));
                bad = true;
            }
            metrics::reset();
            if sanitizer::total() > 0 {
                for v in sanitizer::take() {
                    out.problem(format!("sanitizer: {v}"));
                }
                sanitizer::reset();
                bad = true;
            }
        }
        out.failed += bad as u64;
    }
    spans::set_enabled(false);
    metrics::force(Some(false));
    sanitizer::force(Some(false));
    ph
}

/// Run `global_fleet`.
pub fn run(args: &Args) -> Outcome {
    let cfg = config(args.seed);
    let workers = TIMED_WORKERS;
    par::set_threads(Some(workers));
    let mut out = Outcome::default();
    out.provenance.push(("fleet_shards", SHARDS.to_string()));
    out.provenance
        .push(("fleet_scale_down", SCALE_DOWN.to_string()));
    out.provenance.push(("fleet_workers", workers.to_string()));
    out.provenance
        .push(("fleet_secs", cfg.duration.as_secs_f64().to_string()));

    let sim_s = cfg.duration.as_secs_f64();
    let mut reference = None;
    let mut plain = phase(&cfg, args.seconds, false, &mut reference, &mut out);
    plain.figures(sim_s);
    out.digest = reference.unwrap_or(0);
    if !args.trace {
        plain.t.report(&mut out);
        return out;
    }
    let mut traced = phase(&cfg, args.seconds, true, &mut reference, &mut out);
    traced.figures(sim_s);
    let mut all_spans = spans::take();
    let counts = traced.counts.unwrap_or_default();

    // The pooled barrier path: one more run at `nproc` workers, which must
    // reproduce the digest, and the barrier alone at the same count.
    let probe_t0 = Instant::now();
    let nproc = util::nproc();
    par::set_threads(Some(nproc));
    out.attempted += 1;
    let pooled_ms = match run_once(&cfg, 0) {
        Ok(run) => {
            if Some(run.digest) != reference {
                out.failed += 1;
                out.problem(format!(
                    "fleet digest at {nproc} workers differs from the one at {workers}"
                ));
            }
            ms(run.wall)
        }
        Err(msg) => {
            out.failed += 1;
            out.problem(format!("fleet run at {nproc} workers panicked: {msg}"));
            0.0
        }
    };
    spans::set_enabled(true);
    let idle_round_us = {
        let p = spans::open("probes", 0, 0);
        probes::idle_round_us(SHARDS, p.id())
    };
    spans::set_enabled(false);
    par::set_threads(Some(workers));
    let probe_s = probe_t0.elapsed().as_secs_f64();

    let wall_us = fastest(&traced.wall_s) * 1e6;
    out.set("shard.rounds", counts.rounds as f64);
    out.set("shard.xsite_msgs", counts.xsite_msgs as f64);
    out.set("shard.idle_round_us", idle_round_us);
    out.set(
        "shard.sync_share",
        counts.rounds as f64 * idle_round_us / (pooled_ms * 1e3).max(1.0),
    );
    out.set("fleet.nproc_run_ms", pooled_ms);
    out.set("fleet.arrivals", counts.arrivals as f64);
    out.set("fleet.rejected", counts.rejected as f64);
    out.set("fleet.round_us", wall_us / counts.rounds.max(1) as f64);
    out.set("bench.trace_overhead", plain.t.sim_x / traced.t.sim_x - 1.0);
    plain.t.report_raw(&mut out);
    all_spans.extend(spans::take());
    finish_trace(
        args,
        &mut out,
        all_spans,
        plain.t.iterations,
        traced.t.iterations,
        probe_s,
    );
    out
}
