//! The session workloads, `spatial_party` and `video_sfu`: closed-loop
//! batches of whole calls, one `core::par` cell per call.
//!
//! One iteration builds every call's `SessionSim` (set-up), then steps all
//! of them to the end on the `par_map` workers, finishes them, and reads
//! every participant's AP capture back through `CaptureAnalysis`. The run
//! repeats iterations until its time is up; every iteration runs the same
//! inputs, so each call's digest and work counts must repeat exactly, and
//! each tick's fastest time over the iterations is its cost (see
//! [`crate::Timings`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use visionsim::capture::analysis::CaptureAnalysis;
use visionsim::core::par::{derive_seed, par_map};
use visionsim::core::time::SimDuration;
use visionsim::device::device::DeviceKind;
use visionsim::geo::cities;
use visionsim::geo::sites::Provider;
use visionsim::vca::profile::PersonaType;
use visionsim::vca::session::{ParticipantSpec, SessionConfig, SessionSim};

use visionsim::core::{metrics, par, sanitizer};

use crate::util::{self, mean, percentile, Fnv};
use crate::{finish_trace, phase_open, probes, spans, Args, Outcome, Timings, Workload};

/// Simulated length of each spatial call: long enough to leave the join
/// transient, short enough that the seven rosters finish several times
/// in one run.
pub const SPATIAL_SECS: u64 = 2;
/// Simulated length of each 2D call.
pub const VIDEO_SECS: u64 = 12;
/// Participants in each 2D call.
pub const VIDEO_PARTIES: usize = 8;

/// The calls of `spatial_party`: all-Vision-Pro FaceTime at rosters 2
/// through 8 on clean links, in ascending order (the order `figure6` and
/// `extensions` submit them).
pub fn spatial_party(seed: u64) -> Vec<SessionConfig> {
    let vantages = cities::us_vantages();
    (2..=8usize)
        .map(|users| {
            let mut cfg = SessionConfig::facetime_avp(
                users,
                &vantages,
                derive_seed(seed, "spatial_party", users as u64),
            );
            cfg.duration = SimDuration::from_secs(SPATIAL_SECS);
            cfg
        })
        .collect()
}

/// The calls of `video_sfu`: 8-party 2D calls through an SFU on clean
/// links for Zoom, Webex, Teams and FaceTime, each with one Vision Pro
/// and seven MacBooks (a MacBook in the call makes FaceTime fall back to
/// 2D personas).
pub fn video_sfu(seed: u64) -> Vec<SessionConfig> {
    let vantages = cities::us_vantages();
    [
        Provider::Zoom,
        Provider::Webex,
        Provider::Teams,
        Provider::FaceTime,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, provider)| {
        let mut cfg = SessionConfig::facetime_avp(
            VIDEO_PARTIES,
            &vantages,
            derive_seed(seed, "video_sfu", i as u64),
        );
        cfg.provider = provider;
        cfg.participants = (0..VIDEO_PARTIES)
            .map(|p| ParticipantSpec {
                name: format!("U{}", p + 1),
                device: if p == 0 {
                    DeviceKind::VisionPro
                } else {
                    DeviceKind::MacBook
                },
                city: vantages[p % vantages.len()],
            })
            .collect();
        cfg.duration = SimDuration::from_secs(VIDEO_SECS);
        cfg
    })
    .collect()
}

/// Work done by one call, by layer. Every field must repeat exactly for
/// a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ticks: u64,
    pub frames_encoded: u64,
    pub frames_decoded: u64,
    pub tap_records: u64,
    pub render_frames: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.ticks += o.ticks;
        self.frames_encoded += o.frames_encoded;
        self.frames_decoded += o.frames_decoded;
        self.tap_records += o.tap_records;
        self.render_frames += o.render_frames;
    }
}

/// One call's result.
pub struct CallOut {
    pub digest: u64,
    pub counts: Counts,
    /// Output checks that failed, if any.
    pub problems: Vec<String>,
    /// Wall time of every `step_tick`, in order, of `finish`, and of the
    /// capture read-out and checks, in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// The reference kernel's runs between ticks, in ns.
    pub kernel_ns: Vec<f64>,
    pub finish_ns: u64,
    pub readout_ns: u64,
    pub sim_s: f64,
}

/// One iteration's result.
pub struct IterOut {
    /// Every set-up of the iteration's worlds (see [`SETUP_REPEATS`]),
    /// and the reference kernel's time just before them.
    pub setup: Vec<Duration>,
    pub setup_kernel_ns: f64,
    pub wall: Duration,
    /// Per call, in submission order; `Err` holds a panic message.
    pub calls: Vec<Result<CallOut, String>>,
}

impl IterOut {
    pub fn sim_s(&self) -> f64 {
        self.calls.iter().flatten().map(|c| c.sim_s).sum()
    }

    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for c in self.calls.iter().flatten() {
            total.add(&c.counts);
        }
        total
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Times each iteration builds its worlds; the last build is the one
/// that runs. Set-up takes well under a millisecond, so one sample per
/// iteration would be mostly timer and cache noise.
pub const SETUP_REPEATS: usize = 10;

/// Build, run and read out every call once.
pub fn run_iteration(cfgs: &[SessionConfig], iteration: u32) -> IterOut {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut sims = Vec::with_capacity(cfgs.len());
    let setup_kernel_ns = util::kernel_now_ns();
    for _ in 0..SETUP_REPEATS {
        sims.clear();
        let setup_t0 = Instant::now();
        let setup_span = spans::open("setup", 0, iteration);
        for (i, cfg) in cfgs.iter().enumerate() {
            let _s = spans::open("vca.new", setup_span.id(), i as u32);
            sims.push((i, SessionSim::new(cfg.clone())));
        }
        drop(setup_span);
        setup.push(setup_t0.elapsed());
    }

    // `SessionConfig` is not `Sync`; each cell gets the plain facts its
    // checks need.
    let shapes: Vec<CallShape> = cfgs.iter().map(CallShape::of).collect();
    let run_span = spans::open("run", 0, iteration);
    let run_id = run_span.id();
    let t0 = Instant::now();
    let calls = par_map(sims, |(i, sim)| {
        let shape = &shapes[i];
        catch_unwind(AssertUnwindSafe(|| run_call(shape, sim, i as u32, run_id)))
            .map_err(panic_message)
    });
    let wall = t0.elapsed();
    drop(run_span);
    IterOut {
        setup,
        setup_kernel_ns,
        wall,
        calls,
    }
}

/// What a call's output checks need to know about its configuration.
struct CallShape {
    participants: usize,
    all_vision_pro: bool,
    sim_s: f64,
}

impl CallShape {
    fn of(cfg: &SessionConfig) -> CallShape {
        CallShape {
            participants: cfg.participants.len(),
            all_vision_pro: cfg
                .participants
                .iter()
                .all(|p| p.device == DeviceKind::VisionPro),
            sim_s: cfg.duration.as_secs_f64(),
        }
    }
}

fn run_call(shape: &CallShape, mut sim: SessionSim, cell: u32, parent: u32) -> CallOut {
    let cell_span = spans::open("par.cell", parent, cell);
    let cell_id = cell_span.id();
    let mut tick_ns = Vec::new();
    let mut kernel = util::KernelSampler::new();
    while !sim.done() {
        {
            let _t = spans::open("vca.tick", cell_id, cell);
            let t = Instant::now();
            sim.step_tick();
            tick_ns.push(t.elapsed().as_nanos() as u64);
        }
        kernel.between();
    }
    let finish_t0 = Instant::now();
    let out = {
        let _f = spans::open("vca.finish", cell_id, cell);
        sim.finish()
    };
    let finish_ns = finish_t0.elapsed().as_nanos() as u64;

    let readout_t0 = Instant::now();
    let mut h = Fnv::default();
    let mut problems = Vec::new();
    let n = shape.participants;
    h.u64(n as u64);
    h.u64(out.persona_type as u64);
    h.u64(out.topology as u64);
    let mut counts = Counts {
        ticks: tick_ns.len() as u64,
        frames_encoded: out.semantic_frame_sizes.len() as u64,
        ..Counts::default()
    };
    h.u64(counts.frames_encoded);
    h.u64(out.semantic_frame_sizes.iter().map(|&s| s as u64).sum());
    {
        let _c = spans::open("capture.analysis", cell_id, cell);
        for p in 0..n {
            let taps = &out.taps[p];
            counts.tap_records += taps.len() as u64;
            h.u64(taps.len() as u64);
            h.u64(taps.iter().map(|r| r.wire_size.as_bytes()).sum());
            let analysis = CaptureAnalysis::new(taps.iter(), out.client_addrs[p]);
            let down = analysis.downlink_per_second_mbps();
            let up = analysis.uplink_per_second_mbps();
            down.iter().chain(up.iter()).for_each(|&x| h.f64(x));
            if down.iter().sum::<f64>() <= 0.0 || up.iter().sum::<f64>() <= 0.0 {
                problems.push(format!("participant {p} captured no two-way media"));
            }
        }
    }
    for p in 0..n {
        let decoded = out.e2e_latency_ms[p].count() as u64;
        counts.frames_decoded += decoded;
        h.u64(decoded);
        h.f64(out.e2e_latency_ms[p].mean());
        let c = &out.counters[p];
        counts.render_frames += c.frame_count() as u64;
        h.u64(c.frame_count() as u64);
        h.u64(c.frames().iter().map(|f| f.triangles as u64).sum());
        h.u64(c.frames().iter().filter(|f| f.missed).count() as u64);
    }
    h.u64(counts.frames_decoded);
    h.u64(counts.render_frames);

    if shape.all_vision_pro {
        if out.persona_type != PersonaType::Spatial {
            problems.push("all-Vision-Pro call did not deliver spatial personas".into());
        }
        // On clean links every receiver decodes nearly every frame each
        // other participant encodes; the tail still in flight at the end
        // is the only loss.
        let expected = counts.frames_encoded * (n as u64 - 1);
        if counts.frames_decoded * 10 < expected * 9 || counts.frames_decoded > expected {
            problems.push(format!(
                "decoded {} of {} expected keypoint frames",
                counts.frames_decoded, expected
            ));
        }
        if counts.render_frames == 0 {
            problems.push("no frames rendered".into());
        }
    } else if out.persona_type != PersonaType::TwoD || counts.frames_encoded != 0 {
        problems.push("a call with MacBooks did not run 2D without the semantic codec".into());
    }
    let readout_ns = readout_t0.elapsed().as_nanos() as u64;
    drop(cell_span);
    CallOut {
        digest: h.finish(),
        counts,
        problems,
        tick_ns,
        kernel_ns: kernel.samples,
        finish_ns,
        readout_ns,
        sim_s: shape.sim_s,
    }
}

/// One call's fastest observed time for each of its parts, over a
/// phase's iterations.
#[derive(Clone)]
struct Best {
    tick_ns: Vec<u64>,
    finish_ns: u64,
    readout_ns: u64,
}

impl Best {
    fn of(c: &CallOut) -> Best {
        Best {
            tick_ns: c.tick_ns.clone(),
            finish_ns: c.finish_ns,
            readout_ns: c.readout_ns,
        }
    }

    fn update(&mut self, c: &CallOut) {
        for (best, &t) in self.tick_ns.iter_mut().zip(&c.tick_ns) {
            *best = (*best).min(t);
        }
        self.finish_ns = self.finish_ns.min(c.finish_ns);
        self.readout_ns = self.readout_ns.min(c.readout_ns);
    }

    /// The call's cost on its worker, read-out included, in ms.
    fn cost_ms(&self) -> f64 {
        (self.tick_ns.iter().sum::<u64>() + self.finish_ns + self.readout_ns) as f64 / 1e6
    }
}

/// How long `workers` threads take to run calls of these costs in
/// submission order, each call going to the first free worker, as
/// `par_map` hands them out.
fn makespan(costs: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.clamp(1, costs.len().max(1))];
    for &c in costs {
        let w = (0..free.len())
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .expect("at least one worker");
        free[w] += c;
    }
    free.into_iter().fold(0.0, f64::max)
}

/// Registry counters a traced iteration reads, then zeroes.
#[derive(Clone, Copy, Debug, Default)]
struct NetCounts {
    packets_sent: u64,
    bytes_sent: u64,
    dup_bytes: u64,
    bytes_exited: u64,
    in_flight_bytes: i64,
    packets_dropped: u64,
    queue_dropped_bytes: u64,
    batch_drains: u64,
    batch_members: u64,
    batch_runs: u64,
}

impl NetCounts {
    fn read_and_reset() -> NetCounts {
        let c = |name| metrics::counter_value(name).unwrap_or(0);
        let batch = metrics::histogram("net/batch_size", metrics::Class::Sim);
        let counts = NetCounts {
            packets_sent: c("net/link_packets_sent"),
            bytes_sent: c("net/link_bytes_sent"),
            dup_bytes: c("net/link_dup_bytes"),
            bytes_exited: c("net/link_bytes_exited"),
            in_flight_bytes: metrics::gauge_value("net/in_flight_bytes").unwrap_or(0),
            packets_dropped: c("net/packets_dropped"),
            queue_dropped_bytes: c("net/queue_dropped_bytes"),
            batch_drains: c("net/batch_drains"),
            batch_members: batch.sum(),
            batch_runs: batch.count(),
        };
        metrics::reset();
        counts
    }

    /// The counts that must repeat exactly for a seed. How the batched
    /// drain loop groups the same packets into drains and runs
    /// (`batch_drains`, `batch_runs`) is left out: on `video_sfu` it
    /// differs by a few hundredths of a percent between repeats of one
    /// seed while every delivery, byte and output stays identical.
    fn work(&self) -> [u64; 6] {
        [
            self.packets_sent,
            self.bytes_sent,
            self.dup_bytes,
            self.bytes_exited,
            self.packets_dropped,
            self.queue_dropped_bytes,
        ]
    }

    /// Every byte a link accepted has exited it or is still in flight.
    fn conserved(&self) -> bool {
        self.bytes_sent + self.dup_bytes == self.bytes_exited + self.in_flight_bytes.max(0) as u64
    }
}

/// Everything one phase (untraced or traced) saw.
#[derive(Default)]
struct Phase {
    t: Timings,
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    counts: Option<Counts>,
    net: Option<NetCounts>,
    /// Simulated seconds of one iteration, summed over its calls.
    sim_s: f64,
    /// Per call, in submission order; `None` until the call completes.
    best: Vec<Option<Best>>,
}

impl Phase {
    /// The end-to-end figures from each call's fastest parts, with the
    /// calls replayed on `workers` in submission order.
    fn figures(&mut self, workers: usize) {
        let costs: Vec<f64> = self.best.iter().flatten().map(Best::cost_ms).collect();
        let makespan_s = makespan(&costs, workers) / 1e3;
        let host = util::host_speed(&self.t.kernel_ns);
        self.t.sim_x = self.sim_s / makespan_s.max(1e-9) * host;
        self.t.serve_x = self.sim_s / (costs.iter().sum::<f64>() / 1e3).max(1e-9) * host;
    }
}

/// Compare one iteration's per-call digests with `reference`, the first
/// iteration's; returns how many differ.
fn check_digests(digests: &[u64], reference: &[u64], what: &str, out: &mut Outcome) -> u64 {
    let mut bad = 0;
    for (i, (got, want)) in digests.iter().zip(reference).enumerate() {
        if got != want {
            bad += 1;
            out.problem(format!(
                "call {i}: digest {got:016x}{what} != first run's {want:016x}"
            ));
        }
    }
    bad
}

/// Run iterations until the phase's time is up. `reference` holds each
/// call's digest from the first iteration of the run; every later one,
/// traced or not, must match it. The traced phase turns the registry and
/// the sanitizer on and checks net byte conservation after every
/// iteration.
fn phase(
    cfgs: &[SessionConfig],
    seconds: f64,
    traced: bool,
    reference: &mut Option<Vec<u64>>,
    out: &mut Outcome,
) -> Phase {
    spans::set_enabled(traced);
    metrics::force(Some(traced));
    metrics::reset();
    sanitizer::force(Some(traced));
    sanitizer::reset();
    let mut ph = Phase {
        best: vec![None; cfgs.len()],
        ..Phase::default()
    };
    let t0 = Instant::now();
    while phase_open(t0, seconds, ph.t.iterations) {
        let it = run_iteration(cfgs, ph.t.iterations as u32);
        ph.t.iterations += 1;
        ph.t.setup_s.extend(
            it.setup
                .iter()
                .map(|d| util::on_reference_host(d.as_secs_f64(), it.setup_kernel_ns)),
        );
        ph.sim_s = it.sim_s();
        ph.t.wall_sim_x.push(it.sim_s() / it.wall.as_secs_f64());
        let mut digests = Vec::with_capacity(it.calls.len());
        for (i, call) in it.calls.iter().enumerate() {
            ph.attempted += 1;
            match call {
                Ok(c) => {
                    ph.t.kernel_ns.extend_from_slice(&c.kernel_ns);
                    match &mut ph.best[i] {
                        Some(b) => b.update(c),
                        slot => *slot = Some(Best::of(c)),
                    }
                    digests.push(c.digest);
                    if !c.problems.is_empty() {
                        ph.failed += 1;
                        c.problems
                            .iter()
                            .for_each(|p| out.problem(format!("call {i}: {p}")));
                    }
                }
                Err(msg) => {
                    ph.failed += 1;
                    digests.push(0);
                    out.problem(format!("call {i} panicked: {msg}"));
                }
            }
        }
        match reference {
            None => *reference = Some(digests.clone()),
            Some(want) => ph.failed += check_digests(&digests, want, "", out),
        }
        let mut h = Fnv::default();
        digests.iter().for_each(|&d| h.u64(d));
        ph.digest.get_or_insert(h.finish());

        let counts = it.counts();
        if *ph.counts.get_or_insert(counts) != counts {
            out.problem(format!(
                "work counts changed between iterations: {counts:?}"
            ));
            ph.failed += 1;
        }
        if traced {
            let net = NetCounts::read_and_reset();
            if !net.conserved() {
                out.problem(format!("net bytes not conserved: {net:?}"));
                ph.failed += 1;
            }
            if ph.net.get_or_insert(net).work() != net.work() {
                out.problem(format!("net counts changed between iterations: {net:?}"));
                ph.failed += 1;
            }
            if sanitizer::total() > 0 {
                for v in sanitizer::take() {
                    out.problem(format!("sanitizer: {v}"));
                }
                sanitizer::reset();
                ph.failed += 1;
            }
        }
    }
    spans::set_enabled(false);
    metrics::force(Some(false));
    sanitizer::force(Some(false));
    ph
}

/// Run `spatial_party` or `video_sfu` on `nproc` workers.
pub fn run(args: &Args) -> Outcome {
    let workers = util::nproc();
    par::set_threads(Some(workers));
    let cfgs = match args.workload {
        Workload::SpatialParty => spatial_party(args.seed),
        _ => video_sfu(args.seed),
    };
    let mut out = Outcome::default();
    out.provenance.push(("calls", cfgs.len().to_string()));
    out.provenance.push((
        "call_secs",
        cfgs.iter()
            .map(|c| c.duration.as_secs_f64().to_string())
            .collect::<Vec<_>>()
            .join("/"),
    ));
    let mut reference = None;
    let mut plain = phase(&cfgs, args.seconds, false, &mut reference, &mut out);
    plain.figures(workers);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.digest = plain.digest.unwrap_or(0);
    if !args.trace {
        plain.t.report(&mut out);
        return out;
    }

    let mut traced = phase(&cfgs, args.seconds, true, &mut reference, &mut out);
    traced.figures(workers);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    if traced.digest != plain.digest {
        out.problem("traced digest differs from the untraced one".into());
    }
    let mut all_spans = spans::take();

    // The same calls on one worker must give the same outputs.
    par::set_threads(Some(1));
    let single = run_iteration(&cfgs, 0);
    par::set_threads(Some(workers));
    let digests: Vec<u64> = single
        .calls
        .iter()
        .map(|c| c.as_ref().map_or(0, |c| c.digest))
        .collect();
    out.attempted += digests.len() as u64;
    out.failed += check_digests(
        &digests,
        reference.as_deref().unwrap_or_default(),
        " at 1 worker",
        &mut out,
    );
    let durations = |spans: &[spans::Span], name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let ticks_ns = durations(&all_spans, "vca.tick");
    let tick_ns_per_iteration = ticks_ns.iter().sum::<f64>() / traced.t.iterations as f64;
    let counts = traced.counts.unwrap_or_default();
    let net = traced.net.unwrap_or_default();

    // Cell busy time over worker capacity, per `par_map` call.
    let idle: Vec<f64> = all_spans
        .iter()
        .filter(|s| s.name == "run")
        .map(|run| {
            let busy: u64 = all_spans
                .iter()
                .filter(|s| s.parent == run.id && s.name == "par.cell")
                .map(spans::Span::dur_ns)
                .sum();
            1.0 - busy as f64 / (workers.min(cfgs.len()) as f64 * run.dur_ns() as f64)
        })
        .collect();

    // Probes run only for the layers this workload reached.
    let probe_t0 = Instant::now();
    spans::set_enabled(true);
    let probes_span = spans::open("probes", 0, 0);
    let pid = probes_span.id();
    let media = (counts.frames_encoded > 0).then(|| probes::media(args.seed, pid));
    let rtp_ns =
        (args.workload == Workload::VideoSfu).then(|| probes::rtp_parse_ns(args.seed, pid));
    let hop_ns = probes::hop_ns(args.seed, pid);
    let render_us = (counts.render_frames > 0).then(|| probes::render_frame_us(args.seed, pid));
    drop(probes_span);
    spans::set_enabled(false);
    let probe_s = probe_t0.elapsed().as_secs_f64();

    out.set("par.idle_frac", mean(&idle));
    out.set("vca.new_ms", mean(&durations(&all_spans, "vca.new")) / 1e6);
    out.set("vca.tick_us.p50", percentile(&ticks_ns, 50.0) / 1e3);
    out.set("vca.tick_us.p99", percentile(&ticks_ns, 99.0) / 1e3);
    out.set(
        "vca.finish_ms",
        mean(&durations(&all_spans, "vca.finish")) / 1e6,
    );
    out.set("vca.ticks", counts.ticks as f64);
    out.set(
        "capture.analysis_ms",
        mean(&durations(&all_spans, "capture.analysis")) / 1e6,
    );
    out.set("capture.tap_records", counts.tap_records as f64);
    out.set("semantic.frames_encoded", counts.frames_encoded as f64);
    out.set("semantic.frames_decoded", counts.frames_decoded as f64);
    if let Some(m) = &media {
        out.set("semantic.encode_us", m.encode_us);
        out.set("semantic.decode_us", m.decode_us);
        out.set("compress.compress_us", m.compress_us);
        out.set("compress.decompress_us", m.decompress_us);
        out.set("sensor.capture_us", m.capture_us);
        out.set("transport.quic_send_us", m.quic_send_us);
        out.set("transport.quic_parse_us", m.quic_parse_us);
        let codec_ns = (counts.frames_encoded as f64 * m.encode_us
            + counts.frames_decoded as f64 * m.decode_us)
            * 1e3;
        out.set("semantic.share", codec_ns / tick_ns_per_iteration);
    }
    if let Some(ns) = rtp_ns {
        out.set("transport.rtp_parse_ns", ns);
    }
    out.set("net.packets_sent", net.packets_sent as f64);
    out.set("net.bytes_sent", net.bytes_sent as f64);
    out.set("net.packets_dropped", net.packets_dropped as f64);
    out.set("net.queue_dropped_bytes", net.queue_dropped_bytes as f64);
    out.set("net.batch_drains", net.batch_drains as f64);
    out.set(
        "net.batch_size_mean",
        net.batch_members as f64 / net.batch_runs.max(1) as f64,
    );
    out.set("net.hop_ns", hop_ns);
    out.set(
        "net.share",
        net.packets_sent as f64 * hop_ns / tick_ns_per_iteration,
    );
    out.set("render.frames", counts.render_frames as f64);
    if let Some(us) = render_us {
        out.set("render.frame_us", us);
    }
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

#[cfg(test)]
mod tests {
    use super::makespan;

    #[test]
    fn makespan_hands_calls_to_the_first_free_worker_in_order() {
        assert_eq!(makespan(&[1.0, 2.0, 3.0, 4.0], 2), 6.0);
        assert_eq!(makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(makespan(&[1.0, 2.0], 4), 2.0);
        assert_eq!(makespan(&[1.0, 2.0], 1), 3.0);
    }
}
