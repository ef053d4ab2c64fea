//! visionsim's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <spatial_party|video_sfu|global_fleet|live_serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--serve-bin <path>] [--out <dir>]
//! ```
//!
//! Prints a `provenance` line and a `report` line (digest, failure share,
//! checks), then, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md`.

mod fleet;
mod live;
mod poll;
mod probes;
mod sessions;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use visionsim::core::{metrics, par};

use crate::util::median;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_x", "x"),
    ("serve_x", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload never reaches reads 0.
const LAYERS: [(&str, &str); 58] = [
    ("par.idle_frac", "ratio"),
    ("vca.new_ms", "ms"),
    ("vca.tick_us.p50", "us"),
    ("vca.tick_us.p99", "us"),
    ("vca.finish_ms", "ms"),
    ("vca.ticks", "count"),
    ("capture.analysis_ms", "ms"),
    ("capture.tap_records", "count"),
    ("semantic.frames_encoded", "count"),
    ("semantic.frames_decoded", "count"),
    ("semantic.encode_us", "us"),
    ("semantic.decode_us", "us"),
    ("compress.compress_us", "us"),
    ("compress.decompress_us", "us"),
    ("sensor.capture_us", "us"),
    ("semantic.share", "ratio"),
    ("transport.quic_send_us", "us"),
    ("transport.quic_parse_us", "us"),
    ("transport.rtp_parse_ns", "ns"),
    ("net.packets_sent", "count"),
    ("net.bytes_sent", "bytes"),
    ("net.packets_dropped", "count"),
    ("net.queue_dropped_bytes", "bytes"),
    ("net.batch_drains", "count"),
    ("net.batch_size_mean", "count"),
    ("net.hop_ns", "ns"),
    ("net.share", "ratio"),
    ("render.frames", "count"),
    ("render.frame_us", "us"),
    ("shard.rounds", "count"),
    ("shard.xsite_msgs", "count"),
    ("shard.idle_round_us", "us"),
    ("shard.sync_share", "ratio"),
    ("fleet.arrivals", "count"),
    ("fleet.rejected", "count"),
    ("fleet.round_us", "us"),
    ("fleet.nproc_run_ms", "ms"),
    ("service.main_cpu_s", "s"),
    ("service.http_cpu_s", "s"),
    ("service.cpu_us_per_scrape", "us"),
    ("service.lag_ms.p50", "ms"),
    ("service.lag_ms.max", "ms"),
    ("service.scrape_bytes", "bytes"),
    ("service.scrape_ms.p50", "ms"),
    ("service.scrape_ms.p90", "ms"),
    ("ctl.ms.p50", "ms"),
    ("ctl.ms.p99", "ms"),
    ("ctl.read_ms.p50", "ms"),
    ("ctl.write_ms.p50", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.iterations", "count"),
    ("bench.traced_iterations", "count"),
    ("bench.probe_s", "s"),
    ("bench.spans", "count"),
    ("bench.setup_cold_s", "s"),
    ("bench.wall_sim_x", "x"),
    ("bench.kernel_us", "us"),
];

/// Iterations every batch phase runs at least, whatever `--seconds` says:
/// set-up time and the per-iteration throughput are medians over them.
const MIN_ITERATIONS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpatialParty,
    VideoSfu,
    GlobalFleet,
    LiveServe,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "spatial_party" => Workload::SpatialParty,
            "video_sfu" => Workload::VideoSfu,
            "global_fleet" => Workload::GlobalFleet,
            "live_serve" => Workload::LiveServe,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpatialParty => "spatial_party",
            Workload::VideoSfu => "video_sfu",
            Workload::GlobalFleet => "global_fleet",
            Workload::LiveServe => "live_serve",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <spatial_party|video_sfu|global_fleet|live_serve> \
         --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>] [--out <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag:?}"));
        };
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).map(String::as_str);
    let workload = get("workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage("missing or unknown --workload"));
    let seed = get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("missing or bad --seed"));
    let seconds: f64 = get("seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .unwrap_or_else(|| usage("missing or bad --seconds"));
    let trace = match get("trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => usage(&format!("bad --trace {other:?}")),
    };
    for key in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "serve-bin", "out"].contains(&key.as_str()) {
            usage(&format!("unknown flag --{key}"));
        }
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin: get("serve-bin").map(PathBuf::from),
        out_dir: PathBuf::from(get("out").unwrap_or("perfbench/out")),
    }
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and validity problems, one line each.
    pub problems: Vec<String>,
    pub digest: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific provenance (speeds, shard counts, sizes).
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn problem(&mut self, p: String) {
        if self.problems.len() < 32 {
            self.problems.push(p);
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    metrics::force(Some(false));

    let out = match args.workload {
        Workload::SpatialParty | Workload::VideoSfu => sessions::run(&args),
        Workload::GlobalFleet => fleet::run(&args),
        Workload::LiveServe => live::run(&args),
    };

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut prov: Vec<(&str, String)> = vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", util::nproc().to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("par_threads", par::threads().to_string()),
        ("git_commit", env("PERFBENCH_GIT_COMMIT")),
        ("source_sha256", env("PERFBENCH_SOURCE_SHA256")),
        ("rustc", env("PERFBENCH_RUSTC")),
    ];
    prov.extend(out.provenance.iter().map(|(k, v)| (*k, v.clone())));
    let prov_json: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("provenance {{{}}}", prov_json.join(","));

    let names: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    let mut problems = out.problems.clone();
    let mut entries = Vec::new();
    for &(name, unit) in names {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            problems.push(format!("metric {name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        entries.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let attempted = out.attempted.max(1);
    let correct = problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let err_frac = out.failed as f64 / attempted as f64;
    let problems_json: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    println!(
        "report {{\"workload\":{},\"seed\":{},\"digest\":\"{:016x}\",\"err_frac\":{err_frac},\"attempted\":{},\"failed\":{},\"problems\":[{}]}}",
        json_str(args.workload.name()),
        args.seed,
        out.digest,
        out.attempted,
        out.failed,
        problems_json.join(",")
    );
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed,
        entries.join(",")
    );
}

/// Whether a phase that started at `t0` and lasts `seconds` runs another
/// iteration.
pub fn phase_open(t0: Instant, seconds: f64, iterations: usize) -> bool {
    iterations < MIN_ITERATIONS || t0.elapsed() < Duration::from_secs_f64(seconds)
}

/// End-to-end figures of one batch phase.
///
/// The host's speed swings by a third within seconds and by up to half
/// for minutes at a time (neighbours on the same physical core), so a
/// figure averaged over wall time moves with the host. Every iteration
/// repeats the same work, so each workload keeps the fastest time it saw
/// for each repeated piece of work (a tick, a read-out, a fleet run) and
/// builds its figures from those; that leaves out the slow moments of a
/// phase, but not a phase that is slow throughout. So the figures are
/// also multiplied by [`util::host_speed`]: the reference kernel's
/// fastest time in the same phase, which moves with the host's fastest
/// moments in the same way. Set-up time is the median of every set-up,
/// each scaled by the kernel's time just before it.
#[derive(Default)]
pub struct Timings {
    pub iterations: usize,
    /// Every set-up of the phase, in order, on the reference host; the
    /// first of the process includes first-use lazies.
    pub setup_s: Vec<f64>,
    /// Simulated seconds per wall second of each iteration, as measured.
    pub wall_sim_x: Vec<f64>,
    /// Every timed run of the reference kernel in the phase, in ns.
    pub kernel_ns: Vec<f64>,
    pub sim_x: f64,
    pub serve_x: f64,
}

impl Timings {
    /// Set every end-to-end metric of a batch workload.
    pub fn report(&self, out: &mut Outcome) {
        out.set("setup_s", median(&self.setup_s));
        out.set("sim_x", self.sim_x);
        out.set("serve_x", self.serve_x);
        out.set("peak_rss_mb", util::peak_rss_mb("self").unwrap_or(0.0));
    }

    /// Per-layer bookkeeping of a traced batch run: the process's first
    /// set-up, the wall-clock throughput as measured, and the reference
    /// kernel's fastest time.
    pub fn report_raw(&self, out: &mut Outcome) {
        out.set("bench.kernel_us", util::fastest(&self.kernel_ns) / 1e3);
        out.set(
            "bench.setup_cold_s",
            self.setup_s.first().copied().unwrap_or(0.0),
        );
        out.set("bench.wall_sim_x", median(&self.wall_sim_x));
    }
}

/// Common tail of every traced run: bookkeeping metrics, the span file,
/// and the self-time table.
pub fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    spans_all: Vec<spans::Span>,
    plain_iterations: usize,
    traced_iterations: usize,
    probe_s: f64,
) {
    out.set("bench.iterations", plain_iterations as f64);
    out.set("bench.traced_iterations", traced_iterations as f64);
    out.set("bench.probe_s", probe_s);
    out.set("bench.spans", spans_all.len() as f64);
    let path = args.out_dir.join(format!(
        "{}.seed{}.spans.tsv",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = spans::write_tsv(&path, &spans_all) {
        out.problem(format!("writing {}: {e}", path.display()));
    }
    let table: Vec<String> = spans::self_times(&spans_all)
        .iter()
        .map(|(name, t)| {
            format!(
                "{}:{{\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
                json_str(name),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )
        })
        .collect();
    println!(
        "spans {{\"file\":{},\"self_time\":{{{}}}}}",
        json_str(&path.display().to_string()),
        table.join(",")
    );
}
