//! The `live_serve` workload: `visionsim serve` as a child process under
//! an open-loop control and scrape schedule.
//!
//! Set-up boots the service until its control socket answers and every
//! initial join is acknowledged; it is repeated [`BOOTS`] times and the
//! last boot carries the measured phase. One pipelined control
//! connection sends a schedule of reads (`snapshot`) and writes (`join`,
//! `leave`, `fault`) at due times fixed in advance, never waiting for
//! replies; a second thread scrapes `GET /metrics` on its own schedule.
//! Each operation is timed from its due time, so a stalled service
//! charges the wait to every operation queued behind the stall.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;

use crate::util::{self, median, ms, percentile, Fnv};
use crate::{poll, probes, spans, Args, Outcome};

/// Virtual-time multiplier serve runs at: about a quarter of what the mix
/// below can sustain (`serve_x` ≈ 2.6 on two virtual CPUs). serve sleeps
/// for the pacing interval and then drains everything due, so a drain
/// covers the sleep and the drain before it, and its length,
/// `PACING_MS × SPEED ÷ (serve_x − SPEED)`, grows steeply as the host
/// slows: at 1.3× (about half busy) a run's lag grew from 85 to 274 ms
/// while steal time slowed the host.
pub const SPEED: f64 = 0.7;
/// Wall-clock pacing between serve's drains. A command waits up to one
/// pacing interval for its drain; at 40 ms that wait outweighs the
/// milliseconds a virtual CPU may take to wake a thread.
pub const PACING_MS: u64 = 40;
/// Spatial FaceTime sessions (resilience and congestion control on),
/// and their size.
const FACETIME_SESSIONS: usize = 4;
const FACETIME_USERS: usize = 3;
/// Two-party `mixed` (2D, RTP) sessions joined at boot.
const MIXED_SESSIONS: usize = 24;
/// Extra `mixed` sessions the schedule joins and leaves (churn).
const CHURN_MAX: usize = 8;
/// Simulated length of every joined session: longer than any run, so no
/// session ends on its own and every `leave`/`fault` finds its target.
const SESSION_SECS: u64 = 3_600;
/// Control commands per second; one in five is a write.
const CMD_HZ: f64 = 120.0;
const WRITE_SHARE: f64 = 0.2;
/// `/metrics` scrapes per second.
const SCRAPE_HZ: f64 = 25.0;
/// serve's speed is taken per slice of the run, this many equal slices,
/// and reported at the slices' upper quartile, multiplied by the host's
/// speed as the reference kernel measured it from the load generator's
/// sending thread (see [`crate::Timings`]). The host's speed swings
/// within seconds and for minutes at a time, while the schedule's load is
/// the same in every slice, so the faster slices measure serve rather
/// than the host.
const WINDOWS: usize = 10;
/// Times serve is booted per phase; set-up time is their median.
const BOOTS: usize = 5;
/// A run is invalid when the generator sends later than this (p99): far
/// above the tens of milliseconds a loaded virtual CPU can take to wake a
/// sleeping thread, far below how late a saturated generator falls...
const GEN_LATE_BOUND_MS: f64 = 100.0;
/// ...or when lag or control latency in the last third of the run exceeds
/// the first third's by this share plus two pacing intervals: a growing
/// backlog means the workload is mis-sized.
const GROWTH_BOUND: f64 = 0.25;
/// Replies still missing this long after the last command are failures.
const REPLY_GRACE: Duration = Duration::from_secs(5);
/// Fault kinds the schedule injects, in rotation.
const FAULTS: [&str; 3] = ["outage", "burst-loss", "flap"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Snapshot,
    Join,
    Leave,
    Fault,
}

impl Kind {
    fn word(self) -> &'static str {
        match self {
            Kind::Snapshot => "snapshot",
            Kind::Join => "join",
            Kind::Leave => "leave",
            Kind::Fault => "fault",
        }
    }
}

/// One scheduled control command.
struct Planned {
    due: Duration,
    kind: Kind,
    line: String,
}

/// The open-loop schedule for one phase, made from the seed alone.
fn plan(seed: u64, seconds: f64) -> (Vec<String>, Vec<Planned>, Vec<Duration>) {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, "live_serve", 0));
    let mut joins = Vec::new();
    for i in 0..FACETIME_SESSIONS {
        joins.push(format!(
            "join facetime {FACETIME_USERS} {} {SESSION_SECS}",
            derive_seed(seed, "live_serve.facetime", i as u64)
        ));
    }
    for i in 0..MIXED_SESSIONS {
        joins.push(format!(
            "join mixed 2 {} {SESSION_SECS}",
            derive_seed(seed, "live_serve.mixed", i as u64)
        ));
    }
    let initial = joins.len() as u64;
    let mut next_id = initial;
    let mut churn: VecDeque<u64> = VecDeque::new();
    let mut faults = 0u64;
    let mut commands = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exponential(1.0 / CMD_HZ);
        if t >= seconds {
            break;
        }
        let (kind, line) = if !rng.chance(WRITE_SHARE) {
            (Kind::Snapshot, "snapshot".to_string())
        } else {
            match rng.index(10) {
                0 => {
                    // Targets and kinds rotate, so every run faults the
                    // spatial sessions equally often whatever the seed.
                    let id = faults % initial;
                    let kind = FAULTS[faults as usize % FAULTS.len()];
                    faults += 1;
                    let participants = if (id as usize) < FACETIME_SESSIONS {
                        FACETIME_USERS
                    } else {
                        2
                    };
                    let p = rng.index(participants);
                    (Kind::Fault, format!("fault {id} {p} {kind}"))
                }
                r if (r < 6 || churn.is_empty()) && churn.len() < CHURN_MAX => {
                    churn.push_back(next_id);
                    next_id += 1;
                    let s = derive_seed(seed, "live_serve.churn", next_id);
                    (Kind::Join, format!("join mixed 2 {s} {SESSION_SECS}"))
                }
                _ => {
                    let id = churn.pop_front().expect("churn pool is non-empty here");
                    (Kind::Leave, format!("leave {id}"))
                }
            }
        };
        commands.push(Planned {
            due: Duration::from_secs_f64(t),
            kind,
            line,
        });
    }
    let scrapes = (0..)
        .map(|k| Duration::from_secs_f64((k as f64 + rng.uniform()) / SCRAPE_HZ))
        .take_while(|d| d.as_secs_f64() < seconds)
        .collect();
    (joins, commands, scrapes)
}

/// A running serve child and its endpoints.
struct Serve {
    child: Child,
    control: SocketAddr,
    metrics: SocketAddr,
    /// When its banner was read: the virtual clock starts at about this
    /// instant.
    clock_t0: Instant,
}

impl Serve {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Shut the child down and wait for it. serve drops a connection's
    /// unread commands when the peer hangs up first, so the `shutdown`
    /// connection stays open until its reply arrives; a child that does
    /// not exit within 10 s is killed when `self` drops.
    fn stop(mut self) {
        if let Ok(stream) = TcpStream::connect(self.control) {
            let mut conn = LineReader {
                stream,
                pending: Vec::new(),
            };
            if conn.stream.write_all(b"shutdown\n").is_ok() {
                let deadline = Instant::now() + Duration::from_secs(5);
                while Instant::now() < deadline {
                    match conn.poll(Duration::from_millis(100)) {
                        Ok(lines) if !lines.is_empty() => break,
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Serve {
    /// However the benchmark leaves a phase, the child is gone and reaped
    /// (killing an already reaped child is a harmless error).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start serve. The traced phase runs it with the sanitizer on, so the
/// final snapshot's `sanitizer_violations` counts real checks (release
/// builds leave it off); the timed phase runs it off.
fn spawn_serve(
    bin: &Path,
    trace_path: &Path,
    max_secs: u64,
    sanitize: bool,
) -> Result<Serve, String> {
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--speed",
            &SPEED.to_string(),
            "--pacing-ms",
            &PACING_MS.to_string(),
        ])
        .arg("--trace")
        .arg(trace_path)
        .args(["--run-secs", &max_secs.to_string()])
        .env("VISIONSIM_SANITIZE", if sanitize { "1" } else { "0" })
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut banner = String::new();
    let read = BufReader::new(stdout).read_line(&mut banner);
    let clock_t0 = Instant::now();
    let addr = |key: &str| -> Option<SocketAddr> {
        banner
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|a| a.parse().ok())
    };
    match (read, addr("control="), addr("metrics=")) {
        (Ok(_), Some(control), Some(metrics)) => Ok(Serve {
            child,
            control,
            metrics,
            clock_t0,
        }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("serve printed no address banner (got {banner:?})"))
        }
    }
}

/// Reads newline-terminated reply lines, stamping each with the instant
/// the bytes carrying its end arrived.
struct LineReader {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl LineReader {
    /// Wait up to `timeout` for data; return the complete lines it held.
    fn poll(&mut self, timeout: Duration) -> std::io::Result<Vec<(Instant, String)>> {
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(100))))?;
        let mut buf = [0u8; 64 * 1024];
        let n = match self.stream.read(&mut buf) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(Vec::new())
            }
            Err(e) => return Err(e),
        };
        let at = Instant::now();
        self.pending.extend_from_slice(&buf[..n]);
        let mut lines = Vec::new();
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=pos).collect();
            lines.push((at, String::from_utf8_lossy(&line).trim_end().to_string()));
        }
        Ok(lines)
    }
}

/// The first unsigned integer after `"key":` in a JSON text.
fn json_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Boot serve and pipeline the initial joins; returns the service, the
/// control connection, and the boot time.
fn boot(
    args: &Args,
    joins: &[String],
    max_secs: u64,
    sanitize: bool,
) -> Result<(Serve, LineReader, Duration), String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("live_serve needs --serve-bin <path to the visionsim binary>")?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let trace_path = args.out_dir.join("live.trace.bin");
    let t0 = Instant::now();
    let _s = spans::open("boot", 0, 0);
    let serve = spawn_serve(bin, &trace_path, max_secs, sanitize)?;
    let stream = TcpStream::connect(serve.control).map_err(|e| format!("control connect: {e}"));
    let stream = match stream {
        Ok(s) => s,
        Err(e) => {
            serve.stop();
            return Err(e);
        }
    };
    let _ = stream.set_nodelay(true);
    let mut reader = LineReader {
        stream,
        pending: Vec::new(),
    };
    let batch: String = joins.iter().map(|j| format!("{j}\n")).collect();
    let mut acked = Vec::new();
    let result = (|| {
        reader
            .stream
            .write_all(batch.as_bytes())
            .map_err(|e| format!("sending joins: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while acked.len() < joins.len() {
            if Instant::now() > deadline {
                return Err("initial joins were not acknowledged in 30 s".to_string());
            }
            let lines = reader
                .poll(Duration::from_millis(100))
                .map_err(|e| format!("reading join replies: {e}"))?;
            acked.extend(lines.into_iter().map(|(_, l)| l));
        }
        Ok(())
    })();
    if let Err(e) = result {
        serve.stop();
        return Err(e);
    }
    for (i, reply) in acked.iter().enumerate() {
        if reply != &format!("ok join {i}") {
            serve.stop();
            return Err(format!("initial join {i} answered {reply:?}"));
        }
    }
    Ok((serve, reader, t0.elapsed()))
}

/// One scrape's result.
struct Scrape {
    due: Duration,
    latency_ms: f64,
    bytes: usize,
    body: Option<String>,
    error: Option<String>,
}

/// Open a scrape: connect and send the request.
fn start_scrape(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    Ok(stream)
}

/// Check a complete `/metrics` response and return its body.
fn check_exposition(response: Vec<u8>) -> Result<String, String> {
    let text = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("status {:?}", head.lines().next().unwrap_or("")));
    }
    // Text exposition: comments, or `name[{labels}] value` with a number.
    // An empty registry (before the first drain) is a valid exposition.
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = line.rsplit(' ').next().unwrap_or("");
        if value.parse::<f64>().is_err() {
            return Err(format!("unparseable sample line {line:?}"));
        }
    }
    Ok(body.to_string())
}

/// Sample of a counter or gauge in a text exposition.
fn exposition_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// Everything one phase measured.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    digest: u64,
    problems: Vec<String>,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    /// (due time, ms) of every answered command, every snapshot's lag and
    /// every scrape.
    ctl_series: Vec<(Duration, f64)>,
    lag_series: Vec<(Duration, f64)>,
    scrape_series: Vec<(Duration, f64)>,
    late_ms: Vec<f64>,
    scrape_bytes: Vec<f64>,
    /// Virtual seconds per wall second; per slice, virtual seconds per
    /// CPU second of serve's main thread and of all its threads.
    wall_sim_x: f64,
    /// The reference kernel's runs during the phase, in ns.
    kernel_ns: Vec<f64>,
    sim_x: Vec<f64>,
    serve_x: Vec<f64>,
    main_cpu_s: f64,
    http_cpu_s: f64,
    peak_rss_mb: f64,
    last_scrape: Option<String>,
}

/// CPU seconds of serve's main thread and of its other (HTTP) thread,
/// from the nanosecond run times in `schedstat`.
fn thread_cpu(pid: &str) -> (f64, f64) {
    let mut main = 0.0;
    let mut other = 0.0;
    if let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for entry in dir.flatten() {
            let tid = entry.file_name().to_string_lossy().to_string();
            let cpu = util::run_ns(&format!("/proc/{pid}/task/{tid}/schedstat")).unwrap_or(0)
                as f64
                / 1e9;
            if tid == pid {
                main += cpu;
            } else {
                other += cpu;
            }
        }
    }
    (main, other)
}

fn run_phase(args: &Args, seed: u64, traced: bool) -> Phase {
    let mut ph = Phase::default();
    spans::set_enabled(traced);
    let (joins, commands, scrape_dues) = plan(seed, args.seconds);
    let max_secs = args.seconds as u64 + 60;

    // Set-up: every boot but the last is shut down again at once.
    let mut booted = None;
    for b in 0..BOOTS {
        match boot(args, &joins, max_secs, traced) {
            Ok((serve, reader, took)) => {
                ph.setup_s.push(took.as_secs_f64());
                if b + 1 < BOOTS {
                    serve.stop();
                } else {
                    booted = Some((serve, reader));
                }
            }
            Err(e) => {
                ph.attempted += 1;
                ph.failed += 1;
                ph.problems.push(e);
                spans::set_enabled(false);
                return ph;
            }
        }
    }
    let (serve, mut reader) = booted.expect("the last boot is kept");
    let pid = serve.pid();
    let phase_span = spans::open("phase", 0, 0);
    let phase_id = phase_span.id();

    // Two threads. This one sends each command at its due time and never
    // reads; the other waits on the control connection and the scrape in
    // flight at once, stamps every reply as it arrives, and opens each
    // scrape at its due time. Replies come back in command order.
    let (main0, http0) = thread_cpu(&pid);
    let end = commands.last().map_or(Duration::ZERO, |c| c.due);
    let mut writer = match reader.stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            ph.problems
                .push(format!("cloning the control connection: {e}"));
            serve.stop();
            return ph;
        }
    };
    let mut broken: Option<String> = None;
    // serve's CPU time at the start of every slice, for per-slice speeds.
    let mut cpu_marks = vec![(Duration::ZERO, main0, http0)];
    let mut kernel = util::KernelSampler::new();
    let t0 = Instant::now();
    let metrics_addr = serve.metrics;
    let (arrivals, scrapes, scrape_late) = std::thread::scope(|scope| {
        let reader = &mut reader;
        let expected = commands.len();
        let dues = &scrape_dues;
        let poller = scope.spawn(move || {
            let mut got: Vec<(Instant, String)> = Vec::with_capacity(expected);
            let mut scrapes: Vec<Scrape> = Vec::with_capacity(dues.len());
            let mut late = Vec::with_capacity(dues.len());
            // The scrape in flight: its due time, socket and bytes so far.
            let mut inflight: Option<(Duration, TcpStream, Vec<u8>)> = None;
            let mut next_scrape = 0;
            let deadline = t0 + end + REPLY_GRACE;
            loop {
                let now = t0.elapsed();
                if inflight.is_none() && next_scrape < dues.len() && dues[next_scrape] <= now {
                    let due = dues[next_scrape];
                    next_scrape += 1;
                    late.push(ms(now - due));
                    match start_scrape(metrics_addr) {
                        Ok(stream) => inflight = Some((due, stream, Vec::new())),
                        Err(e) => scrapes.push(Scrape {
                            due,
                            latency_ms: 0.0,
                            bytes: 0,
                            body: None,
                            error: Some(e),
                        }),
                    }
                    continue;
                }
                let replies_done = got.len() >= expected;
                if (replies_done && next_scrape == dues.len() && inflight.is_none())
                    || Instant::now() > deadline
                {
                    break;
                }
                let wait = match (&inflight, dues.get(next_scrape)) {
                    (None, Some(due)) => due.saturating_sub(now),
                    _ => Duration::from_millis(100),
                };
                let mut fds = vec![reader.stream.as_raw_fd()];
                if let Some((_, stream, _)) = &inflight {
                    fds.push(stream.as_raw_fd());
                }
                let ready = poll::readable(&fds, wait);
                if ready[0] && !replies_done {
                    match reader.poll(Duration::ZERO) {
                        Ok(lines) => got.extend(lines),
                        Err(_) => break,
                    }
                }
                if ready.get(1) == Some(&true) {
                    let (due, mut stream, mut buf) =
                        inflight.take().expect("polled only while in flight");
                    let mut chunk = [0u8; 16 * 1024];
                    match stream.read(&mut chunk) {
                        Ok(0) => {
                            let done = t0.elapsed();
                            spans::record(
                                "scrape",
                                phase_id,
                                scrapes.len() as u32,
                                t0 + due,
                                t0 + done,
                            );
                            let bytes = buf.len();
                            let (body, error) = match check_exposition(buf) {
                                Ok(body) => (Some(body), None),
                                Err(e) => (None, Some(e)),
                            };
                            scrapes.push(Scrape {
                                due,
                                latency_ms: ms(done.saturating_sub(due)),
                                bytes,
                                body,
                                error,
                            });
                        }
                        Ok(n) => {
                            buf.extend_from_slice(&chunk[..n]);
                            inflight = Some((due, stream, buf));
                        }
                        Err(e) => scrapes.push(Scrape {
                            due,
                            latency_ms: 0.0,
                            bytes: 0,
                            body: None,
                            error: Some(format!("read: {e}")),
                        }),
                    }
                }
            }
            (got, scrapes, late)
        });
        for c in &commands {
            if let Some(wait) = c.due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            ph.late_ms.push(ms(t0.elapsed().saturating_sub(c.due)));
            if let Err(e) = writer.write_all(format!("{}\n", c.line).as_bytes()) {
                broken = Some(format!("control write: {e}"));
                break;
            }
            if window_of(c.due, args.seconds) >= cpu_marks.len() {
                let (main, http) = thread_cpu(&pid);
                cpu_marks.push((t0.elapsed(), main, http));
            }
            kernel.between();
        }
        poller.join().expect("reply poller does not panic")
    });
    ph.late_ms.extend(scrape_late);
    let wall_end = t0.elapsed();
    let (main1, http1) = thread_cpu(&pid);
    cpu_marks.push((wall_end, main1, http1));
    ph.peak_rss_mb = util::peak_rss_mb(&pid).unwrap_or(0.0);
    drop(phase_span);

    let mut replies: Vec<Option<String>> = vec![None; commands.len()];
    let mut snapshots: Vec<(Duration, u64)> = Vec::new();
    for (i, (at, line)) in arrivals.into_iter().enumerate().take(commands.len()) {
        let c = &commands[i];
        let at = at.duration_since(t0);
        let latency = ms(at.saturating_sub(c.due));
        if line.starts_with(&format!("ok {}", c.kind.word())) {
            ph.ctl_series.push((c.due, latency));
            if c.kind == Kind::Snapshot {
                ph.read_ms.push(latency);
                if let Some(v) = json_u64(&line, "virtual_ns") {
                    snapshots.push((at, v));
                    let behind = (t0 + at).duration_since(serve.clock_t0).as_secs_f64()
                        - v as f64 / 1e9 / SPEED;
                    ph.lag_series.push((c.due, behind.max(0.0) * 1e3));
                }
            } else {
                ph.write_ms.push(latency);
            }
            spans::record(
                if c.kind == Kind::Snapshot {
                    "ctl.read"
                } else {
                    "ctl.write"
                },
                phase_id,
                i as u32,
                t0 + c.due,
                t0 + at,
            );
        }
        replies[i] = Some(line);
    }

    // Final state: one more snapshot, for the digest and the sanitizer.
    let final_snapshot = (|| {
        reader
            .stream
            .write_all(b"snapshot\n")
            .map_err(|e| format!("final snapshot: {e}"))?;
        let deadline = Instant::now() + REPLY_GRACE;
        while Instant::now() < deadline {
            let lines = reader
                .poll(Duration::from_millis(100))
                .map_err(|e| format!("final snapshot: {e}"))?;
            if let Some((_, l)) = lines.into_iter().last() {
                return Ok(l);
            }
        }
        Err("final snapshot timed out".to_string())
    })();
    serve.stop();

    // Every scheduled operation counts once; missing or `err` replies and
    // failed scrapes are failures.
    let mut h = Fnv::default();
    for (c, reply) in commands.iter().zip(&replies) {
        ph.attempted += 1;
        // Replies' heads are deterministic; snapshot bodies, `leave` tick
        // counts and anything after the id depend on wall-clock timing.
        let head: String = match (c.kind, reply) {
            (Kind::Snapshot, Some(r)) => r.split(' ').take(2).collect::<Vec<_>>().join(" "),
            (Kind::Leave, Some(r)) => r.split(' ').take(3).collect::<Vec<_>>().join(" "),
            (_, Some(r)) => r.clone(),
            (_, None) => "missing".to_string(),
        };
        h.bytes(c.line.as_bytes());
        h.bytes(head.as_bytes());
        if !head.starts_with(&format!("ok {}", c.kind.word())) {
            ph.failed += 1;
            if ph.problems.len() < 8 {
                ph.problems.push(format!("{:?} answered {head:?}", c.line));
            }
        }
    }
    if let Some(b) = broken {
        ph.problems.push(b);
    }
    match final_snapshot {
        Ok(s) => {
            let live = s.matches("\"id\":").count() as u64;
            let completed = json_u64(&s, "completed");
            let violations = json_u64(&s, "sanitizer_violations");
            h.u64(live);
            h.u64(completed.unwrap_or(u64::MAX));
            if violations != Some(0) {
                ph.problems.push(format!(
                    "final snapshot reports sanitizer_violations {violations:?}"
                ));
            }
        }
        Err(e) => ph.problems.push(e),
    }
    ph.digest = h.finish();

    for s in &scrapes {
        ph.attempted += 1;
        match &s.error {
            None => {
                ph.scrape_series.push((s.due, s.latency_ms));
                ph.scrape_bytes.push(s.bytes as f64);
            }
            Some(e) => {
                ph.failed += 1;
                if ph.problems.len() < 16 {
                    ph.problems.push(format!("scrape at {:?}: {e}", s.due));
                }
            }
        }
    }
    ph.last_scrape = scrapes.into_iter().rev().find_map(|s| s.body);

    // Throughput. serve's clock follows the wall clock, so virtual
    // seconds per wall second (between the first and last snapshot) read
    // the configured speed; virtual seconds per CPU second are what moves
    // with serve's cost, taken per slice.
    if let (Some(&(a_at, a_v)), Some(&(b_at, b_v))) = (snapshots.first(), snapshots.last()) {
        let dt = b_at.saturating_sub(a_at).as_secs_f64();
        if dt > 0.0 && b_v > a_v {
            ph.wall_sim_x = (b_v - a_v) as f64 / 1e9 / dt;
        }
    }
    for pair in cpu_marks.windows(2) {
        let ((t_a, main_a, http_a), (t_b, main_b, http_b)) = (pair[0], pair[1]);
        let virtual_s = ph.wall_sim_x * t_b.saturating_sub(t_a).as_secs_f64();
        if virtual_s > 0.0 {
            ph.sim_x.push(virtual_s / (main_b - main_a).max(1e-3));
            ph.serve_x
                .push(virtual_s / (main_b + http_b - main_a - http_a).max(1e-3));
        }
    }
    ph.kernel_ns = kernel.samples;
    ph.main_cpu_s = main1 - main0;
    ph.http_cpu_s = http1 - http0;
    spans::set_enabled(false);
    ph
}

/// A per-slice speed at the upper quartile, scaled by the host's speed
/// (see [`WINDOWS`]).
fn quiet_speed(per_slice: &[f64], kernel_ns: &[f64]) -> f64 {
    percentile(per_slice, 75.0) * util::host_speed(kernel_ns)
}

/// The slice a due time falls in.
fn window_of(due: Duration, seconds: f64) -> usize {
    ((due.as_secs_f64() / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// The `p`th percentile of a due-time series' values.
fn series_percentile(series: &[(Duration, f64)], p: f64) -> f64 {
    let values: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
    percentile(&values, p)
}

/// Median of the values whose due time falls in the first and last third.
fn thirds(series: &[(Duration, f64)], seconds: f64) -> (f64, f64) {
    let third = seconds / 3.0;
    let pick = |lo: f64, hi: f64| -> Vec<f64> {
        series
            .iter()
            .filter(|(d, _)| (lo..hi).contains(&d.as_secs_f64()))
            .map(|&(_, v)| v)
            .collect()
    };
    (
        median(&pick(0.0, third)),
        median(&pick(2.0 * third, seconds)),
    )
}

/// Validity of an open-loop phase: problems if the generator ran late or
/// a backlog grew.
fn validity(ph: &Phase, seconds: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let late = percentile(&ph.late_ms, 99.0);
    if late > GEN_LATE_BOUND_MS {
        bad.push(format!(
            "invalid run: generator p99 lateness {late:.2} ms > {GEN_LATE_BOUND_MS} ms"
        ));
    }
    for (what, series) in [("lag", &ph.lag_series), ("control latency", &ph.ctl_series)] {
        let (first, last) = thirds(series, seconds);
        if last > first * (1.0 + GROWTH_BOUND) + 2.0 * PACING_MS as f64 {
            bad.push(format!(
                "invalid run: {what} grew from {first:.2} ms (first third) to {last:.2} ms (last third)"
            ));
        }
    }
    bad
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.provenance.push(("serve_speed", SPEED.to_string()));
    out.provenance
        .push(("serve_pacing_ms", PACING_MS.to_string()));
    out.provenance.push((
        "serve_mix",
        format!("{FACETIME_SESSIONS}x facetime {FACETIME_USERS} + {MIXED_SESSIONS}x mixed 2 + churn <= {CHURN_MAX}"),
    ));
    out.provenance.push(("load_threads", "2".to_string()));

    let plain = run_phase(args, args.seed, false);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.digest = plain.digest;
    plain.problems.iter().for_each(|p| out.problem(p.clone()));
    validity(&plain, args.seconds)
        .into_iter()
        .for_each(|p| out.problem(p));
    if !args.trace {
        out.set("setup_s", median(&plain.setup_s));
        out.set("sim_x", quiet_speed(&plain.sim_x, &plain.kernel_ns));
        out.set("serve_x", quiet_speed(&plain.serve_x, &plain.kernel_ns));
        out.set("peak_rss_mb", plain.peak_rss_mb);
        return out;
    }

    let traced = run_phase(args, args.seed, true);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    traced.problems.iter().for_each(|p| out.problem(p.clone()));
    validity(&traced, args.seconds)
        .into_iter()
        .for_each(|p| out.problem(p));
    if traced.digest != plain.digest {
        out.problem("traced digest differs from the untraced one".into());
    }
    let spans_all = spans::take();

    let probe_t0 = Instant::now();
    spans::set_enabled(true);
    let (media, rtp_ns, hop_ns, render_us) = {
        let p = spans::open("probes", 0, 0);
        (
            probes::media(args.seed, p.id()),
            probes::rtp_parse_ns(args.seed, p.id()),
            probes::hop_ns(args.seed, p.id()),
            probes::render_frame_us(args.seed, p.id()),
        )
    };
    spans::set_enabled(false);
    let probe_s = probe_t0.elapsed().as_secs_f64();
    let mut all_spans = spans_all;
    all_spans.extend(spans::take());

    out.set("semantic.encode_us", media.encode_us);
    out.set("semantic.decode_us", media.decode_us);
    out.set("compress.compress_us", media.compress_us);
    out.set("compress.decompress_us", media.decompress_us);
    out.set("sensor.capture_us", media.capture_us);
    out.set("transport.quic_send_us", media.quic_send_us);
    out.set("transport.quic_parse_us", media.quic_parse_us);
    out.set("transport.rtp_parse_ns", rtp_ns);
    out.set("net.hop_ns", hop_ns);
    out.set("render.frame_us", render_us);
    if let Some(body) = &traced.last_scrape {
        let v = |name: &str| exposition_value(body, name).unwrap_or(0.0);
        out.set("net.packets_sent", v("visionsim_net_link_packets_sent"));
        out.set("net.bytes_sent", v("visionsim_net_link_bytes_sent"));
        out.set("net.packets_dropped", v("visionsim_net_packets_dropped"));
        out.set(
            "net.queue_dropped_bytes",
            v("visionsim_net_queue_dropped_bytes"),
        );
        out.set("net.batch_drains", v("visionsim_net_batch_drains"));
        let (sum, count) = (
            v("visionsim_net_batch_size_sum"),
            v("visionsim_net_batch_size_count"),
        );
        out.set("net.batch_size_mean", sum / count.max(1.0));
    }
    out.set("service.main_cpu_s", traced.main_cpu_s);
    out.set("service.http_cpu_s", traced.http_cpu_s);
    out.set(
        "service.cpu_us_per_scrape",
        traced.http_cpu_s * 1e6 / traced.scrape_series.len().max(1) as f64,
    );
    let lags: Vec<f64> = traced.lag_series.iter().map(|&(_, v)| v).collect();
    out.set("service.lag_ms.p50", median(&lags));
    out.set(
        "service.lag_ms.max",
        lags.iter().copied().fold(0.0, f64::max),
    );
    out.set("service.scrape_bytes", util::mean(&traced.scrape_bytes));
    // The latencies a user of serve sees, from the untraced phase.
    out.set("ctl.ms.p50", series_percentile(&plain.ctl_series, 50.0));
    out.set("ctl.ms.p99", series_percentile(&plain.ctl_series, 99.0));
    out.set(
        "service.scrape_ms.p50",
        series_percentile(&plain.scrape_series, 50.0),
    );
    out.set(
        "service.scrape_ms.p90",
        series_percentile(&plain.scrape_series, 90.0),
    );
    out.set("ctl.read_ms.p50", percentile(&plain.read_ms, 50.0));
    out.set("ctl.write_ms.p50", percentile(&plain.write_ms, 50.0));
    out.set("bench.gen_late_p99_ms", percentile(&traced.late_ms, 99.0));
    out.set(
        "bench.trace_overhead",
        quiet_speed(&plain.serve_x, &plain.kernel_ns)
            / quiet_speed(&traced.serve_x, &traced.kernel_ns)
            - 1.0,
    );
    out.set(
        "bench.setup_cold_s",
        plain.setup_s.first().copied().unwrap_or(0.0),
    );
    out.set("bench.wall_sim_x", plain.wall_sim_x);
    out.set("bench.kernel_us", util::fastest(&plain.kernel_ns) / 1e3);
    crate::finish_trace(args, &mut out, all_spans, 1, 1, probe_s);
    out
}
