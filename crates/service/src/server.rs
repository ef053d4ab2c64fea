//! The service driver: pacing loop, control socket, metrics endpoint.
//!
//! Single-threaded simulation: the pacing loop owns the
//! [`ServiceWorld`] and alternates between advancing virtual time and
//! draining control-socket commands, so commands land at tick
//! boundaries and never race a stepping session. Only the HTTP
//! `/metrics` endpoint runs on its own thread — the metrics registry is
//! lock-free atomics, safe to render concurrently.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use visionsim_core::metrics;
use visionsim_core::trace::{self, TraceEvent};

use crate::clock::VirtualClock;
use crate::proto::{self, Command};
use crate::world::ServiceWorld;

/// Upper bound on a buffered control line awaiting its newline. A
/// client that streams bytes without ever terminating a line is cut off
/// with `err line too long` instead of growing the per-connection
/// buffer forever.
pub const MAX_CONTROL_LINE: usize = 64 * 1024;

/// How long a `/metrics` client has to send its whole request head. It
/// bounds the head, not each read: with a timeout per read, a client
/// trickling one byte at a time holds the single HTTP thread, and every
/// scrape queued behind it, for as long as it keeps trickling.
const REQUEST_HEAD_DEADLINE: Duration = Duration::from_millis(500);

/// Knobs for [`serve`].
pub struct ServeOptions {
    /// Virtual-time multiplier (1.0 = real time).
    pub speed: f64,
    /// Control-protocol bind address; port 0 auto-assigns.
    pub control_addr: String,
    /// Metrics HTTP bind address; port 0 auto-assigns.
    pub metrics_addr: String,
    /// Live trace sidecar path, rewritten atomically while the service
    /// runs — `trace_dump --follow` tails it.
    pub trace_path: Option<PathBuf>,
    /// Wall-clock pacing interval between drains.
    pub pacing: Duration,
    /// Stop after this much wall time even without a `shutdown` command
    /// (safety rail for CI; `None` runs until told to stop).
    pub max_wall: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            speed: 1.0,
            control_addr: "127.0.0.1:0".to_string(),
            metrics_addr: "127.0.0.1:0".to_string(),
            trace_path: None,
            pacing: Duration::from_millis(20),
            max_wall: None,
        }
    }
}

/// Execute one parsed command against the world. Returns the reply line
/// (without newline) and whether the service should shut down.
pub fn handle_command(world: &mut ServiceWorld, line: &str) -> (String, bool) {
    let cmd = match proto::parse(line) {
        Ok(cmd) => cmd,
        Err(e) => return (format!("err {e}"), false),
    };
    match cmd {
        Command::Join {
            preset,
            n,
            seed,
            secs,
        } => match world.join(&preset, n, seed, secs) {
            Ok(id) => (format!("ok join {id}"), false),
            Err(e) => (format!("err {e}"), false),
        },
        Command::Leave { id } => match world.leave(id) {
            Ok(s) => (
                format!(
                    "ok leave {id} ticks={} failovers={} pli={}",
                    s.ticks, s.failovers, s.pli_sent
                ),
                false,
            ),
            Err(e) => (format!("err {e}"), false),
        },
        Command::Fault {
            id,
            participant,
            kind,
        } => match world.fault(id, participant, &kind) {
            Ok(()) => (format!("ok fault {id} {participant} {kind}"), false),
            Err(e) => (format!("err {e}"), false),
        },
        Command::Snapshot => (format!("ok snapshot {}", world.snapshot()), false),
        Command::Quiesce => (format!("ok quiesce finished={}", world.quiesce()), false),
        Command::Shutdown => ("ok shutdown".to_string(), true),
    }
}

/// Send `reply` and its newline in one write. Sent as two writes, the
/// newline waits behind Nagle's algorithm for the client's delayed ACK.
fn write_line(out: &mut impl Write, reply: &str) -> std::io::Result<()> {
    let mut line = String::with_capacity(reply.len() + 1);
    line.push_str(reply);
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Read what has arrived on one control connection and answer every
/// complete line with one [`write_line`]. Returns whether to keep the
/// connection: false once the peer closed, an I/O error occurred, or an
/// unterminated line outgrew [`MAX_CONTROL_LINE`].
fn drain_control_conn(
    world: &mut ServiceWorld,
    stream: &mut (impl Read + Write),
    pending: &mut Vec<u8>,
    shutdown: &mut bool,
) -> bool {
    let mut read_buf = [0u8; 4096];
    loop {
        match stream.read(&mut read_buf) {
            Ok(0) => return false, // peer closed
            Ok(n) => pending.extend_from_slice(&read_buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    // A client streaming bytes without ever sending a newline would
    // otherwise grow `pending` without bound; no valid control line
    // approaches this cap.
    if pending.len() > MAX_CONTROL_LINE && !pending.contains(&b'\n') {
        let _ = write_line(stream, "err line too long");
        return false;
    }
    while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
        let line_bytes: Vec<u8> = pending.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line_bytes);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (reply, quit) = handle_command(world, line);
        *shutdown |= quit;
        if write_line(stream, &reply).is_err() {
            return false;
        }
    }
    true
}

/// Serve the minimal HTTP surface: `GET /metrics` renders the registry
/// in Prometheus text exposition format, `GET /healthz` answers `ok`.
/// Hand-rolled request handling — one request per connection, ignore
/// everything past the request line.
fn serve_metrics_conn(stream: &mut TcpStream) {
    let deadline = Instant::now() + REQUEST_HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut buf = [0u8; 2048];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16_384 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let target = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, body) = match target {
        "/metrics" => ("200 OK", metrics::prometheus_text()),
        "/healthz" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

fn spawn_metrics_thread(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if let Ok(mut stream) = conn {
                serve_metrics_conn(&mut stream);
            }
        }
    })
}

/// Rewrite the live trace sidecar: pull new events from the ring via the
/// follow cursor, keep a bounded tail, and atomically replace the file
/// with a complete, valid VSTRACE1 image (write temp + rename — a
/// concurrent `trace_dump --follow` never sees a torn file).
fn flush_trace(path: &Path, cursor: &mut u64, tail: &mut Vec<TraceEvent>) -> std::io::Result<()> {
    let chunk = trace::follow(*cursor);
    *cursor = chunk.cursor;
    if chunk.events.is_empty() && !tail.is_empty() {
        return Ok(()); // nothing new; keep the file as-is
    }
    tail.extend(chunk.events);
    let cap = trace::CAPACITY;
    if tail.len() > cap {
        let excess = tail.len() - cap;
        tail.drain(..excess);
    }
    let image = trace::encode(tail);
    let tmp = path.with_extension("bin.tmp");
    std::fs::write(&tmp, &image)?;
    std::fs::rename(&tmp, path)
}

/// Run the live service until a `shutdown` command (or `max_wall`).
///
/// Prints one `serve control=<addr> metrics=<addr> speed=<n>` line to
/// stdout once both sockets are bound — scripts parse it for the
/// auto-assigned ports.
pub fn serve(opts: ServeOptions) -> std::io::Result<()> {
    // Fresh service lifetime: zero the registry, reset the ring, and
    // re-anchor the wall epoch so span timestamps and the trace sidecar
    // start at ~0 even when the process has been alive for a while.
    metrics::force(Some(true));
    metrics::reset();
    trace::force(Some(true));
    trace::reset();
    trace::reset_epoch();

    let control = TcpListener::bind(&opts.control_addr)?;
    control.set_nonblocking(true)?;
    let metrics_listener = TcpListener::bind(&opts.metrics_addr)?;
    let control_addr = control.local_addr()?;
    let metrics_addr = metrics_listener.local_addr()?;
    println!(
        "serve control={control_addr} metrics={metrics_addr} speed={}",
        opts.speed
    );
    std::io::stdout().flush()?;

    let stop = Arc::new(AtomicBool::new(false));
    let metrics_thread = spawn_metrics_thread(metrics_listener, stop.clone());

    let clock = VirtualClock::new(opts.speed);
    let mut world = ServiceWorld::new();
    let mut conns: Vec<(TcpStream, Vec<u8>)> = Vec::new();
    let started = Instant::now();
    let mut follow_cursor = 0u64;
    let mut trace_tail: Vec<TraceEvent> = Vec::new();
    let mut shutdown = false;
    let mut loops: u64 = 0;

    while !shutdown {
        std::thread::sleep(opts.pacing);
        world.advance_to(clock.virtual_elapsed_ns());

        // Accept new control connections. Every reply is one complete
        // write, so Nagle's algorithm would only delay it.
        while let Ok((stream, _)) = control.accept() {
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            conns.push((stream, Vec::new()));
        }
        conns.retain_mut(|(stream, pending)| {
            drain_control_conn(&mut world, stream, pending, &mut shutdown)
        });

        // Live trace sidecar, every ~10 pacing ticks.
        if let Some(path) = &opts.trace_path {
            if loops.is_multiple_of(10) {
                let _ = flush_trace(path, &mut follow_cursor, &mut trace_tail);
            }
        }
        if let Some(max) = opts.max_wall {
            if started.elapsed() >= max {
                shutdown = true;
            }
        }
        loops += 1;
    }

    // Final drain so the sidecar holds everything recorded up to stop.
    if let Some(path) = &opts.trace_path {
        let _ = flush_trace(path, &mut follow_cursor, &mut trace_tail);
    }
    stop.store(true, Ordering::Relaxed);
    // Unblock the metrics accept loop with one last connection.
    let _ = TcpStream::connect(metrics_addr);
    let _ = metrics_thread.join();
    metrics::force(None);
    trace::force(None);
    Ok(())
}

/// Send one control command to a running service and return its reply
/// line (used by `visionsim ctl` and ci.sh).
pub fn control_roundtrip(addr: &SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write_line(&mut stream, line)?;
    let mut reply = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&buf[..n]);
                if reply.contains(&b'\n') {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(String::from_utf8_lossy(&reply).trim_end().to_string())
}

/// HTTP GET against a running service's metrics endpoint, returning the
/// response body (used by `visionsim scrape` and ci.sh).
pub fn scrape(addr: &SocketAddr, target: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let request = format!("GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8_lossy(&response);
    match text.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Ok(text.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::par::override_guard;

    /// A control connection double: `input` arrives over as many reads as
    /// it takes, then the socket would block; each `write` call is kept.
    struct FakeConn {
        input: Vec<u8>,
        writes: Vec<Vec<u8>>,
    }

    impl Read for FakeConn {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.input.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.input.len());
            buf[..n].copy_from_slice(&self.input[..n]);
            self.input.drain(..n);
            Ok(n)
        }
    }

    impl Write for FakeConn {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_control_reply_is_one_write() {
        let mut world = ServiceWorld::new();
        let mut conn = FakeConn {
            input: b"join mixed 2 9 10\n\nsnapshot\nexplode\nleave 0\nshut".to_vec(),
            writes: Vec::new(),
        };
        let (mut pending, mut shutdown) = (Vec::new(), false);
        assert!(drain_control_conn(
            &mut world,
            &mut conn,
            &mut pending,
            &mut shutdown
        ));
        assert_eq!(conn.writes.len(), 4, "one write per non-empty line");
        assert_eq!(conn.writes[0], b"ok join 0\n");
        for w in &conn.writes {
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(w.last(), Some(&b'\n'));
        }
        assert_eq!(
            pending, b"shut",
            "the unterminated tail waits for its newline"
        );
        assert!(!shutdown);

        let mut conn = FakeConn {
            input: vec![b'x'; MAX_CONTROL_LINE + 1],
            writes: Vec::new(),
        };
        assert!(!drain_control_conn(
            &mut world,
            &mut conn,
            &mut Vec::new(),
            &mut shutdown
        ));
        assert_eq!(conn.writes, [b"err line too long\n".to_vec()]);
    }

    #[test]
    fn handle_command_drives_the_world() {
        let mut world = ServiceWorld::new();
        let (reply, quit) = handle_command(&mut world, "join mixed 2 9 10");
        assert_eq!(reply, "ok join 0");
        assert!(!quit);
        world.advance_to(500_000_000);
        let (reply, _) = handle_command(&mut world, "fault 0 1 flap");
        assert_eq!(reply, "ok fault 0 1 flap");
        let (reply, _) = handle_command(&mut world, "snapshot");
        assert!(reply.starts_with("ok snapshot {"), "{reply}");
        let (reply, _) = handle_command(&mut world, "leave 0");
        assert!(reply.starts_with("ok leave 0 ticks="), "{reply}");
        let (reply, _) = handle_command(&mut world, "leave 0");
        assert!(reply.starts_with("err "), "{reply}");
        let (reply, quit) = handle_command(&mut world, "shutdown");
        assert_eq!(reply, "ok shutdown");
        assert!(quit);
        let (reply, quit) = handle_command(&mut world, "explode");
        assert!(reply.starts_with("err unknown command"), "{reply}");
        assert!(!quit);
    }

    /// End-to-end over real sockets: boot `serve` on ephemeral ports in a
    /// thread, drive a session over the wire, scrape Prometheus metrics,
    /// and shut down cleanly. Short wall budget: speed 200 with a small
    /// session keeps the whole exchange under a second or two.
    #[test]
    fn serve_end_to_end_over_sockets() {
        let _g = override_guard(); // process-global metrics/trace state
        let dir = std::env::temp_dir().join(format!("visionsim_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("live.trace.bin");

        // Bind first so the test knows the ports without parsing stdout.
        let control = TcpListener::bind("127.0.0.1:0").unwrap();
        let control_addr = control.local_addr().unwrap();
        let metrics_l = TcpListener::bind("127.0.0.1:0").unwrap();
        let metrics_addr = metrics_l.local_addr().unwrap();
        drop((control, metrics_l));

        let opts = ServeOptions {
            speed: 200.0,
            control_addr: control_addr.to_string(),
            metrics_addr: metrics_addr.to_string(),
            trace_path: Some(trace_path.clone()),
            pacing: Duration::from_millis(5),
            max_wall: Some(Duration::from_secs(30)),
        };
        let server = std::thread::spawn(move || serve(opts).unwrap());

        // Wait for the control socket to come up.
        let mut up = false;
        for _ in 0..200 {
            if TcpStream::connect(control_addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(up, "control socket never came up");

        // 60 s session: still live after the ~10 virtual seconds that
        // elapse during the sleeps below (200x speed).
        let reply = control_roundtrip(&control_addr, "join mixed 2 11 60").unwrap();
        assert_eq!(reply, "ok join 0");
        std::thread::sleep(Duration::from_millis(50));
        let reply = control_roundtrip(&control_addr, "fault 0 0 burst-loss").unwrap();
        assert_eq!(reply, "ok fault 0 0 burst-loss");
        let reply = control_roundtrip(&control_addr, "snapshot").unwrap();
        assert!(reply.starts_with("ok snapshot {\"virtual_ns\":"), "{reply}");

        let body = scrape(&metrics_addr, "/metrics").unwrap();
        assert!(
            body.contains("# TYPE visionsim_net_link_bytes_sent counter"),
            "missing Sim-class series in scrape:\n{body}"
        );
        assert!(scrape(&metrics_addr, "/healthz").unwrap().contains("ok"));

        let reply = control_roundtrip(&control_addr, "quiesce").unwrap();
        assert_eq!(reply, "ok quiesce finished=1");
        let reply = control_roundtrip(&control_addr, "shutdown").unwrap();
        assert_eq!(reply, "ok shutdown");
        server.join().unwrap();

        // The live sidecar is a valid VSTRACE1 image with events.
        let bytes = std::fs::read(&trace_path).unwrap();
        let (_, events) = trace::decode(&bytes).expect("valid live sidecar");
        assert!(!events.is_empty(), "live sidecar recorded nothing");
        std::fs::remove_dir_all(&dir).ok();
    }
}
