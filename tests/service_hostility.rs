//! Hostile clients of `visionsim serve`: a `/metrics` client that
//! trickles its request must not stall other scrapes, and any control
//! line, well-formed or garbage, gets exactly one `ok …`/`err …` reply
//! line and never a panic.

use std::collections::BTreeSet;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use visionsim::core::par::{derive_seed, override_guard};
use visionsim::core::rng::SimRng;
use visionsim::service::server::{control_roundtrip, handle_command, scrape, serve, ServeOptions};
use visionsim::service::world::ServiceWorld;

fn free_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    listener.local_addr().expect("bound address")
}

/// A client that sends a `/metrics` request head one byte every 400 ms
/// for 3 s holds the HTTP thread at most one head deadline: a `/healthz`
/// queued behind it completes well inside 1.5 s.
#[test]
fn a_trickling_metrics_client_does_not_stall_other_scrapes() {
    let _g = override_guard(); // serve forces the process-global recorder
    let (control_addr, metrics_addr) = (free_addr(), free_addr());
    let opts = ServeOptions {
        control_addr: control_addr.to_string(),
        metrics_addr: metrics_addr.to_string(),
        pacing: Duration::from_millis(5),
        max_wall: Some(Duration::from_secs(30)),
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || serve(opts));
    let up = (0..300).any(|_| {
        let ok = scrape(&metrics_addr, "/healthz").is_ok_and(|body| body == "ok\n");
        if !ok {
            std::thread::sleep(Duration::from_millis(10));
        }
        ok
    });
    assert!(up, "metrics endpoint never came up");

    let (connected, is_connected) = mpsc::channel();
    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(metrics_addr).expect("connect the trickler");
        connected
            .send(())
            .expect("test thread waits for the trickler");
        let start = Instant::now();
        for &byte in b"GET /metrics HTTP/1.1\r\nHost: trickle\r\n\r\n" {
            if start.elapsed() >= Duration::from_secs(3) || stream.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(400));
        }
    });
    // The trickler's connection is queued first, so the HTTP thread
    // takes it before the probe below.
    is_connected.recv().expect("trickler connected");
    let start = Instant::now();
    let body = scrape(&metrics_addr, "/healthz").expect("healthz behind the trickler");
    let took = start.elapsed();
    assert_eq!(body, "ok\n");
    assert!(
        took < Duration::from_millis(1500),
        "healthz waited {took:?} behind a trickling client"
    );

    trickler.join().expect("trickler thread");
    assert_eq!(
        control_roundtrip(&control_addr, "shutdown").expect("shutdown"),
        "ok shutdown"
    );
    server
        .join()
        .expect("serve thread")
        .expect("serve exits cleanly");
}

fn case_rng(i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x5E2E_C0DE, "control_lines", i))
}

/// A control line from the protocol's vocabulary with valid and invalid
/// arguments mixed (rosters stay small), or raw garbage.
fn control_line(rng: &mut SimRng) -> String {
    let pick = |rng: &mut SimRng, items: &[&str]| rng.choose(items).to_string();
    let small = |rng: &mut SimRng| rng.uniform_u64(0, 4).to_string();
    let count = [
        "0",
        "1",
        "2",
        "3",
        "201",
        "100000",
        "-1",
        "x",
        "18446744073709551616",
    ];
    let secs = ["0", "1", "2", "18446744073709551615", "nan", "-5"];
    let faults = [
        "flap",
        "rate-cliff",
        "delay-spike",
        "burst-loss",
        "outage",
        "meteor",
        "",
    ];
    match rng.uniform_u64(0, 7) {
        0 => format!(
            "join {} {} {} {}",
            pick(rng, &["mixed", "facetime", "zoom", ""]),
            pick(rng, &count),
            rng.next_u64(),
            pick(rng, &secs)
        ),
        1 => format!(
            "join {} 2 {} 2",
            pick(rng, &["mixed", "facetime"]),
            rng.next_u64()
        ),
        2 => {
            let id = small(rng);
            format!("leave {}", pick(rng, &[&id, "x", "-1", ""]))
        }
        3 => format!("fault {} {} {}", small(rng), small(rng), pick(rng, &faults)),
        4 => pick(
            rng,
            &[
                "snapshot",
                "SNAPSHOT",
                "snapshot extra args",
                "quiesce",
                "shutdown",
            ],
        ),
        5 => format!(
            "{} {}",
            pick(rng, &["jion", "lave", "\u{0}", "join\tmixed"]),
            small(rng)
        ),
        _ => {
            let mut garbage = vec![0u8; rng.uniform_u64(0, 40) as usize];
            rng.fill_bytes(&mut garbage);
            garbage.retain(|&b| b != b'\n');
            String::from_utf8_lossy(&garbage).into_owned()
        }
    }
}

/// Seeded command streams against fresh worlds, with virtual time
/// advancing between lines: every line, trimmed as the server trims it,
/// gets one reply line that starts `ok ` or `err `.
#[test]
fn every_control_line_gets_exactly_one_reply_line() {
    let _g = override_guard(); // sessions record into process-global state
    let mut accepted = BTreeSet::new();
    for world_no in 0..6 {
        let mut rng = case_rng(world_no);
        let mut world = ServiceWorld::new();
        let mut now_ns = 0u64;
        for _ in 0..40 {
            let line = control_line(&mut rng);
            let (reply, _) = handle_command(&mut world, line.trim());
            assert!(
                (reply.starts_with("ok ") || reply.starts_with("err ")) && !reply.contains('\n'),
                "{line:?} got {reply:?}"
            );
            if let Some(("ok", rest)) = reply.split_once(' ') {
                accepted.insert(rest.split(' ').next().unwrap_or("").to_string());
            }
            if rng.chance(0.3) {
                now_ns += 20_000_000;
                world.advance_to(now_ns);
            }
        }
    }
    // The streams reached live sessions, not just the parser.
    for command in ["join", "fault", "leave"] {
        assert!(
            accepted.contains(command),
            "no `{command}` succeeded: {accepted:?}"
        );
    }
}
