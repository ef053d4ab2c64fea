//! The `visionsim` command-line interface.
//!
//! ```text
//! visionsim <command> [seed]
//!
//! commands:
//!   table1        Table 1 — server RTT matrix
//!   figure4       Figure 4 — per-app two-party throughput
//!   figure5       Figure 5 — visibility-aware optimizations
//!   figure6       Figure 6 — 2-5 user scalability
//!   delivery      §4.3 — the what-is-being-delivered experiments
//!   protocols     §4.1 — protocol/topology matrix
//!   discovery     §4.1 — server-fleet discovery from randomized sessions
//!   m2p           motion-to-photon latency vs server placement
//!   extensions    FEC + beyond-five-users extensions
//!   session       run one spatial session and print its measurements
//!   all           everything above, in paper order
//!   serve         run the live service (see `serve --help`)
//!   ctl           send one control command to a running service
//!   scrape        HTTP GET a running service's /metrics endpoint
//! ```
//!
//! The optional trailing integer seeds the simulation (default 2024);
//! identical seeds reproduce identical output bit-for-bit. `serve`,
//! `ctl`, and `scrape` take their own arguments instead of a seed.

use visionsim::experiments::*;

fn print_usage() -> ! {
    eprintln!(
        "usage: visionsim <table1|figure4|figure5|figure6|delivery|protocols|discovery|m2p|extensions|session|all> [seed]\n       visionsim serve [--speed N] [--control ADDR] [--metrics ADDR] [--trace PATH] [--run-secs S] [--pacing-ms MS]\n       visionsim ctl <ADDR> <command...>\n       visionsim scrape <ADDR> [target]"
    );
    std::process::exit(2);
}

/// `visionsim serve`: run the live service until `shutdown` (or
/// `--run-secs`). Prints `serve control=<addr> metrics=<addr> speed=<n>`
/// once the sockets are bound; scripts parse the auto-assigned ports.
fn run_serve(args: &[String]) {
    use visionsim::service::server::{serve, ServeOptions};

    let mut opts = ServeOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("serve: {what} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--speed" => {
                opts.speed = value("--speed").parse().unwrap_or_else(|_| {
                    eprintln!("serve: bad --speed");
                    std::process::exit(2);
                })
            }
            "--control" => opts.control_addr = value("--control"),
            "--metrics" => opts.metrics_addr = value("--metrics"),
            "--trace" => opts.trace_path = Some(value("--trace").into()),
            "--run-secs" => {
                let secs: u64 = value("--run-secs").parse().unwrap_or_else(|_| {
                    eprintln!("serve: bad --run-secs");
                    std::process::exit(2);
                });
                opts.max_wall = Some(std::time::Duration::from_secs(secs));
            }
            "--pacing-ms" => {
                let ms: u64 = value("--pacing-ms").parse().unwrap_or_else(|_| {
                    eprintln!("serve: bad --pacing-ms");
                    std::process::exit(2);
                });
                opts.pacing = std::time::Duration::from_millis(ms.max(1));
            }
            other => {
                eprintln!("serve: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = serve(opts) {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
}

fn parse_addr(addr: &str) -> std::net::SocketAddr {
    addr.parse().unwrap_or_else(|_| {
        eprintln!("bad address {addr:?} (expected host:port)");
        std::process::exit(2);
    })
}

/// `visionsim ctl <addr> <command...>`: one protocol round-trip.
fn run_ctl(args: &[String]) {
    use visionsim::service::server::control_roundtrip;
    let (addr, words) = match args.split_first() {
        Some(split) if !split.1.is_empty() => split,
        _ => {
            eprintln!("usage: visionsim ctl <ADDR> <command...>");
            std::process::exit(2);
        }
    };
    match control_roundtrip(&parse_addr(addr), &words.join(" ")) {
        Ok(reply) => {
            println!("{reply}");
            if reply.starts_with("err ") {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("ctl: {e}");
            std::process::exit(1);
        }
    }
}

/// `visionsim scrape <addr> [target]`: print the HTTP response body.
fn run_scrape(args: &[String]) {
    use visionsim::service::server::scrape;
    let Some(addr) = args.first() else {
        eprintln!("usage: visionsim scrape <ADDR> [target]");
        std::process::exit(2);
    };
    let target = args.get(1).map(String::as_str).unwrap_or("/metrics");
    match scrape(&parse_addr(addr), target) {
        Ok(body) => print!("{body}"),
        Err(e) => {
            eprintln!("scrape: {e}");
            std::process::exit(1);
        }
    }
}

fn run_session(seed: u64) {
    use visionsim::capture::analysis::CaptureAnalysis;
    use visionsim::core::time::SimDuration;
    use visionsim::device::device::DeviceKind;
    use visionsim::geo::{cities, sites::Provider};
    use visionsim::vca::session::{SessionConfig, SessionRunner};

    let mut cfg = SessionConfig::two_party(
        Provider::FaceTime,
        (
            DeviceKind::VisionPro,
            cities::by_name("San Francisco, CA").expect("registry city"),
        ),
        (
            DeviceKind::VisionPro,
            cities::by_name("New York, NY").expect("registry city"),
        ),
        seed,
    );
    cfg.duration = SimDuration::from_secs(20);
    let out = SessionRunner::new(cfg).run();
    let analysis = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
    println!("FaceTime AVP↔AVP, SF↔NYC, 20 s (seed {seed}):");
    println!(
        "  persona   : {:?} over {:?}",
        out.persona_type,
        analysis.dominant_protocol()
    );
    println!("  uplink    : {}", analysis.uplink_rate());
    println!("  downlink  : {}", analysis.downlink_rate());
    println!("  GPU       : {}", out.counters[0].gpu_boxplot());
    println!("  triangles : {}", out.counters[0].triangles_boxplot());
    println!("  available : {:.0}%", out.availability_fraction(0) * 100.0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(command) = args.get(1) else {
        print_usage();
    };
    match command.as_str() {
        "serve" => return run_serve(&args[2..]),
        "ctl" => return run_ctl(&args[2..]),
        "scrape" => return run_scrape(&args[2..]),
        _ => {}
    }
    let seed: u64 = args
        .get(2)
        .map(|s| s.parse().unwrap_or_else(|_| print_usage()))
        .unwrap_or(2024);

    let run_one = |cmd: &str| match cmd {
        "table1" => {
            let t = table1::run(10, seed);
            println!("{t}");
            println!("max σ = {:.2} ms (paper: <7 ms)", t.max_std());
        }
        "figure4" => println!("{}", figure4::run(3, 30, seed)),
        "figure5" => println!("{}", figure5::run(500, seed)),
        "figure6" => println!("{}", figure6::run(30, seed)),
        "delivery" => {
            println!("{}", mesh_streaming::run(6, seed));
            println!("{}", display_latency::run(500, seed));
            println!("{}", keypoint_rate::run(2_000, seed));
            println!("{}", rate_adaptation::run(15, seed));
        }
        "protocols" => println!("{}", protocols::run(10, seed)),
        "discovery" => println!("{}", discovery::run(24, 5, seed)),
        "m2p" => println!("{}", motion_to_photon::run(15, seed)),
        "extensions" => {
            println!(
                "{}",
                extensions::format_fec(&extensions::fec_under_loss(500, 2_000, seed))
            );
            println!(
                "{}",
                extensions::format_beyond_five(&extensions::beyond_five_users(15, seed))
            );
        }
        "session" => run_session(seed),
        _ => print_usage(),
    };

    if command == "all" {
        for cmd in [
            "table1",
            "figure4",
            "delivery",
            "figure5",
            "protocols",
            "discovery",
            "m2p",
            "figure6",
            "extensions",
        ] {
            println!("=== {cmd} ===");
            run_one(cmd);
        }
    } else {
        run_one(command);
    }
}
