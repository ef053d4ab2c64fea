//! Regenerate every table and figure of the paper in one supervised run.
//!
//! ```sh
//! cargo run --release -p visionsim-experiments --bin regenerate \
//!     [seed] [--resume] [--only <artifact>]
//! ```
//!
//! Each artifact runs in a panic-isolated cell and lands in
//! `artifacts/<name>.txt` (atomic rename) with a checksummed
//! `manifest.json` beside it. An artifact that panics twice is
//! quarantined — the rest still complete — and the process exits non-zero
//! with a summary naming the failed cells and their seeds. Nothing
//! detects a hung artifact: it blocks the run. `--resume` skips
//! artifacts already on disk whose checksum verifies against a same-seed
//! manifest, so a crashed or partially-failed run picks up where it left
//! off.
//!
//! Artifact files are byte-identical at any thread count and with the
//! sanitizer on or off; wall-clock timings go only to stdout and the
//! manifest.
//!
//! With `VISIONSIM_METRICS=1` each artifact also writes a deterministic
//! `<name>.metrics.json` sidecar; with `VISIONSIM_TRACE=1` it writes a
//! `<name>.trace.bin` flight-recorder image readable by `trace_dump`.
//! `--only <artifact>` runs a single artifact (the CI trace smoke).

use std::process::ExitCode;
use std::time::Instant;
use visionsim_experiments::harness::{self, HarnessConfig};

fn main() -> ExitCode {
    let mut seed = 2024u64;
    let mut resume = false;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" => resume = true,
            "--only" => {
                let Some(name) = args.next() else {
                    eprintln!("--only requires an artifact name");
                    return ExitCode::from(2);
                };
                if !harness::registry().iter().any(|s| s.name == name) {
                    let valid: Vec<&str> = harness::registry().iter().map(|s| s.name).collect();
                    eprintln!(
                        "unknown artifact {name:?}; valid names: {}",
                        valid.join(", ")
                    );
                    return ExitCode::from(2);
                }
                only = Some(name);
            }
            other => {
                if let Ok(s) = other.parse() {
                    seed = s;
                } else {
                    eprintln!("usage: regenerate [seed] [--resume] [--only <artifact>]");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let mut cfg = HarnessConfig::new(seed);
    cfg.resume = resume;
    cfg.only = only.clone();
    let wall = Instant::now();
    println!(
        "=== visionsim: regenerating all paper artifacts (seed {seed}, {} threads{}) ===\n",
        visionsim_core::par::threads(),
        if resume { ", resume" } else { "" }
    );

    let outcomes = harness::run_all(&cfg);
    let (summary, ok) = harness::summarize(&outcomes);
    print!("{summary}");

    let violations = visionsim_core::sanitizer::total();
    if violations > 0 {
        println!("\nsanitizer: {violations} invariant violation(s) recorded:");
        for v in visionsim_core::sanitizer::take().iter().take(20) {
            println!("  {v}");
        }
    }

    let total = wall.elapsed().as_secs_f64();

    // Track the whole-run wall-clock trajectory in BENCH.json. Wall
    // class: no per_sec, so the ci.sh throughput gate ignores it;
    // single-artifact, resumed, and failed runs record nothing, and so
    // does a run into any directory but this workspace's own `artifacts`
    // unless VISIONSIM_BENCH_JSON names the file.
    if ok && !resume && only.is_none() {
        let bench_json = std::env::var_os("VISIONSIM_BENCH_JSON");
        match harness::wall_bench_path(&cfg.dir, bench_json.as_deref()) {
            Some(path) => harness::record_wall_bench(&path, "regenerate/wall", total),
            None => println!(
                "regenerate/wall not recorded: artifacts went to {}; \
                 set VISIONSIM_BENCH_JSON to record it",
                cfg.dir.display()
            ),
        }
    }
    println!("=== done in {total:.1}s ===");

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
