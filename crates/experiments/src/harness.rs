//! Supervised, crash-safe artifact harness.
//!
//! `regenerate` used to be a straight-line `main` — one panicking runner
//! lost the whole batch, and a killed process left nothing on disk. This
//! module gives every paper artifact its own supervised cell and a durable
//! home:
//!
//! * Each artifact runs under [`visionsim_core::par::run_cell`]
//!   (`catch_unwind` + retry-once + quarantine), so one failure cannot
//!   take down the others.
//! * Output is written to `artifacts/<name>.txt` via temp-file +
//!   atomic rename: a crash mid-write never leaves a torn file.
//! * A `manifest.json` beside the artifacts records the seed, thread
//!   count, and an FNV-1a 64 checksum per artifact. `--resume` re-runs
//!   only artifacts whose file is missing or fails checksum verification
//!   against a same-seed manifest. `--only <name>` keeps the same-seed
//!   records of every artifact it skips.
//! * Artifact files contain **no wall-clock timings** — timing goes to
//!   stdout and the manifest — so files are byte-identical across thread
//!   counts and across runs with the same seed.
//!
//! Failure injection for CI: setting `VISIONSIM_FAIL_ARTIFACT=<name>`
//! makes that artifact's cell panic deliberately, exercising the
//! quarantine + resume path end-to-end.

use crate::*;
use std::ffi::OsStr;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use visionsim_core::par::{run_cell, CellError};
use visionsim_core::{metrics, trace, SimError};

/// One registered paper artifact.
pub struct ArtifactSpec {
    /// File stem under the artifact directory, and the supervision label.
    pub name: &'static str,
    /// The paper section/figure this artifact reproduces (summary table).
    pub section: &'static str,
    /// Produce the artifact text from the root seed. Must be
    /// deterministic in the seed: no timings, no thread-count dependence.
    pub run: fn(u64) -> String,
}

/// Every artifact `regenerate` produces, in run order.
pub fn registry() -> Vec<ArtifactSpec> {
    vec![
        ArtifactSpec {
            name: "table1",
            section: "Table 1 — server RTT matrix",
            run: |seed| {
                let t1 = table1::run(10, seed);
                format!("{t1}\nmax σ = {:.2} ms (paper: <7 ms)\n", t1.max_std())
            },
        },
        ArtifactSpec {
            name: "figure4",
            section: "Figure 4 — two-party throughput per app",
            run: |seed| format!("{}", figure4::run(3, 30, seed)),
        },
        ArtifactSpec {
            name: "mesh_streaming",
            section: "§4.3 direct-3D-streaming bandwidth floor",
            run: |seed| format!("{}", mesh_streaming::run(6, seed)),
        },
        ArtifactSpec {
            name: "display_latency",
            section: "§4.3 display latency vs injected delay",
            run: |seed| format!("{}", display_latency::run(500, seed)),
        },
        ArtifactSpec {
            name: "keypoint_rate",
            section: "§4.3 keypoint-stream bandwidth",
            run: |seed| format!("{}", keypoint_rate::run(2_000, seed)),
        },
        ArtifactSpec {
            name: "rate_adaptation",
            section: "§4.3 the 700 kbps availability cliff",
            run: |seed| format!("{}", rate_adaptation::run(15, seed)),
        },
        ArtifactSpec {
            name: "figure5",
            section: "Figure 5 — visibility-aware optimizations",
            run: |seed| format!("{}", figure5::run(500, seed)),
        },
        ArtifactSpec {
            name: "discovery",
            section: "§4.1 server discovery methodology",
            run: |seed| format!("{}", discovery::run(24, 5, seed)),
        },
        ArtifactSpec {
            name: "protocols",
            section: "§4.1 protocol findings + anycast check",
            run: |seed| format!("{}", protocols::run(10, seed)),
        },
        ArtifactSpec {
            name: "motion_to_photon",
            section: "motion-to-photon latency vs placement",
            run: |seed| format!("{}", motion_to_photon::run(15, seed)),
        },
        ArtifactSpec {
            name: "figure6",
            section: "Figure 6 — scalability, 2–5 users",
            run: |seed| format!("{}", figure6::run(30, seed)),
        },
        ArtifactSpec {
            name: "resilience",
            section: "chaos drill: mid-session faults",
            run: |seed| {
                let drill = resilience::run(14, seed);
                let recovered = if drill.cells.is_empty() {
                    "n/a (no cells ran)".to_string()
                } else {
                    format!(
                        "{}/{} cells dipped and recovered",
                        drill.recovered_cells(),
                        drill.cells.len()
                    )
                };
                format!("{drill}\n{recovered}\n")
            },
        },
        ArtifactSpec {
            name: "congestion",
            section: "closed-loop congestion: fairness + survival",
            run: |seed| format!("{}", congestion::run(40, seed)),
        },
        ArtifactSpec {
            name: "storms",
            section: "failover storms: admission + breakers + reconnects",
            run: |seed| format!("{}", storms::run(32, seed)),
        },
        ArtifactSpec {
            name: "fleet",
            section: "100k-session global fleet (sharded conservative PDES)",
            run: |seed| format!("{}", fleet::run(seed)),
        },
        ArtifactSpec {
            name: "ablations",
            section: "design-choice ablations",
            run: ablations_text,
        },
        ArtifactSpec {
            name: "extensions",
            section: "FEC + >5-user scaling extensions",
            run: |seed| {
                format!(
                    "{}\n{}\n",
                    extensions::format_fec(&extensions::fec_under_loss(500, 2_000, seed)),
                    extensions::format_beyond_five(&extensions::beyond_five_users(15, seed))
                )
            },
        },
    ]
}

/// The ablation bundle as one artifact, with division guards: a zero
/// delta-mode payload (possible on degenerate traces) renders as "n/a"
/// instead of dividing by zero.
fn ablations_text(seed: u64) -> String {
    let mut out = String::new();
    let coder = ablations::entropy_coder(200_000, seed);
    let _ = writeln!(
        out,
        "entropy coder on {} B residuals: rANS {} B vs LZ+range {} B",
        coder.input_len, coder.rans_len, coder.lzma_len
    );
    let delta = ablations::delta_coding(900, seed);
    let ratio = if delta.delta_bytes > 0.0 {
        format!("{:.1}x", delta.absolute_bytes / delta.delta_bytes)
    } else {
        "n/a".to_string()
    };
    let _ = writeln!(
        out,
        "semantic coding: absolute {:.2} Mbps vs delta {:.2} Mbps ({ratio} for loss resilience)",
        delta.absolute_mbps, delta.delta_mbps
    );
    for p in ablations::foveation_granularity(2_000, seed) {
        let _ = writeln!(
            out,
            "foveation ±{:>4.1}° → {:>7.0} mean triangles/frame",
            p.fovea_deg, p.mean_triangles
        );
    }
    let placement = ablations::placement();
    let _ = writeln!(
        out,
        "placement: initiator-near worst RTT {:.0} ms vs geo-distributed {:.0} ms",
        placement.initiator_worst_rtt_ms, placement.geo_worst_rtt_ms
    );
    let culling = ablations::semantic_culling(5_000, seed);
    let _ = writeln!(
        out,
        "visibility-aware delivery: {:.0}% uplink saving available",
        culling.saving_percent
    );
    out
}

/// FNV-1a 64-bit — the manifest's content checksum. Not cryptographic;
/// guards against torn/stale files, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where `regenerate` writes artifacts unless `VISIONSIM_ARTIFACT_DIR`
/// says otherwise.
const DEFAULT_ARTIFACT_DIR: &str = "artifacts";

/// The root of the workspace this was built from.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `BENCH.json` at the root of the workspace this was built from.
fn workspace_bench_json() -> PathBuf {
    workspace_root().join("BENCH.json")
}

/// Where `BENCH.json` lives: `$VISIONSIM_BENCH_JSON`, else the file at
/// the workspace root.
pub fn bench_json_path() -> PathBuf {
    match std::env::var_os("VISIONSIM_BENCH_JSON") {
        Some(p) => PathBuf::from(p),
        None => workspace_bench_json(),
    }
}

/// Where a full `regenerate` run that wrote its artifacts to
/// `artifact_dir` records its wall time, given `$VISIONSIM_BENCH_JSON`
/// as `bench_json`: the named file when it is set, else the `BENCH.json`
/// of the workspace this was built from, but only for a run into that
/// workspace's own `artifacts`. A run whose artifacts went anywhere else
/// (a scratch directory, a CI temp dir, an `artifacts` directory under
/// another working directory) records nothing unless `bench_json` names
/// the file, so it never rewrites the checkout's committed timings.
pub fn wall_bench_path(artifact_dir: &Path, bench_json: Option<&OsStr>) -> Option<PathBuf> {
    wall_bench_path_in(&workspace_root(), artifact_dir, bench_json)
}

/// [`wall_bench_path`] for the workspace rooted at `workspace`. Both
/// directories are compared canonicalized, so a relative `artifact_dir`
/// resolves against the working directory, and a directory that does
/// not exist matches nothing.
fn wall_bench_path_in(
    workspace: &Path,
    artifact_dir: &Path,
    bench_json: Option<&OsStr>,
) -> Option<PathBuf> {
    if let Some(p) = bench_json {
        return Some(PathBuf::from(p));
    }
    let own = fs::canonicalize(workspace.join(DEFAULT_ARTIFACT_DIR)).ok()?;
    (fs::canonicalize(artifact_dir).ok()? == own).then(|| workspace.join("BENCH.json"))
}

/// Merge `entries`, each a benchmark name and its JSON object, into the
/// `BENCH.json` at `path`: they replace same-named entries, every other
/// entry is kept, and the file holds one entry per line, sorted by name,
/// so diffs against a committed baseline stay readable.
///
/// A missing directory means `VISIONSIM_BENCH_JSON` is misconfigured, so
/// it is refused with [`SimError::Io`] rather than created. The file on
/// disk is either its previous contents or the full merged result, never
/// a partial write.
pub fn merge_bench_json(path: &Path, entries: &[(String, String)]) -> Result<(), SimError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if !dir.is_dir() {
        return Err(SimError::Io {
            what: "bench json dir",
        });
    }
    // An entry line maps a name to an object; the object braces tell it
    // apart from the file's own delimiters.
    let entry_name = |line: &str| -> Option<String> {
        let rest = line.trim_start().strip_prefix('"')?;
        let end = rest.find('"')?;
        rest[end..].contains(": {").then(|| rest[..end].to_string())
    };
    let mut lines = std::collections::BTreeMap::new();
    if let Ok(existing) = fs::read_to_string(path) {
        for line in existing.lines() {
            if let Some(name) = entry_name(line) {
                lines.insert(name, line.trim_end_matches(',').to_string());
            }
        }
    }
    for (name, object) in entries {
        lines.insert(name.clone(), format!("  \"{name}\": {object}"));
    }
    let mut out = String::from("{\n");
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.values().enumerate() {
        out.push_str(line);
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    write_atomic(path, out.as_bytes()).map_err(|_| SimError::Io {
        what: "bench json write",
    })
}

/// Merge one wall-clock timing entry into the `BENCH.json` at `path`
/// (see [`wall_bench_path`]). The entry
/// carries **no** `per_sec` field, which is what keeps it out of ci.sh's
/// throughput regression gate — wall time of the whole run is a
/// trajectory to watch, not a gated invariant.
///
/// Failure is downgraded to a stderr warning: timings are a byproduct
/// and must never fail a regeneration.
pub fn record_wall_bench(path: &Path, name: &str, secs: f64) {
    let ns = secs * 1e9;
    let object = format!(
        "{{\"min_ns\": {ns:.1}, \"mean_ns\": {ns:.1}, \"max_ns\": {ns:.1}, \"unit\": \"wall\"}}"
    );
    if let Err(e) = merge_bench_json(path, &[(name.to_string(), object)]) {
        eprintln!(
            "warning: could not record wall time in {}: {e}",
            path.display()
        );
    }
}

/// One artifact's manifest record.
#[derive(Clone, Debug, PartialEq)]
pub struct ManifestEntry {
    /// Artifact name (file stem).
    pub name: String,
    /// FNV-1a 64 checksum of the artifact file's bytes, hex.
    pub checksum: u64,
    /// Artifact file size in bytes.
    pub bytes: u64,
    /// Wall-clock seconds the producing run spent (informational).
    pub secs: f64,
}

/// The on-disk manifest: which artifacts exist, under which seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Manifest {
    /// Root seed the artifacts were generated from.
    pub seed: u64,
    /// Worker threads of the producing run (informational; artifacts are
    /// thread-count-independent by construction).
    pub threads: usize,
    /// Per-artifact records.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Serialize as JSON (hand-rolled: the workspace builds without serde).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"artifacts\": [");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"checksum\": \"{:016x}\", \"bytes\": {}, \"secs\": {:.3}}}{comma}",
                e.name, e.checksum, e.bytes, e.secs
            );
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }

    /// Parse the JSON written by [`Manifest::to_json`]. Returns `None` on
    /// anything malformed — a broken manifest means "no resume state",
    /// never a crash.
    pub fn from_json(text: &str) -> Option<Manifest> {
        let seed = scan_u64(text, "\"seed\"")?;
        let threads = scan_u64(text, "\"threads\"")? as usize;
        let mut entries = Vec::new();
        // Entries are one object per line by construction; scan each line
        // that contains a "name" key.
        for line in text.lines() {
            if !line.trim_start().starts_with("{\"name\"") {
                continue;
            }
            let name = scan_string(line, "\"name\"")?;
            let checksum = u64::from_str_radix(&scan_string(line, "\"checksum\"")?, 16).ok()?;
            let bytes = scan_u64(line, "\"bytes\"")?;
            let secs = scan_f64(line, "\"secs\"")?;
            entries.push(ManifestEntry {
                name,
                checksum,
                bytes,
                secs,
            });
        }
        Some(Manifest {
            seed,
            threads,
            entries,
        })
    }

    /// The entry for `name`, if present.
    pub fn entry(&self, name: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.name == name)
    }
}

fn scan_after<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    Some(rest)
}

fn scan_u64(text: &str, key: &str) -> Option<u64> {
    let rest = scan_after(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn scan_f64(text: &str, key: &str) -> Option<f64> {
    let rest = scan_after(text, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn scan_string(text: &str, key: &str) -> Option<String> {
    let rest = scan_after(text, key)?;
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Write `content` to `path` atomically: temp file in the same directory,
/// flush, then rename over the target.
pub fn write_atomic(path: &Path, content: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{}.tmp",
        path.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("artifact")
    ));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(content)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Harness configuration.
pub struct HarnessConfig {
    /// Root seed handed to every runner.
    pub seed: u64,
    /// Skip artifacts already on disk with a verified checksum.
    pub resume: bool,
    /// Artifact directory (default `artifacts/`, override with
    /// `VISIONSIM_ARTIFACT_DIR`).
    pub dir: PathBuf,
    /// Echo each artifact's text to stdout as it lands.
    pub echo: bool,
    /// Run only the named artifact (CI smoke; `--only <name>`).
    pub only: Option<String>,
}

impl HarnessConfig {
    /// Defaults: given seed, no resume, `artifacts/` or the
    /// `VISIONSIM_ARTIFACT_DIR` override, echo on, all artifacts.
    pub fn new(seed: u64) -> Self {
        HarnessConfig {
            seed,
            resume: false,
            dir: std::env::var("VISIONSIM_ARTIFACT_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|_| PathBuf::from(DEFAULT_ARTIFACT_DIR)),
            echo: true,
            only: None,
        }
    }
}

/// How one artifact ended.
#[derive(Debug)]
pub enum ArtifactStatus {
    /// Generated and written this run.
    Written,
    /// Skipped under `--resume`: file present and checksum-verified.
    Resumed,
    /// Quarantined: the supervised cell panicked twice.
    Failed(CellError),
}

/// Per-artifact outcome of a harness run.
#[derive(Debug)]
pub struct ArtifactOutcome {
    /// Artifact name.
    pub name: &'static str,
    /// What happened.
    pub status: ArtifactStatus,
    /// Wall-clock seconds spent (zero when resumed).
    pub secs: f64,
}

/// Run every registered artifact under supervision. Returns the outcomes
/// in run order; the run is a success iff none failed. The manifest is
/// rewritten after every artifact, in registry order, so a crash at any
/// point leaves disk state a later `--resume` can trust.
pub fn run_all(cfg: &HarnessConfig) -> Vec<ArtifactOutcome> {
    let specs = registry();
    let manifest_path = cfg.dir.join("manifest.json");
    let prior = fs::read_to_string(&manifest_path)
        .ok()
        .and_then(|t| Manifest::from_json(&t))
        // A manifest from a different seed describes different artifacts;
        // ignore it wholesale.
        .filter(|m| m.seed == cfg.seed)
        .unwrap_or_default();
    let skipped = |name: &str| cfg.only.as_deref().is_some_and(|only| only != name);
    // `--only` leaves every other artifact's file untouched, so their
    // same-seed records carry forward.
    let mut manifest = Manifest {
        seed: cfg.seed,
        threads: visionsim_core::par::threads(),
        entries: specs
            .iter()
            .filter(|s| skipped(s.name))
            .filter_map(|s| prior.entry(s.name).cloned())
            .collect(),
    };
    let record = |manifest: &mut Manifest, entry: ManifestEntry| {
        manifest.entries.push(entry);
        manifest
            .entries
            .sort_by_key(|e| specs.iter().position(|s| s.name == e.name));
        let _ = write_atomic(&manifest_path, manifest.to_json().as_bytes());
    };
    let inject = std::env::var("VISIONSIM_FAIL_ARTIFACT").ok();
    let mut outcomes = Vec::new();

    for spec in &specs {
        if skipped(spec.name) {
            continue;
        }
        let path = cfg.dir.join(format!("{}.txt", spec.name));
        // Resume: trust the file only if the prior manifest (same seed)
        // has a checksum and the bytes on disk still match it.
        if cfg.resume {
            if let (Some(entry), Ok(bytes)) = (prior.entry(spec.name), fs::read(&path)) {
                if fnv1a64(&bytes) == entry.checksum {
                    record(&mut manifest, entry.clone());
                    if cfg.echo {
                        println!(
                            "[{}: resumed, checksum {:016x} verified]\n",
                            spec.name, entry.checksum
                        );
                    }
                    outcomes.push(ArtifactOutcome {
                        name: spec.name,
                        status: ArtifactStatus::Resumed,
                        secs: 0.0,
                    });
                    continue;
                }
            }
        }

        // Observability boundary: each attempt starts from a clean
        // registry, so `metrics.json` describes the attempt that produced
        // the artifact (`run_cell` counts the cell and its retry after
        // the attempts). The ring resets once per artifact, so a retry
        // stays visible in `trace.bin`. No-ops (beyond zeroing) when the
        // layer is disabled.
        trace::reset();
        let start = Instant::now();
        let fail_this = inject.as_deref() == Some(spec.name);
        let span_label = format!("{}/cell", spec.name);
        let result = run_cell(spec.name, cfg.seed, || {
            metrics::reset();
            let _span = visionsim_core::span!(span_label.as_str(), cfg.seed);
            if fail_this {
                panic!("injected failure via VISIONSIM_FAIL_ARTIFACT={}", spec.name);
            }
            (spec.run)(cfg.seed)
        });
        let secs = start.elapsed().as_secs_f64();

        match result {
            Ok(text) => {
                let checksum = fnv1a64(text.as_bytes());
                if let Err(e) = write_atomic(&path, text.as_bytes()) {
                    eprintln!("[{}: write failed: {e}]", spec.name);
                }
                // Sidecar observability artifacts. The metrics snapshot
                // excludes wall-clock metrics, so it is byte-identical for
                // a given seed at any thread count; the trace is sorted by
                // (time, seq) at dump time instead.
                if metrics::enabled() {
                    let mpath = cfg.dir.join(format!("{}.metrics.json", spec.name));
                    if let Err(e) = write_atomic(&mpath, metrics::snapshot_json(false).as_bytes()) {
                        eprintln!("[{}: metrics write failed: {e}]", spec.name);
                    }
                }
                if trace::enabled() {
                    let events = trace::take();
                    let tpath = cfg.dir.join(format!("{}.trace.bin", spec.name));
                    if let Err(e) = write_atomic(&tpath, &trace::encode(&events)) {
                        eprintln!("[{}: trace write failed: {e}]", spec.name);
                    }
                }
                record(
                    &mut manifest,
                    ManifestEntry {
                        name: spec.name.to_string(),
                        checksum,
                        bytes: text.len() as u64,
                        secs,
                    },
                );
                if cfg.echo {
                    print!("{text}");
                    println!("[{}: {secs:.2}s → {}]\n", spec.name, path.display());
                }
                outcomes.push(ArtifactOutcome {
                    name: spec.name,
                    status: ArtifactStatus::Written,
                    secs,
                });
            }
            Err(err) => {
                if cfg.echo {
                    println!("[{}: QUARANTINED — {err}]\n", spec.name);
                }
                outcomes.push(ArtifactOutcome {
                    name: spec.name,
                    status: ArtifactStatus::Failed(err),
                    secs,
                });
            }
        }
    }
    outcomes
}

/// Render the end-of-run summary table; returns true when all artifacts
/// are accounted for (written or resumed).
pub fn summarize(outcomes: &[ArtifactOutcome]) -> (String, bool) {
    let mut out = String::new();
    let failed: Vec<&ArtifactOutcome> = outcomes
        .iter()
        .filter(|o| matches!(o.status, ArtifactStatus::Failed(_)))
        .collect();
    let written = outcomes
        .iter()
        .filter(|o| matches!(o.status, ArtifactStatus::Written))
        .count();
    let resumed = outcomes
        .iter()
        .filter(|o| matches!(o.status, ArtifactStatus::Resumed))
        .count();
    let _ = writeln!(
        out,
        "artifacts: {written} written, {resumed} resumed, {} failed",
        failed.len()
    );
    if !failed.is_empty() {
        let _ = writeln!(out, "\nfailed artifacts:");
        let _ = writeln!(out, "  {:<18} seed        detail", "name");
        for o in &failed {
            if let ArtifactStatus::Failed(e) = &o.status {
                let _ = writeln!(
                    out,
                    "  {:<18} {:<11} {}",
                    o.name,
                    e.seed,
                    e.payload.lines().next().unwrap_or("")
                );
            }
        }
        let _ = writeln!(
            out,
            "\nre-run with --resume to regenerate only the failed artifacts"
        );
    }
    (out, failed.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            seed: 2024,
            threads: 4,
            entries: vec![
                ManifestEntry {
                    name: "table1".into(),
                    checksum: 0xDEAD_BEEF_0123_4567,
                    bytes: 431,
                    secs: 1.25,
                },
                ManifestEntry {
                    name: "figure6".into(),
                    checksum: 7,
                    bytes: 0,
                    secs: 0.0,
                },
            ],
        };
        let parsed = Manifest::from_json(&m.to_json()).expect("own json");
        assert_eq!(parsed, m);
    }

    #[test]
    fn wall_time_is_recorded_only_where_the_run_was_told_to() {
        let root = std::env::temp_dir().join(format!("visionsim-wall-{}", std::process::id()));
        let workspace = root.join("checkout");
        let own = workspace.join(DEFAULT_ARTIFACT_DIR);
        let foreign = root.join("elsewhere").join(DEFAULT_ARTIFACT_DIR);
        fs::create_dir_all(&own).unwrap();
        fs::create_dir_all(&foreign).unwrap();
        fs::create_dir_all(workspace.join("src")).unwrap();
        let bench = Some(workspace.join("BENCH.json"));
        let named = OsStr::new("/scratch/bench.json");

        // A run into the workspace's own artifacts records in its
        // BENCH.json, however the directory is spelled, or in the named
        // file.
        assert_eq!(wall_bench_path_in(&workspace, &own, None), bench);
        let dotted = workspace.join("src/../artifacts/.");
        assert_eq!(wall_bench_path_in(&workspace, &dotted, None), bench);
        assert_eq!(
            wall_bench_path_in(&workspace, &own, Some(named)),
            Some(PathBuf::from(named))
        );
        // Any other directory, even one named `artifacts`, records only
        // where it is told to, and so does one that does not exist.
        for dir in [foreign.as_path(), &root, &root.join("missing")] {
            assert_eq!(wall_bench_path_in(&workspace, dir, None), None, "{dir:?}");
            assert_eq!(
                wall_bench_path_in(&workspace, dir, Some(named)),
                Some(PathBuf::from(named))
            );
        }
        // A workspace without an artifacts directory matches nothing.
        fs::remove_dir(&own).unwrap();
        assert_eq!(wall_bench_path_in(&workspace, &own, None), None);
        fs::remove_dir_all(&root).unwrap();

        // This build's own workspace: its committed `artifacts` records in
        // its BENCH.json, and a relative `artifacts` resolves against the
        // working directory (the crate's, under `cargo test`), not the
        // workspace root.
        let checkout = workspace_root().join(DEFAULT_ARTIFACT_DIR);
        assert_eq!(
            wall_bench_path(&checkout, None),
            Some(workspace_bench_json())
        );
        assert_eq!(wall_bench_path(Path::new(DEFAULT_ARTIFACT_DIR), None), None);
    }

    #[test]
    fn malformed_manifest_is_none_not_panic() {
        for garbage in ["", "{", "{\"seed\": }", "plain text", "{\"artifacts\": [}]"] {
            let _ = Manifest::from_json(garbage);
        }
        assert!(Manifest::from_json("nonsense").is_none());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join(format!("visionsim-harness-{}", std::process::id()));
        let path = dir.join("artifact.txt");
        write_atomic(&path, b"first").expect("write");
        write_atomic(&path, b"second").expect("overwrite");
        assert_eq!(fs::read(&path).expect("read back"), b"second");
        let _ = fs::remove_dir_all(&dir);
    }

    /// `--only` rewrites one artifact and keeps the same-seed records of
    /// the rest (in registry order), so a later `--resume` still trusts
    /// their files.
    #[test]
    fn only_keeps_the_manifest_entries_of_skipped_artifacts() {
        let dir = std::env::temp_dir().join(format!("visionsim-only-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let entry = |name: &str, checksum| ManifestEntry {
            name: name.into(),
            checksum,
            bytes: 1,
            secs: 0.5,
        };
        let prior = Manifest {
            seed: 2024,
            threads: 1,
            entries: vec![entry("fleet", 3), entry("storms", 2), entry("table1", 1)],
        };
        write_atomic(&dir.join("manifest.json"), prior.to_json().as_bytes()).expect("write");
        let cfg = HarnessConfig {
            seed: 2024,
            resume: false,
            dir: dir.clone(),
            echo: false,
            only: Some("storms".into()),
        };
        let outcomes = run_all(&cfg);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0].status, ArtifactStatus::Written));
        let text = fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        let after = Manifest::from_json(&text).expect("own json");
        let names: Vec<&str> = after.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["table1", "storms", "fleet"], "{text}");
        assert_eq!(after.entry("table1"), prior.entry("table1"));
        assert_eq!(after.entry("fleet"), prior.entry("fleet"));
        let storms = fs::read(dir.join("storms.txt")).expect("storms written");
        assert_eq!(after.entry("storms").unwrap().checksum, fnv1a64(&storms));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let specs = registry();
        assert!(specs.len() >= 15);
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate artifact names");
    }
}
