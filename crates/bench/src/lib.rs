//! # visionsim-bench
//!
//! Benchmark harness and the benches that record `BENCH.json`. Paper
//! artifacts are not benched here: `regenerate` writes and times each one.
//!
//! | bench target | what it times |
//! |---|---|
//! | `codecs` | micro-benchmarks of every in-tree codec |
//! | `packet_path` | per-hop forwarding, SFU fan-out and tap observation in `net::network` |
//! | `event_queue` | `core::event::EventQueue` alone, on the hold model |
//! | `fleet` | fleet session throughput and the conservative-PDES round loop |
//!
//! Run with `cargo bench -p visionsim-bench`.
//!
//! The measurement harness itself lives in this crate (the workspace has
//! no external dependency, so no criterion): a Criterion-shaped API —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`Throughput`],
//! [`criterion_group!`]/[`criterion_main!`] — over a
//! simple calibrate-then-sample loop. Each benchmark is calibrated so one
//! sample takes ≥10 ms of wall-clock, then `sample_size` samples are timed
//! and the per-iteration min / mean / max are reported (min is the headline
//! number: it is the least noise-contaminated statistic on a shared
//! machine).

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use visionsim_core::SimError;
use visionsim_experiments::harness::write_atomic;

/// One measured benchmark, in the shape `BENCH.json` records.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Full benchmark name, `group/function[/param]`.
    pub name: String,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Mean over samples, ns per iteration.
    pub mean_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// Units processed per second at the min (headline) time, with the
    /// unit name — `("bytes", x)` or `("elements", x)` — when the group
    /// declared a throughput.
    pub throughput: Option<(&'static str, f64)>,
}

/// Records accumulated by every `bench_function` call in this process,
/// flushed to `BENCH.json` by [`criterion_main!`] via [`flush_json`].
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Where the machine-readable results land: `$VISIONSIM_BENCH_JSON`, or
/// `BENCH.json` at the workspace root.
pub fn bench_json_path() -> std::path::PathBuf {
    match std::env::var_os("VISIONSIM_BENCH_JSON") {
        Some(p) => std::path::PathBuf::from(p),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json"),
    }
}

fn record_line(r: &BenchRecord) -> String {
    let tp = match r.throughput {
        Some((unit, per_sec)) => {
            format!(", \"unit\": \"{unit}\", \"per_sec\": {per_sec:.1}")
        }
        None => String::new(),
    };
    format!(
        "  \"{}\": {{\"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"max_ns\": {:.1}{tp}}}",
        r.name, r.min_ns, r.mean_ns, r.max_ns
    )
}

/// The benchmark name a merged `BENCH.json` entry line carries, if any.
fn line_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    // Entry lines map a name to an object; the object braces distinguish
    // them from the file's own delimiters.
    rest[end..].contains(": {").then(|| &rest[..end])
}

/// Merge this process's records into `BENCH.json`: entries measured in this
/// run replace same-named ones from earlier runs (each bench target is a
/// separate process, so `cargo bench` accumulates across targets), all
/// others are kept. One entry per line, sorted by name, so diffs against a
/// committed baseline stay readable.
///
/// Errors (a `VISIONSIM_BENCH_JSON` pointing into a nonexistent directory,
/// an unwritable target) come back as [`SimError::Io`]; the file on disk is
/// either the previous contents or the full merged result, never a partial
/// write (the merge goes through the harness's atomic temp-then-rename
/// helper).
pub fn try_flush_json() -> Result<(), SimError> {
    let fresh = std::mem::take(&mut *RECORDS.lock().unwrap_or_else(|e| e.into_inner()));
    if fresh.is_empty() {
        return Ok(());
    }
    merge_into(&bench_json_path(), &fresh)
}

/// [`try_flush_json`] with an explicit target path (testable without env).
fn merge_into(path: &Path, fresh: &[BenchRecord]) -> Result<(), SimError> {
    // `write_atomic` creates missing parent directories as a convenience
    // for artifacts; for bench results a missing directory means
    // `VISIONSIM_BENCH_JSON` is misconfigured, so refuse instead of
    // silently materializing the typo'd path.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if !dir.is_dir() {
        return Err(SimError::Io {
            what: "bench json dir",
        });
    }
    let mut entries: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            if let Some(name) = line_name(line) {
                entries.insert(name.to_string(), line.trim_end_matches(',').to_string());
            }
        }
    }
    for r in fresh {
        entries.insert(r.name.clone(), record_line(r));
    }
    let mut out = String::from("{\n");
    let last = entries.len().saturating_sub(1);
    for (i, line) in entries.values().enumerate() {
        out.push_str(line);
        out.push_str(if i == last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    write_atomic(path, out.as_bytes()).map_err(|_| SimError::Io {
        what: "bench json write",
    })
}

/// [`try_flush_json`], downgrading failure to a stderr warning — bench
/// results are a byproduct; a bad results path must not fail the run.
pub fn flush_json() {
    if let Err(e) = try_flush_json() {
        eprintln!(
            "warning: could not write {}: {e}",
            bench_json_path().display()
        );
    }
}

/// Throughput annotation: scales the report to bytes/s or elements/s.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` for the configured number of iterations. Each return value
    /// passes through `black_box` and is dropped inside the timed loop, so
    /// the figure includes freeing what `f` returns, as Criterion's `iter`
    /// does.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// A named group of benchmarks sharing sample-size and throughput settings.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

/// Target wall-clock for one calibrated sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(10);

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotate per-iteration throughput for the report.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        // Calibrate: grow the iteration count until one sample is ≥10 ms.
        let mut iters = 1u64;
        let per_iter = loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            if b.elapsed >= SAMPLE_TARGET || iters >= 1 << 20 {
                break b.elapsed.as_secs_f64() / iters as f64;
            }
            // Jump straight to the projected count rather than doubling
            // blindly, with a 2x floor to converge fast from tiny timings.
            let projected = (SAMPLE_TARGET.as_secs_f64() / b.elapsed.as_secs_f64().max(1e-9)
                * iters as f64) as u64;
            iters = projected.max(iters * 2).min(1 << 20);
        };
        let iters = ((SAMPLE_TARGET.as_secs_f64() / per_iter.max(1e-12)) as u64).max(1);

        // `VISIONSIM_BENCH_SAMPLES` caps the sample count (CI smoke runs
        // want the harness exercised, not a statistically tight number).
        let sample_size = std::env::var("VISIONSIM_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map_or(self.sample_size, |n| n.clamp(1, self.sample_size));
        let mut samples = Vec::with_capacity(sample_size);
        for _ in 0..sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.elapsed.as_secs_f64() / b.iters.max(1) as f64);
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => format!("  {}/s", human_bytes(n as f64 / min)),
            Some(Throughput::Elements(n)) => {
                format!("  {} elem/s", human_count(n as f64 / min))
            }
            None => String::new(),
        };
        RECORDS.lock().unwrap_or_else(|e| e.into_inner()).push(BenchRecord {
            name: format!("{}/{}", self.name, id),
            min_ns: min * 1e9,
            mean_ns: mean * 1e9,
            max_ns: max * 1e9,
            throughput: match self.throughput {
                Some(Throughput::Bytes(n)) => Some(("bytes", n as f64 / min)),
                Some(Throughput::Elements(n)) => Some(("elements", n as f64 / min)),
                None => None,
            },
        });
        println!(
            "{}/{:<32} time: [{} {} {}]{}  ({} samples × {} iters)",
            self.name,
            id.to_string(),
            human_time(min),
            human_time(mean),
            human_time(max),
            rate,
            sample_size,
            iters,
        );
        self
    }

    /// End the group (kept for API parity; reporting is immediate).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark context.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 10,
            throughput: None,
        }
    }
}

fn human_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

fn human_bytes(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} GiB", per_sec / (1u64 << 30) as f64)
    } else if per_sec >= 1e6 {
        format!("{:.2} MiB", per_sec / (1u64 << 20) as f64)
    } else {
        format!("{:.2} KiB", per_sec / 1024.0)
    }
}

fn human_count(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} k", per_sec / 1e3)
    } else {
        format!("{per_sec:.1}")
    }
}

/// Collect benchmark functions under one name (API parity with criterion).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)*) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running each group, then flushing `BENCH.json`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)*) => {
        fn main() {
            $($group();)+
            $crate::flush_json();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("selftest");
        g.sample_size(2);
        g.throughput(Throughput::Bytes(1024));
        let mut ran = 0u64;
        g.bench_function("spin", |b| b.iter(|| ran = ran.wrapping_add(1)));
        g.finish();
        assert!(ran > 0);
    }

    fn record(name: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            min_ns: ns,
            mean_ns: ns,
            max_ns: ns,
            throughput: None,
        }
    }

    #[test]
    fn merge_into_nonexistent_dir_errs_without_partial_file() {
        let dir = std::env::temp_dir().join("visionsim-bench-no-such-dir");
        // The directory must genuinely not exist for the refusal path.
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH.json");
        let err = merge_into(&path, &[record("g/f", 1.0)]).unwrap_err();
        assert_eq!(format!("{err}"), "io failure: bench json dir");
        assert!(!dir.exists(), "refusal must not materialize the directory");
    }

    #[test]
    fn merge_into_replaces_same_named_entries_and_keeps_others() {
        let dir = std::env::temp_dir().join("visionsim-bench-merge-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH.json");
        let _ = std::fs::remove_file(&path);
        merge_into(&path, &[record("g/old", 1.0), record("g/keep", 2.0)]).expect("first");
        merge_into(&path, &[record("g/old", 9.0)]).expect("second");
        let text = std::fs::read_to_string(&path).expect("merged file");
        assert!(text.contains("\"g/keep\": {\"min_ns\": 2.0"), "{text}");
        assert!(text.contains("\"g/old\": {\"min_ns\": 9.0"), "{text}");
        assert!(text.ends_with("}\n"), "complete JSON object: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn human_units_are_sane() {
        assert!(human_time(2e-9).contains("ns"));
        assert!(human_time(2e-6).contains("µs"));
        assert!(human_time(2e-3).contains("ms"));
        assert!(human_time(2.0).contains('s'));
    }
}
