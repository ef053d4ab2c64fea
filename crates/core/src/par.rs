//! Deterministic parallel execution for the experiment harness.
//!
//! The paper's methodology is ≥5 independent repeats per cell — every cell
//! is a pure function of its config and seed, so the suite is
//! embarrassingly parallel. [`par_map`] runs independent work items on the
//! calling thread and up to `threads() − 1` scoped helpers, and returns
//! results **in submission order**, so a parallel run is bit-identical to
//! a sequential one as long as each item derives its own RNG stream via
//! [`derive_seed`] instead of sharing a generator.
//!
//! # Panics and supervision
//!
//! Every [`par_map`] item runs under `catch_unwind`, so one panicking item
//! never stops the others. Once every item has run, the lowest-index
//! item's panic resumes on the caller with its own payload.
//!
//! [`run_cell`] supervises one harness artifact: it runs under
//! `catch_unwind`, is retried once with the same label and seed (a cell is
//! a pure function of its config and seed), and is **quarantined** into a
//! [`CellError`] if the retry fails too. Nothing detects a hung cell:
//! Rust cannot cancel a thread, so a cell that never returns blocks its
//! caller.
//!
//! Thread count resolution, highest priority first:
//! 1. a programmatic override set with [`set_threads`] (used by the
//!    determinism tests to compare single- and multi-threaded runs inside
//!    one process),
//! 2. the `VISIONSIM_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::rng::splitmix64;
use crate::sanitizer;
use crate::trace::{self, TraceKind};
use crate::{metrics, metrics::Class};

/// Cached handles into the metrics registry; obtained once so the cell
/// loop never takes the registry lock.
struct ParMetrics {
    cells: metrics::Counter,
    retries: metrics::Counter,
    quarantined: metrics::Counter,
    cell_wall_ns: metrics::Histogram,
}

fn par_metrics() -> &'static ParMetrics {
    static M: OnceLock<ParMetrics> = OnceLock::new();
    M.get_or_init(|| ParMetrics {
        cells: metrics::counter("par/cells", Class::Sim),
        retries: metrics::counter("par/retries", Class::Sim),
        quarantined: metrics::counter("par/quarantined", Class::Sim),
        cell_wall_ns: metrics::histogram("par/cell_wall_ns", Class::Wall),
    })
}

/// Flight-recorder entry for a [`run_cell`] lifecycle moment. Wall-clock
/// timestamps: supervision has no virtual clock.
fn trace_cell(kind: TraceKind, label: &str, seed: u64) {
    if trace::enabled() {
        trace::record(kind, trace::wall_ns(), trace::intern(label), seed, 0, 0);
    }
}

/// Programmatic thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes tests (and any other callers) that flip the process-global
/// overrides in this module or [`crate::sanitizer`].
static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

/// Lock out other threads from toggling the process-global overrides.
///
/// [`set_threads`] and [`sanitizer::force`] mutate **process-global**
/// state: under the default concurrent libtest runner, one test's
/// override is visible to every other test in the binary. Tests that set
/// either override (or that assert on behaviour the overrides change)
/// must hold this guard for their whole body.
pub fn override_guard() -> MutexGuard<'static, ()> {
    OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Force the worker count for subsequent [`par_map`] calls in this process
/// (`None` restores env/hardware resolution). Takes precedence over
/// `VISIONSIM_THREADS`.
///
/// The override is **process-global**, not scoped: concurrent tests in one
/// binary race on it unless they serialize behind [`override_guard`].
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count [`par_map`] will use right now.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("VISIONSIM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derive a collision-free child seed for one experiment cell.
///
/// XOR-offset schemes (`seed ^ ((r + 1) * 7919)`) correlate streams across
/// cells: two cells whose offsets collide share an entire stream, and even
/// distinct offsets leave most state bits identical. This instead chains
/// three SplitMix64 finalizer passes — over the root, a hash of the label,
/// and the index — so every (root, label, index) triple lands in an
/// independent region of seed space with full avalanche.
pub fn derive_seed(root: u64, label: &str, index: u64) -> u64 {
    // FNV-1a over the label, so "figure4/F*" and "figure4/Z" diverge.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut st = root;
    let a = splitmix64(&mut st);
    let mut st = a ^ h;
    let b = splitmix64(&mut st);
    let mut st = b ^ index;
    splitmix64(&mut st)
}

/// A quarantined cell: both the attempt and its retry panicked.
#[derive(Clone, Debug)]
pub struct CellError {
    /// The cell's label.
    pub label: String,
    /// The cell's seed — rerun `<binary> <seed>` to reproduce.
    pub seed: u64,
    /// Wall-clock spent in both attempts.
    pub elapsed: Duration,
    /// The retry's panic payload.
    pub payload: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} (seed {}) panicked after {:.2}s: {}",
            self.label,
            self.seed,
            self.elapsed.as_secs_f64(),
            self.payload
        )
    }
}

impl std::error::Error for CellError {}

fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one supervised cell on the calling thread: `f` runs under
/// `catch_unwind` with the sanitizer tagged `(label, seed)`, is retried
/// once if it panics, and is quarantined into a [`CellError`] if the retry
/// panics too.
///
/// `par/cells` and `par/retries` count after the attempts they describe,
/// so an `f` that resets the metrics registry at the top of each attempt
/// (the harness does, so a sidecar describes one attempt) keeps them.
pub fn run_cell<T>(label: &str, seed: u64, f: impl Fn() -> T) -> Result<T, CellError> {
    let m = par_metrics();
    let start = Instant::now();
    trace_cell(TraceKind::CellStart, label, seed);
    sanitizer::set_context(Some((label.to_string(), seed)));
    let mut outcome = catch_unwind(AssertUnwindSafe(&f));
    if outcome.is_err() {
        trace_cell(TraceKind::CellRetry, label, seed);
        outcome = catch_unwind(AssertUnwindSafe(&f));
        m.retries.inc();
    }
    sanitizer::set_context(None);
    m.cells.inc();
    m.cell_wall_ns.observe(start.elapsed().as_nanos() as u64);
    outcome.map_err(|payload| {
        trace_cell(TraceKind::CellQuarantine, label, seed);
        m.quarantined.inc();
        CellError {
            label: label.to_string(),
            seed,
            elapsed: start.elapsed(),
            payload: payload_string(payload),
        }
    })
}

/// Map `f` over `items` and return the results in submission order.
///
/// The calling thread and `threads().min(items.len()) − 1` scoped helpers
/// each take the next unclaimed item and run it under `catch_unwind`; one
/// worker spawns nothing. Helpers inherit the caller's sanitizer tag, so a
/// violation inside an item names the enclosing [`run_cell`]. If any item
/// panicked, every other item still runs, and then the lowest-index
/// item's own payload resumes on the caller.
pub fn par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let m = par_metrics();
    let helpers = threads().min(items.len()).saturating_sub(1);
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard drops inside this closure, before the claimed item runs;
    // a `while let` over `queue.lock()` would hold it through the body.
    let next = || queue.lock().unwrap_or_else(|e| e.into_inner()).next();
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = next() {
            let start = Instant::now();
            m.cells.inc();
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
            m.cell_wall_ns.observe(start.elapsed().as_nanos() as u64);
        }
        done
    };
    let tag = sanitizer::context();
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| {
                let tag = tag.clone();
                scope.spawn(|| {
                    sanitizer::set_context(tag);
                    work()
                })
            })
            .collect();
        let mut done = work();
        for h in handles {
            done.extend(h.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, r)| r.unwrap_or_else(|p| resume_unwind(p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_separates_labels_and_indices() {
        let a = derive_seed(1, "figure4", 0);
        let b = derive_seed(1, "figure4", 1);
        let c = derive_seed(1, "figure5", 0);
        let d = derive_seed(2, "figure4", 0);
        let all = [a, b, c, d];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j], "collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(42, "x", 3), derive_seed(42, "x", 3));
    }

    #[test]
    fn threads_env_is_respected_by_resolution_order() {
        let _g = override_guard();
        // The programmatic override wins over everything.
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }
}
