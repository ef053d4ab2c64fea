//! Runtime invariant sanitizer.
//!
//! An opt-in monitor that watches the simulation's load-bearing
//! invariants while it runs: per-link byte conservation in `net`,
//! virtual-time monotonicity and queue occupancy in [`crate::event`], and
//! NaN/Inf guards in [`crate::stats`]. A violated
//! invariant produces a structured [`Violation`] report carrying the
//! offending cell's label and seed — **not** a panic — so one bad sample
//! in a multi-hour sweep is diagnosable instead of fatal.
//!
//! Enablement, highest priority first:
//! 1. a programmatic override set with [`force`] (tests),
//! 2. the `VISIONSIM_SANITIZE` environment variable (`1` on, `0` off),
//! 3. always on in debug builds, off in release builds.
//!
//! Every check is **observe-only**: recording a violation never changes
//! the computation's data flow, so artifacts are byte-identical with the
//! sanitizer on or off. (The single exception: [`crate::stats::Percentiles::push`]
//! downgrades its non-finite-sample panic to a report-and-reject, which
//! only matters on runs that would otherwise have died.)
//!
//! Context: [`crate::par::run_cell`] tags the current thread with the
//! running cell's label and seed, and [`crate::par::par_map`]'s helper
//! threads inherit the tag of the thread that called it; violations raised
//! underneath carry that tag, which is how a report names the cell that
//! tripped it.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Programmatic override: 0 = unset, 1 = forced off, 2 = forced on.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Total violations observed since process start (or the last [`reset`]),
/// including any dropped past the retention cap.
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Retained violation reports (first [`RETAIN`] only).
static REPORTS: Mutex<Vec<Violation>> = Mutex::new(Vec::new());

/// How many violation reports are retained verbatim; the total count keeps
/// incrementing past this so a violation storm cannot exhaust memory.
pub const RETAIN: usize = 1024;

thread_local! {
    /// The (label, seed) of the supervised cell running on this thread.
    static CONTEXT: RefCell<Option<(String, u64)>> = const { RefCell::new(None) };
}

/// One recorded invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable identifier of the check site (e.g. `"net/conservation"`).
    pub site: &'static str,
    /// Human-readable description of what went wrong.
    pub detail: String,
    /// Label of the supervised cell that tripped the check, if any.
    pub label: Option<String>,
    /// Seed of the supervised cell that tripped the check, if any.
    pub seed: Option<u64>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.site, self.detail)?;
        match (&self.label, self.seed) {
            (Some(l), Some(s)) => write!(f, " (cell {l}, seed {s})"),
            (Some(l), None) => write!(f, " (cell {l})"),
            _ => Ok(()),
        }
    }
}

fn env_default() -> Option<bool> {
    static ENV: OnceLock<Option<bool>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("VISIONSIM_SANITIZE") {
        Ok(v) => match v.trim() {
            "1" | "on" | "true" => Some(true),
            "0" | "off" | "false" => Some(false),
            _ => None,
        },
        Err(_) => None,
    })
}

/// Whether the sanitizer is currently recording.
pub fn enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => return false,
        2 => return true,
        _ => {}
    }
    env_default().unwrap_or(cfg!(debug_assertions))
}

/// Force the sanitizer on or off for this process (`None` restores the
/// env/build-profile default). Process-global, like
/// [`crate::par::set_threads`]; tests that flip it should hold
/// [`crate::par::override_guard`].
pub fn force(on: Option<bool>) {
    FORCE.store(
        match on {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        },
        Ordering::Relaxed,
    );
}

/// Tag the current thread with a supervised cell's `(label, seed)`, or
/// drop its tag with `None`; violations raised on this thread carry the
/// tag.
pub fn set_context(tag: Option<(String, u64)>) {
    CONTEXT.with(|c| *c.borrow_mut() = tag);
}

/// The current thread's cell tag, for handing to helper threads.
pub fn context() -> Option<(String, u64)> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Record a violation (no-op when the sanitizer is disabled).
pub fn report(site: &'static str, detail: String) {
    if !enabled() {
        return;
    }
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let (label, seed) = CONTEXT.with(|c| match &*c.borrow() {
        Some((l, s)) => (Some(l.clone()), Some(*s)),
        None => (None, None),
    });
    let mut reports = REPORTS.lock().unwrap_or_else(|e| e.into_inner());
    if reports.len() < RETAIN {
        reports.push(Violation {
            site,
            detail,
            label,
            seed,
        });
    }
}

/// Record a violation if `condition` is false. The detail closure only
/// runs on failure, so hot paths pay one branch when healthy.
#[inline]
pub fn check(condition: bool, site: &'static str, detail: impl FnOnce() -> String) {
    if !condition {
        report(site, detail());
    }
}

/// Convenience guard for sample streams: report if `value` is NaN/Inf.
#[inline]
pub fn check_finite(site: &'static str, value: f64) {
    if enabled() && !value.is_finite() {
        report(site, format!("non-finite sample {value}"));
    }
}

/// Violations observed so far (including any past the retention cap).
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Drain the retained reports. The total count is *not* reset.
pub fn take() -> Vec<Violation> {
    std::mem::take(&mut *REPORTS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Reset both the retained reports and the total count (tests).
pub fn reset() {
    REPORTS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    TOTAL.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::override_guard;

    #[test]
    fn report_records_context_and_counts() {
        let _g = override_guard();
        force(Some(true));
        reset();
        set_context(Some(("figure4/F*".into(), 77)));
        report("test/site", "something drifted".into());
        set_context(None);
        report("test/site", "untagged".into());
        let v = take();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].label.as_deref(), Some("figure4/F*"));
        assert_eq!(v[0].seed, Some(77));
        assert!(v[1].label.is_none());
        assert_eq!(total(), 2);
        assert!(v[0].to_string().contains("figure4/F*"));
        force(None);
        reset();
    }

    #[test]
    fn disabled_sanitizer_records_nothing() {
        let _g = override_guard();
        force(Some(false));
        reset();
        report("test/site", "dropped".into());
        check(false, "test/site", || "also dropped".into());
        assert_eq!(total(), 0);
        assert!(take().is_empty());
        force(None);
    }

    #[test]
    fn check_only_fires_on_false() {
        let _g = override_guard();
        force(Some(true));
        reset();
        check(true, "test/site", || unreachable!("healthy path allocates"));
        assert_eq!(total(), 0);
        check(false, "test/site", || "tripped".into());
        assert_eq!(total(), 1);
        force(None);
        reset();
    }

    #[test]
    fn retention_is_capped_but_total_is_not() {
        let _g = override_guard();
        force(Some(true));
        reset();
        for i in 0..(RETAIN + 10) {
            report("test/flood", format!("v{i}"));
        }
        assert_eq!(take().len(), RETAIN);
        assert_eq!(total(), (RETAIN + 10) as u64);
        force(None);
        reset();
    }
}
