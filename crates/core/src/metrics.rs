//! Typed metrics registry: counters, gauges, and log2-bucket histograms.
//!
//! Every crate on the hot path reports into one process-global registry —
//! `net` counts per-link bytes/drops/queue depth, `vca` counts mode
//! switches and PLI/keyframe traffic, `capture` tallies flow
//! classification verdicts, `core::par` measures per-cell wall time and
//! retries. The experiment harness snapshots the registry after each
//! artifact and writes it as `<name>.metrics.json`.
//!
//! # Allocation discipline
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`'d atomics
//! obtained once at setup via [`counter`]/[`gauge`]/[`histogram`] and
//! cached by the reporting crate (typically in a `OnceLock`'d struct).
//! Hot-path updates are single relaxed atomic ops — no locks, no heap.
//! The `alloc_gate` test pins the datapath budget with metrics forced on.
//!
//! # Determinism
//!
//! Simulation-derived metrics (class [`Class::Sim`]) are pure functions
//! of the seed and must be identical at any thread count — the
//! determinism suite compares their snapshot across 1/4/8 threads.
//! Wall-clock timings (class [`Class::Wall`]) are inherently
//! nondeterministic and are excluded from the deterministic snapshot
//! ([`snapshot_json`] with `include_wall = false`, which is what
//! `regenerate` writes).
//!
//! Enablement mirrors [`crate::sanitizer`]: a programmatic [`force`]
//! override, else the `VISIONSIM_METRICS` environment variable, else off.
//! Disabled updates cost one relaxed atomic load.

use crate::switch::Switch;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 histogram buckets: bucket `i` holds values whose
/// bit-length is `i` (bucket 0 = value 0, bucket 1 = 1, bucket 2 = 2..3,
/// … bucket 64 = 2^63..).
pub const HIST_BUCKETS: usize = 65;

/// Whether a metric is derived from simulation state (deterministic for a
/// given seed) or from wall-clock measurement (never deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Seed-deterministic; included in `metrics.json` and compared across
    /// thread counts.
    Sim,
    /// Wall-clock derived; excluded from the deterministic snapshot.
    Wall,
}

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depth, bytes in flight).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Add a (possibly negative) delta (no-op while disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Overwrite the level (no-op while disabled).
    #[inline]
    pub fn set(&self, value: i64) {
        if enabled() {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistInner {
    fn new() -> HistInner {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Distribution over fixed log2 buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

/// Bucket index for a value: its bit length (0 → 0, 1 → 1, 2..3 → 2, …).
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation (no-op while disabled).
    #[inline]
    pub fn observe(&self, value: u64) {
        if enabled() {
            self.0.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            self.0.count.fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Copy of the bucket counts.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

enum Value {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistInner>),
}

struct Entry {
    name: &'static str,
    class: Class,
    value: Value,
}

static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Whether metric updates are captured: `VISIONSIM_METRICS`, default off.
/// `enabled()` sits in front of every per-packet update on the datapath.
static SWITCH: Switch = Switch::new("VISIONSIM_METRICS", false);

/// Whether metric updates are being captured.
#[inline]
pub fn enabled() -> bool {
    SWITCH.enabled()
}

/// Force metrics on or off for this process (`None` restores the env
/// default). Process-global; tests that flip it should hold
/// [`crate::par::override_guard`].
pub fn force(on: Option<bool>) {
    SWITCH.force(on);
}

/// Register (or look up) a counter by name. Registration is idempotent:
/// the same name always yields a handle to the same underlying cell.
/// Panics if the name is already registered as a different metric type.
pub fn counter(name: &'static str, class: Class) -> Counter {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = reg.iter().find(|e| e.name == name) {
        match &entry.value {
            Value::Counter(cell) => return Counter(Arc::clone(cell)),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }
    let cell = Arc::new(AtomicU64::new(0));
    reg.push(Entry {
        name,
        class,
        value: Value::Counter(Arc::clone(&cell)),
    });
    Counter(cell)
}

/// Register (or look up) a gauge by name. Same idempotence contract as
/// [`counter`].
pub fn gauge(name: &'static str, class: Class) -> Gauge {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = reg.iter().find(|e| e.name == name) {
        match &entry.value {
            Value::Gauge(cell) => return Gauge(Arc::clone(cell)),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }
    let cell = Arc::new(AtomicI64::new(0));
    reg.push(Entry {
        name,
        class,
        value: Value::Gauge(Arc::clone(&cell)),
    });
    Gauge(cell)
}

/// Register (or look up) a histogram by name. Same idempotence contract
/// as [`counter`].
pub fn histogram(name: &'static str, class: Class) -> Histogram {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = reg.iter().find(|e| e.name == name) {
        match &entry.value {
            Value::Histogram(cell) => return Histogram(Arc::clone(cell)),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }
    let cell = Arc::new(HistInner::new());
    reg.push(Entry {
        name,
        class,
        value: Value::Histogram(Arc::clone(&cell)),
    });
    Histogram(cell)
}

/// The span wall-time histogram [`crate::trace::Span`] observes into.
pub fn span_wall_ns() -> Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| histogram("span/wall_ns", Class::Wall))
        .clone()
}

/// Zero every registered value, keeping registrations (and thus the
/// handles crates have cached). Called at artifact boundaries by the
/// harness and by tests.
pub fn reset() {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for entry in reg.iter() {
        match &entry.value {
            Value::Counter(c) => c.store(0, Ordering::Relaxed),
            Value::Gauge(g) => g.store(0, Ordering::Relaxed),
            Value::Histogram(h) => {
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Read one registered counter's current value by name (tests, assertions
/// against external totals). `None` if no counter has that name.
pub fn counter_value(name: &str) -> Option<u64> {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .find(|e| e.name == name)
        .and_then(|e| match &e.value {
            Value::Counter(c) => Some(c.load(Ordering::Relaxed)),
            _ => None,
        })
}

/// Read one registered gauge's current value by name. `None` if no gauge
/// has that name.
pub fn gauge_value(name: &str) -> Option<i64> {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .find(|e| e.name == name)
        .and_then(|e| match &e.value {
            Value::Gauge(g) => Some(g.load(Ordering::Relaxed)),
            _ => None,
        })
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize the registry as a stable JSON document: metrics sorted by
/// name, histograms as `{count, sum, buckets: {bit_len: count, ...}}`
/// with empty buckets omitted. With `include_wall = false` the snapshot
/// contains only [`Class::Sim`] metrics and is byte-identical for a given
/// seed at any thread count — this is what `regenerate` writes to
/// `metrics.json`.
pub fn snapshot_json(include_wall: bool) -> String {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut entries: Vec<&Entry> = reg
        .iter()
        .filter(|e| include_wall || e.class == Class::Sim)
        .collect();
    entries.sort_by_key(|e| e.name);
    let mut out = String::from("{\n");
    for (i, entry) in entries.iter().enumerate() {
        out.push_str("  ");
        push_json_str(&mut out, entry.name);
        out.push_str(": ");
        match &entry.value {
            Value::Counter(c) => {
                out.push_str(&c.load(Ordering::Relaxed).to_string());
            }
            Value::Gauge(g) => {
                out.push_str(&g.load(Ordering::Relaxed).to_string());
            }
            Value::Histogram(h) => {
                out.push_str("{\"count\": ");
                out.push_str(&h.count.load(Ordering::Relaxed).to_string());
                out.push_str(", \"sum\": ");
                out.push_str(&h.sum.load(Ordering::Relaxed).to_string());
                out.push_str(", \"buckets\": {");
                let mut first = true;
                for (bit_len, bucket) in h.buckets.iter().enumerate() {
                    let n = bucket.load(Ordering::Relaxed);
                    if n == 0 {
                        continue;
                    }
                    if !first {
                        out.push_str(", ");
                    }
                    first = false;
                    out.push_str(&format!("\"{bit_len}\": {n}"));
                }
                out.push_str("}}");
            }
        }
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push('}');
    out.push('\n');
    out
}

/// A registry metric name as a Prometheus metric name: `visionsim_`
/// prefix, path separators and anything outside `[a-zA-Z0-9_:]` replaced
/// by `_` (the exposition-format name grammar).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(10 + name.len());
    out.push_str("visionsim_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render the whole registry — both classes; a scraper wants wall-clock
/// series too — in the Prometheus text exposition format (version 0.0.4,
/// what a `GET /metrics` endpoint serves). Hand-rolled: the workspace
/// builds without a prometheus client crate.
///
/// Mapping:
/// * counters → `# TYPE … counter`, one sample;
/// * gauges → `# TYPE … gauge`, one sample;
/// * log2 histograms → `# TYPE … histogram` with cumulative
///   `_bucket{le="…"}` samples at the power-of-two upper bounds the
///   in-memory buckets already encode (bucket *i* holds values of bit
///   length *i*, so its inclusive upper edge is `2^i − 1`), plus the
///   standard `_sum`/`_count` pair and the mandatory `le="+Inf"` bucket.
///
/// Output is sorted by metric name, so consecutive scrapes of an idle
/// registry are byte-identical.
pub fn prometheus_text() -> String {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut entries: Vec<&Entry> = reg.iter().collect();
    entries.sort_by_key(|e| e.name);
    let mut out = String::new();
    for entry in entries {
        let name = prometheus_name(entry.name);
        match &entry.value {
            Value::Counter(c) => {
                out.push_str(&format!(
                    "# TYPE {name} counter\n{name} {}\n",
                    c.load(Ordering::Relaxed)
                ));
            }
            Value::Gauge(g) => {
                out.push_str(&format!(
                    "# TYPE {name} gauge\n{name} {}\n",
                    g.load(Ordering::Relaxed)
                ));
            }
            Value::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (bit_len, bucket) in h.buckets.iter().enumerate() {
                    let n = bucket.load(Ordering::Relaxed);
                    // Empty log2 buckets are elided (65 per histogram is
                    // exposition noise), but a bucket with data always
                    // prints so the cumulative staircase is visible.
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    // Bit length i covers values ≤ 2^i − 1; bucket 0 is
                    // the literal value 0.
                    let le = if bit_len == 0 {
                        0u64
                    } else {
                        (1u64 << bit_len.min(63)).wrapping_sub(1).max(1)
                    };
                    let le = if bit_len >= 64 { u64::MAX } else { le };
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
                let count = h.count.load(Ordering::Relaxed);
                out.push_str(&format!(
                    "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {}\n{name}_count {count}\n",
                    h.sum.load(Ordering::Relaxed)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::override_guard;

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = override_guard();
        force(Some(false));
        let c = counter("metrics-test/disabled_counter", Class::Sim);
        let g = gauge("metrics-test/disabled_gauge", Class::Sim);
        let h = histogram("metrics-test/disabled_hist", Class::Sim);
        c.add(5);
        g.add(3);
        h.observe(9);
        force(None);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let _g = override_guard();
        force(Some(true));
        let a = counter("metrics-test/shared", Class::Sim);
        let b = counter("metrics-test/shared", Class::Sim);
        a.add(2);
        b.add(3);
        let got = a.get();
        a.0.store(0, Ordering::Relaxed);
        force(None);
        assert_eq!(got, 5);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn name_collision_across_types_panics() {
        counter("metrics-test/collision", Class::Sim);
        gauge("metrics-test/collision", Class::Sim);
    }

    #[test]
    fn gauge_tracks_signed_level() {
        let _g = override_guard();
        force(Some(true));
        let g = gauge("metrics-test/level", Class::Sim);
        g.set(0);
        g.add(10);
        g.add(-25);
        let got = g.get();
        g.set(0);
        force(None);
        assert_eq!(got, -15);
    }

    #[test]
    fn log2_buckets_split_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);

        let _g = override_guard();
        force(Some(true));
        let h = histogram("metrics-test/log2", Class::Sim);
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        let buckets = h.buckets();
        let (count, sum) = (h.count(), h.sum());
        for b in &h.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.0.count.store(0, Ordering::Relaxed);
        h.0.sum.store(0, Ordering::Relaxed);
        force(None);
        assert_eq!(count, 5);
        assert_eq!(sum, 1030);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[11], 1);
    }

    #[test]
    fn snapshot_excludes_wall_metrics_unless_asked() {
        let _g = override_guard();
        force(Some(true));
        let sim = counter("metrics-test/snap_sim", Class::Sim);
        let wall = counter("metrics-test/snap_wall", Class::Wall);
        sim.add(1);
        wall.add(1);
        let deterministic = snapshot_json(false);
        let full = snapshot_json(true);
        sim.0.store(0, Ordering::Relaxed);
        wall.0.store(0, Ordering::Relaxed);
        force(None);
        assert!(deterministic.contains("metrics-test/snap_sim"));
        assert!(!deterministic.contains("metrics-test/snap_wall"));
        assert!(full.contains("metrics-test/snap_wall"));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let _g = override_guard();
        force(Some(true));
        let b = counter("metrics-test/zz_later", Class::Sim);
        let a = counter("metrics-test/aa_earlier", Class::Sim);
        a.add(1);
        b.add(2);
        let snap = snapshot_json(false);
        a.0.store(0, Ordering::Relaxed);
        b.0.store(0, Ordering::Relaxed);
        force(None);
        let pos_a = snap.find("metrics-test/aa_earlier").expect("a present");
        let pos_b = snap.find("metrics-test/zz_later").expect("b present");
        assert!(pos_a < pos_b, "snapshot must sort by metric name");
        assert_eq!(snap, {
            // Same registry state snapshots identically.
            snap.clone()
        });
    }

    #[test]
    fn reset_zeroes_values_but_keeps_registrations() {
        let _g = override_guard();
        force(Some(true));
        let c = counter("metrics-test/reset_me", Class::Sim);
        c.add(7);
        assert_eq!(counter_value("metrics-test/reset_me"), Some(7));
        reset();
        force(None);
        assert_eq!(c.get(), 0);
        assert_eq!(counter_value("metrics-test/reset_me"), Some(0));
    }

    #[test]
    fn prometheus_names_use_exposition_charset() {
        assert_eq!(
            prometheus_name("net/link_bytes_sent"),
            "visionsim_net_link_bytes_sent"
        );
        assert_eq!(
            prometheus_name("metrics-test/x.y"),
            "visionsim_metrics_test_x_y"
        );
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let _g = override_guard();
        force(Some(true));
        let c = counter("metrics-test/prom_counter", Class::Sim);
        let g = gauge("metrics-test/prom_gauge", Class::Wall);
        let h = histogram("metrics-test/prom_hist", Class::Sim);
        reset();
        c.add(3);
        g.set(-4);
        h.observe(0); // bucket 0, le="0"
        h.observe(5); // bit length 3, le="7"
        h.observe(6); // same bucket
        let text = prometheus_text();
        force(None);

        assert!(text.contains("# TYPE visionsim_metrics_test_prom_counter counter\n"));
        assert!(text.contains("visionsim_metrics_test_prom_counter 3\n"));
        // Wall-class series are exported too: a live scraper wants both.
        assert!(text.contains("# TYPE visionsim_metrics_test_prom_gauge gauge\n"));
        assert!(text.contains("visionsim_metrics_test_prom_gauge -4\n"));
        // Histogram: cumulative buckets at log2 upper bounds + +Inf/sum/count.
        assert!(text.contains("# TYPE visionsim_metrics_test_prom_hist histogram\n"));
        assert!(text.contains("visionsim_metrics_test_prom_hist_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("visionsim_metrics_test_prom_hist_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("visionsim_metrics_test_prom_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("visionsim_metrics_test_prom_hist_sum 11\n"));
        assert!(text.contains("visionsim_metrics_test_prom_hist_count 3\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value == "+Inf" || value.parse::<i64>().is_ok(), "{line}");
        }
    }
}
