//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! name, start, end, the span that caused it, and the cell (session,
//! shard run, or control command) it belongs to. Spans are kept in memory
//! and written out once, when the run ends. With recording off, opening a
//! span is a relaxed load and an inert guard — no clock read, no push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// Id of the causing span; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub cell: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turn recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    recorder();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
pub struct Guard {
    span: Option<Span>,
}

impl Guard {
    /// The span's id, to pass as `parent` to the spans it causes (0 when
    /// recording is off).
    pub fn id(&self) -> u32 {
        self.span.map_or(0, |s| s.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.end_ns = now_ns();
            recorder()
                .spans
                .lock()
                .expect("span buffer lock holder never panics")
                .push(span);
        }
    }
}

/// Open a span named `name` under `parent` for `cell`.
pub fn open(name: &'static str, parent: u32, cell: u32) -> Guard {
    if !enabled() {
        return Guard { span: None };
    }
    Guard {
        span: Some(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            cell,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

/// Record a span whose ends were timed elsewhere (an open-loop command
/// is timed from its due instant, before any code runs for it).
pub fn record(name: &'static str, parent: u32, cell: u32, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let epoch = recorder().epoch;
    let span = Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        cell,
        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
        end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
    };
    recorder()
        .spans
        .lock()
        .expect("span buffer lock holder never panics")
        .push(span);
}

/// Take every span recorded so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *recorder()
            .spans
            .lock()
            .expect("span buffer lock holder never panics"),
    );
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Per-name totals: count, total time and self time, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children that run
/// in parallel (cells of one `par_map`) overlap; their union is counted
/// once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |iv| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in iv.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            covered
        });
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered.min(s.dur_ns());
    }
    out
}

/// Write `spans` as tab-separated lines under a header naming the columns.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tcell\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.cell, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
