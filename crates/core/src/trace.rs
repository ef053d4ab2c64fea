//! The flight recorder: a bounded ring buffer of POD trace events.
//!
//! The simulator's artifacts are end-state summaries; when a chaos cell
//! quarantines or a golden checksum drifts, the final numbers say nothing
//! about *what the simulation was doing*. This module records the load-
//! bearing moments of a run — packet send/deliver/drop, rendering-mode
//! switches, fault onset/recovery, SFU failover, cell lifecycle, timing
//! spans — into a fixed-capacity ring that overwrites its oldest entries,
//! exactly like an aircraft flight recorder: the tail of history leading
//! up to an incident is always available, and a healthy multi-hour run
//! costs a bounded amount of memory.
//!
//! # Steady-state allocation discipline
//!
//! The ring is preallocated to [`CAPACITY`] events the moment tracing is
//! enabled; [`record`] writes a [`TraceEvent`] (a `Copy` POD) into the
//! next slot under a mutex and never allocates. Site labels are interned
//! once into a side table ([`intern`]) — hot-path callers intern their
//! static site strings at setup time and pass the integer id per event.
//! The `alloc_gate` integration test pins the datapath's per-hop budget
//! with tracing forced **on** as well as off.
//!
//! Enablement, highest priority first:
//! 1. a programmatic override set with [`force`] (tests),
//! 2. the `VISIONSIM_TRACE` environment variable (`1`/`on`/`true` on,
//!    `0`/`off`/`false` off),
//! 3. off.
//!
//! Disabled tracing costs one relaxed atomic load per [`record`] call.
//!
//! # Ordering
//!
//! Every event carries a process-global `seq` stamp, taken under the ring
//! lock, so seq order is ring insertion order. Supervised cells run on
//! multiple threads, so that order interleaves arbitrarily; consumers
//! that want a stable timeline sort by `(time_ns, seq)` — the
//! `trace_dump` binary and [`snapshot_sorted`] do exactly that.

use crate::error::SimError;
use crate::switch::Switch;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a [`TraceEvent`] describes. The discriminant is the on-disk byte.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A packet entered the network. `a` = packet seq, `b` = src addr,
    /// `c` = dst addr.
    PacketSend = 0,
    /// A packet reached its destination inbox. `a` = packet seq,
    /// `b` = destination node index.
    PacketDeliver = 1,
    /// A packet was dropped (queue or impairment). `a` = packet seq,
    /// `b` = link index.
    PacketDrop = 2,
    /// A participant's rendering mode changed. `a` = participant index,
    /// `b` = mode (0 spatial, 1 2D-fallback).
    ModeSwitch = 3,
    /// A scheduled fault fired. `site` names the fault kind,
    /// `a` = participant index.
    FaultOnset = 4,
    /// A scheduled fault cleared. `site` names the fault kind,
    /// `a` = participant index.
    FaultRecovery = 5,
    /// The session reattached to a new SFU site. `site` names the site.
    SfuFailover = 6,
    /// A supervised cell started. `site` = cell label, `a` = seed.
    CellStart = 7,
    /// A supervised cell is being retried after a panic. `site` = cell
    /// label, `a` = seed.
    CellRetry = 8,
    /// A supervised cell panicked twice and was quarantined. `site` = cell
    /// label, `a` = seed.
    CellQuarantine = 9,
    /// A timing span opened. `site` = span label, `a` = seed.
    SpanEnter = 10,
    /// A timing span closed. `site` = span label, `a` = seed,
    /// `c` = wall nanoseconds spent inside the span.
    SpanExit = 11,
    /// A packet was dropped by a finite FIFO queue (drop-tail overflow at
    /// a serializer or shaper). `a` = packet seq, `b` = link index,
    /// `c` = packet wire bytes.
    QueueDrop = 12,
    /// An RTCP-style receiver report reached its sender. `a` = flow/ssrc,
    /// `b` = loss fraction in per-mille, `c` = arrival-rate estimate in
    /// kbps.
    RtcpReport = 13,
    /// A congestion controller changed state. `a` = flow/ssrc, `b` = new
    /// state (0 increase, 1 hold, 2 decrease), `c` = target rate in kbps.
    CtrlState = 14,
    /// A site refused a join/rejoin. `site` names the site, `a` =
    /// participant index, `b` = reason (0 capacity, 1 session cap,
    /// 2 health), `c` = participants attached at the verdict.
    AdmissionReject = 15,
    /// A per-site circuit breaker opened after repeated failed
    /// reconnects. `site` names the site, `a` = consecutive failures,
    /// `c` = reopen (half-open) deadline in ns.
    BreakerOpen = 16,
    /// An open breaker's deterministic timer elapsed: one trial attempt
    /// is allowed through. `site` names the site.
    BreakerHalfOpen = 17,
    /// A half-open breaker saw a successful attempt and closed. `site`
    /// names the site.
    BreakerClose = 18,
    /// A reconnecting participant fired an attempt. `site` names the
    /// candidate site ("" when no live candidate existed), `a` =
    /// participant index, `b` = attempt number (1-based), `c` = verdict
    /// (0 admitted, 1 rejected, 2 no candidate).
    ReconnectAttempt = 19,
}

impl TraceKind {
    /// Stable human-readable name (what `trace_dump` prints).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::PacketSend => "packet_send",
            TraceKind::PacketDeliver => "packet_deliver",
            TraceKind::PacketDrop => "packet_drop",
            TraceKind::ModeSwitch => "mode_switch",
            TraceKind::FaultOnset => "fault_onset",
            TraceKind::FaultRecovery => "fault_recovery",
            TraceKind::SfuFailover => "sfu_failover",
            TraceKind::CellStart => "cell_start",
            TraceKind::CellRetry => "cell_retry",
            TraceKind::CellQuarantine => "cell_quarantine",
            TraceKind::SpanEnter => "span_enter",
            TraceKind::SpanExit => "span_exit",
            TraceKind::QueueDrop => "queue_drop",
            TraceKind::RtcpReport => "rtcp_report",
            TraceKind::CtrlState => "ctrl_state",
            TraceKind::AdmissionReject => "admission_reject",
            TraceKind::BreakerOpen => "breaker_open",
            TraceKind::BreakerHalfOpen => "breaker_half_open",
            TraceKind::BreakerClose => "breaker_close",
            TraceKind::ReconnectAttempt => "reconnect_attempt",
        }
    }

    fn from_u8(b: u8) -> Option<TraceKind> {
        Some(match b {
            0 => TraceKind::PacketSend,
            1 => TraceKind::PacketDeliver,
            2 => TraceKind::PacketDrop,
            3 => TraceKind::ModeSwitch,
            4 => TraceKind::FaultOnset,
            5 => TraceKind::FaultRecovery,
            6 => TraceKind::SfuFailover,
            7 => TraceKind::CellStart,
            8 => TraceKind::CellRetry,
            9 => TraceKind::CellQuarantine,
            10 => TraceKind::SpanEnter,
            11 => TraceKind::SpanExit,
            12 => TraceKind::QueueDrop,
            13 => TraceKind::RtcpReport,
            14 => TraceKind::CtrlState,
            15 => TraceKind::AdmissionReject,
            16 => TraceKind::BreakerOpen,
            17 => TraceKind::BreakerHalfOpen,
            18 => TraceKind::BreakerClose,
            19 => TraceKind::ReconnectAttempt,
            _ => return None,
        })
    }
}

/// One recorded moment. Plain `Copy` data: writing one into the ring moves
/// 56 bytes and touches no heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event time in nanoseconds. Simulation events carry **virtual**
    /// time; harness events (cells, spans) carry wall nanoseconds since
    /// the process's trace epoch.
    pub time_ns: u64,
    /// Process-global order stamp; `(time_ns, seq)` is a total order.
    pub seq: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Interned label id ([`intern`] / [`site_name`]); 0 means "no label".
    pub site: u32,
    /// Kind-specific operand (see [`TraceKind`] docs).
    pub a: u64,
    /// Kind-specific operand.
    pub b: u64,
    /// Kind-specific operand.
    pub c: u64,
}

/// Bytes one event occupies in the [`encode`]d binary image.
const EVENT_WIRE_BYTES: usize = 45;
/// Magic prefix of a `trace.bin` image.
const TRACE_MAGIC: &[u8; 8] = b"VSTRACE1";

/// Whether the recorder captures: `VISIONSIM_TRACE`, default off.
static SWITCH: Switch = Switch::new("VISIONSIM_TRACE", false);

/// Ring capacity in events (about 3.4 MB resident when enabled).
pub const CAPACITY: usize = 65_536;

struct Ring {
    buf: Vec<TraceEvent>,
    /// Slot the next event lands in.
    head: usize,
    /// Live events (≤ `buf.capacity()` once warmed).
    len: usize,
    /// The next event's `seq`: the process-global order stamp. Taken
    /// under the ring lock, so the ring always holds the contiguous seqs
    /// `next_seq - len .. next_seq`; [`reset`] and [`take`] keep it.
    next_seq: u64,
}

impl Ring {
    /// The retained events, oldest first.
    fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let start = if self.len < self.buf.capacity() {
            0
        } else {
            self.head
        };
        (0..self.len).map(move |i| self.buf[(start + i) % self.buf.len()])
    }

    /// Drop every retained event; the seq stamp keeps counting.
    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.len = 0;
    }
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: Vec::new(),
    head: 0,
    len: 0,
    next_seq: 0,
});

/// Interned site labels; id 0 is the empty label. The `Vec` is the
/// id → label direction (what [`site_name`] and [`encode`] read); the
/// `HashMap` is the label → id index that keeps [`intern`] O(1) instead
/// of a linear scan per call.
struct SiteTable {
    by_id: Vec<String>,
    index: HashMap<String, u32>,
}

impl SiteTable {
    /// Intern into this table: existing labels return their id, new
    /// labels are appended while under `cap`, and `None` means the table
    /// is full (the caller records the refusal and uses id 0).
    fn intern(&mut self, site: &str, cap: usize) -> Option<u32> {
        if let Some(&id) = self.index.get(site) {
            return Some(id);
        }
        if self.by_id.len() >= cap {
            return None;
        }
        self.by_id.push(site.to_string());
        let id = self.by_id.len() as u32;
        self.index.insert(site.to_string(), id);
        Some(id)
    }
}

static SITES: std::sync::LazyLock<Mutex<SiteTable>> =
    std::sync::LazyLock::new(|| {
        Mutex::new(SiteTable {
            by_id: Vec::new(),
            index: HashMap::new(),
        })
    });

/// Distinct labels the intern table will hold before refusing new ones.
/// A long-running service that interns per-entity strings (a bug, but a
/// survivable one) stops growing here instead of leaking; overflowed
/// labels intern as id 0 ("no label") and are tallied in
/// [`intern_overflow`]. Already-interned labels keep their ids forever —
/// encode/decode id stability is unaffected by the cap.
pub const INTERN_CAP: usize = 65_536;

/// Labels refused by [`intern`] because the table was at [`INTERN_CAP`].
static INTERN_OVERFLOW: AtomicU64 = AtomicU64::new(0);

/// Whether the recorder is currently capturing.
#[inline]
pub fn enabled() -> bool {
    SWITCH.enabled()
}

fn ensure_ring(ring: &mut Ring) {
    if ring.buf.capacity() == 0 {
        ring.buf.reserve_exact(CAPACITY);
    }
}

/// Force tracing on or off for this process (`None` restores the env
/// default). Forcing **on** preallocates the ring so subsequent hot-path
/// [`record`] calls stay allocation-free. Process-global, like
/// [`crate::par::set_threads`]; tests that flip it should hold
/// [`crate::par::override_guard`].
pub fn force(on: Option<bool>) {
    SWITCH.force(on);
    if on == Some(true) {
        ensure_ring(&mut RING.lock().unwrap_or_else(|e| e.into_inner()));
    }
}

/// Intern a site label, returning its stable id for this process. The
/// empty string is always id 0. Interning may allocate — call it at setup
/// time, not per event.
///
/// The table is a hash index over an append-only id vector: lookups are
/// O(1) however many labels a long-running service accumulates, and the
/// table is bounded at [`INTERN_CAP`] distinct labels — beyond that, new
/// labels intern as 0 (unlabeled) and [`intern_overflow`] counts the
/// refusals. Ids already handed out never change or get evicted, so
/// encoded trace images stay decodable for the life of the process.
pub fn intern(site: &str) -> u32 {
    if site.is_empty() {
        return 0;
    }
    let mut sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
    match sites.intern(site, INTERN_CAP) {
        Some(id) => id,
        None => {
            INTERN_OVERFLOW.fetch_add(1, Ordering::Relaxed);
            0
        }
    }
}

/// Labels [`intern`] refused because the table was full. A nonzero value
/// means some events carry id 0 instead of their label — a symptom of
/// per-entity label generation, which the cap turns from a leak into a
/// counter.
pub fn intern_overflow() -> u64 {
    INTERN_OVERFLOW.load(Ordering::Relaxed)
}

/// Distinct labels currently interned (soak tests watch this for
/// unbounded growth; it can never exceed [`INTERN_CAP`]).
pub fn intern_len() -> usize {
    SITES.lock().unwrap_or_else(|e| e.into_inner()).by_id.len()
}

/// The label behind an interned id (empty string for 0 or unknown ids).
pub fn site_name(id: u32) -> String {
    if id == 0 {
        return String::new();
    }
    let sites = SITES.lock().unwrap_or_else(|e| e.into_inner());
    sites
        .by_id
        .get(id as usize - 1)
        .cloned()
        .unwrap_or_default()
}

/// Record one event. No-op when tracing is disabled; when enabled, the
/// write is a mutex-guarded POD store into the preallocated ring — no
/// heap allocation in steady state.
pub fn record(kind: TraceKind, time_ns: u64, site: u32, a: u64, b: u64, c: u64) {
    if !enabled() {
        return;
    }
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    ensure_ring(&mut ring);
    let ev = TraceEvent {
        time_ns,
        seq: ring.next_seq,
        kind,
        site,
        a,
        b,
        c,
    };
    ring.next_seq += 1;
    let cap = ring.buf.capacity();
    if ring.len < cap {
        // `head` trails `len` until the first wrap, so this is a push.
        ring.buf.push(ev);
        ring.len += 1;
        ring.head = ring.len % cap;
    } else {
        let head = ring.head;
        ring.buf[head] = ev;
        ring.head = (head + 1) % cap;
    }
}

/// Drain the ring, returning the retained events in insertion order
/// (oldest surviving first).
pub fn take() -> Vec<TraceEvent> {
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let out = ring.events().collect();
    ring.clear();
    out
}

/// Copy of the retained events sorted by `(time_ns, seq)` — the stable
/// timeline order. The ring is left untouched.
pub fn snapshot_sorted() -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = RING
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .events()
        .collect();
    events.sort_by_key(|e| (e.time_ns, e.seq));
    events
}

/// Drop every retained event (tests and the per-artifact harness
/// boundary). The site intern table is kept — ids stay stable for the
/// life of the process — and the wall epoch is untouched; a service that
/// wants a whole new recording era calls [`reset_epoch`] as well. The
/// global `seq` stamp keeps counting across resets, so [`follow`] cursors
/// from before a reset stay valid (the cleared events count as dropped).
pub fn reset() {
    RING.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// The wall-clock epoch [`wall_ns`] measures from. `None` until first
/// use; a batch process sets it once and never moves it.
static EPOCH: Mutex<Option<std::time::Instant>> = Mutex::new(None);

/// Nanoseconds since the process's trace epoch (first call, or the last
/// [`reset_epoch`]). Wall time, for harness-side events that have no
/// virtual clock.
pub fn wall_ns() -> u64 {
    let mut epoch = EPOCH.lock().unwrap_or_else(|e| e.into_inner());
    epoch
        .get_or_insert_with(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Restart the wall epoch at "now".
///
/// The original `OnceLock` epoch was process-global and immortal — fine
/// for a batch run that exits after one artifact sweep, wrong for a
/// never-exiting service where "nanoseconds since process start" drifts
/// arbitrarily far from the current recording era. Semantics:
///
/// * Events recorded **after** the call stamp wall times measured from
///   the call instant; events already in the ring keep their old stamps.
///   Mixing eras in one ring makes `(time_ns, seq)` ordering lie across
///   the boundary, so callers reset the ring in the same breath
///   (typically [`reset`] then `reset_epoch`, the service's
///   epoch-boundary sequence).
/// * The virtual-clock times simulation events carry are unaffected.
/// * [`follow`] cursors survive: they are keyed on `seq`, which never
///   rewinds.
pub fn reset_epoch() {
    *EPOCH.lock().unwrap_or_else(|e| e.into_inner()) = Some(std::time::Instant::now());
}

/// What one [`follow`] poll returned.
#[derive(Debug, Default)]
pub struct FollowChunk {
    /// Retained events with `seq >= cursor`, in `(time_ns, seq)` order.
    pub events: Vec<TraceEvent>,
    /// Pass this as the next poll's cursor.
    pub cursor: u64,
    /// Events the ring overwrote (or a [`reset`] cleared) before this
    /// poll could read them — the tail loss a too-slow follower sees.
    pub dropped: u64,
}

/// Tail the ring without draining it: everything recorded at or after
/// `cursor` (a `seq` watermark; start at 0) that still survives in the
/// ring. The ring is left untouched, so a live follower (`trace_dump
/// --follow`, the service's sidecar flush) coexists with the harness's
/// end-of-artifact [`take`].
///
/// Lossless under concurrent recording: [`record`] takes each `seq` and
/// stores its event under one lock, so every seq below the returned
/// cursor is either in this chunk or counted in `dropped`.
pub fn follow(cursor: u64) -> FollowChunk {
    let ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let first_retained = ring.next_seq - ring.len as u64;
    let next = ring.next_seq.max(cursor);
    let mut events: Vec<TraceEvent> = ring.events().filter(|e| e.seq >= cursor).collect();
    drop(ring);
    events.sort_by_key(|e| (e.time_ns, e.seq));
    FollowChunk {
        events,
        cursor: next,
        dropped: first_retained.saturating_sub(cursor),
    }
}

/// Serialize events (plus the site table entries they reference) into the
/// `trace.bin` image `trace_dump` reads.
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let sites = SITES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .by_id
        .clone();
    encode_with_sites(events, &sites)
}

/// [`encode`] with an explicit site table.
fn encode_with_sites(events: &[TraceEvent], sites: &[String]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + events.len() * EVENT_WIRE_BYTES);
    out.extend_from_slice(TRACE_MAGIC);
    out.extend_from_slice(&(sites.len() as u32).to_le_bytes());
    for s in sites {
        let bytes = s.as_bytes();
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for e in events {
        out.extend_from_slice(&e.time_ns.to_le_bytes());
        out.extend_from_slice(&e.seq.to_le_bytes());
        out.push(e.kind as u8);
        out.extend_from_slice(&e.site.to_le_bytes());
        out.extend_from_slice(&e.a.to_le_bytes());
        out.extend_from_slice(&e.b.to_le_bytes());
        out.extend_from_slice(&e.c.to_le_bytes());
    }
    out
}

fn take_bytes<'a>(bytes: &'a [u8], pos: &mut usize, n: usize, what: &'static str) -> Result<&'a [u8], SimError> {
    let end = pos.checked_add(n).ok_or(SimError::Truncated { what })?;
    let slice = bytes.get(*pos..end).ok_or(SimError::Truncated { what })?;
    *pos = end;
    Ok(slice)
}

fn le_u64(b: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(b);
    u64::from_le_bytes(buf)
}

/// Parse a `trace.bin` image back into its site table and events.
/// Hostile or truncated input returns a [`SimError`], never a panic.
pub fn decode(bytes: &[u8]) -> Result<(Vec<String>, Vec<TraceEvent>), SimError> {
    let mut pos = 0usize;
    let magic = take_bytes(bytes, &mut pos, 8, "trace magic")?;
    if magic != TRACE_MAGIC {
        return Err(SimError::Corrupt {
            what: "trace magic",
        });
    }
    let site_count = u32::from_le_bytes(
        take_bytes(bytes, &mut pos, 4, "trace site count")?
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    // A claimed count beyond what the remaining bytes could possibly hold
    // (2 bytes minimum per entry) is hostile, not just truncated.
    if site_count > bytes.len().saturating_sub(pos) / 2 {
        return Err(SimError::LimitExceeded {
            what: "trace site count",
            limit: (bytes.len() / 2) as u64,
        });
    }
    let mut sites = Vec::with_capacity(site_count);
    for _ in 0..site_count {
        let len = u16::from_le_bytes(
            take_bytes(bytes, &mut pos, 2, "trace site length")?
                .try_into()
                .expect("2 bytes"),
        ) as usize;
        let raw = take_bytes(bytes, &mut pos, len, "trace site bytes")?;
        let s = std::str::from_utf8(raw).map_err(|_| SimError::Corrupt {
            what: "trace site utf-8",
        })?;
        sites.push(s.to_string());
    }
    let count = le_u64(take_bytes(bytes, &mut pos, 8, "trace event count")?) as usize;
    let remaining = bytes.len() - pos;
    if count != remaining / EVENT_WIRE_BYTES || !remaining.is_multiple_of(EVENT_WIRE_BYTES) {
        return Err(SimError::Inconsistent {
            what: "trace event count vs body length",
        });
    }
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let time_ns = le_u64(take_bytes(bytes, &mut pos, 8, "trace event")?);
        let seq = le_u64(take_bytes(bytes, &mut pos, 8, "trace event")?);
        let kind_byte = take_bytes(bytes, &mut pos, 1, "trace event")?[0];
        let kind = TraceKind::from_u8(kind_byte).ok_or(SimError::Inconsistent {
            what: "trace event kind",
        })?;
        let site = u32::from_le_bytes(
            take_bytes(bytes, &mut pos, 4, "trace event")?
                .try_into()
                .expect("4 bytes"),
        );
        if site as usize > sites.len() {
            return Err(SimError::Inconsistent {
                what: "trace event site id",
            });
        }
        let a = le_u64(take_bytes(bytes, &mut pos, 8, "trace event")?);
        let b = le_u64(take_bytes(bytes, &mut pos, 8, "trace event")?);
        let c = le_u64(take_bytes(bytes, &mut pos, 8, "trace event")?);
        events.push(TraceEvent {
            time_ns,
            seq,
            kind,
            site,
            a,
            b,
            c,
        });
    }
    Ok((sites, events))
}

/// RAII timing span: records [`TraceKind::SpanEnter`] on construction and
/// [`TraceKind::SpanExit`] (carrying the wall nanoseconds spent) on drop,
/// and observes the duration into the `span/wall_ns` metrics histogram.
/// Constructed via [`crate::span!`].
pub struct Span {
    site: u32,
    seed: u64,
    started: std::time::Instant,
    live: bool,
}

impl Span {
    /// Open a span. When tracing and metrics are both disabled this is a
    /// cheap no-op shell (two atomic loads, no interning).
    pub fn enter(site: &str, seed: u64) -> Span {
        let live = enabled() || crate::metrics::enabled();
        let site = if live { intern(site) } else { 0 };
        if enabled() {
            record(TraceKind::SpanEnter, wall_ns(), site, seed, 0, 0);
        }
        Span {
            site,
            seed,
            started: std::time::Instant::now(),
            live,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let spent = self.started.elapsed().as_nanos() as u64;
        if enabled() {
            record(TraceKind::SpanExit, wall_ns(), self.site, self.seed, 0, spent);
        }
        crate::metrics::span_wall_ns().observe(spent);
    }
}

/// Open a [`trace::Span`](Span) guard: `let _s = span!("figure4/cell", seed);`
#[macro_export]
macro_rules! span {
    ($site:expr, $seed:expr) => {
        $crate::trace::Span::enter($site, $seed)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::override_guard;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _g = override_guard();
        force(Some(false));
        reset();
        let before = follow(0).cursor;
        record(TraceKind::PacketSend, 1, 0, 1, 2, 3);
        assert_eq!(follow(0).cursor, before, "a disabled record took a seq");
        assert!(take().is_empty());
        force(None);
    }

    #[test]
    fn record_take_round_trip_preserves_fields() {
        let _g = override_guard();
        force(Some(true));
        reset();
        let site = intern("test/site");
        record(TraceKind::ModeSwitch, 42, site, 7, 1, 0);
        let events = take();
        force(None);
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(e.time_ns, 42);
        assert_eq!(e.kind, TraceKind::ModeSwitch);
        assert_eq!(site_name(e.site), "test/site");
        assert_eq!((e.a, e.b, e.c), (7, 1, 0));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let _g = override_guard();
        force(Some(true));
        reset();
        let cap = CAPACITY;
        for i in 0..(cap as u64 + 10) {
            record(TraceKind::PacketSend, i, 0, i, 0, 0);
        }
        let events = take();
        reset();
        force(None);
        assert_eq!(events.len(), cap);
        // Oldest surviving event is the 11th recorded.
        assert_eq!(events[0].a, 10);
        assert_eq!(events[cap - 1].a, cap as u64 + 9);
    }

    #[test]
    fn snapshot_sorts_by_time_then_seq() {
        let _g = override_guard();
        force(Some(true));
        reset();
        record(TraceKind::PacketSend, 30, 0, 0, 0, 0);
        record(TraceKind::PacketSend, 10, 0, 1, 0, 0);
        record(TraceKind::PacketSend, 10, 0, 2, 0, 0);
        let sorted = snapshot_sorted();
        reset();
        force(None);
        let times: Vec<u64> = sorted.iter().map(|e| e.time_ns).collect();
        assert_eq!(times, vec![10, 10, 30]);
        // Same-instant events keep their recording order via seq.
        assert!(sorted[0].seq < sorted[1].seq);
    }

    #[test]
    fn intern_is_stable_and_reversible() {
        let a = intern("trace-test/alpha");
        let b = intern("trace-test/beta");
        assert_ne!(a, b);
        assert_eq!(a, intern("trace-test/alpha"));
        assert_eq!(site_name(a), "trace-test/alpha");
        assert_eq!(intern(""), 0);
        assert_eq!(site_name(0), "");
    }

    #[test]
    fn binary_image_round_trips() {
        let site = intern("trace-test/encode");
        let events = vec![
            TraceEvent {
                time_ns: 5,
                seq: 0,
                kind: TraceKind::CellStart,
                site,
                a: 99,
                b: 0,
                c: 0,
            },
            TraceEvent {
                time_ns: 6,
                seq: 1,
                kind: TraceKind::SpanExit,
                site: 0,
                a: 1,
                b: 2,
                c: 3,
            },
        ];
        let image = encode(&events);
        let (sites, decoded) = decode(&image).expect("own image decodes");
        assert_eq!(decoded, events);
        assert_eq!(sites[site as usize - 1], "trace-test/encode");
    }

    #[test]
    fn hostile_images_error_instead_of_panicking() {
        assert_eq!(
            decode(b"short"),
            Err(SimError::Truncated {
                what: "trace magic"
            })
        );
        assert_eq!(
            decode(b"NOTTRACE\x00\x00\x00\x00"),
            Err(SimError::Corrupt {
                what: "trace magic"
            })
        );
        // Hostile site count.
        let mut image = Vec::new();
        image.extend_from_slice(TRACE_MAGIC);
        image.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&image),
            Err(SimError::LimitExceeded { .. })
        ));
        // Truncated event body.
        let good = encode(&[TraceEvent {
            time_ns: 1,
            seq: 0,
            kind: TraceKind::PacketSend,
            site: 0,
            a: 0,
            b: 0,
            c: 0,
        }]);
        assert!(decode(&good[..good.len() - 3]).is_err());
        // Unknown kind byte.
        let mut bad = good.clone();
        let kind_at = bad.len() - EVENT_WIRE_BYTES + 16;
        bad[kind_at] = 200;
        assert_eq!(
            decode(&bad),
            Err(SimError::Inconsistent {
                what: "trace event kind"
            })
        );
    }

    #[test]
    fn intern_is_bounded_and_keeps_existing_ids_on_overflow() {
        // A private table, so the cap path is deterministic regardless of
        // what other tests intern into the process-global one.
        let mut table = SiteTable {
            by_id: Vec::new(),
            index: HashMap::new(),
        };
        let a = table.intern("soak/a", 2).expect("room");
        let b = table.intern("soak/b", 2).expect("room");
        assert_ne!(a, b);
        // Full: new labels are refused, the table does not grow…
        assert_eq!(table.intern("soak/c", 2), None);
        assert_eq!(table.by_id.len(), 2);
        // …and refusals never disturb ids already handed out.
        assert_eq!(table.intern("soak/a", 2), Some(a));
        assert_eq!(table.intern("soak/b", 2), Some(b));
        assert_eq!(table.by_id[a as usize - 1], "soak/a");
        // The public wrapper tallies refusals (exercised indirectly: the
        // global table is nowhere near INTERN_CAP in tests, so overflow
        // stays where it was).
        let before = intern_overflow();
        let id = intern("trace-test/bounded-global");
        assert_ne!(id, 0);
        assert_eq!(intern_overflow(), before);
    }

    #[test]
    fn follow_cursor_tails_without_draining() {
        let _g = override_guard();
        force(Some(true));
        reset();
        // Pin the watermark past whatever seq other tests consumed.
        record(TraceKind::PacketSend, 0, 0, u64::MAX, 0, 0);
        let start = follow(0).cursor;
        record(TraceKind::PacketSend, 10, 0, 1, 0, 0);
        record(TraceKind::PacketSend, 20, 0, 2, 0, 0);
        let first = follow(start);
        assert_eq!(first.events.len(), 2);
        assert_eq!(first.dropped, 0);
        // Nothing new: same cursor comes back, no events.
        let idle = follow(first.cursor);
        assert!(idle.events.is_empty());
        assert_eq!(idle.cursor, first.cursor);
        record(TraceKind::PacketDeliver, 30, 0, 3, 0, 0);
        let next = follow(first.cursor);
        assert_eq!(next.events.len(), 1);
        assert_eq!(next.events[0].kind, TraceKind::PacketDeliver);
        // The ring still holds everything — follow never drains.
        assert_eq!(take().len(), 4);
        reset();
        force(None);
    }

    #[test]
    fn follow_reports_overwritten_tail_as_dropped() {
        let _g = override_guard();
        force(Some(true));
        reset();
        let cap = CAPACITY as u64;
        // The global seq stamp is shared with every other test in this
        // binary; a probe event pins the watermark to "right here".
        record(TraceKind::PacketSend, 0, 0, u64::MAX, 0, 0);
        let start = follow(0).cursor;
        for i in 0..cap + 7 {
            record(TraceKind::PacketSend, i + 1, 0, i, 0, 0);
        }
        // probe + cap + 7 events through a cap-slot ring: the probe and
        // the 7 oldest are gone; exactly 7 of them postdate the cursor.
        let chunk = follow(start);
        reset();
        force(None);
        assert_eq!(chunk.events.len(), cap as usize);
        assert_eq!(chunk.dropped, 7, "overwritten events must be accounted");
    }

    #[test]
    fn epoch_reset_rewinds_wall_clock() {
        // Guarded: wall_ns feeds other tests' span timestamps, and this
        // test deliberately rewinds it.
        let _g = override_guard();
        // Regression for the never-exiting-service composition: wall_ns
        // used to measure from an immortal OnceLock epoch, so a service
        // could never start a fresh recording era.
        let _w0 = wall_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let before = wall_ns();
        assert!(before >= 15_000_000, "20 ms must have elapsed");
        reset_epoch();
        let after = wall_ns();
        assert!(
            after < before,
            "wall_ns must restart from the new epoch ({after} >= {before})"
        );
        // And it keeps advancing monotonically from there.
        assert!(wall_ns() >= after);
    }

    #[test]
    fn span_records_enter_and_exit() {
        let _g = override_guard();
        force(Some(true));
        reset();
        {
            let _s = crate::span!("trace-test/span", 1234);
        }
        let events = take();
        reset();
        force(None);
        let enter = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanEnter)
            .expect("enter recorded");
        let exit = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanExit)
            .expect("exit recorded");
        assert_eq!(site_name(enter.site), "trace-test/span");
        assert_eq!(enter.a, 1234);
        assert_eq!(exit.site, enter.site);
        assert!(exit.time_ns >= enter.time_ns);
    }
}
