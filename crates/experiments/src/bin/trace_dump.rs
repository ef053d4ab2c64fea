//! Render a flight-recorder `trace.bin` as a human-readable timeline.
//!
//! ```sh
//! cargo run --release -p visionsim-experiments --bin trace_dump -- \
//!     artifacts/figure4.trace.bin
//! ```
//!
//! Events print in `(time_ns, seq)` order — the same total order the
//! recorder assigns — so dumps of the same artifact are identical at any
//! thread count. A per-kind count summary follows the timeline. Decode
//! errors (truncated, corrupt, or hostile images) exit non-zero with the
//! `SimError` message; they never panic.
//!
//! `--follow` tails a *live* sidecar (the file `visionsim serve --trace`
//! rewrites atomically): the tool re-reads the file on an interval and
//! prints only events beyond the `seq` watermark it has already shown.
//! The watermark is keyed on `seq` alone — `seq` is globally monotonic
//! across the whole service lifetime, while `time_ns` is session-local
//! virtual time that restarts near 0 for every joined session, so a
//! time-keyed mark would silently swallow late joiners. `--polls N`
//! bounds the number of re-reads (CI); without it, follow runs until
//! interrupted.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::ExitCode;
use visionsim_core::trace::{self, TraceEvent, TraceKind};

/// One-character timeline glyph per kind: the dense column that makes
/// control-plane storms scannable (`!` reject, `%`/`~`/`=` breaker
/// open/half-open/close, `@` reconnect attempt, `>` failover).
fn glyph(kind: TraceKind) -> char {
    match kind {
        TraceKind::PacketSend => '.',
        TraceKind::PacketDeliver => ',',
        TraceKind::PacketDrop | TraceKind::QueueDrop => 'x',
        TraceKind::ModeSwitch => 'm',
        TraceKind::FaultOnset => 'F',
        TraceKind::FaultRecovery => 'f',
        TraceKind::SfuFailover => '>',
        TraceKind::CellStart => '[',
        TraceKind::CellRetry => 'r',
        TraceKind::CellQuarantine => 'Q',
        TraceKind::SpanEnter => '(',
        TraceKind::SpanExit => ')',
        TraceKind::RtcpReport => 'R',
        TraceKind::CtrlState => 'c',
        TraceKind::AdmissionReject => '!',
        TraceKind::BreakerOpen => '%',
        TraceKind::BreakerHalfOpen => '~',
        TraceKind::BreakerClose => '=',
        TraceKind::ReconnectAttempt => '@',
    }
}

/// One rendered timeline line: time, glyph, kind, label, operands.
fn render_line(ev: &TraceEvent, sites: &[String]) -> String {
    let label = if ev.site == 0 {
        ""
    } else {
        sites
            .get(ev.site as usize - 1)
            .map(String::as_str)
            .unwrap_or("<unknown-site>")
    };
    let operands = match ev.kind {
        TraceKind::PacketSend => format!("seq={} src={} dst={}", ev.a, ev.b, ev.c),
        TraceKind::PacketDeliver => format!("seq={} node={}", ev.a, ev.b),
        TraceKind::PacketDrop => format!("seq={} link={}", ev.a, ev.b),
        TraceKind::ModeSwitch => format!(
            "participant={} mode={}",
            ev.a,
            if ev.b == 0 { "spatial" } else { "2d-fallback" }
        ),
        TraceKind::FaultOnset | TraceKind::FaultRecovery => {
            format!("participant={}", ev.a)
        }
        TraceKind::SfuFailover => format!("affected={}", ev.a),
        TraceKind::CellStart
        | TraceKind::CellRetry
        | TraceKind::CellQuarantine
        | TraceKind::SpanEnter
        | TraceKind::SpanExit => format!("seed={}", ev.a),
        TraceKind::QueueDrop => format!("seq={} link={} bytes={}", ev.a, ev.b, ev.c),
        TraceKind::RtcpReport => format!(
            "flow={} loss={}.{}% arrival={} kbps",
            ev.a,
            ev.b / 10,
            ev.b % 10,
            ev.c
        ),
        TraceKind::CtrlState => format!(
            "flow={} state={} target={} kbps",
            ev.a,
            match ev.b {
                0 => "increase",
                1 => "hold",
                2 => "decrease",
                _ => "?",
            },
            ev.c
        ),
        TraceKind::AdmissionReject => format!(
            "participant={} reason={} attached={}",
            ev.a,
            match ev.b {
                0 => "capacity",
                1 => "sessions",
                2 => "health",
                _ => "?",
            },
            ev.c
        ),
        TraceKind::BreakerOpen => {
            format!("failures={} half_open_at={} ns", ev.a, ev.c)
        }
        TraceKind::BreakerHalfOpen => "trial window".to_string(),
        TraceKind::BreakerClose => "recovered".to_string(),
        TraceKind::ReconnectAttempt => format!(
            "participant={} attempt={} verdict={}",
            ev.a,
            ev.b,
            match ev.c {
                0 => "admitted",
                1 => "rejected",
                2 => "no-candidate",
                _ => "?",
            }
        ),
    };
    if label.is_empty() {
        format!(
            "{:>16} ns  #{:<8} {} {:<16} {}",
            ev.time_ns,
            ev.seq,
            glyph(ev.kind),
            ev.kind.name(),
            operands
        )
    } else {
        format!(
            "{:>16} ns  #{:<8} {} {:<16} [{}] {}",
            ev.time_ns,
            ev.seq,
            glyph(ev.kind),
            ev.kind.name(),
            label,
            operands
        )
    }
}

fn dump(
    out: &mut impl Write,
    path: &str,
    sites: &[String],
    events: &[TraceEvent],
) -> std::io::Result<()> {
    writeln!(
        out,
        "trace {path}: {} event(s), {} site label(s)",
        events.len(),
        sites.len()
    )?;
    let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
    for ev in events {
        *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        writeln!(out, "{}", render_line(ev, sites))?;
    }
    if !events.is_empty() {
        writeln!(out, "\nper-kind counts:")?;
        for (kind, count) in &by_kind {
            writeln!(out, "  {kind:<16} {count}")?;
        }
    }
    out.flush()
}

/// Split `events` (already `seq`-sorted) at the follow watermark:
/// everything with `seq >= cursor` is new. The cursor is a `seq`
/// watermark (next unseen seq, start at 0) — never a timestamp, because
/// sessions carry session-local virtual time and a late joiner's events
/// would sort below a time-keyed mark and vanish. Returns the new
/// events and the advanced cursor.
fn beyond_watermark(events: &[TraceEvent], cursor: u64) -> (&[TraceEvent], u64) {
    let start = events.partition_point(|ev| ev.seq < cursor);
    let fresh = &events[start..];
    let next = fresh.last().map(|ev| ev.seq + 1).unwrap_or(cursor);
    (fresh, next)
}

/// Tail a live sidecar: poll the file, print events beyond the
/// watermark. A missing or mid-rewrite file is a skipped poll, not an
/// error — the writer replaces it atomically, so the next read is whole.
fn follow(path: &str, polls: Option<u64>, interval: std::time::Duration) -> ExitCode {
    let stdout = std::io::stdout().lock();
    let mut out = std::io::BufWriter::new(stdout);
    let mut cursor: u64 = 0;
    let mut done: u64 = 0;
    loop {
        if let Ok(bytes) = std::fs::read(path) {
            if let Ok((sites, mut events)) = trace::decode(&bytes) {
                // Filter order is seq (globally monotonic); display order
                // within each batch is (time_ns, seq), per the header doc.
                events.sort_unstable_by_key(|ev| ev.seq);
                let (fresh, next) = beyond_watermark(&events, cursor);
                cursor = next;
                let mut fresh: Vec<TraceEvent> = fresh.to_vec();
                fresh.sort_unstable_by_key(|ev| (ev.time_ns, ev.seq));
                for ev in &fresh {
                    match writeln!(out, "{}", render_line(ev, &sites)) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                            return ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("trace_dump: write failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                if out.flush().is_err() {
                    return ExitCode::SUCCESS;
                }
            }
        }
        done += 1;
        if let Some(limit) = polls {
            if done >= limit {
                return ExitCode::SUCCESS;
            }
        }
        std::thread::sleep(interval);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut follow_mode = false;
    let mut polls: Option<u64> = None;
    let mut interval = std::time::Duration::from_millis(200);
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--follow" => follow_mode = true,
            "--polls" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => polls = Some(n),
                None => {
                    eprintln!("trace_dump: --polls needs a number");
                    return ExitCode::from(2);
                }
            },
            "--interval-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => interval = std::time::Duration::from_millis(ms.max(1)),
                None => {
                    eprintln!("trace_dump: --interval-ms needs a number");
                    return ExitCode::from(2);
                }
            },
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string())
            }
            other => {
                eprintln!("trace_dump: unexpected argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_dump [--follow] [--polls N] [--interval-ms MS] <trace.bin>");
        return ExitCode::from(2);
    };
    if follow_mode {
        return follow(&path, polls, interval);
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("trace_dump: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (sites, mut events) = match trace::decode(&bytes) {
        Ok(decoded) => decoded,
        Err(e) => {
            eprintln!("trace_dump: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (time, seq) is the recorder's total order; decoding preserves
    // insertion order, which can interleave across threads.
    events.sort_unstable_by_key(|ev| (ev.time_ns, ev.seq));

    let stdout = std::io::stdout().lock();
    let mut out = std::io::BufWriter::new(stdout);
    match dump(&mut out, &path, &sites, &events) {
        Ok(()) => ExitCode::SUCCESS,
        // `trace_dump … | head` closes the pipe mid-dump; that is the
        // reader saying "enough", not a failure.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_dump: write failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ns: u64, seq: u64) -> TraceEvent {
        TraceEvent {
            time_ns,
            seq,
            kind: TraceKind::PacketSend,
            site: 0,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn watermark_advances_and_filters() {
        let events = vec![ev(10, 0), ev(10, 1), ev(20, 2), ev(30, 3)];
        // First poll: everything is new.
        let (fresh, cursor) = beyond_watermark(&events, 0);
        assert_eq!(fresh.len(), 4);
        assert_eq!(cursor, 4);
        // Same file again: nothing new, cursor unchanged.
        let (fresh, cursor) = beyond_watermark(&events, cursor);
        assert!(fresh.is_empty());
        assert_eq!(cursor, 4);
        // The writer appended two events (and the ring dropped ev(10,0)).
        let grown = vec![ev(10, 1), ev(20, 2), ev(30, 3), ev(30, 4), ev(40, 5)];
        let (fresh, cursor) = beyond_watermark(&grown, cursor);
        assert_eq!(
            fresh.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(cursor, 6);
    }

    /// Regression: sessions joining mid-service carry session-local
    /// virtual time that restarts near 0. A `(time_ns, seq)`-keyed
    /// watermark would classify the late joiner's low timestamps as
    /// already shown; the seq-keyed cursor must surface them.
    #[test]
    fn late_joiner_with_reset_virtual_time_is_not_dropped() {
        // Poll 1: an established session deep into its virtual timeline.
        let poll1 = vec![ev(1_000_000, 0), ev(2_000_000, 1)];
        let (fresh, cursor) = beyond_watermark(&poll1, 0);
        assert_eq!(fresh.len(), 2);
        // Poll 2: a new session joined — its events have tiny time_ns
        // but higher seq. They must all be classified as fresh.
        let poll2 = vec![
            ev(1_000_000, 0),
            ev(2_000_000, 1),
            ev(5, 2),
            ev(10, 3),
            ev(2_500_000, 4),
        ];
        let (fresh, cursor) = beyond_watermark(&poll2, cursor);
        assert_eq!(
            fresh.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "late joiner's low-timestamp events were dropped"
        );
        assert_eq!(cursor, 5);
    }

    /// End-to-end smoke on a storm-scenario sidecar: record a thundering
    /// herd with the recorder forced on, encode → write → read → decode,
    /// and render every line. The dump must carry the control-plane
    /// kinds (admission rejects, reconnect attempts) with their glyphs.
    #[test]
    fn storm_sidecar_renders_control_plane_kinds() {
        trace::force(Some(true));
        trace::reset();
        visionsim_experiments::storms::thundering_herd(20, 42);
        let events = trace::take();
        let image = trace::encode(&events);
        trace::force(None);
        trace::reset();
        assert!(!events.is_empty(), "storm recorded no events");

        let path = std::env::temp_dir().join(format!(
            "visionsim_storm_trace_{}.bin",
            std::process::id()
        ));
        std::fs::write(&path, &image).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let (sites, mut decoded) = trace::decode(&bytes).expect("valid sidecar");
        decoded.sort_unstable_by_key(|ev| (ev.time_ns, ev.seq));
        assert_eq!(decoded.len(), events.len());

        let mut rendered = String::new();
        let mut dumped = Vec::new();
        dump(&mut dumped, "storm.trace.bin", &sites, &decoded).unwrap();
        for ev in &decoded {
            rendered.push_str(&render_line(ev, &sites));
            rendered.push('\n');
        }
        for needle in ["admission_reject", "reconnect_attempt", "reason=", "verdict="] {
            assert!(rendered.contains(needle), "missing {needle:?} in dump");
        }
        // The herd hammers a capacity-limited survivor: rejects must show
        // with their glyph column.
        assert!(
            rendered.lines().any(|l| l.contains(" ! admission_reject")),
            "admission_reject glyph missing"
        );
        assert!(
            rendered.lines().any(|l| l.contains(" @ reconnect_attempt")),
            "reconnect_attempt glyph missing"
        );
        // The summary path renders the same events without error.
        let summary = String::from_utf8(dumped).unwrap();
        assert!(summary.contains("per-kind counts:"));
    }
}
