//! The line-delimited control protocol.
//!
//! One whitespace-separated command per line; the server answers each
//! with exactly one line, `ok <command> …` or `err <message>`:
//!
//! ```text
//! join <preset> <n> <seed> [secs]   start a session (preset: facetime | mixed)
//! leave <id>                        finish a session early, report its summary
//! fault <id> <participant> <kind>   inject a fault plan (flap | rate-cliff |
//!                                   delay-spike | burst-loss | outage)
//! snapshot                          one-line JSON view of the world
//! quiesce                           drain every live session; refuse new joins
//! shutdown                          stop the service (after a final drain)
//! ```

/// A parsed control command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Start a session from a named preset.
    Join {
        preset: String,
        n: usize,
        seed: u64,
        secs: u64,
    },
    /// Finish session `id` early.
    Leave { id: u64 },
    /// Inject a named fault plan against one participant of session `id`.
    Fault {
        id: u64,
        participant: usize,
        kind: String,
    },
    /// One-line JSON view of the live world.
    Snapshot,
    /// Drain every live session and refuse further joins.
    Quiesce,
    /// Stop the service.
    Shutdown,
}

/// Seconds a joined session runs when the `join` line omits `secs`.
pub const DEFAULT_SESSION_SECS: u64 = 300;

fn field<T: std::str::FromStr>(parts: &[&str], i: usize, what: &str) -> Result<T, String> {
    parts
        .get(i)
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what} {:?}", parts[i]))
}

/// Parse one protocol line. Empty lines are an error (the server skips
/// them before calling this).
pub fn parse(line: &str) -> Result<Command, String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.first().copied() {
        Some("join") => Ok(Command::Join {
            preset: parts.get(1).ok_or("missing preset")?.to_string(),
            n: field(&parts, 2, "participant count")?,
            seed: field(&parts, 3, "seed")?,
            secs: match parts.get(4) {
                Some(_) => field(&parts, 4, "secs")?,
                None => DEFAULT_SESSION_SECS,
            },
        }),
        Some("leave") => Ok(Command::Leave {
            id: field(&parts, 1, "session id")?,
        }),
        Some("fault") => Ok(Command::Fault {
            id: field(&parts, 1, "session id")?,
            participant: field(&parts, 2, "participant")?,
            kind: parts.get(3).ok_or("missing fault kind")?.to_string(),
        }),
        Some("snapshot") => Ok(Command::Snapshot),
        Some("quiesce") => Ok(Command::Quiesce),
        Some("shutdown") => Ok(Command::Shutdown),
        Some(other) => Err(format!(
            "unknown command {other:?} (valid: join, leave, fault, snapshot, quiesce, shutdown)"
        )),
        None => Err("empty command".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse("join facetime 3 42 120").unwrap(),
            Command::Join {
                preset: "facetime".into(),
                n: 3,
                seed: 42,
                secs: 120
            }
        );
        assert_eq!(
            parse("join mixed 2 7").unwrap(),
            Command::Join {
                preset: "mixed".into(),
                n: 2,
                seed: 7,
                secs: DEFAULT_SESSION_SECS
            }
        );
        assert_eq!(parse("leave 3").unwrap(), Command::Leave { id: 3 });
        assert_eq!(
            parse("fault 1 0 burst-loss").unwrap(),
            Command::Fault {
                id: 1,
                participant: 0,
                kind: "burst-loss".into()
            }
        );
        assert_eq!(parse("  snapshot  ").unwrap(), Command::Snapshot);
        assert_eq!(parse("quiesce").unwrap(), Command::Quiesce);
        assert_eq!(parse("shutdown").unwrap(), Command::Shutdown);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("").is_err());
        assert!(parse("launch").unwrap_err().contains("unknown command"));
        assert!(parse("join").unwrap_err().contains("missing preset"));
        assert!(parse("join facetime x 1")
            .unwrap_err()
            .contains("participant count"));
        assert!(parse("leave").unwrap_err().contains("session id"));
        assert!(parse("fault 1 0").unwrap_err().contains("fault kind"));
    }
}
