//! The live session table.
//!
//! [`ServiceWorld`] owns every running [`SessionSim`] and advances them
//! in batched drains toward a virtual-time target. It holds no sockets
//! and never looks at the wall clock, so the soak test can push it
//! through hours of simulated traffic as fast as the CPU allows; the
//! server drives the same object from the wire protocol.

use std::collections::BTreeMap;

use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::DataRate;
use visionsim_core::{sanitizer, trace};
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::sites::Provider;
use visionsim_net::fault::{FaultPlan, GeConfig};
use visionsim_vca::session::{SessionConfig, SessionSim, MAX_PARTICIPANTS};

/// What a finished (or left) session reports back over the wire.
#[derive(Debug)]
pub struct SessionSummary {
    pub id: u64,
    pub participants: usize,
    /// Ticks actually stepped (a `leave` cuts this short).
    pub ticks: u64,
    pub failovers: usize,
    pub pli_sent: u64,
    /// True when the session was ended by `leave`/`quiesce` rather than
    /// running out its configured duration.
    pub left_early: bool,
}

struct LiveSession {
    sim: SessionSim,
    /// World virtual time at which the session joined; the session's own
    /// clock is relative to this anchor.
    base_ns: u64,
}

/// The session table plus the world's virtual clock position.
#[derive(Default)]
pub struct ServiceWorld {
    live: BTreeMap<u64, LiveSession>,
    next_id: u64,
    virtual_now_ns: u64,
    completed: Vec<SessionSummary>,
    draining: bool,
}

/// Build the named fault plan anchored at session-local time `at`.
pub fn fault_plan_named(kind: &str, at: SimTime) -> Result<FaultPlan, String> {
    let secs = SimDuration::from_secs;
    Ok(match kind {
        "flap" => FaultPlan::flap(at, secs(2)),
        "rate-cliff" => FaultPlan::rate_cliff(at, DataRate::from_kbps(300), secs(5)),
        "delay-spike" => FaultPlan::delay_spike(at, SimDuration::from_millis(150), secs(5)),
        "burst-loss" => FaultPlan::burst_loss(at, GeConfig::wifi_bursts(), secs(5)),
        "outage" => FaultPlan::server_outage(at, secs(2), secs(3)),
        _ => {
            return Err(format!(
                "unknown fault {kind:?} (valid: flap, rate-cliff, delay-spike, burst-loss, outage)"
            ))
        }
    })
}

impl ServiceWorld {
    /// An empty world at virtual time zero.
    pub fn new() -> ServiceWorld {
        ServiceWorld::default()
    }

    /// Virtual time the world has been advanced to.
    pub fn virtual_now_ns(&self) -> u64 {
        self.virtual_now_ns
    }

    /// Live session count.
    pub fn live_sessions(&self) -> usize {
        self.live.len()
    }

    /// Finished session count (completed, left, or quiesced).
    pub fn completed_sessions(&self) -> usize {
        self.completed.len()
    }

    /// Summaries of every finished session so far.
    pub fn completed(&self) -> &[SessionSummary] {
        &self.completed
    }

    /// Start a session from a named preset. `facetime` is the paper's
    /// spatial-persona configuration (all Vision Pro, the eight US
    /// vantage cities); `mixed` is a two-party Vision Pro ↔ MacBook call
    /// that exercises the 2D/RTP path. Both run with the congestion loop
    /// closed, as the live systems do. Rosters are bounded by the
    /// session port plan ([`MAX_PARTICIPANTS`]), and the session must end
    /// inside the world's virtual clock range.
    pub fn join(&mut self, preset: &str, n: usize, seed: u64, secs: u64) -> Result<u64, String> {
        if self.draining {
            return Err("service is quiescing; joins are refused".to_string());
        }
        let duration_ns = secs
            .max(1)
            .checked_mul(1_000_000_000)
            .filter(|ns| self.virtual_now_ns.checked_add(*ns).is_some())
            .ok_or_else(|| format!("session length {secs} s overflows the virtual clock"))?;
        let mut cfg = match preset {
            "facetime" => {
                if !(2..=MAX_PARTICIPANTS).contains(&n) {
                    return Err(format!(
                        "facetime needs 2..={MAX_PARTICIPANTS} participants, got {n}"
                    ));
                }
                SessionConfig::facetime_avp(n, &cities::us_vantages(), seed)
            }
            "mixed" => {
                if n != 2 {
                    return Err(format!("mixed is a two-party preset, got n={n}"));
                }
                SessionConfig::two_party(
                    Provider::FaceTime,
                    (
                        DeviceKind::VisionPro,
                        cities::by_name("San Francisco, CA").expect("registry city"),
                    ),
                    (
                        DeviceKind::MacBook,
                        cities::by_name("New York, NY").expect("registry city"),
                    ),
                    seed,
                )
            }
            _ => {
                return Err(format!(
                    "unknown preset {preset:?} (valid: facetime, mixed)"
                ))
            }
        };
        cfg.duration = SimDuration::from_nanos(duration_ns);
        cfg.congestion_control = true;
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(
            id,
            LiveSession {
                sim: SessionSim::new(cfg),
                base_ns: self.virtual_now_ns,
            },
        );
        Ok(id)
    }

    /// Finish session `id` early and summarize it.
    pub fn leave(&mut self, id: u64) -> Result<&SessionSummary, String> {
        let session = self
            .live
            .remove(&id)
            .ok_or_else(|| format!("no live session {id}"))?;
        let early = !session.sim.done();
        self.completed.push(summarize(id, session.sim, early));
        Ok(self.completed.last().expect("just pushed"))
    }

    /// Inject the named fault plan against one participant of a live
    /// session, anchored at the session's current time.
    pub fn fault(&mut self, id: u64, participant: usize, kind: &str) -> Result<(), String> {
        let session = self
            .live
            .get_mut(&id)
            .ok_or_else(|| format!("no live session {id}"))?;
        if participant >= session.sim.participants() {
            return Err(format!(
                "participant {participant} out of range (session {id} has {})",
                session.sim.participants()
            ));
        }
        let plan = fault_plan_named(kind, session.sim.now())?;
        session.sim.inject_fault(participant, plan);
        Ok(())
    }

    /// Advance every live session to world virtual time `target_ns`
    /// (batched drain: each session steps all its due ticks in a burst).
    /// Sessions that reach their configured duration are finished and
    /// moved to the completed list.
    pub fn advance_to(&mut self, target_ns: u64) {
        if target_ns <= self.virtual_now_ns {
            return;
        }
        self.virtual_now_ns = target_ns;
        let mut finished: Vec<u64> = Vec::new();
        for (&id, session) in self.live.iter_mut() {
            while !session.sim.done() && session.base_ns + session.sim.now().as_nanos() < target_ns
            {
                session.sim.step_tick();
            }
            if session.sim.done() {
                finished.push(id);
            }
        }
        for id in finished {
            let session = self.live.remove(&id).expect("collected above");
            self.completed.push(summarize(id, session.sim, false));
        }
    }

    /// Drain: finish every live session now and latch the world into a
    /// refuse-joins state. Returns how many sessions were drained.
    pub fn quiesce(&mut self) -> usize {
        self.draining = true;
        let ids: Vec<u64> = self.live.keys().copied().collect();
        for id in &ids {
            let session = self.live.remove(id).expect("listed above");
            let early = !session.sim.done();
            self.completed.push(summarize(*id, session.sim, early));
        }
        ids.len()
    }

    /// One-line JSON view of the world: virtual time, live sessions with
    /// their progress, completion count, and the process-global health
    /// counters a soak watches (intern table size, sanitizer violations).
    pub fn snapshot(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"virtual_ns\":{},\"live\":[",
            self.virtual_now_ns
        ));
        for (i, (id, session)) in self.live.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (tick, total) = session.sim.progress();
            out.push_str(&format!(
                "{{\"id\":{},\"participants\":{},\"tick\":{},\"total_ticks\":{}}}",
                id,
                session.sim.participants(),
                tick,
                total
            ));
        }
        out.push_str(&format!(
            "],\"completed\":{},\"draining\":{},\"intern_sites\":{},\"sanitizer_violations\":{}}}",
            self.completed.len(),
            self.draining,
            trace::intern_len(),
            sanitizer::total()
        ));
        out
    }
}

fn summarize(id: u64, sim: SessionSim, left_early: bool) -> SessionSummary {
    let (ticks, _) = sim.progress();
    let participants = sim.participants();
    let outcome = sim.finish();
    SessionSummary {
        id,
        participants,
        ticks,
        failovers: outcome.failovers.len(),
        pli_sent: outcome.pli_sent.iter().sum(),
        left_early,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_advance_leave_lifecycle() {
        let mut world = ServiceWorld::new();
        let id = world.join("mixed", 2, 7, 5).unwrap();
        assert_eq!(world.live_sessions(), 1);
        // One virtual second: ~90 ticks stepped in one batched drain.
        world.advance_to(1_000_000_000);
        let snap = world.snapshot();
        assert!(snap.contains("\"live\":[{\"id\":0"), "{snap}");
        let summary = world.leave(id).unwrap();
        assert!(summary.left_early);
        assert!(summary.ticks >= 89, "stepped {} ticks", summary.ticks);
        assert_eq!(world.live_sessions(), 0);
        assert_eq!(world.completed_sessions(), 1);
        assert!(world.leave(id).is_err(), "double leave must fail");
    }

    #[test]
    fn sessions_complete_on_their_own_schedule() {
        let mut world = ServiceWorld::new();
        world.join("mixed", 2, 3, 2).unwrap();
        world.advance_to(1_000_000_000);
        world.join("mixed", 2, 4, 2).unwrap();
        // First session (joined at 0 s, 2 s long) completes by 2 s; the
        // second (joined at 1 s) is still live.
        world.advance_to(2_500_000_000);
        assert_eq!(world.completed_sessions(), 1);
        assert_eq!(world.live_sessions(), 1);
        assert!(!world.completed()[0].left_early);
        world.advance_to(4_000_000_000);
        assert_eq!(world.completed_sessions(), 2);
    }

    #[test]
    fn fault_validates_session_participant_and_kind() {
        let mut world = ServiceWorld::new();
        let id = world.join("mixed", 2, 5, 10).unwrap();
        world.advance_to(200_000_000);
        world.fault(id, 0, "flap").unwrap();
        world.fault(id, 1, "burst-loss").unwrap();
        assert!(world
            .fault(99, 0, "flap")
            .unwrap_err()
            .contains("no live session"));
        assert!(world
            .fault(id, 9, "flap")
            .unwrap_err()
            .contains("out of range"));
        assert!(world
            .fault(id, 0, "gremlins")
            .unwrap_err()
            .contains("unknown fault"));
        // The injected faults apply on subsequent ticks without issue.
        world.advance_to(3_000_000_000);
    }

    #[test]
    fn quiesce_drains_and_refuses_joins() {
        let mut world = ServiceWorld::new();
        world.join("mixed", 2, 1, 30).unwrap();
        world.join("mixed", 2, 2, 30).unwrap();
        world.advance_to(500_000_000);
        assert_eq!(world.quiesce(), 2);
        assert_eq!(world.live_sessions(), 0);
        assert_eq!(world.completed_sessions(), 2);
        assert!(world.completed().iter().all(|s| s.left_early));
        assert!(world
            .join("mixed", 2, 3, 30)
            .unwrap_err()
            .contains("quiescing"));
    }

    #[test]
    fn join_rejects_bad_presets() {
        let mut world = ServiceWorld::new();
        assert!(world
            .join("nope", 2, 1, 10)
            .unwrap_err()
            .contains("unknown preset"));
        assert!(world.join("facetime", 1, 1, 10).is_err());
        assert!(world.join("mixed", 3, 1, 10).is_err());
        // Rosters past the port plan would overlap the per-sender source
        // port blocks (and n = 100000 would build ~10^10 receiver peers).
        for n in [MAX_PARTICIPANTS + 1, 100_000] {
            let err = world.join("facetime", n, 1, 10).unwrap_err();
            assert!(err.contains("participants"), "{err}");
        }
        // A session length whose nanoseconds overflow u64 is refused, not
        // a panic.
        for secs in [u64::MAX, u64::MAX / 1_000_000_000 + 1] {
            let err = world.join("facetime", 3, 1, secs).unwrap_err();
            assert!(err.contains("overflows"), "{err}");
        }
        assert_eq!(world.live_sessions(), 0);
    }
}
