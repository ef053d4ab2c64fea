//! Failover storms: correlated control-plane failures against the
//! resilience layer.
//!
//! The paper's Table 1 fleet is an infinite, always-healthy sink; a real
//! fleet has capacity envelopes, lagging health views, and correlated
//! outages. These scenarios drive a population of participants through
//! the control plane alone — [`SiteDirectory`] admission + health +
//! breakers, one [`Reconnector`] per stranded participant — with no
//! packet network underneath. Each attempt is the same
//! [`SiteDirectory::attempt_reconnect`] step the session engine takes,
//! so drills and sessions report identically:
//!
//! * **regional-outage** — two sites die at once; everyone stranded
//!   re-homes onto the survivors and back-pressure stays bounded.
//! * **flapping-site** — one site toggles up/down faster than the probe
//!   view converges; reconnect attempts land on the zombie, feed the
//!   per-site breaker, and trip it open.
//! * **thundering-herd** — every site but one dies; the survivor's
//!   capacity refuses the stampede, backoff spreads the retries, and a
//!   late-recovering site absorbs the remainder.
//! * **rolling-maintenance** — sites drain one after another on a
//!   schedule; each wave migrates and nobody is abandoned.
//!
//! All scheduling is sim time with per-participant seeded jitter, so a
//! storm replays byte-identically at any thread count. Participants obey
//! the conservation identity every tick: attached + reconnecting +
//! abandoned == joined (checked through the sanitizer).

use crate::report::render_table;
use std::collections::BTreeMap;
use std::fmt;
use visionsim_core::sanitizer;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_geo::cities::{self, City};
use visionsim_geo::coords::GeoPoint;
use visionsim_geo::sites::{Provider, SiteCapacity, SiteRegistry};
use visionsim_vca::server::{
    AdmissionVerdict, ReconnectPhase, Reconnector, ResilienceConfig, SiteDirectory, WaitMode,
};

/// Control-plane tick.
const TICK: SimDuration = SimDuration::from_millis(100);
/// Reconnect setup lag: site death → first attempt.
const RECONNECT_LAG: SimDuration = SimDuration::from_millis(500);
/// Per-site load curve sampling cadence.
const LOAD_SAMPLE_EVERY: SimDuration = SimDuration::from_secs(4);

/// A scheduled ground-truth flip of one site.
struct SiteEvent {
    at: SimTime,
    label: &'static str,
    up: bool,
}

/// One participant of the storm population.
struct Member {
    session: u64,
    loc: GeoPoint,
    /// The site currently hosting this member (None while disconnected).
    site: Option<&'static str>,
    /// Live reconnect machine while disconnected.
    rec: Option<Reconnector>,
    /// The member exhausted a rejoin budget at some point.
    abandoned: bool,
}

/// One storm scenario's results.
#[derive(Debug)]
pub struct StormOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Population size.
    pub joined: usize,
    /// Reconnect attempts fired.
    pub attempts: u64,
    /// Admissions the fleet refused.
    pub rejects: u64,
    /// Circuit breakers tripped open.
    pub breaker_opens: u32,
    /// Members attached to a live site at scenario end.
    pub attached_end: usize,
    /// Members still mid-reconnect at scenario end.
    pub reconnecting_end: usize,
    /// Members that exhausted their rejoin budget.
    pub abandoned: usize,
    /// Median rejoin latency across completed episodes, ms.
    pub rejoin_p50_ms: u64,
    /// p99 rejoin latency, ms.
    pub rejoin_p99_ms: u64,
    /// Degraded wait time summed across members, seconds, by ladder tier
    /// (frozen-spatial, 2D, audio-only).
    pub degraded_s: [f64; 3],
    /// Histogram of attempts-per-completed-episode: buckets 1, 2, 3, 4–7,
    /// 8+.
    pub attempt_hist: [u32; 5],
    /// Per-site attached counts sampled on a fixed cadence:
    /// (second, per-label load in registry order).
    pub site_load: Vec<(u64, Vec<(&'static str, u32)>)>,
    /// The conservation identity held at every check.
    pub conservation_ok: bool,
}

impl StormOutcome {
    fn hist_bucket(attempts: u32) -> usize {
        match attempts {
            0 | 1 => 0,
            2 => 1,
            3 => 2,
            4..=7 => 3,
            _ => 4,
        }
    }
}

fn percentile(sorted_ms: &[u64], p: f64) -> u64 {
    if sorted_ms.is_empty() {
        return 0;
    }
    sorted_ms[((sorted_ms.len() - 1) as f64 * p).round() as usize]
}

/// Drive one scenario: `population` members across the geo-distributed
/// fleet, `events` flipping ground truth on a schedule.
fn run_scenario(
    name: &'static str,
    secs: u64,
    population: usize,
    capacity: Option<SiteCapacity>,
    mut events: Vec<SiteEvent>,
    seed: u64,
) -> StormOutcome {
    let provider = Provider::FaceTime;
    let registry = SiteRegistry::geo_distributed(provider);
    let rc = ResilienceConfig {
        capacity,
        ..ResilienceConfig::default()
    };
    let mut dir = SiteDirectory::new(&registry, provider, rc);
    let vantages: Vec<City> = cities::us_vantages();

    // Population: cycled across the US vantage cities, conference groups
    // of three, everyone initially admitted to their nearest site.
    let mut members: Vec<Member> = (0..population)
        .map(|i| {
            let loc = vantages[i % vantages.len()].location;
            Member {
                session: (i / 3) as u64,
                loc,
                site: None,
                rec: None,
                abandoned: false,
            }
        })
        .collect();
    for (i, m) in members.iter_mut().enumerate() {
        let site = registry
            .nearest(provider, &m.loc)
            .expect("fleet is non-empty");
        if dir.try_admit(site.label, m.session, i as u64, SimTime::ZERO)
            == AdmissionVerdict::Admitted
        {
            m.site = Some(site.label);
        }
    }

    events.sort_by_key(|e| e.at);
    let mut next_event = 0usize;
    let mut next_probe = SimTime::ZERO;
    let mut next_load_sample = SimTime::ZERO;
    let mut attempts_total = 0u64;
    let mut degraded_s = [0.0f64; 3];
    let mut attempt_hist = [0u32; 5];
    let mut rejoins_ms: Vec<u64> = Vec::new();
    let mut site_load: Vec<(u64, Vec<(&'static str, u32)>)> = Vec::new();
    let mut conservation_ok = true;
    let ticks_per_sec = SimDuration::from_secs(1).as_nanos() / TICK.as_nanos();

    let total_ticks = SimDuration::from_secs(secs).as_nanos() / TICK.as_nanos();
    for t in 0..total_ticks {
        let now = SimTime::from_nanos(t * TICK.as_nanos());

        // Ground-truth flips.
        while next_event < events.len() && events[next_event].at <= now {
            let ev = &events[next_event];
            dir.set_site_up(ev.label, ev.up);
            if !ev.up {
                // Everyone hosted there is stranded and starts
                // reconnecting after the setup lag.
                for (i, m) in members.iter_mut().enumerate() {
                    if m.site != Some(ev.label) {
                        continue;
                    }
                    dir.detach(ev.label, m.session);
                    m.site = None;
                    m.rec = Some(Reconnector::new(
                        i as u64,
                        now,
                        now + RECONNECT_LAG,
                        dir.config().backoff,
                        dir.config().rejoin_budget,
                        seed,
                    ));
                }
            }
            next_event += 1;
        }

        // Probe round on its cadence: the observed health view advances.
        if now >= next_probe {
            dir.probe_tick(now);
            next_probe = now + dir.config().probe_every;
        }

        // Fire every due reconnect attempt. Members do not know ground
        // truth — candidate() works off the probe-lagged health view and
        // the breakers, so attempts can land on a zombie site (feeding
        // its breaker), exactly like real clients behind a stale
        // directory.
        for m in members.iter_mut() {
            let Some(rec) = m.rec.as_mut() else { continue };
            if !rec.due(now) {
                continue;
            }
            attempts_total += 1;
            let admitted = dir.attempt_reconnect(rec, &m.loc, &[], m.session, now);
            match rec.phase() {
                ReconnectPhase::Waiting { .. } => continue,
                ReconnectPhase::Reattached { at } => {
                    m.site = admitted.map(|s| s.label);
                    rejoins_ms.push(at.since(rec.down_at()).as_nanos() / 1_000_000);
                    attempt_hist[StormOutcome::hist_bucket(rec.attempts())] += 1;
                }
                ReconnectPhase::Abandoned { .. } => m.abandoned = true,
            }
            m.rec = None;
        }

        // Degraded-seconds by wait tier, and the conservation identity.
        let mut attached = 0usize;
        let mut reconnecting = 0usize;
        let mut abandoned = 0usize;
        for m in &members {
            if m.site.is_some() {
                attached += 1;
            } else if let Some(rec) = &m.rec {
                reconnecting += 1;
                let tier = match rec.wait_mode(now) {
                    WaitMode::FrozenSpatial => 0,
                    WaitMode::TwoD => 1,
                    WaitMode::AudioOnly => 2,
                };
                degraded_s[tier] += TICK.as_secs_f64();
            } else if m.abandoned {
                abandoned += 1;
            }
        }
        if t % ticks_per_sec == 0 {
            let holds = attached + reconnecting + abandoned == population;
            conservation_ok &= holds;
            sanitizer::check(holds, "storms/participant_conservation", || {
                format!(
                    "{name}: attached {attached} + reconnecting {reconnecting} \
                     + abandoned {abandoned} != joined {population}"
                )
            });
        }

        // Per-site load curve.
        if now >= next_load_sample {
            let mut by_site: BTreeMap<&'static str, u32> = BTreeMap::new();
            for label in dir.labels() {
                by_site.insert(label, dir.attached(label));
            }
            site_load.push((
                now.as_nanos() / 1_000_000_000,
                dir.labels()
                    .into_iter()
                    .map(|l| (l, by_site[l]))
                    .collect(),
            ));
            next_load_sample = now + LOAD_SAMPLE_EVERY;
        }
    }

    rejoins_ms.sort_unstable();
    StormOutcome {
        name,
        joined: population,
        attempts: attempts_total,
        rejects: dir.total_rejects(),
        breaker_opens: dir.total_breaker_opens(),
        attached_end: members.iter().filter(|m| m.site.is_some()).count(),
        reconnecting_end: members.iter().filter(|m| m.rec.is_some()).count(),
        abandoned: members.iter().filter(|m| m.abandoned).count(),
        rejoin_p50_ms: percentile(&rejoins_ms, 0.50),
        rejoin_p99_ms: percentile(&rejoins_ms, 0.99),
        degraded_s,
        attempt_hist,
        site_load,
        conservation_ok,
    }
}

/// Population shared by every scenario.
const POPULATION: usize = 60;

/// A regional outage takes the two western sites down at once; both
/// recover late.
pub fn regional_outage(secs: u64, seed: u64) -> StormOutcome {
    run_scenario(
        "regional-outage",
        secs,
        POPULATION,
        None,
        vec![
            SiteEvent { at: SimTime::from_secs(2), label: "W", up: false },
            SiteEvent { at: SimTime::from_secs(2), label: "M", up: false },
            SiteEvent { at: SimTime::from_secs(20), label: "W", up: true },
            SiteEvent { at: SimTime::from_secs(20), label: "M", up: true },
        ],
        seed,
    )
}

/// One site flaps faster than the probe view converges: reconnects land
/// on the zombie and trip its breaker.
pub fn flapping_site(secs: u64, seed: u64) -> StormOutcome {
    let mut events = Vec::new();
    // Down/up every 750 ms between 2.2 s and 14 s, ending down. The
    // 200 ms offset off the 500 ms probe grid is the point: a flap lands
    // mid-probe-window, so reconnect attempts fire while the observed
    // health still says usable — and hit the zombie.
    let mut at_ms = 2_200u64;
    let mut up = false;
    while at_ms < 14_000 {
        events.push(SiteEvent {
            at: SimTime::from_millis(at_ms),
            label: "W",
            up,
        });
        up = !up;
        at_ms += 750;
    }
    run_scenario("flapping-site", secs, POPULATION, None, events, seed)
}

/// Every site but the eastern survivor dies at once; its capacity refuses
/// the stampede until a second site recovers and absorbs the remainder.
pub fn thundering_herd(secs: u64, seed: u64) -> StormOutcome {
    run_scenario(
        "thundering-herd",
        secs,
        POPULATION,
        // The survivor starts ~80% full, so the soft limit must sit above
        // that — the herd bounces off the hard participant envelope, and
        // backoff spreads the retries until the second site returns.
        Some(SiteCapacity {
            max_sessions: 64,
            max_participants: 36,
            degraded_admit_frac: 0.95,
        }),
        vec![
            SiteEvent { at: SimTime::from_secs(2), label: "W", up: false },
            SiteEvent { at: SimTime::from_secs(2), label: "M", up: false },
            SiteEvent { at: SimTime::from_secs(2), label: "EU", up: false },
            SiteEvent { at: SimTime::from_secs(2), label: "AS", up: false },
            SiteEvent { at: SimTime::from_secs(12), label: "M", up: true },
        ],
        seed,
    )
}

/// Rolling maintenance: each US site drains for six seconds in turn.
pub fn rolling_maintenance(secs: u64, seed: u64) -> StormOutcome {
    run_scenario(
        "rolling-maintenance",
        secs,
        POPULATION,
        None,
        vec![
            SiteEvent { at: SimTime::from_secs(2), label: "W", up: false },
            SiteEvent { at: SimTime::from_secs(8), label: "W", up: true },
            SiteEvent { at: SimTime::from_secs(8), label: "M", up: false },
            SiteEvent { at: SimTime::from_secs(14), label: "M", up: true },
            SiteEvent { at: SimTime::from_secs(14), label: "E", up: false },
            SiteEvent { at: SimTime::from_secs(20), label: "E", up: true },
        ],
        seed,
    )
}

/// The full storm artifact: all four correlated-failure scenarios.
#[derive(Debug)]
pub struct Storms {
    /// Scenario outcomes in run order.
    pub scenarios: Vec<StormOutcome>,
}

/// Run every scenario with `secs`-second runs.
pub fn run(secs: u64, seed: u64) -> Storms {
    use visionsim_core::par::{derive_seed, par_map};
    let cells: Vec<u64> = (0..4).collect();
    let scenarios = par_map(cells, |i| {
        let s = derive_seed(seed, "storms", i);
        match i {
            0 => regional_outage(secs, s),
            1 => flapping_site(secs, s),
            2 => thundering_herd(secs, s),
            _ => rolling_maintenance(secs, s),
        }
    });
    Storms { scenarios }
}

impl fmt::Display for Storms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = vec![
            "scenario".to_string(),
            "joined".to_string(),
            "attempts".to_string(),
            "rejects".to_string(),
            "breaker opens".to_string(),
            "attached/reconnecting/abandoned".to_string(),
            "rejoin p50/p99 (ms)".to_string(),
            "degraded s (frozen/2D/audio)".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .scenarios
            .iter()
            .map(|sc| {
                vec![
                    sc.name.to_string(),
                    sc.joined.to_string(),
                    sc.attempts.to_string(),
                    sc.rejects.to_string(),
                    sc.breaker_opens.to_string(),
                    format!("{}/{}/{}", sc.attached_end, sc.reconnecting_end, sc.abandoned),
                    format!("{}/{}", sc.rejoin_p50_ms, sc.rejoin_p99_ms),
                    format!(
                        "{:.1}/{:.1}/{:.1}",
                        sc.degraded_s[0], sc.degraded_s[1], sc.degraded_s[2]
                    ),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                "Failover storms: admission, breakers, reconnect convergence",
                &header,
                &rows
            )
        )?;
        for sc in &self.scenarios {
            write!(f, "{}: attempts/episode [1|2|3|4-7|8+] =", sc.name)?;
            for b in sc.attempt_hist {
                write!(f, " {b}")?;
            }
            writeln!(
                f,
                "; conservation {}",
                if sc.conservation_ok { "ok" } else { "VIOLATED" }
            )?;
            for (sec, loads) in &sc.site_load {
                write!(f, "  t={sec:>2}s load:")?;
                for (label, n) in loads {
                    write!(f, " {label}={n}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regional_outage_rehomes_everyone() {
        let out = regional_outage(32, 3);
        assert_eq!(out.abandoned, 0, "{out:?}");
        assert_eq!(out.attached_end, out.joined, "{out:?}");
        assert!(out.conservation_ok);
        assert!(out.attempts >= 1);
        // The survivors actually carried the displaced load mid-outage.
        let mid = out
            .site_load
            .iter()
            .find(|(sec, _)| *sec >= 8)
            .expect("load samples");
        let east: u32 = mid.1.iter().filter(|(l, _)| *l == "E").map(|(_, n)| n).sum();
        assert!(east > 25, "east load {east} at t={}s", mid.0);
    }

    #[test]
    fn flapping_site_trips_the_breaker() {
        let out = flapping_site(32, 5);
        assert!(out.breaker_opens >= 1, "{out:?}");
        assert!(out.conservation_ok);
        // The flapping site's victims end up somewhere live.
        assert_eq!(out.attached_end + out.abandoned, out.joined, "{out:?}");
    }

    #[test]
    fn thundering_herd_sheds_load_then_converges() {
        let out = thundering_herd(32, 7);
        // The survivor's admission control must actually refuse joins…
        assert!(out.rejects > 0, "{out:?}");
        // …and backoff + the late recovery still reattach every
        // non-abandoned participant.
        assert_eq!(out.reconnecting_end, 0, "{out:?}");
        assert_eq!(out.attached_end + out.abandoned, out.joined, "{out:?}");
        assert!(out.conservation_ok);
        // Retries spread: some episode needed more than one attempt.
        let multi: u32 = out.attempt_hist[1..].iter().sum();
        assert!(multi > 0, "{out:?}");
    }

    #[test]
    fn rolling_maintenance_never_abandons() {
        let out = rolling_maintenance(32, 9);
        assert_eq!(out.abandoned, 0, "{out:?}");
        assert_eq!(out.attached_end, out.joined, "{out:?}");
        assert!(out.conservation_ok);
    }

    #[test]
    fn storms_deterministic_across_thread_counts() {
        use visionsim_core::par::set_threads;
        let _guard = visionsim_core::par::override_guard();
        let mut digests = Vec::new();
        for threads in [1usize, 4, 8] {
            set_threads(Some(threads));
            digests.push(format!("{}", run(12, 11)));
        }
        set_threads(None);
        assert_eq!(digests[0], digests[1], "1 vs 4 threads diverged");
        assert_eq!(digests[0], digests[2], "1 vs 8 threads diverged");
    }
}
