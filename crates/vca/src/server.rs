//! SFU servers and assignment policies.
//!
//! §4.1's central infrastructure finding: every platform assigns the
//! session to the single server *closest to the initiating user*,
//! regardless of where the other participants are — which is what produces
//! Table 1's ~80 ms worst-case rows. The paper proposes geo-distributed
//! serving (each client attaches to a nearby server, servers interconnect
//! over a fast private backbone) as the fix; both policies are implemented
//! so the ablation can quantify the difference.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use visionsim_core::metrics::{self, Class};
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::trace::{self, TraceKind};
use visionsim_geo::coords::GeoPoint;
use visionsim_geo::sites::{Provider, ServerSite, SiteCapacity, SiteRegistry};
use visionsim_net::probe::{HealthConfig, HealthMonitor, ProbeOutcome, SiteHealth};

/// How a session picks its server(s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignmentPolicy {
    /// One server: the provider site nearest the initiator (measured
    /// behaviour).
    NearestToInitiator,
    /// Each client attaches to its nearest site; sites relay over a
    /// private backbone (the paper's proposed improvement).
    GeoDistributed,
}

/// The outcome of assignment: which site each participant attaches to.
#[derive(Clone, Debug)]
pub struct ServerAssignment {
    /// Policy used.
    pub policy: AssignmentPolicy,
    /// Attachment site per participant (same order as the input).
    pub attachments: Vec<ServerSite>,
}

impl ServerAssignment {
    /// Assign servers for a session. `locations[0]` is the initiator.
    /// Equivalent to [`ServerAssignment::assign_with_salt`] with salt 0
    /// (the geographically nearest site wins outright).
    pub fn assign(
        policy: AssignmentPolicy,
        registry: &SiteRegistry,
        provider: Provider,
        locations: &[GeoPoint],
    ) -> Self {
        Self::assign_with_salt(policy, registry, provider, locations, 0)
    }

    /// Assign servers with a per-session salt. The paper observes that the
    /// assigned server is always *in the initiator's nearest region* —
    /// e.g. an Eastern initiator always lands in the Eastern US — but it
    /// found two distinct Middle-US FaceTime servers, so within a region
    /// the provider load-balances. The salt selects among the same-region
    /// candidates; salt 0 picks the strictly nearest.
    pub fn assign_with_salt(
        policy: AssignmentPolicy,
        registry: &SiteRegistry,
        provider: Provider,
        locations: &[GeoPoint],
        salt: u64,
    ) -> Self {
        assert!(!locations.is_empty(), "session needs participants");
        let attachments = match policy {
            AssignmentPolicy::NearestToInitiator => {
                let nearest = registry
                    .nearest(provider, &locations[0])
                    .expect("provider has at least one site");
                let mut candidates: Vec<ServerSite> = registry
                    .for_provider(provider)
                    .into_iter()
                    .filter(|s| s.region() == nearest.region())
                    .collect();
                // Deterministic order: nearest first, then registry order.
                candidates.sort_by(|a, b| {
                    let da = a.location().distance_km(&locations[0]);
                    let db = b.location().distance_km(&locations[0]);
                    da.partial_cmp(&db).expect("finite distances")
                });
                let site = candidates[(salt as usize) % candidates.len()];
                vec![site; locations.len()]
            }
            AssignmentPolicy::GeoDistributed => locations
                .iter()
                .map(|loc| {
                    registry
                        .nearest(provider, loc)
                        .expect("provider has at least one site")
                })
                .collect(),
        };
        ServerAssignment {
            policy,
            attachments,
        }
    }

    /// Distinct sites in use.
    pub fn distinct_sites(&self) -> Vec<ServerSite> {
        let mut sites: Vec<ServerSite> = Vec::new();
        for s in &self.attachments {
            if !sites
                .iter()
                .any(|t| t.label == s.label && t.provider == s.provider)
            {
                sites.push(*s);
            }
        }
        sites
    }

    /// Worst-case client→attachment distance, km — the headline cost of a
    /// placement policy.
    pub fn worst_attachment_km(&self, locations: &[GeoPoint]) -> f64 {
        self.attachments
            .iter()
            .zip(locations)
            .map(|(s, l)| s.location().distance_km(l))
            .fold(0.0, f64::max)
    }
}

/// Pick the failover target after a server-down event: the next-nearest
/// provider site to `anchor` (where the session's assignment policy
/// anchors placement) whose label is not in `dead`. Returns `None` when
/// every site of the provider is down — the session then has nowhere to
/// reconnect and stays dark.
pub fn failover_site(
    registry: &SiteRegistry,
    provider: Provider,
    anchor: &GeoPoint,
    dead: &[&str],
) -> Option<ServerSite> {
    let mut candidates: Vec<ServerSite> = registry
        .for_provider(provider)
        .into_iter()
        .filter(|s| !dead.contains(&s.label))
        .collect();
    candidates.sort_by(|a, b| {
        let da = a.location().distance_km(anchor);
        let db = b.location().distance_km(anchor);
        da.partial_cmp(&db)
            .expect("finite distances")
            .then_with(|| a.label.cmp(b.label))
    });
    candidates.first().copied()
}

/// Cached metrics handles for the resilience layer. All [`Class::Sim`]:
/// derived purely from seeded simulation state.
pub struct ResilienceMetrics {
    /// Join/rejoin attempts a site refused.
    pub admission_rejects: metrics::Counter,
    /// Reconnect attempts fired (admitted or not).
    pub reconnect_attempts: metrics::Counter,
    /// Circuit breakers tripped open.
    pub breaker_opens: metrics::Counter,
    /// Open breakers whose timer elapsed into half-open.
    pub breaker_half_opens: metrics::Counter,
    /// Half-open breakers closed by a successful attempt.
    pub breaker_closes: metrics::Counter,
    /// Participants that exhausted their rejoin budget.
    pub reconnects_abandoned: metrics::Counter,
    /// Rejoin latency (site death → reattached), milliseconds.
    pub rejoin_ms: metrics::Histogram,
}

/// The registry handles for the resilience layer (shared by the session
/// engine and the storm scenarios).
pub fn resilience_metrics() -> &'static ResilienceMetrics {
    static M: OnceLock<ResilienceMetrics> = OnceLock::new();
    M.get_or_init(|| ResilienceMetrics {
        admission_rejects: metrics::counter("vca/admission_rejects", Class::Sim),
        reconnect_attempts: metrics::counter("vca/reconnect_attempts", Class::Sim),
        breaker_opens: metrics::counter("vca/breaker_opens", Class::Sim),
        breaker_half_opens: metrics::counter("vca/breaker_half_opens", Class::Sim),
        breaker_closes: metrics::counter("vca/breaker_closes", Class::Sim),
        reconnects_abandoned: metrics::counter("vca/reconnects_abandoned", Class::Sim),
        rejoin_ms: metrics::histogram("vca/rejoin_ms", Class::Sim),
    })
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

/// Breaker thresholds and timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed attempts before the breaker opens.
    pub failure_threshold: u32,
    /// How long an open breaker blocks before half-opening. The timer is
    /// deterministic sim time — no wall clock anywhere.
    pub open_for: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(5),
        }
    }
}

/// Breaker state: Closed (attempts flow), Open (attempts blocked until
/// the deadline), HalfOpen (one trial attempt decides).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Attempts flow; consecutive failures are counted.
    Closed,
    /// Attempts are refused until `until`.
    Open {
        /// Deterministic half-open deadline.
        until: SimTime,
    },
    /// The timer elapsed; the next attempt is a trial.
    HalfOpen,
}

/// Per-site circuit breaker over reconnect attempts.
#[derive(Clone, Copy, Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opens: u32,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opens: 0,
        }
    }

    /// Current state after advancing the open→half-open timer to `now`.
    /// Returns `(state, half_opened_now)`.
    pub fn poll(&mut self, now: SimTime) -> (BreakerState, bool) {
        if let BreakerState::Open { until } = self.state {
            if now >= until {
                self.state = BreakerState::HalfOpen;
                return (self.state, true);
            }
        }
        (self.state, false)
    }

    /// Whether an attempt may be fired at `now` (advances the timer).
    pub fn allows(&mut self, now: SimTime) -> bool {
        !matches!(self.poll(now).0, BreakerState::Open { .. })
    }

    /// Record a failed attempt; returns true when this failure opened the
    /// breaker.
    pub fn on_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // The trial failed: straight back to Open.
                self.state = BreakerState::Open {
                    until: now + self.cfg.open_for,
                };
                self.opens += 1;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open {
                        until: now + self.cfg.open_for,
                    };
                    self.opens += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Record a successful attempt; returns true when this success closed
    /// a half-open breaker.
    pub fn on_success(&mut self) -> bool {
        let was_half_open = self.state == BreakerState::HalfOpen;
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        was_half_open
    }

    /// Times this breaker has opened.
    pub fn opens(&self) -> u32 {
        self.opens
    }
}

// ---------------------------------------------------------------------
// Reconnect state machine
// ---------------------------------------------------------------------

/// Capped exponential backoff with deterministic seeded jitter.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Exponential growth stops here.
    pub cap: SimDuration,
    /// Multiplicative jitter half-width: the delay is scaled by a uniform
    /// draw in `[1 - jitter_frac, 1 + jitter_frac]`. Jitter comes from a
    /// per-participant [`SimRng`], so sequences are byte-identical at any
    /// thread count.
    pub jitter_frac: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: SimDuration::from_millis(500),
            cap: SimDuration::from_secs(8),
            jitter_frac: 0.2,
        }
    }
}

impl BackoffPolicy {
    /// Delay before retry number `attempt` (0-based: the delay after the
    /// first failed attempt is `delay(0)`).
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let doubled = self
            .base
            .as_nanos()
            .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX));
        let capped = doubled.min(self.cap.as_nanos());
        let scale = 1.0 + self.jitter_frac * (rng.uniform() * 2.0 - 1.0);
        SimDuration::from_nanos(capped).mul_f64(scale.max(0.0))
    }
}

/// Where a reconnecting participant is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconnectPhase {
    /// Waiting for the next scheduled attempt.
    Waiting {
        /// When the next attempt fires.
        next_attempt: SimTime,
    },
    /// Back on a live site.
    Reattached {
        /// When the admission succeeded.
        at: SimTime,
    },
    /// The rejoin budget ran out; the participant gave up.
    Abandoned {
        /// When the budget expired.
        at: SimTime,
    },
}

/// What the participant renders while waiting to rejoin: the graceful
/// ladder spatial → 2D → audio-only, keyed on how long the wait has been.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitMode {
    /// Short gap: the last spatial frame stays frozen on screen.
    FrozenSpatial,
    /// Medium gap: drop to the 2D persona tile.
    TwoD,
    /// Long gap: audio-only placeholder.
    AudioOnly,
}

/// Wait shorter than this renders the frozen spatial frame.
pub const WAIT_FROZEN_SPATIAL: SimDuration = SimDuration::from_secs(2);
/// Wait shorter than this (and past the frozen window) renders 2D.
pub const WAIT_TWO_D: SimDuration = SimDuration::from_secs(6);

/// Per-participant reconnect state machine. All scheduling is sim time;
/// the jitter RNG is seeded from `(seed, participant)`, so a reconnect
/// storm replays byte-identically at any thread count.
#[derive(Clone, Debug)]
pub struct Reconnector {
    participant: u64,
    down_at: SimTime,
    budget: SimDuration,
    policy: BackoffPolicy,
    rng: SimRng,
    attempts: u32,
    rejected: u32,
    phase: ReconnectPhase,
}

impl Reconnector {
    /// Start reconnecting `participant` whose site died at `down_at`; the
    /// first attempt fires at `first_attempt` (detection + reconnect
    /// setup lag), later ones follow the backoff policy.
    pub fn new(
        participant: u64,
        down_at: SimTime,
        first_attempt: SimTime,
        policy: BackoffPolicy,
        budget: SimDuration,
        seed: u64,
    ) -> Self {
        Reconnector {
            participant,
            down_at,
            budget,
            policy,
            rng: SimRng::seed_from_u64(visionsim_core::par::derive_seed(
                seed,
                "reconnect",
                participant,
            )),
            attempts: 0,
            rejected: 0,
            phase: ReconnectPhase::Waiting {
                next_attempt: first_attempt,
            },
        }
    }

    /// The participant index this machine drives.
    pub fn participant(&self) -> u64 {
        self.participant
    }

    /// When the driven site died.
    pub fn down_at(&self) -> SimTime {
        self.down_at
    }

    /// Current phase.
    pub fn phase(&self) -> ReconnectPhase {
        self.phase
    }

    /// Attempts fired so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Attempts refused (admission reject or no candidate).
    pub fn rejected(&self) -> u32 {
        self.rejected
    }

    /// True when an attempt should fire at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        matches!(self.phase, ReconnectPhase::Waiting { next_attempt } if now >= next_attempt)
    }

    /// Consume the due attempt; returns the 1-based attempt number.
    /// Attempts are fired only through [`SiteDirectory::attempt_reconnect`].
    pub(crate) fn take_attempt(&mut self) -> u32 {
        self.attempts += 1;
        self.attempts
    }

    /// The attempt was refused (or found no candidate): schedule the next
    /// one per backoff, or abandon when the budget is spent.
    pub(crate) fn on_rejected(&mut self, now: SimTime) {
        self.rejected += 1;
        if now.since(self.down_at) >= self.budget {
            self.phase = ReconnectPhase::Abandoned { at: now };
            return;
        }
        let delay = self.policy.delay(self.attempts.saturating_sub(1), &mut self.rng);
        self.phase = ReconnectPhase::Waiting {
            next_attempt: now + delay,
        };
    }

    /// The attempt was admitted: the participant is back.
    pub(crate) fn on_admitted(&mut self, now: SimTime) {
        self.phase = ReconnectPhase::Reattached { at: now };
    }

    /// Rejoin latency, once reattached.
    pub fn rejoin_latency(&self) -> Option<SimDuration> {
        match self.phase {
            ReconnectPhase::Reattached { at } => Some(at.since(self.down_at)),
            _ => None,
        }
    }

    /// What the participant renders at `now` while disconnected: frozen
    /// spatial frame → 2D tile → audio-only, by wait duration.
    pub fn wait_mode(&self, now: SimTime) -> WaitMode {
        let waited = now.since(self.down_at);
        if waited < WAIT_FROZEN_SPATIAL {
            WaitMode::FrozenSpatial
        } else if waited < WAIT_TWO_D {
            WaitMode::TwoD
        } else {
            WaitMode::AudioOnly
        }
    }
}

// ---------------------------------------------------------------------
// Admission + site directory
// ---------------------------------------------------------------------

/// Why a site refused a join.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Participant envelope full (or degraded-mode soft limit reached).
    Capacity,
    /// Session envelope full (new conference groups refused).
    Sessions,
    /// The site is down or observed unusable.
    Health,
}

impl RejectReason {
    /// Trace operand encoding.
    pub fn code(self) -> u64 {
        match self {
            RejectReason::Capacity => 0,
            RejectReason::Sessions => 1,
            RejectReason::Health => 2,
        }
    }
}

/// Outcome of one admission request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The participant is attached.
    Admitted,
    /// Refused, with the reason.
    Rejected(RejectReason),
}

/// Tuning knobs of the resilience layer (health cadence, backoff,
/// breaker, capacity override, rejoin budget).
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Retry backoff.
    pub backoff: BackoffPolicy,
    /// Give up reconnecting after this long disconnected.
    pub rejoin_budget: SimDuration,
    /// Health-probe cadence against every site.
    pub probe_every: SimDuration,
    /// Health state-machine thresholds.
    pub health: HealthConfig,
    /// Per-site breaker thresholds.
    pub breaker: BreakerConfig,
    /// Capacity applied to every site (None → [`SiteCapacity::default`]).
    pub capacity: Option<SiteCapacity>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            backoff: BackoffPolicy::default(),
            rejoin_budget: SimDuration::from_secs(30),
            probe_every: SimDuration::from_millis(500),
            health: HealthConfig::default(),
            breaker: BreakerConfig::default(),
            capacity: None,
        }
    }
}

/// Runtime status of one site inside a [`SiteDirectory`].
#[derive(Clone, Debug)]
struct SiteStatus {
    site: ServerSite,
    capacity: SiteCapacity,
    /// Ground truth: is the site actually serving?
    up: bool,
    /// The probe-lagged observed view.
    monitor: HealthMonitor,
    breaker: CircuitBreaker,
    attached: u32,
    /// Members per hosted session id (BTreeMap: deterministic iteration).
    sessions: BTreeMap<u64, u32>,
    rejects: u64,
}

/// Control-plane directory over one provider's fleet: ground-truth
/// up/down per site, a probe-driven [`HealthMonitor`], a per-site
/// [`CircuitBreaker`], capacity-gated admission, and candidate selection
/// that never hands out a site observed Down or breaker-open.
///
/// Trace events ([`TraceKind::AdmissionReject`], breaker transitions,
/// [`TraceKind::ReconnectAttempt`]) and the [`resilience_metrics`]
/// counters are emitted here, and both the session engine and the storm
/// scenarios drive reconnects through
/// [`attempt_reconnect`](Self::attempt_reconnect), so they report
/// identically.
#[derive(Clone, Debug)]
pub struct SiteDirectory {
    provider: Provider,
    registry: SiteRegistry,
    sites: Vec<SiteStatus>,
    cfg: ResilienceConfig,
}

impl SiteDirectory {
    /// A directory over `registry`'s sites for `provider`, all up and
    /// empty.
    pub fn new(registry: &SiteRegistry, provider: Provider, cfg: ResilienceConfig) -> Self {
        let sites = registry
            .for_provider(provider)
            .into_iter()
            .map(|site| SiteStatus {
                site,
                capacity: cfg.capacity.unwrap_or_default(),
                up: true,
                monitor: HealthMonitor::new(cfg.health),
                breaker: CircuitBreaker::new(cfg.breaker),
                attached: 0,
                sessions: BTreeMap::new(),
                rejects: 0,
            })
            .collect();
        SiteDirectory {
            provider,
            registry: registry.clone(),
            sites,
            cfg,
        }
    }

    fn idx(&self, label: &str) -> Option<usize> {
        self.sites.iter().position(|s| s.site.label == label)
    }

    /// Flip a site's ground truth. Participants attached there are the
    /// caller's to detach; the monitor only notices at the next probe.
    pub fn set_site_up(&mut self, label: &str, up: bool) {
        if let Some(i) = self.idx(label) {
            self.sites[i].up = up;
        }
    }

    /// Ground truth for `label`.
    pub fn is_up(&self, label: &str) -> bool {
        self.idx(label).map(|i| self.sites[i].up).unwrap_or(false)
    }

    /// Observed health for `label` (probe-lagged).
    pub fn health(&self, label: &str) -> SiteHealth {
        self.idx(label)
            .map(|i| self.sites[i].monitor.state())
            .unwrap_or(SiteHealth::Down)
    }

    /// Participants attached to `label`.
    pub fn attached(&self, label: &str) -> u32 {
        self.idx(label).map(|i| self.sites[i].attached).unwrap_or(0)
    }

    /// Admissions `label` has refused.
    pub fn rejects(&self, label: &str) -> u64 {
        self.idx(label).map(|i| self.sites[i].rejects).unwrap_or(0)
    }

    /// Times `label`'s breaker has opened.
    pub fn breaker_opens(&self, label: &str) -> u32 {
        self.idx(label)
            .map(|i| self.sites[i].breaker.opens())
            .unwrap_or(0)
    }

    /// Total breaker opens across the fleet.
    pub fn total_breaker_opens(&self) -> u32 {
        self.sites.iter().map(|s| s.breaker.opens()).sum()
    }

    /// Total admission rejects across the fleet.
    pub fn total_rejects(&self) -> u64 {
        self.sites.iter().map(|s| s.rejects).sum()
    }

    /// Site labels in registry order (stable reporting order).
    pub fn labels(&self) -> Vec<&'static str> {
        self.sites.iter().map(|s| s.site.label).collect()
    }

    /// Run one probe round against every site, advancing each monitor.
    /// Probe outcomes derive from ground truth: down → Lost; up but past
    /// the degraded admission fraction → Slow; otherwise Ok.
    pub fn probe_tick(&mut self, _now: SimTime) {
        for s in &mut self.sites {
            let outcome = if !s.up {
                ProbeOutcome::Lost
            } else if s.capacity.utilization(s.attached) >= s.capacity.degraded_admit_frac {
                ProbeOutcome::Slow
            } else {
                ProbeOutcome::Ok
            };
            s.monitor.on_probe(outcome);
        }
    }

    /// Pick the best reattach target near `anchor`: the next-nearest site
    /// excluding every site that died (`dead`), is observed Down, or has
    /// an open breaker (after advancing breaker timers to `now` — an
    /// elapsed open timer half-opens here and readmits the site as a
    /// trial). Delegates the distance ordering to [`failover_site`].
    pub fn candidate(
        &mut self,
        anchor: &GeoPoint,
        dead: &[&str],
        now: SimTime,
    ) -> Option<ServerSite> {
        let mut excluded: Vec<&str> = dead.to_vec();
        for i in 0..self.sites.len() {
            let label = self.sites[i].site.label;
            let (state, half_opened) = self.sites[i].breaker.poll(now);
            if half_opened {
                resilience_metrics().breaker_half_opens.inc();
                if trace::enabled() {
                    trace::record(
                        TraceKind::BreakerHalfOpen,
                        now.as_nanos(),
                        trace::intern(label),
                        0,
                        0,
                        0,
                    );
                }
            }
            let observed_down = self.sites[i].monitor.state() == SiteHealth::Down;
            let breaker_open = matches!(state, BreakerState::Open { .. });
            if (observed_down || breaker_open) && !excluded.contains(&label) {
                excluded.push(label);
            }
        }
        failover_site(&self.registry, self.provider, anchor, &excluded)
    }

    /// Ask `label` to admit `participant` into `session`. Ground-truth
    /// down sites fail the attempt (feeding the breaker — this is how
    /// repeated reconnects against a zombie site trip it); live sites
    /// apply the health + capacity admission policy. On admission the
    /// participant is attached and the breaker resets.
    pub fn try_admit(
        &mut self,
        label: &str,
        session: u64,
        participant: u64,
        now: SimTime,
    ) -> AdmissionVerdict {
        let Some(i) = self.idx(label) else {
            return AdmissionVerdict::Rejected(RejectReason::Health);
        };
        if !self.sites[i].up {
            // Connection failure, not an admission verdict: the breaker
            // counts it.
            let opened = self.sites[i].breaker.on_failure(now);
            if opened {
                resilience_metrics().breaker_opens.inc();
                if trace::enabled() {
                    let until = match self.sites[i].breaker.state {
                        BreakerState::Open { until } => until.as_nanos(),
                        _ => 0,
                    };
                    trace::record(
                        TraceKind::BreakerOpen,
                        now.as_nanos(),
                        trace::intern(self.sites[i].site.label),
                        self.sites[i].breaker.consecutive_failures as u64,
                        0,
                        until,
                    );
                }
            }
            return self.reject(i, participant, RejectReason::Health, now);
        }
        let s = &self.sites[i];
        let verdict = if s.attached >= s.capacity.max_participants {
            Some(RejectReason::Capacity)
        } else if s.monitor.state() == SiteHealth::Degraded
            && s.capacity.utilization(s.attached) >= s.capacity.degraded_admit_frac
        {
            // Utilization-dependent verdict: a hot site sheds new load
            // before it actually saturates.
            Some(RejectReason::Capacity)
        } else if !s.sessions.contains_key(&session)
            && s.sessions.len() as u32 >= s.capacity.max_sessions
        {
            Some(RejectReason::Sessions)
        } else {
            None
        };
        if let Some(reason) = verdict {
            return self.reject(i, participant, reason, now);
        }
        if self.sites[i].breaker.on_success() {
            resilience_metrics().breaker_closes.inc();
            if trace::enabled() {
                trace::record(
                    TraceKind::BreakerClose,
                    now.as_nanos(),
                    trace::intern(self.sites[i].site.label),
                    0,
                    0,
                    0,
                );
            }
        }
        self.sites[i].attached += 1;
        *self.sites[i].sessions.entry(session).or_insert(0) += 1;
        AdmissionVerdict::Admitted
    }

    fn reject(
        &mut self,
        i: usize,
        participant: u64,
        reason: RejectReason,
        now: SimTime,
    ) -> AdmissionVerdict {
        self.sites[i].rejects += 1;
        resilience_metrics().admission_rejects.inc();
        if trace::enabled() {
            trace::record(
                TraceKind::AdmissionReject,
                now.as_nanos(),
                trace::intern(self.sites[i].site.label),
                participant,
                reason.code(),
                self.sites[i].attached as u64,
            );
        }
        AdmissionVerdict::Rejected(reason)
    }

    /// Fire `rec`'s due attempt: pick the [`candidate`](Self::candidate)
    /// nearest `anchor` (skipping `dead`), ask it to admit the participant
    /// into `session`, and advance the machine — reattached, or
    /// rescheduled per backoff, or abandoned once the rejoin budget is
    /// spent. Records the [`TraceKind::ReconnectAttempt`] event (verdict
    /// 0 admitted, 1 refused, 2 no candidate) and the reconnect metrics.
    /// Returns the site that admitted the participant.
    pub fn attempt_reconnect(
        &mut self,
        rec: &mut Reconnector,
        anchor: &GeoPoint,
        dead: &[&str],
        session: u64,
        now: SimTime,
    ) -> Option<ServerSite> {
        let attempt = rec.take_attempt();
        resilience_metrics().reconnect_attempts.inc();
        let candidate = self.candidate(anchor, dead, now);
        let verdict =
            candidate.map(|site| self.try_admit(site.label, session, rec.participant(), now));
        let verdict_code = match verdict {
            Some(AdmissionVerdict::Admitted) => {
                rec.on_admitted(now);
                0
            }
            Some(AdmissionVerdict::Rejected(_)) => {
                rec.on_rejected(now);
                1
            }
            None => {
                rec.on_rejected(now);
                2
            }
        };
        if trace::enabled() {
            trace::record(
                TraceKind::ReconnectAttempt,
                now.as_nanos(),
                trace::intern(candidate.map(|s| s.label).unwrap_or("")),
                rec.participant(),
                attempt as u64,
                verdict_code,
            );
        }
        if let Some(lat) = rec.rejoin_latency() {
            resilience_metrics()
                .rejoin_ms
                .observe(lat.as_nanos() / 1_000_000);
        }
        if matches!(rec.phase(), ReconnectPhase::Abandoned { .. }) {
            resilience_metrics().reconnects_abandoned.inc();
        }
        candidate.filter(|_| verdict_code == 0)
    }

    /// Detach `participant`'s membership of `session` from `label` (e.g.
    /// its site died, or it migrated).
    pub fn detach(&mut self, label: &str, session: u64) {
        if let Some(i) = self.idx(label) {
            let s = &mut self.sites[i];
            s.attached = s.attached.saturating_sub(1);
            if let Some(members) = s.sessions.get_mut(&session) {
                *members -= 1;
                if *members == 0 {
                    s.sessions.remove(&session);
                }
            }
        }
    }

    /// The effective resilience config.
    pub fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_geo::cities;

    fn loc(name: &str) -> GeoPoint {
        cities::by_name(name).unwrap().location
    }

    #[test]
    fn initiator_policy_uses_one_site_near_initiator() {
        let reg = SiteRegistry::us_fleet();
        // Eastern initiator, Western participant.
        let locs = [loc("New York, NY"), loc("San Francisco, CA")];
        let a = ServerAssignment::assign(
            AssignmentPolicy::NearestToInitiator,
            &reg,
            Provider::FaceTime,
            &locs,
        );
        assert_eq!(a.distinct_sites().len(), 1);
        assert_eq!(a.attachments[0].label, "E");
        // The Western participant eats the cross-country distance.
        assert!(a.worst_attachment_km(&locs) > 3_000.0);
    }

    #[test]
    fn initiator_location_controls_the_site() {
        let reg = SiteRegistry::us_fleet();
        // Same pair, Western initiator this time.
        let locs = [loc("San Francisco, CA"), loc("New York, NY")];
        let a = ServerAssignment::assign(
            AssignmentPolicy::NearestToInitiator,
            &reg,
            Provider::FaceTime,
            &locs,
        );
        assert_eq!(a.attachments[0].label, "W");
    }

    #[test]
    fn geo_distributed_attaches_everyone_nearby() {
        let reg = SiteRegistry::us_fleet();
        let locs = [loc("New York, NY"), loc("San Francisco, CA")];
        let a = ServerAssignment::assign(
            AssignmentPolicy::GeoDistributed,
            &reg,
            Provider::FaceTime,
            &locs,
        );
        assert_eq!(a.distinct_sites().len(), 2);
        // Nobody is more than ~500 km from their attachment.
        assert!(a.worst_attachment_km(&locs) < 500.0);
    }

    #[test]
    fn teams_single_site_gives_geo_distribution_nothing() {
        let reg = SiteRegistry::us_fleet();
        let locs = [loc("New York, NY"), loc("Miami, FL")];
        let a = ServerAssignment::assign(
            AssignmentPolicy::GeoDistributed,
            &reg,
            Provider::Teams,
            &locs,
        );
        assert_eq!(a.distinct_sites().len(), 1);
        assert_eq!(a.attachments[0].label, "W");
    }

    #[test]
    fn failover_picks_next_nearest_live_site() {
        let reg = SiteRegistry::us_fleet();
        let anchor = loc("New York, NY");
        let primary = reg.nearest(Provider::FaceTime, &anchor).unwrap();
        let backup = failover_site(&reg, Provider::FaceTime, &anchor, &[primary.label]).unwrap();
        assert_ne!(backup.label, primary.label);
        // The backup is farther than the primary but still the best of the rest.
        for s in reg.for_provider(Provider::FaceTime) {
            if s.label != primary.label {
                assert!(
                    backup.location().distance_km(&anchor)
                        <= s.location().distance_km(&anchor) + 1e-9
                );
            }
        }
    }

    #[test]
    fn failover_with_every_site_dead_is_none() {
        let reg = SiteRegistry::us_fleet();
        let anchor = loc("New York, NY");
        let all: Vec<&str> = reg
            .for_provider(Provider::FaceTime)
            .into_iter()
            .map(|s| s.label)
            .collect();
        assert!(failover_site(&reg, Provider::FaceTime, &anchor, &all).is_none());
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_on_the_timer() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(5),
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::from_secs(1);
        assert!(b.allows(t0));
        assert!(!b.on_failure(t0));
        assert!(!b.on_failure(t0));
        // Third consecutive failure trips it.
        assert!(b.on_failure(t0));
        assert_eq!(b.opens(), 1);
        assert!(!b.allows(SimTime::from_secs(3)));
        // The deterministic timer half-opens it.
        assert!(b.allows(SimTime::from_secs(6)));
        assert_eq!(b.poll(SimTime::from_secs(6)).0, BreakerState::HalfOpen);
        // A failed trial goes straight back to Open; a successful one
        // closes.
        assert!(b.on_failure(SimTime::from_secs(6)));
        assert_eq!(b.opens(), 2);
        assert!(b.allows(SimTime::from_secs(12)));
        assert!(b.on_success());
        assert!(b.allows(SimTime::from_secs(12)));
    }

    #[test]
    fn backoff_grows_caps_and_replays_identically() {
        let policy = BackoffPolicy {
            base: SimDuration::from_millis(500),
            cap: SimDuration::from_secs(8),
            jitter_frac: 0.2,
        };
        let seq = |seed: u64| -> Vec<u64> {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..10).map(|a| policy.delay(a, &mut rng).as_nanos()).collect()
        };
        let a = seq(7);
        // Deterministic in the seed.
        assert_eq!(a, seq(7));
        assert_ne!(a, seq(8));
        for (attempt, &d) in a.iter().enumerate() {
            let nominal = (500_000_000u64 << attempt.min(5)).min(8_000_000_000);
            let lo = (nominal as f64 * 0.8) as u64;
            let hi = (nominal as f64 * 1.2) as u64;
            assert!(
                (lo..=hi).contains(&d),
                "attempt {attempt}: {d} outside [{lo}, {hi}]"
            );
        }
        // The cap holds even at absurd attempt counts (no shift overflow).
        let mut rng = SimRng::seed_from_u64(1);
        assert!(policy.delay(63, &mut rng).as_nanos() <= 9_600_000_000);
    }

    #[test]
    fn reconnector_abandons_when_the_budget_is_spent() {
        let mut r = Reconnector::new(
            0,
            SimTime::from_secs(0),
            SimTime::from_millis(500),
            BackoffPolicy::default(),
            SimDuration::from_secs(3),
            42,
        );
        let mut now = SimTime::from_millis(500);
        let mut guard = 0;
        while !matches!(r.phase(), ReconnectPhase::Abandoned { .. }) {
            assert!(r.due(now));
            r.take_attempt();
            r.on_rejected(now);
            if let ReconnectPhase::Waiting { next_attempt } = r.phase() {
                now = next_attempt;
            }
            guard += 1;
            assert!(guard < 50, "reconnector never abandoned");
        }
        assert!(r.attempts() >= 2);
        assert_eq!(r.rejected(), r.attempts());
        assert!(r.rejoin_latency().is_none());
    }

    #[test]
    fn wait_mode_degrades_spatial_to_2d_to_audio() {
        let r = Reconnector::new(
            0,
            SimTime::from_secs(10),
            SimTime::from_secs(11),
            BackoffPolicy::default(),
            SimDuration::from_secs(30),
            1,
        );
        assert_eq!(r.wait_mode(SimTime::from_secs(11)), WaitMode::FrozenSpatial);
        assert_eq!(r.wait_mode(SimTime::from_secs(14)), WaitMode::TwoD);
        assert_eq!(r.wait_mode(SimTime::from_secs(17)), WaitMode::AudioOnly);
    }

    fn small_directory(max_participants: u32) -> SiteDirectory {
        let cfg = ResilienceConfig {
            capacity: Some(SiteCapacity {
                max_sessions: 2,
                max_participants,
                degraded_admit_frac: 0.5,
            }),
            ..ResilienceConfig::default()
        };
        SiteDirectory::new(&SiteRegistry::us_fleet(), Provider::FaceTime, cfg)
    }

    #[test]
    fn admission_enforces_participant_and_session_envelopes() {
        let mut d = small_directory(4);
        let now = SimTime::from_secs(1);
        assert_eq!(d.try_admit("W", 0, 0, now), AdmissionVerdict::Admitted);
        assert_eq!(d.try_admit("W", 0, 1, now), AdmissionVerdict::Admitted);
        assert_eq!(d.try_admit("W", 1, 2, now), AdmissionVerdict::Admitted);
        // Third distinct session bounces off max_sessions = 2.
        assert_eq!(
            d.try_admit("W", 2, 3, now),
            AdmissionVerdict::Rejected(RejectReason::Sessions)
        );
        // An existing session may still grow to max_participants = 4…
        assert_eq!(d.try_admit("W", 0, 3, now), AdmissionVerdict::Admitted);
        // …and no further.
        assert_eq!(
            d.try_admit("W", 0, 4, now),
            AdmissionVerdict::Rejected(RejectReason::Capacity)
        );
        assert_eq!(d.attached("W"), 4);
        assert_eq!(d.rejects("W"), 2);
        // Detaching frees both envelopes.
        d.detach("W", 1);
        assert_eq!(d.try_admit("W", 2, 4, now), AdmissionVerdict::Admitted);
    }

    #[test]
    fn down_site_attempts_feed_the_breaker_and_candidates_skip_it() {
        let mut d = small_directory(16);
        let anchor = loc("San Francisco, CA");
        let now = SimTime::from_secs(1);
        // Ground truth dies; the monitor still believes Healthy (no probe
        // yet) so W remains a candidate — attempts against it fail.
        d.set_site_up("W", false);
        assert_eq!(d.candidate(&anchor, &[], now).unwrap().label, "W");
        for _ in 0..3 {
            assert_eq!(
                d.try_admit("W", 0, 0, now),
                AdmissionVerdict::Rejected(RejectReason::Health)
            );
        }
        // Three failures opened the breaker: W is no longer a candidate
        // even though the monitor never saw it die.
        assert_eq!(d.breaker_opens("W"), 1);
        assert_eq!(d.health("W"), SiteHealth::Healthy);
        assert_ne!(d.candidate(&anchor, &[], now).unwrap().label, "W");
        // Probes eventually mark it Down too.
        d.probe_tick(now);
        d.probe_tick(now);
        assert_eq!(d.health("W"), SiteHealth::Down);
        // The breaker timer elapses while the site recovers: the trial
        // attempt is allowed, succeeds, and closes the breaker.
        d.set_site_up("W", true);
        d.probe_tick(now);
        d.probe_tick(now);
        assert!(d.health("W").is_usable());
        let later = now + d.config().breaker.open_for;
        assert_eq!(d.candidate(&anchor, &[], later).unwrap().label, "W");
        assert_eq!(d.try_admit("W", 0, 0, later), AdmissionVerdict::Admitted);
        assert_eq!(d.attached("W"), 1);
    }

    #[test]
    fn degraded_site_sheds_load_at_the_soft_limit() {
        let mut d = small_directory(10);
        let now = SimTime::from_secs(1);
        // Fill to the 50% soft limit.
        for p in 0..5 {
            assert_eq!(d.try_admit("W", 0, p, now), AdmissionVerdict::Admitted);
        }
        // The next probe observes the site hot → Degraded, and admission
        // closes early even though 5 raw slots remain.
        d.probe_tick(now);
        assert_eq!(d.health("W"), SiteHealth::Degraded);
        assert_eq!(
            d.try_admit("W", 0, 6, now),
            AdmissionVerdict::Rejected(RejectReason::Capacity)
        );
    }

    #[test]
    #[should_panic(expected = "needs participants")]
    fn empty_session_is_rejected() {
        ServerAssignment::assign(
            AssignmentPolicy::NearestToInitiator,
            &SiteRegistry::us_fleet(),
            Provider::Zoom,
            &[],
        );
    }
}
