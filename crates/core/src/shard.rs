//! Conservative parallel discrete-event simulation (PDES) over sharded
//! event queues.
//!
//! The fleet-scale workloads (100k+ concurrent sessions) span sites whose
//! only coupling is the backbone between them. This module partitions the
//! world into *shards* — each owning its own queue and the state of its
//! sites — and steps them with the classic conservative-lookahead protocol
//! (Chandy–Misra–Bryant flavored, round-stepped):
//!
//! 1. Compute the global *floor*: the earliest pending event time across
//!    every shard queue and every in-flight cross-shard envelope.
//! 2. Deliver each shard's sorted ingress and advance it to the *horizon*
//!    `min(floor + lookahead − 1ns, end)`, one shard after another in
//!    index order.
//! 3. Route the cross-shard envelopes produced in step 2 to their
//!    destination shards' inboxes.
//!
//! Every shard steps on the calling thread; the engine reads no thread
//! count. Parallelism comes from `par_map` running independent cells side
//! by side. Stepping shards on a worker pool tied or lost against this
//! loop wherever it was measured (DESIGN.md §14); a pool belongs here only
//! with a benchmark workload that shows it winning.
//!
//! Safety argument: every cross-shard message takes at least `lookahead`
//! of link latency (enforced by the sanitizer on every routed envelope),
//! so a message *sent* inside the window `[floor, floor + L − 1]` is
//! *delivered* at `≥ floor + L`, strictly after the horizon. No shard can
//! therefore receive an event in its past, and `EventQueue::schedule`'s
//! monotonicity panic doubles as a hard backstop.
//!
//! Determinism argument (byte-identical at any shard count): the
//! floor/horizon sequence is a global property independent of the
//! partition; shard state is partitioned by *site*, never shared; every
//! site-to-site message is routed between rounds even when source and
//! destination happen to live in the same shard; and each shard sorts its
//! ingress by `(deliver_at, src_site, src_seq)` before delivery. Per-site
//! event order is thus invariant.

use crate::metrics::{self, Class};
use crate::sanitizer;
use crate::time::{SimDuration, SimTime};

/// A cross-shard message in flight between two sites.
///
/// The `(deliver_at, src_site, src_seq)` triple is a total order over all
/// envelopes ever addressed to one site, which is what makes ingress
/// delivery deterministic regardless of which shard produced them, in
/// which round, in which order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Virtual time the source site emitted the message.
    pub sent_at: SimTime,
    /// Virtual time the destination site must see it (≥ `sent_at` + link
    /// latency ≥ `sent_at` + lookahead).
    pub deliver_at: SimTime,
    /// Emitting site index.
    pub src_site: u32,
    /// Destination site index.
    pub dst_site: u32,
    /// Per-source-site monotone sequence number (deterministic tiebreak).
    pub src_seq: u64,
    /// Payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// The deterministic ingress sort key.
    pub fn order_key(&self) -> (SimTime, u32, u64) {
        (self.deliver_at, self.src_site, self.src_seq)
    }
}

/// One shard of the simulated world, owning the state of one or more
/// sites plus a private event queue.
pub trait ShardWorld {
    /// Cross-shard message payload.
    type Msg;

    /// Earliest pending local event, if any. Consulted by the engine to
    /// compute the global floor; must not mutate state.
    fn next_event(&self) -> Option<SimTime>;

    /// Accept one cross-shard envelope. Envelopes arrive in
    /// `(deliver_at, src_site, src_seq)` order and always satisfy
    /// `deliver_at` > the shard's current clock.
    fn deliver(&mut self, env: Envelope<Self::Msg>);

    /// Process every local event with time ≤ `horizon`, pushing any
    /// cross-site messages produced onto `out`. Implementations must not
    /// deliver site-to-site messages locally — even when both sites live
    /// in this shard — or shard-count invariance breaks.
    fn advance(&mut self, horizon: SimTime, out: &mut Vec<Envelope<Self::Msg>>);
}

/// What one `run_until` did, for reporting in artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Rounds executed (lookahead windows).
    pub rounds: u64,
    /// Cross-site envelopes routed between rounds.
    pub messages: u64,
}

/// One shard's world plus its cross-shard mailboxes.
struct Slot<W: ShardWorld> {
    world: W,
    inbox: Vec<Envelope<W::Msg>>,
    outbox: Vec<Envelope<W::Msg>>,
}

impl<W: ShardWorld> Slot<W> {
    /// Earliest pending time: the next local event or inbound envelope.
    fn floor(&self) -> Option<SimTime> {
        let inbound = self.inbox.iter().map(|env| env.deliver_at).min();
        self.world.next_event().into_iter().chain(inbound).min()
    }

    /// One shard's round: sorted ingress delivery, then local advancement.
    fn step(&mut self, horizon: SimTime) {
        self.inbox.sort_by_key(Envelope::order_key);
        for env in self.inbox.drain(..) {
            self.world.deliver(env);
        }
        self.world.advance(horizon, &mut self.outbox);
    }
}

/// The conservative-PDES engine: a set of shards, a site→shard map, and
/// the lookahead that makes windowed advancement safe.
pub struct ConservativeEngine<W: ShardWorld> {
    slots: Vec<Slot<W>>,
    site_shard: Vec<usize>,
    lookahead: SimDuration,
}

impl<W: ShardWorld> ConservativeEngine<W> {
    /// Build an engine over `worlds`. `site_shard[s]` names the shard
    /// hosting site `s`; `lookahead` must be positive and no larger than
    /// the minimum inter-site link latency (the sanitizer checks the
    /// latter on every routed envelope).
    pub fn new(worlds: Vec<W>, site_shard: Vec<usize>, lookahead: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "engine needs at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative PDES requires positive lookahead"
        );
        let n = worlds.len();
        for (site, &shard) in site_shard.iter().enumerate() {
            assert!(shard < n, "site {site} mapped to nonexistent shard {shard}");
        }
        let slots = worlds
            .into_iter()
            .map(|world| Slot {
                world,
                inbox: Vec::new(),
                outbox: Vec::new(),
            })
            .collect();
        ConservativeEngine {
            slots,
            site_shard,
            lookahead,
        }
    }

    /// Tear down and hand back the worlds, in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.slots.into_iter().map(|slot| slot.world).collect()
    }

    /// Run every shard to `end` (inclusive) on the calling thread, one
    /// lookahead window per round. Each round takes its horizon from every
    /// shard's next event and pending inbox, steps the shards in index
    /// order, then routes the envelopes they produced. A panicking shard
    /// unwinds straight to the caller with its own payload.
    pub fn run_until(&mut self, end: SimTime) -> EngineReport {
        let mut report = EngineReport::default();
        while let Some(horizon) = self.next_horizon(end) {
            for slot in &mut self.slots {
                slot.step(horizon);
            }
            report.messages += self.route(horizon);
            report.rounds += 1;
        }
        metrics::counter("shard/barrier_rounds", Class::Sim).add(report.rounds);
        metrics::counter("shard/xsite_msgs", Class::Sim).add(report.messages);
        report
    }

    /// Global floor → horizon for the next round, or `None` when every
    /// queue and inbox is drained past `end`.
    fn next_horizon(&self, end: SimTime) -> Option<SimTime> {
        let floor = self.slots.iter().filter_map(Slot::floor).min()?;
        if floor > end {
            return None;
        }
        let window_end = floor
            .saturating_add(self.lookahead)
            .as_nanos()
            .saturating_sub(1);
        Some(SimTime::from_nanos(window_end).min(end))
    }

    /// Move every outbox envelope to its destination shard's inbox, in
    /// shard-index order (deterministic), checking the causality
    /// identities on each.
    fn route(&mut self, horizon: SimTime) -> u64 {
        let lookahead = self.lookahead;
        let mut moved = 0u64;
        for i in 0..self.slots.len() {
            let mut outbox = std::mem::take(&mut self.slots[i].outbox);
            for env in outbox.drain(..) {
                sanitizer::check(
                    env.deliver_at >= env.sent_at.saturating_add(lookahead),
                    "shard/causality",
                    || {
                        format!(
                            "envelope {} -> {} delivers {} ns after send, below lookahead {} ns",
                            env.src_site,
                            env.dst_site,
                            env.deliver_at.since(env.sent_at).as_nanos(),
                            lookahead.as_nanos()
                        )
                    },
                );
                sanitizer::check(env.deliver_at > horizon, "shard/causality", || {
                    format!(
                        "envelope {} -> {} delivers at {} ns, inside the closed window ending {} ns",
                        env.src_site,
                        env.dst_site,
                        env.deliver_at.as_nanos(),
                        horizon.as_nanos()
                    )
                });
                let dst = self.site_shard[env.dst_site as usize];
                self.slots[dst].inbox.push(env);
                moved += 1;
            }
            // Hand the drained buffer back so its capacity is reused.
            self.slots[i].outbox = outbox;
        }
        moved
    }
}
