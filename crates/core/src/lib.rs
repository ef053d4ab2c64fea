//! # visionsim-core
//!
//! Foundation layer for the `visionsim` workspace: a deterministic,
//! discrete-event simulation substrate used by every other crate.
//!
//! The design follows the event-driven, sans-IO ethos of embedded network
//! stacks: all state is explicit, there is no wall-clock dependence, and a
//! simulation seeded with the same [`rng::SimRng`] seed replays identically.
//!
//! Modules:
//! * [`time`] — virtual clock ([`time::SimTime`]) with nanosecond resolution.
//! * [`units`] — data sizes ([`units::ByteSize`]) and rates ([`units::DataRate`]).
//! * [`rng`] — seeded RNG with the distribution samplers the simulator needs
//!   (normal, lognormal, exponential, Pareto) implemented in-tree.
//! * [`event`] — a monotone event queue with deterministic FIFO tie-breaking.
//! * [`stats`] — streaming summary statistics, exact percentiles, and the
//!   boxplot summaries used by the paper's figures.
//! * [`series`] — per-window throughput recording ([`series::RateSeries`]).
//! * [`par`] — deterministic parallel execution ([`par::par_map`]),
//!   collision-free per-cell seed derivation ([`par::derive_seed`]), and
//!   the supervised harness cell ([`par::run_cell`]): `catch_unwind` +
//!   retry-once + quarantine.
//! * [`error`] — the shared [`error::SimError`] taxonomy every decoder
//!   and parser of hostile bytes returns.
//! * [`sanitizer`] — opt-in runtime invariant monitor (`VISIONSIM_SANITIZE=1`,
//!   always on in debug builds); violations become reports, not panics.
//! * [`trace`] — flight recorder (`VISIONSIM_TRACE=1`): bounded ring of POD
//!   [`trace::TraceEvent`]s plus the [`span!`] timing guard.
//! * [`metrics`] — typed metrics registry (`VISIONSIM_METRICS=1`): counters,
//!   gauges, and log2-bucket histograms snapshotted to `metrics.json`.
//! * [`shard`] — conservative PDES: per-shard event queues stepped in
//!   link-latency lookahead rounds on the calling thread, byte-identical
//!   at any shard count.

pub mod error;
pub mod event;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod sanitizer;
pub mod series;
pub mod shard;
pub mod stats;
mod switch;
pub mod time;
pub mod trace;
pub mod units;

pub use error::SimError;
pub use metrics::{Counter, Gauge, Histogram};
pub use trace::{TraceEvent, TraceKind};
pub use event::{EventQueue, ScheduledEvent};
pub use par::{derive_seed, par_map, CellError};
pub use rng::SimRng;
pub use series::RateSeries;
pub use shard::{ConservativeEngine, Envelope, EngineReport, ShardWorld};
pub use stats::{BoxplotSummary, Percentiles, StreamingStats};
pub use time::{SimDuration, SimTime};
pub use units::{ByteSize, DataRate};
