//! # gridstrat-sim
//!
//! Discrete-event simulator of an EGEE-like production grid, built so the
//! HPDC'09 strategy models can be validated against — and exercised on — a
//! concrete job-submission pipeline rather than abstract formulas.
//!
//! ## What is modelled
//!
//! The paper (§1, §3.1) describes the biomed-VO submission path: a **User
//! Interface** submits to a **Workload Management Server** which queues,
//! match-makes and dispatches jobs to per-site **Computing Elements**, each
//! fronting a batch queue with a bounded number of slots; roughly ten
//! services must all work for a job to start, and failures at any hop are
//! common. The simulator reproduces that lifecycle:
//!
//! ```text
//! submit ─→ UI→WMS delay ─→ WMS match-making ─→ dispatch ─→ CE queue ─→ slot ─→ RUNNING
//!    │           │                 │                             │
//!    └ silent loss (outlier)       └ transient failure           └ background load
//! ```
//!
//! Two latency regimes are supported ([`LatencyMode`]):
//!
//! * **Oracle** — each job's grid latency is drawn i.i.d. from a
//!   [`gridstrat_workload::WeekModel`]. This matches the independence
//!   assumptions of the paper's probabilistic models *exactly*, so
//!   Monte-Carlo runs validate the closed forms to statistical precision.
//! * **Pipeline** — latency *emerges* from match-making delays, queue waits
//!   behind background jobs, and fault/retry behaviour. This regime powers
//!   the multi-user ecosystem experiments (e.g. every user adopting
//!   multi-submission) the paper lists as future work — see the
//!   `gridstrat-fleet` crate, which multiplexes whole user populations
//!   onto one pipeline engine via the client-scope routing hooks
//!   ([`GridSimulation::set_scope`](engine::GridSimulation::set_scope)).
//!
//! ## Architecture
//!
//! * [`time`] — millisecond-resolution simulation clock;
//! * [`event`] — deterministic event queue, (time, sequence) ordered: a
//!   monotone radix queue of 24-byte records, with cancellation by
//!   tombstone;
//! * [`job`] — job state machine and per-job audit records: the engine's
//!   job table holds one 40-byte [`JobRecord`] per submitted job, indexed
//!   by its [`JobId`], and read through accessors
//!   ([`JobRecord::started_at`], [`JobRecord::site`], …) that decode
//!   "not yet" into `None`;
//! * [`config`] — grid topology, fault, background-load and latency-mode
//!   configuration;
//! * [`engine`] — the [`GridSimulation`] event loop and the [`Controller`]
//!   trait through which client-side submission strategies drive it, plus
//!   the multi-owner routing hooks (client scopes, owner-tagged jobs,
//!   namespaced timers) that let many independent agents share one engine,
//!   and cancellable timers ([`TimerId`]);
//! * [`probe`] — the constant-probes-in-flight measurement harness of §3.2,
//!   producing [`gridstrat_workload::TraceSet`]s.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod engine;
pub mod event;
pub mod job;
pub mod modulation;
pub mod probe;
pub mod time;

pub use config::{BackgroundLoadConfig, FaultConfig, GridConfig, LatencyMode, SiteConfig};
pub use engine::{Controller, EngineStats, GridSimulation, Notification, TimerId};
pub use job::{JobId, JobRecord, JobState};
pub use modulation::{Modulation, MIN_INTENSITY};
pub use probe::ProbeHarness;
pub use time::{SimDuration, SimTime};
