//! `nhpp-serve`: a long-running fitting service over the estimators in
//! `nhpp-vb`.
//!
//! Everything built below this crate is batch-oriented: one process,
//! one dataset, one fit, exit. The deployment the paper targets — a
//! test team feeding failure data day by day (System 17 is literally 64
//! daily observations) — wants a *resident* service instead: ingest
//! failure events as they arrive, keep fitted [`nhpp_vb::Vb2Posterior`]
//! mixtures warm, and answer interval/reliability queries cheaply. This
//! crate provides that service with zero new dependencies:
//!
//! * [`storage`] — the durable-storage boundary: a small trait over
//!   the filesystem with CRC-framed records, a real backend, and a
//!   deterministic fault-injecting backend (torn write, short read,
//!   disk full, failed rename) for the crash-recovery chaos harness;
//! * [`registry`] — named projects with append-only event ingestion,
//!   versioned data snapshots, and durability via checksummed
//!   append-only logs plus crash-consistent snapshots and log
//!   compaction, replayed (with torn-write recovery and
//!   corrupt-snapshot fallback) on startup;
//! * [`scheduler`] — a per-project fit cache with request coalescing:
//!   concurrent queries against a stale posterior trigger exactly one
//!   [`nhpp_vb::robust`] refit (deduplicated by data version), warm
//!   started from the previous fit's `ξ` fixed-point table, plus a
//!   flush tick that batch-refits every stale project through one
//!   [`nhpp_vb::fit_many_supervised_warm`] pool;
//! * [`routes`] — the HTTP endpoint surface (credible intervals, mean
//!   value bands, predictive counts, reliability, an SPC control-limit
//!   check on the newest inter-failure time), answered from the cached
//!   posterior without refitting;
//! * [`metrics`] — counters and latency histograms exposed in the
//!   Prometheus text format, including the fit/coalesce counters the
//!   load generator and CI smoke job assert on;
//! * [`http`] + [`server`] — a deliberately minimal HTTP/1.1 layer on
//!   `std::net::TcpListener`, with accept workers fanned out through
//!   `nhpp_numeric::parallel` (no async runtime; see `DESIGN.md` §12
//!   for the rationale).

pub mod http;
pub mod metrics;
pub mod monitor;
pub mod registry;
pub mod routes;
pub mod scheduler;
pub mod server;
pub mod storage;

pub use http::{
    client_request, client_request_full, client_request_with_backoff, Request, Response,
};
pub use metrics::Metrics;
pub use monitor::{Alert, ChartPoint, ChartSnapshot, Monitor, MonitorConfig, SchemeSelect};
pub use registry::{
    fsck, DataKind, DurabilityPolicy, FsckEntry, ProjectConfig, RecoveryStats, Registry,
    SnapshotStatus,
};
pub use scheduler::{CachedFit, FitCache, FitSettings};
pub use server::{AppState, Server, ServerConfig, ServerHandle};
pub use storage::{FaultStorage, FsStorage, IoFaultKind, IoFaultPlan, MemStorage, Storage};
