//! The project registry: named streaming datasets with append-only
//! ingestion and a durable, replayable, checksummed on-disk log.
//!
//! # Data model
//!
//! A *project* is one monitored software system: a model family, a
//! prior, and a failure dataset that only ever grows. Ingestion appends
//! *batches* — the same CSV text the `nhpp_data::io` readers accept —
//! and each accepted batch bumps the project's *data version*, the
//! monotone counter the fit scheduler deduplicates refits by.
//!
//! # Durability
//!
//! Each project owns one append-only log `<id>.log` of CRC-framed
//! records (see [`crate::storage`]): a config record (`C`, body
//! `kind model prior`) followed by batch records (`B`, body
//! `<seq>\n<csv>` where `seq` is the data version the batch produces)
//! and [`crate::monitor`]'s chart records ([`POINT`], [`ALERT`]).
//! Periodically — every [`DurabilityPolicy::snapshot_every`] versions —
//! the full project state is atomically written to `<id>.snap` as one
//! framed `S` record; when the batches in the log outgrow
//! [`DurabilityPolicy::compact_at_bytes`] it is compacted: snapshot
//! first, then the log is atomically replaced by its `C` record and
//! its chart records: compaction drops only the covered batches.
//!
//! Startup replays snapshot-plus-log: a valid snapshot seeds the state
//! and every batch record with `seq` at or below the snapshot version
//! is skipped — the sequence numbers, not byte offsets, make replay
//! insensitive to compaction. A corrupt or missing snapshot falls back
//! to pure log replay. A torn log tail (the crash window of an append)
//! or a checksum-failing suffix is truncated away; everything before it
//! survives, so recovery is always a *prefix* of the ingested history
//! with monotone versions — the invariant the chaos harness sweeps.

use crate::scheduler::FitSlot;
use crate::storage::{
    frame_len, frame_record, scan_records, FsStorage, MemStorage, ScanStop, Storage,
};
use nhpp_data::io::{read_failure_times, read_grouped};
use nhpp_data::{FailureTimeData, GroupedData, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::ModelSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Whether a project ingests failure times or grouped counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// Exact failure times plus a censoring end (`D_T`).
    Times,
    /// Interval boundaries plus per-interval counts (`D_G`).
    Grouped,
}

impl DataKind {
    /// Stable keyword used in the API and the log.
    pub fn as_str(&self) -> &'static str {
        match self {
            DataKind::Times => "times",
            DataKind::Grouped => "grouped",
        }
    }

    /// Parses the keyword.
    ///
    /// # Errors
    ///
    /// A description of the offending keyword.
    pub fn parse(text: &str) -> Result<DataKind, String> {
        match text {
            "times" => Ok(DataKind::Times),
            "grouped" => Ok(DataKind::Grouped),
            other => Err(format!("unknown data kind '{other}' (times|grouped)")),
        }
    }
}

/// Immutable configuration a project is created with.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectConfig {
    /// Ingestion shape.
    pub kind: DataKind,
    /// Model family.
    pub spec: ModelSpec,
    /// Prior over `(ω, β)`.
    pub prior: NhppPrior,
    /// Canonical model keyword (`go`, `dss`, `gamma:<a0>`).
    pub model_label: String,
    /// Canonical prior keyword.
    pub prior_label: String,
}

impl ProjectConfig {
    /// Builds a configuration from the API keywords: the model and prior
    /// grammars are `ModelSpec`'s and `NhppPrior`'s `FromStr`.
    ///
    /// # Errors
    ///
    /// A description of the offending keyword.
    pub fn from_labels(kind: &str, model: &str, prior: &str) -> Result<ProjectConfig, String> {
        Ok(ProjectConfig {
            kind: DataKind::parse(kind)?,
            spec: model.parse()?,
            prior: prior.parse()?,
            model_label: model.to_string(),
            // The `C` record is space-separated: store the prior without
            // the whitespace its grammar allows around tuple components.
            prior_label: prior.split_whitespace().collect(),
        })
    }
}

/// Errors surfaced by registry operations, pre-classified for the HTTP
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// Bad project id or keyword (HTTP 400).
    Invalid(String),
    /// A project exists with a different configuration (HTTP 409).
    Conflict(String),
    /// A batch violated the append-only data invariants (HTTP 400).
    Data(String),
    /// The durable log could not be written or read (HTTP 500).
    Io(String),
    /// A failed append could not be rolled back, so the project refuses
    /// appends until the registry is reopened (HTTP 500).
    ReadOnly(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Invalid(m)
            | RegistryError::Conflict(m)
            | RegistryError::Data(m)
            | RegistryError::Io(m)
            | RegistryError::ReadOnly(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

fn io_err(context: &str, e: impl std::fmt::Display) -> RegistryError {
    RegistryError::Io(format!("{context}: {e}"))
}

/// When the registry snapshots and compacts project logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Write a snapshot every this many data versions (0 = never).
    pub snapshot_every: u64,
    /// Compact the log once it reaches this many bytes (0 = never).
    pub compact_at_bytes: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> DurabilityPolicy {
        DurabilityPolicy {
            snapshot_every: 64,
            compact_at_bytes: 1 << 20,
        }
    }
}

/// Counters for durability events: what recovery found at startup and
/// what maintenance does at runtime. Exposed through `/metrics` and
/// asserted on by the chaos harness.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Torn log tails truncated during replay.
    pub torn_truncated: AtomicU64,
    /// Log suffixes dropped because a record failed its checksum.
    pub checksum_failures: AtomicU64,
    /// Snapshots that seeded a project's replay.
    pub snapshots_loaded: AtomicU64,
    /// Corrupt snapshots that forced pure log replay.
    pub snapshot_fallbacks: AtomicU64,
    /// Snapshots written by maintenance, compaction or shutdown.
    pub snapshots_written: AtomicU64,
    /// Log compactions performed.
    pub compactions_run: AtomicU64,
    /// Batch records skipped during replay because the snapshot already
    /// covered their sequence number.
    pub duplicates_skipped: AtomicU64,
    /// Snapshot/compaction attempts that failed (ingestion proceeds;
    /// durability falls back to the log).
    pub maintenance_failures: AtomicU64,
}

impl RecoveryStats {
    fn bump(&self, counter: &AtomicU64) {
        let _ = self;
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

// The record kinds, in one place: `<id>.log` holds one config record,
// then batch and chart records; `<id>.snap` holds one snapshot record.
const CONFIG: u8 = b'C';
const BATCH: u8 = b'B';
/// A chart point: a chart record, appended by [`Project::append_chart`].
pub const POINT: u8 = b'P';
/// A change-point alert: the other chart record.
pub const ALERT: u8 = b'A';
const SNAPSHOT: u8 = b'S';

/// The durable backing of one project.
#[derive(Debug)]
struct ProjectStore {
    storage: Arc<dyn Storage>,
    log_name: String,
    snap_name: String,
    /// Current log length: where a failed append is truncated back to.
    log_bytes: u64,
    /// Bytes of chart records in the log. Compaction keeps them, so its
    /// trigger counts only the rest of the log.
    chart_bytes: u64,
    policy: DurabilityPolicy,
    stats: Arc<RecoveryStats>,
    /// Set when a failed append could not be rolled back.
    read_only: bool,
}

impl ProjectStore {
    /// The log's chart records, in append order. The log is read only
    /// when it holds any, and must scan clean to its acknowledged length,
    /// so a compaction never drops a record it could not read.
    fn chart_records(&self) -> Result<Vec<(u8, Vec<u8>)>, RegistryError> {
        if self.chart_bytes == 0 {
            return Ok(Vec::new());
        }
        let bytes = self
            .storage
            .read(&self.log_name)
            .map_err(|e| io_err("log read failed", e))?
            .unwrap_or_default();
        let scan = scan_records(&bytes);
        if scan.stop.is_some() || scan.valid_len != self.log_bytes {
            return Err(io_err("log read back short", &self.log_name));
        }
        let mut records = scan.records;
        records.retain(|(tag, _)| matches!(*tag, POINT | ALERT));
        Ok(records)
    }

    /// Appends one framed record. A failed append is truncated back to
    /// the last acknowledged length, so the next append never lands
    /// behind a torn or unacknowledged frame; if that truncation fails
    /// too, the store refuses appends until replay rereads the log.
    fn append(&mut self, frame: &[u8]) -> Result<(), RegistryError> {
        if self.read_only {
            return Err(RegistryError::ReadOnly(format!(
                "{} ends in an append that could not be rolled back; \
                 appends are refused until the registry is reopened",
                self.log_name
            )));
        }
        match self.storage.append(&self.log_name, frame) {
            Ok(len) => {
                self.log_bytes = len;
                Ok(())
            }
            Err(e) => {
                self.read_only = self
                    .storage
                    .truncate(&self.log_name, self.log_bytes)
                    .is_err();
                Err(io_err("log append failed", e))
            }
        }
    }
}

/// The mutable streaming state of one project.
#[derive(Debug)]
struct ProjectState {
    config: ProjectConfig,
    /// Observed failure times (`Times` projects).
    times: Vec<f64>,
    /// Observation end (`Times` projects; 0 before the first batch).
    t_end: f64,
    /// Interval boundaries (`Grouped` projects).
    boundaries: Vec<f64>,
    /// Interval counts (`Grouped` projects).
    counts: Vec<u64>,
    /// Monotone data version: the number of accepted batches.
    version: u64,
    /// Total failure events observed.
    event_count: u64,
    /// Durable backing (`None` = in-memory only).
    store: Option<ProjectStore>,
}

/// A point-in-time description of a project, cheap to serialise.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectSummary {
    /// Project id.
    pub id: String,
    /// Ingestion shape keyword.
    pub kind: &'static str,
    /// Model keyword.
    pub model: String,
    /// Prior keyword.
    pub prior: String,
    /// Data version (accepted batches).
    pub version: u64,
    /// Total failure events.
    pub event_count: u64,
    /// Observation end (times: seconds; grouped: last boundary).
    pub observation_end: f64,
}

/// One registered project. The fit slot and its condition variable live
/// here so the scheduler can coalesce per project without a global lock.
#[derive(Debug)]
pub struct Project {
    id: String,
    state: Mutex<ProjectState>,
    /// Cached fit + in-flight marker (owned by [`crate::scheduler`]).
    pub(crate) fit: Mutex<FitSlot>,
    /// Signalled when an in-flight fit completes.
    pub(crate) fit_ready: Condvar,
}

impl Project {
    fn from_state(id: String, state: ProjectState) -> Project {
        Project {
            id,
            state: Mutex::new(state),
            fit: Mutex::new(FitSlot::default()),
            fit_ready: Condvar::new(),
        }
    }

    fn new(id: String, config: ProjectConfig, store: Option<ProjectStore>) -> Project {
        Project::from_state(id, fresh_state(config, store))
    }

    /// The project id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Ingests one batch in the `nhpp_data::io` CSV format, appending
    /// it to the durable log first. Returns the number of new events.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Data`] when the batch violates the append-only
    /// invariants, [`RegistryError::Io`] when the log write fails,
    /// [`RegistryError::ReadOnly`] after a failed write could not be
    /// rolled back (the in-memory state is left untouched in all cases).
    pub fn ingest(&self, batch_text: &str) -> Result<u64, RegistryError> {
        let mut state = self.state.lock().expect("project state poisoned");
        let staged = stage_batch(&state, batch_text)?;
        let next_version = state.version + 1;
        if let Some(store) = state.store.as_mut() {
            let mut body = format!("{next_version}\n").into_bytes();
            body.extend_from_slice(batch_text.as_bytes());
            store.append(&frame_record(BATCH, &body))?;
        }
        let added = commit_staged(&mut state, staged);
        maintain(&mut state);
        Ok(added)
    }

    /// Appends [`POINT`] or [`ALERT`] records, no other kind, to the log
    /// with a batch's framing, fsync and rollback (a no-op in memory).
    /// Lock order: the monitor's chart lock, then this project's state.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Invalid`] for another tag, otherwise as
    /// [`Project::ingest`]'s log write.
    pub fn append_chart(&self, tag: u8, bodies: &[Vec<u8>]) -> Result<(), RegistryError> {
        if !matches!(tag, POINT | ALERT) {
            return Err(RegistryError::Invalid(format!(
                "{tag} is not a chart record"
            )));
        }
        let mut frames = Vec::new();
        for body in bodies {
            frames.extend_from_slice(&frame_record(tag, body));
        }
        let mut state = self.state.lock().expect("project state poisoned");
        if let Some(store) = state.store.as_mut().filter(|_| !frames.is_empty()) {
            store.append(&frames)?;
            store.chart_bytes += frames.len() as u64;
        }
        Ok(())
    }

    /// The chart records of the project log, in append order: a read
    /// only, after replay has cut any torn tail.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the log cannot be read back whole.
    pub fn chart_records(&self) -> Result<Vec<(u8, Vec<u8>)>, RegistryError> {
        let state = self.state.lock().expect("project state poisoned");
        state
            .store
            .as_ref()
            .map_or(Ok(Vec::new()), ProjectStore::chart_records)
    }

    /// Consistent snapshot for fitting: `(version, data, spec, prior)`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Data`] before any batch has been accepted (there
    /// is nothing to fit).
    pub fn snapshot(&self) -> Result<(u64, ObservedData, ModelSpec, NhppPrior), RegistryError> {
        let state = self.state.lock().expect("project state poisoned");
        if state.version == 0 {
            return Err(RegistryError::Data(format!(
                "project '{}' has no ingested data yet",
                self.id
            )));
        }
        let data = match state.config.kind {
            DataKind::Times => FailureTimeData::new(state.times.clone(), state.t_end)
                .map(ObservedData::from)
                .map_err(|e| RegistryError::Data(e.to_string()))?,
            DataKind::Grouped => GroupedData::new(state.boundaries.clone(), state.counts.clone())
                .map(ObservedData::from)
                .map_err(|e| RegistryError::Data(e.to_string()))?,
        };
        Ok((state.version, data, state.config.spec, state.config.prior))
    }

    /// The failure-time suffix starting at index `from` for incremental
    /// chart scoring: `(total_times, times[from..])`. `None` for grouped
    /// projects — control charts plot inter-failure gaps, which grouped
    /// data does not record.
    pub fn times_from(&self, from: usize) -> Option<(u64, Vec<f64>)> {
        let state = self.state.lock().expect("project state poisoned");
        if state.config.kind != DataKind::Times {
            return None;
        }
        let total = state.times.len();
        Some((total as u64, state.times[from.min(total)..].to_vec()))
    }

    /// The number of failure times, read without copying them. `None`
    /// for grouped projects, like [`Project::times_from`].
    pub fn times_len(&self) -> Option<u64> {
        let state = self.state.lock().expect("project state poisoned");
        (state.config.kind == DataKind::Times).then_some(state.times.len() as u64)
    }

    /// The two newest failure times `(t_prev, t_last)` for the SPC
    /// check, when the project has at least two (`Times` only).
    pub fn newest_gap(&self) -> Option<(f64, f64)> {
        let state = self.state.lock().expect("project state poisoned");
        if state.config.kind != DataKind::Times || state.times.len() < 2 {
            return None;
        }
        let n = state.times.len();
        Some((state.times[n - 2], state.times[n - 1]))
    }

    /// The current data version.
    pub fn version(&self) -> u64 {
        self.state.lock().expect("project state poisoned").version
    }

    /// A serialisable description of the current state.
    pub fn summary(&self) -> ProjectSummary {
        let state = self.state.lock().expect("project state poisoned");
        let observation_end = match state.config.kind {
            DataKind::Times => state.t_end,
            DataKind::Grouped => state.boundaries.last().copied().unwrap_or(0.0),
        };
        ProjectSummary {
            id: self.id.clone(),
            kind: state.config.kind.as_str(),
            model: state.config.model_label.clone(),
            prior: state.config.prior_label.clone(),
            version: state.version,
            event_count: state.event_count,
            observation_end,
        }
    }

    /// The project configuration.
    pub fn config(&self) -> ProjectConfig {
        self.state
            .lock()
            .expect("project state poisoned")
            .config
            .clone()
    }

    /// Writes a snapshot of the current state now (no-op for in-memory
    /// projects or before the first batch).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the snapshot cannot be written.
    pub fn snapshot_now(&self) -> Result<(), RegistryError> {
        let mut state = self.state.lock().expect("project state poisoned");
        if state.version == 0 || state.store.is_none() {
            return Ok(());
        }
        write_snapshot(&mut state, false)
    }

    /// Snapshots and compacts the project log regardless of policy
    /// thresholds. Returns `(log_bytes_before, log_bytes_after)`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Data`] for an in-memory project or before any
    /// batch has been accepted, [`RegistryError::Io`] when a read or
    /// write fails (the log is only replaced after the snapshot has
    /// landed, so a failure never loses data).
    pub fn force_compact(&self) -> Result<(u64, u64), RegistryError> {
        let mut state = self.state.lock().expect("project state poisoned");
        let Some(before) = state.store.as_ref().map(|store| store.log_bytes) else {
            return Err(RegistryError::Data(format!(
                "project '{}' is in-memory only",
                self.id
            )));
        };
        if state.version == 0 {
            return Err(RegistryError::Data(format!(
                "project '{}' has no ingested data to compact",
                self.id
            )));
        }
        write_snapshot(&mut state, true)?;
        let after = state.store.as_ref().map_or(0, |store| store.log_bytes);
        Ok((before, after))
    }
}

fn fresh_state(config: ProjectConfig, store: Option<ProjectStore>) -> ProjectState {
    ProjectState {
        config,
        times: Vec::new(),
        t_end: 0.0,
        boundaries: Vec::new(),
        counts: Vec::new(),
        version: 0,
        event_count: 0,
        store,
    }
}

/// The `C` record body for a configuration.
fn config_body(config: &ProjectConfig) -> String {
    format!(
        "{} {} {}",
        config.kind.as_str(),
        config.model_label,
        config.prior_label
    )
}

/// Post-ingest maintenance: periodic snapshot and size-triggered
/// compaction. Failures are counted, never surfaced — the log already
/// holds the batch, so durability is intact either way.
fn maintain(state: &mut ProjectState) {
    let Some(store) = state.store.as_ref() else {
        return;
    };
    let policy = store.policy;
    let due_snapshot =
        policy.snapshot_every > 0 && state.version.is_multiple_of(policy.snapshot_every);
    let due_compact = policy.compact_at_bytes > 0
        && store.log_bytes - store.chart_bytes >= policy.compact_at_bytes;
    if (due_snapshot || due_compact) && write_snapshot(state, due_compact).is_err() {
        let stats = &state.store.as_ref().expect("store checked above").stats;
        stats.bump(&stats.maintenance_failures);
    }
}

/// The one snapshot writer: replaces `<id>.snap` and, when `compact`,
/// then the log with its config record followed by its chart records.
fn write_snapshot(state: &mut ProjectState, compact: bool) -> Result<(), RegistryError> {
    let snap_frame = frame_record(SNAPSHOT, &encode_snapshot(state));
    let store = state.store.as_mut().expect("snapshots need a store");
    store
        .storage
        .replace(&store.snap_name, &snap_frame)
        .map_err(|e| io_err("snapshot write failed", e))?;
    store.stats.bump(&store.stats.snapshots_written);
    if compact {
        let mut log = frame_record(CONFIG, config_body(&state.config).as_bytes());
        for (tag, body) in store.chart_records()? {
            log.extend_from_slice(&frame_record(tag, &body));
        }
        store
            .storage
            .replace(&store.log_name, &log)
            .map_err(|e| io_err("log compaction failed", e))?;
        store.log_bytes = log.len() as u64;
        store.stats.bump(&store.stats.compactions_run);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Snapshot encoding.
// ---------------------------------------------------------------------

/// Serialises the full project state as the line-oriented `S` body.
/// `f64` `Display` round-trips exactly through `parse`, so a decoded
/// snapshot is bit-identical to the state that wrote it.
fn encode_snapshot(state: &ProjectState) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + 24 * state.times.len().max(state.counts.len()));
    let _ = writeln!(out, "version {}", state.version);
    let _ = writeln!(out, "events {}", state.event_count);
    let _ = writeln!(out, "config {}", config_body(&state.config));
    match state.config.kind {
        DataKind::Times => {
            let _ = writeln!(out, "t_end {}", state.t_end);
            out.push_str("times");
            for t in &state.times {
                let _ = write!(out, " {t}");
            }
            out.push('\n');
        }
        DataKind::Grouped => {
            out.push_str("bounds");
            for b in &state.boundaries {
                let _ = write!(out, " {b}");
            }
            out.push_str("\ncounts");
            for c in &state.counts {
                let _ = write!(out, " {c}");
            }
            out.push('\n');
        }
    }
    out.into_bytes()
}

fn parse_list<T: std::str::FromStr>(rest: &str, what: &str) -> Result<Vec<T>, String> {
    rest.split_whitespace()
        .map(|tok| tok.parse().map_err(|_| format!("bad {what} '{tok}'")))
        .collect()
}

/// Decodes and *validates* an `S` body: the dataset must satisfy the
/// same invariants the canonical constructors enforce (and be empty at
/// version 0), and the event count must match, so a decoded snapshot
/// can never poison a registry.
fn decode_snapshot(body: &[u8]) -> Result<ProjectState, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 snapshot".to_string())?;
    let mut version = None;
    let mut event_count = None;
    let mut config: Option<ProjectConfig> = None;
    let mut t_end = 0.0f64;
    let mut times = Vec::new();
    let mut boundaries = Vec::new();
    let mut counts = Vec::new();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "version" => version = Some(rest.parse().map_err(|_| "bad version")?),
            "events" => event_count = Some(rest.parse().map_err(|_| "bad events")?),
            "config" => {
                let mut parts = rest.split_whitespace();
                let (kind, model, prior) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(k), Some(m), Some(p)) => (k, m, p),
                    _ => return Err("malformed config line".to_string()),
                };
                config = Some(ProjectConfig::from_labels(kind, model, prior)?);
            }
            "t_end" => t_end = rest.parse().map_err(|_| "bad t_end")?,
            "times" => times = parse_list(rest, "time")?,
            "bounds" => boundaries = parse_list(rest, "boundary")?,
            "counts" => counts = parse_list(rest, "count")?,
            other => return Err(format!("unknown snapshot key '{other}'")),
        }
    }
    let version: u64 = version.ok_or("snapshot missing version")?;
    let event_count: u64 = event_count.ok_or("snapshot missing events")?;
    let config = config.ok_or("snapshot missing config")?;
    let data_events = match config.kind {
        _ if version == 0 => {
            if times.len() + boundaries.len() + counts.len() > 0 {
                return Err("snapshot at version 0 carries data".to_string());
            }
            0
        }
        DataKind::Times => {
            FailureTimeData::validate(&times, t_end).map_err(|e| e.to_string())?;
            times.len() as u64
        }
        DataKind::Grouped => {
            GroupedData::validate(&boundaries, &counts).map_err(|e| e.to_string())?;
            counts.iter().sum()
        }
    };
    if event_count != data_events {
        return Err("snapshot event count disagrees with its data".to_string());
    }
    Ok(ProjectState {
        config,
        times,
        t_end,
        boundaries,
        counts,
        version,
        event_count,
        store: None,
    })
}

/// Parses a snapshot *file*: exactly one cleanly-framed `S` record.
fn parse_snapshot_file(bytes: &[u8]) -> Result<ProjectState, String> {
    let scan = scan_records(bytes);
    if scan.stop.is_some() || scan.records.len() != 1 {
        return Err("snapshot file is not one clean record".to_string());
    }
    let (tag, body) = &scan.records[0];
    if *tag != SNAPSHOT {
        return Err(format!("unexpected snapshot tag {tag}"));
    }
    decode_snapshot(body)
}

// ---------------------------------------------------------------------
// Batch staging (shared by ingest and replay).
// ---------------------------------------------------------------------

/// A batch validated by its canonical constructor and checked at its
/// seam with the project history, not yet committed. The seam checks
/// plus the batch's own validation imply every invariant of the merged
/// dataset (DESIGN §12), so staging reads only the newest event.
struct Staged {
    batch: ObservedData,
    /// The project's event count once the batch is committed.
    event_count: u64,
}

/// Parses a batch and checks it against the newest event, the
/// observation end and the event count, without mutating anything.
fn stage_batch(state: &ProjectState, batch_text: &str) -> Result<Staged, RegistryError> {
    let (batch, added) = match state.config.kind {
        DataKind::Times => {
            let batch = read_failure_times(batch_text.as_bytes())
                .map_err(|e| RegistryError::Data(format!("bad times batch: {e}")))?;
            if state.version > 0 && batch.observation_end() < state.t_end {
                return Err(RegistryError::Data(format!(
                    "batch t_end {} precedes current observation end {}",
                    batch.observation_end(),
                    state.t_end
                )));
            }
            if let (Some(&last), Some(&first)) = (state.times.last(), batch.times().first()) {
                if first < last {
                    return Err(RegistryError::Data(format!(
                        "batch starts at {first} before the newest recorded failure {last}"
                    )));
                }
            }
            let added = batch.len() as u64;
            (ObservedData::Times(batch), added)
        }
        DataKind::Grouped => {
            let batch = read_grouped(batch_text.as_bytes())
                .map_err(|e| RegistryError::Data(format!("bad grouped batch: {e}")))?;
            if let (Some(&last), Some(&first)) =
                (state.boundaries.last(), batch.boundaries().first())
            {
                if first <= last {
                    return Err(RegistryError::Data(format!(
                        "batch boundary {first} does not extend the last boundary {last}"
                    )));
                }
            }
            let added = batch.total_count();
            (ObservedData::Grouped(batch), added)
        }
    };
    let event_count = state.event_count.checked_add(added).ok_or_else(|| {
        RegistryError::Data(format!(
            "batch of {added} events overflows the project's {} events",
            state.event_count
        ))
    })?;
    Ok(Staged { batch, event_count })
}

/// Extends the history in place with a staged batch that is already
/// durable, and returns the number of events it added.
fn commit_staged(state: &mut ProjectState, staged: Staged) -> u64 {
    match &staged.batch {
        ObservedData::Times(batch) => {
            state.times.extend_from_slice(batch.times());
            state.t_end = batch.observation_end();
        }
        ObservedData::Grouped(batch) => {
            state.boundaries.extend_from_slice(batch.boundaries());
            state.counts.extend_from_slice(batch.counts());
        }
    }
    let added = staged.event_count - state.event_count;
    state.version += 1;
    state.event_count = staged.event_count;
    added
}

/// Outcome of [`Registry::create`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateOutcome {
    /// The project was created.
    Created,
    /// A project with the identical configuration already exists
    /// (creation is idempotent).
    AlreadyExists,
}

/// The registry: all projects, plus their durable storage.
#[derive(Debug)]
pub struct Registry {
    storage: Option<Arc<dyn Storage>>,
    policy: DurabilityPolicy,
    stats: Arc<RecoveryStats>,
    projects: Mutex<BTreeMap<String, Arc<Project>>>,
}

impl Registry {
    /// Opens a registry. With a directory, every project in it is
    /// replayed through [`FsStorage`] (creating the directory if
    /// absent) under the default [`DurabilityPolicy`]; with `None` the
    /// registry is in-memory only (tests, benchmarks).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the directory cannot be created or a
    /// file cannot be read; [`RegistryError::Data`] when a
    /// checksum-valid record fails to re-apply (true corruption beyond
    /// what truncation can absorb).
    pub fn open(dir: Option<&Path>) -> Result<Registry, RegistryError> {
        match dir {
            None => Ok(Registry {
                storage: None,
                policy: DurabilityPolicy::default(),
                stats: Arc::new(RecoveryStats::default()),
                projects: Mutex::new(BTreeMap::new()),
            }),
            Some(dir) => {
                let storage = FsStorage::open(dir)
                    .map_err(|e| io_err(&format!("cannot open {}", dir.display()), e))?;
                Registry::open_with(Arc::new(storage), DurabilityPolicy::default())
            }
        }
    }

    /// Opens a registry over an explicit storage backend — the entry
    /// point of the chaos harness and of `nhpp fsck`'s dry-run replay.
    ///
    /// # Errors
    ///
    /// As [`Registry::open`].
    pub fn open_with(
        storage: Arc<dyn Storage>,
        policy: DurabilityPolicy,
    ) -> Result<Registry, RegistryError> {
        let registry = Registry {
            storage: Some(storage.clone()),
            policy,
            stats: Arc::new(RecoveryStats::default()),
            projects: Mutex::new(BTreeMap::new()),
        };
        for id in stored_ids(storage.as_ref())? {
            registry.replay_project(&id)?;
        }
        Ok(registry)
    }

    /// The recovery/maintenance counters.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// The storage backend, when the registry is durable.
    pub fn storage_handle(&self) -> Option<Arc<dyn Storage>> {
        self.storage.clone()
    }

    /// Creates a project (idempotent when the configuration matches).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Invalid`] for a bad id,
    /// [`RegistryError::Conflict`] when the id exists with a different
    /// configuration, [`RegistryError::Io`] when the log cannot be
    /// started (if that write could not be rolled back either, the id
    /// stays registered and refuses appends until the registry is
    /// reopened).
    pub fn create(&self, id: &str, config: ProjectConfig) -> Result<CreateOutcome, RegistryError> {
        validate_id(id)?;
        let mut projects = self.projects.lock().expect("registry poisoned");
        if let Some(existing) = projects.get(id) {
            return if existing.config() == config {
                Ok(CreateOutcome::AlreadyExists)
            } else {
                Err(RegistryError::Conflict(format!(
                    "project '{id}' already exists with a different configuration"
                )))
            };
        }
        // Replay left any log of an unknown id empty, so a failed append
        // rolls back to zero bytes.
        let mut store = self.storage.as_ref().map(|s| self.project_store(s, id));
        let started = store.as_mut().map_or(Ok(()), |store| {
            store.append(&frame_record(CONFIG, config_body(&config).as_bytes()))
        });
        if started.is_ok() || store.as_ref().is_some_and(|store| store.read_only) {
            projects.insert(
                id.to_string(),
                Arc::new(Project::new(id.to_string(), config, store)),
            );
        }
        started.map(|()| CreateOutcome::Created)
    }

    /// The durable backing of project `id`, over an empty log.
    fn project_store(&self, storage: &Arc<dyn Storage>, id: &str) -> ProjectStore {
        ProjectStore {
            storage: storage.clone(),
            log_name: format!("{id}.log"),
            snap_name: format!("{id}.snap"),
            log_bytes: 0,
            chart_bytes: 0,
            policy: self.policy,
            stats: self.stats.clone(),
            read_only: false,
        }
    }

    /// Looks up a project.
    pub fn get(&self, id: &str) -> Option<Arc<Project>> {
        self.projects
            .lock()
            .expect("registry poisoned")
            .get(id)
            .cloned()
    }

    /// All projects, in id order.
    pub fn all(&self) -> Vec<Arc<Project>> {
        self.projects
            .lock()
            .expect("registry poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Snapshots every project (graceful-shutdown hook: the next
    /// startup replays snapshot-plus-nothing). Best effort — failures
    /// are counted in [`RecoveryStats::maintenance_failures`]. Returns
    /// the number of snapshots written.
    pub fn snapshot_all(&self) -> u64 {
        let mut written = 0;
        for project in self.all() {
            match project.snapshot_now() {
                Ok(()) => written += 1,
                Err(_) => self.stats.bump(&self.stats.maintenance_failures),
            }
        }
        written
    }

    /// Replays one project from its snapshot and log.
    fn replay_project(&self, id: &str) -> Result<(), RegistryError> {
        let storage = self.storage.as_ref().expect("replay requires storage");
        let log_name = format!("{id}.log");
        let snap_name = format!("{id}.snap");

        // Snapshot first: a valid one seeds the state; a corrupt one
        // falls back to pure log replay.
        let mut state: Option<ProjectState> = None;
        if let Some(bytes) = storage
            .read(&snap_name)
            .map_err(|e| io_err("snapshot read failed", e))?
        {
            match parse_snapshot_file(&bytes) {
                Ok(snap) => {
                    self.stats.bump(&self.stats.snapshots_loaded);
                    state = Some(snap);
                }
                Err(_) => self.stats.bump(&self.stats.snapshot_fallbacks),
            }
        }

        // Scan the log, truncating a torn or corrupt suffix so the next
        // append lands on a clean prefix.
        let log_bytes = storage
            .read(&log_name)
            .map_err(|e| io_err("log read failed", e))?
            .unwrap_or_default();
        let scan = scan_records(&log_bytes);
        match scan.stop {
            Some(ScanStop::TornTail) => self.stats.bump(&self.stats.torn_truncated),
            Some(ScanStop::Corrupt) => self.stats.bump(&self.stats.checksum_failures),
            None => {}
        }
        if scan.stop.is_some() {
            storage
                .truncate(&log_name, scan.valid_len)
                .map_err(|e| io_err("log truncation failed", e))?;
        }

        if state.is_none() && scan.records.is_empty() {
            // Nothing recoverable: a create whose very first append was
            // torn away. The project never existed durably.
            return Ok(());
        }

        // Chart records are the monitor's to read; replay only sizes them.
        let mut chart_bytes = 0;
        for (tag, body) in &scan.records {
            match *tag {
                CONFIG => {
                    let text = std::str::from_utf8(body).map_err(|_| {
                        RegistryError::Data(format!("non-UTF-8 config record in {log_name}"))
                    })?;
                    let mut parts = text.split_whitespace();
                    let (kind, model, prior) = match (parts.next(), parts.next(), parts.next()) {
                        (Some(k), Some(m), Some(p)) => (k, m, p),
                        _ => {
                            return Err(RegistryError::Data(format!(
                                "malformed config record in {log_name}"
                            )))
                        }
                    };
                    let config = ProjectConfig::from_labels(kind, model, prior)
                        .map_err(RegistryError::Data)?;
                    match &state {
                        None => state = Some(fresh_state(config, None)),
                        Some(existing) => {
                            if existing.config != config {
                                return Err(RegistryError::Data(format!(
                                    "config record in {log_name} disagrees with snapshot"
                                )));
                            }
                        }
                    }
                }
                BATCH => {
                    let state = state.as_mut().ok_or_else(|| {
                        RegistryError::Data(format!("batch before config record in {log_name}"))
                    })?;
                    let text = std::str::from_utf8(body).map_err(|_| {
                        RegistryError::Data(format!("non-UTF-8 batch record in {log_name}"))
                    })?;
                    let (seq_text, csv) = text.split_once('\n').ok_or_else(|| {
                        RegistryError::Data(format!("batch record without sequence in {log_name}"))
                    })?;
                    let seq: u64 = seq_text.trim().parse().map_err(|_| {
                        RegistryError::Data(format!(
                            "bad batch sequence '{seq_text}' in {log_name}"
                        ))
                    })?;
                    if seq <= state.version {
                        // Already covered by the snapshot (or a replayed
                        // duplicate): sequence numbers make replay
                        // insensitive to compaction.
                        self.stats.bump(&self.stats.duplicates_skipped);
                        continue;
                    }
                    if seq != state.version + 1 {
                        return Err(RegistryError::Data(format!(
                            "sequence gap in {log_name}: have version {}, next record is {seq}",
                            state.version
                        )));
                    }
                    let staged = stage_batch(state, csv)?;
                    commit_staged(state, staged);
                }
                POINT | ALERT => chart_bytes += frame_len(body.len()),
                other => {
                    return Err(RegistryError::Data(format!(
                        "unknown record tag {other} in {log_name}"
                    )))
                }
            }
        }

        let mut state = state.ok_or_else(|| {
            RegistryError::Data(format!(
                "chart records without a config record in {log_name}"
            ))
        })?;
        state.store = Some(ProjectStore {
            log_bytes: scan.valid_len,
            chart_bytes,
            ..self.project_store(storage, id)
        });
        self.projects.lock().expect("registry poisoned").insert(
            id.to_string(),
            Arc::new(Project::from_state(id.to_string(), state)),
        );
        Ok(())
    }
}

/// Project ids found in storage: stems of `*.log` / `*.snap` names.
fn stored_ids(storage: &dyn Storage) -> Result<Vec<String>, RegistryError> {
    let mut ids = BTreeSet::new();
    for name in storage
        .list()
        .map_err(|e| io_err("storage list failed", e))?
    {
        let stem = name
            .strip_suffix(".log")
            .or_else(|| name.strip_suffix(".snap"));
        if let Some(stem) = stem {
            if validate_id(stem).is_ok() {
                ids.insert(stem.to_string());
            }
        }
    }
    Ok(ids.into_iter().collect())
}

/// Project ids are path- and URL-safe by construction.
fn validate_id(id: &str) -> Result<(), RegistryError> {
    let ok = !id.is_empty()
        && id.len() <= 64
        && !id.starts_with('.')
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(RegistryError::Invalid(format!(
            "invalid project id '{id}' (1-64 chars of [A-Za-z0-9._-], no leading dot)"
        )))
    }
}

// ---------------------------------------------------------------------
// Offline verification (`nhpp fsck`).
// ---------------------------------------------------------------------

/// Snapshot health as seen by [`fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// No snapshot file.
    Missing,
    /// A clean snapshot at this version.
    Valid {
        /// Data version the snapshot captures.
        version: u64,
    },
    /// The snapshot exists but fails framing, checksum or decoding —
    /// startup will fall back to pure log replay.
    Corrupt,
}

/// Per-project report from [`fsck`].
#[derive(Debug, Clone)]
pub struct FsckEntry {
    /// Project id.
    pub id: String,
    /// Log length in bytes.
    pub log_bytes: u64,
    /// Cleanly-framed records in the log.
    pub log_records: usize,
    /// Bytes past the last valid record (0 = clean tail).
    pub torn_tail_bytes: u64,
    /// Whether the tail was cut by a checksum failure (true corruption)
    /// rather than a torn write.
    pub checksum_corrupt: bool,
    /// Sequence number of the first batch record (> 1 once the log has
    /// been compacted).
    pub first_batch_seq: Option<u64>,
    /// Snapshot health.
    pub snapshot: SnapshotStatus,
    /// Data version a dry-run replay recovers, or the error it hits.
    pub recovery: Result<u64, String>,
}

impl FsckEntry {
    /// Whether startup would recover this project without data loss
    /// beyond a torn tail.
    pub fn healthy(&self) -> bool {
        !self.checksum_corrupt && self.snapshot != SnapshotStatus::Corrupt && self.recovery.is_ok()
    }
}

/// Verifies every project in `storage` without modifying it: checksums
/// are scanned in place and recovery is dry-run against an in-memory
/// copy, so `fsck` is safe to run against a live data directory.
///
/// # Errors
///
/// [`RegistryError::Io`] when the storage itself cannot be read.
pub fn fsck(storage: &dyn Storage) -> Result<Vec<FsckEntry>, RegistryError> {
    let mut entries = Vec::new();
    for id in stored_ids(storage)? {
        let log_name = format!("{id}.log");
        let snap_name = format!("{id}.snap");
        let log_bytes = storage
            .read(&log_name)
            .map_err(|e| io_err("log read failed", e))?
            .unwrap_or_default();
        let snap_bytes = storage
            .read(&snap_name)
            .map_err(|e| io_err("snapshot read failed", e))?;

        let scan = scan_records(&log_bytes);
        let snapshot = match &snap_bytes {
            None => SnapshotStatus::Missing,
            Some(bytes) => match parse_snapshot_file(bytes) {
                Ok(snap) => SnapshotStatus::Valid {
                    version: snap.version,
                },
                Err(_) => SnapshotStatus::Corrupt,
            },
        };
        let first_batch_seq = scan.records.iter().find_map(|(tag, body)| {
            if *tag != BATCH {
                return None;
            }
            let text = std::str::from_utf8(body).ok()?;
            text.split_once('\n')?.0.trim().parse().ok()
        });

        // Dry-run recovery on a copy: any tail truncation happens on
        // the in-memory clone, never on the inspected storage.
        let mut copy = BTreeMap::new();
        copy.insert(log_name, log_bytes.clone());
        if let Some(bytes) = snap_bytes {
            copy.insert(snap_name, bytes);
        }
        let recovery = Registry::open_with(
            Arc::new(MemStorage::from_map(copy)),
            DurabilityPolicy::default(),
        )
        .map(|registry| registry.get(&id).map_or(0, |p| p.version()))
        .map_err(|e| e.to_string());

        entries.push(FsckEntry {
            id,
            log_bytes: log_bytes.len() as u64,
            log_records: scan.records.len(),
            torn_tail_bytes: log_bytes.len() as u64 - scan.valid_len,
            checksum_corrupt: scan.stop == Some(ScanStop::Corrupt),
            first_batch_seq,
            snapshot,
            recovery,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nhpp-serve-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn times_config() -> ProjectConfig {
        ProjectConfig::from_labels("times", "go", "paper-info-times").unwrap()
    }

    fn batch(times: &[f64], t_end: f64) -> String {
        let mut text = format!("# t_end={t_end}\n");
        for t in times {
            text.push_str(&format!("{t}\n"));
        }
        text
    }

    /// A policy that never snapshots or compacts on its own, so tests
    /// control maintenance explicitly.
    fn manual_policy() -> DurabilityPolicy {
        DurabilityPolicy {
            snapshot_every: 0,
            compact_at_bytes: 0,
        }
    }

    fn mem_registry(policy: DurabilityPolicy) -> (Arc<MemStorage>, Registry) {
        let storage = Arc::new(MemStorage::new());
        let registry = Registry::open_with(storage.clone(), policy).unwrap();
        (storage, registry)
    }

    fn reopen(storage: &Arc<MemStorage>) -> Registry {
        Registry::open_with(
            Arc::new(MemStorage::from_map(storage.dump())),
            manual_policy(),
        )
        .unwrap()
    }

    #[test]
    fn create_is_idempotent_and_conflicts_on_mismatch() {
        let registry = Registry::open(None).unwrap();
        assert_eq!(
            registry.create("p1", times_config()).unwrap(),
            CreateOutcome::Created
        );
        assert_eq!(
            registry.create("p1", times_config()).unwrap(),
            CreateOutcome::AlreadyExists
        );
        let other = ProjectConfig::from_labels("times", "dss", "paper-info-times").unwrap();
        assert!(matches!(
            registry.create("p1", other),
            Err(RegistryError::Conflict(_))
        ));
        assert!(matches!(
            registry.create("../evil", times_config()),
            Err(RegistryError::Invalid(_))
        ));
    }

    #[test]
    fn ingestion_is_append_only_and_versioned() {
        let registry = Registry::open(None).unwrap();
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        assert!(p.snapshot().is_err(), "no data yet");

        assert_eq!(p.ingest(&batch(&[1.0, 2.0], 3.0)).unwrap(), 2);
        assert_eq!(p.ingest(&batch(&[4.5], 5.0)).unwrap(), 1);
        // A batch may advance the censoring end without new failures.
        assert_eq!(p.ingest(&batch(&[], 6.0)).unwrap(), 0);
        assert_eq!(p.version(), 3);
        let (version, data, _, _) = p.snapshot().unwrap();
        assert_eq!(version, 3);
        assert_eq!(data.total_count(), 3);
        assert_eq!(data.observation_end(), 6.0);

        // Rejections leave state untouched.
        assert!(p.ingest(&batch(&[0.5], 7.0)).is_err(), "out of order");
        assert!(p.ingest(&batch(&[6.5], 5.0)).is_err(), "t_end went back");
        assert_eq!(p.version(), 3);
    }

    #[test]
    fn grouped_ingestion_extends_boundaries() {
        let registry = Registry::open(None).unwrap();
        let config = ProjectConfig::from_labels("grouped", "go", "paper-info-grouped").unwrap();
        registry.create("g1", config).unwrap();
        let p = registry.get("g1").unwrap();
        assert_eq!(p.ingest("1,3\n2,1\n").unwrap(), 4);
        assert_eq!(p.ingest("3,0\n4,2\n").unwrap(), 2);
        assert!(p.ingest("4,1\n").is_err(), "non-extending boundary");
        let (version, data, _, _) = p.snapshot().unwrap();
        assert_eq!(version, 2);
        assert_eq!(data.total_count(), 6);
    }

    #[test]
    fn persistence_round_trip_restores_identical_state() {
        let dir = temp_dir("roundtrip");
        let summary_before;
        {
            let registry = Registry::open(Some(&dir)).unwrap();
            registry.create("p1", times_config()).unwrap();
            let p = registry.get("p1").unwrap();
            for k in 0..10 {
                let t = (k + 1) as f64 * 10.0;
                p.ingest(&batch(&[t], t + 5.0)).unwrap();
            }
            summary_before = p.summary();
        }
        // "Restart": a fresh registry replays the log.
        let registry = Registry::open(Some(&dir)).unwrap();
        let p = registry.get("p1").unwrap();
        assert_eq!(p.summary(), summary_before);
        let (version, data, _, _) = p.snapshot().unwrap();
        assert_eq!(version, 10);
        assert_eq!(data.total_count(), 10);
        assert_eq!(data.observation_end(), 105.0);
        // And the recovered registry keeps accepting appends.
        p.ingest(&batch(&[110.0], 120.0)).unwrap();
        assert_eq!(p.version(), 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_truncated_cleanly() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        p.ingest(&batch(&[1.0, 2.0], 3.0)).unwrap();
        p.ingest(&batch(&[4.0], 5.0)).unwrap();
        // Simulate a crash mid-append: a record cut short of its frame.
        let torn = frame_record(b'B', b"3\n# t_end=9\n6.0\n");
        storage.append("p1.log", &torn[..torn.len() - 5]).unwrap();
        let len_with_torn = storage.read("p1.log").unwrap().unwrap().len();

        let survivor = Arc::new(MemStorage::from_map(storage.dump()));
        let registry = Registry::open_with(survivor.clone(), manual_policy()).unwrap();
        assert_eq!(registry.stats().torn_truncated.load(Ordering::Relaxed), 1);
        let p = registry.get("p1").unwrap();
        // The torn record is gone; the two complete batches survive.
        assert_eq!(p.version(), 2);
        let (_, data, _, _) = p.snapshot().unwrap();
        assert_eq!(data.total_count(), 3);
        assert!(
            survivor.read("p1.log").unwrap().unwrap().len() < len_with_torn,
            "torn tail was truncated away"
        );
        // The next append lands after the truncation point and a third
        // replay sees it.
        p.ingest(&batch(&[6.0], 7.0)).unwrap();
        let registry = reopen(&survivor);
        assert_eq!(registry.get("p1").unwrap().version(), 3);
    }

    #[test]
    fn torn_length_prefix_is_truncated_cleanly() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        registry
            .get("p1")
            .unwrap()
            .ingest(&batch(&[1.0], 2.0))
            .unwrap();
        // Two bytes of an eight-byte frame header.
        storage.append("p1.log", &[0x10, 0x00]).unwrap();
        let registry = reopen(&storage);
        assert_eq!(registry.get("p1").unwrap().version(), 1);
    }

    #[test]
    fn checksum_corruption_drops_the_suffix() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        p.ingest(&batch(&[1.0], 2.0)).unwrap();
        p.ingest(&batch(&[3.0], 4.0)).unwrap();
        // Flip a bit inside the last record's payload.
        let mut bytes = storage.read("p1.log").unwrap().unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        storage.replace("p1.log", &bytes).unwrap();

        let registry = reopen(&storage);
        assert_eq!(
            registry.stats().checksum_failures.load(Ordering::Relaxed),
            1
        );
        let p = registry.get("p1").unwrap();
        assert_eq!(p.version(), 1, "clean prefix survives");
    }

    #[test]
    fn empty_log_is_skipped_not_fatal() {
        let storage = Arc::new(MemStorage::new());
        storage.append("ghost.log", b"").unwrap();
        let registry = Registry::open_with(storage, manual_policy()).unwrap();
        assert!(registry.get("ghost").is_none());
        assert!(registry.all().is_empty());
    }

    #[test]
    fn zero_length_record_is_treated_as_corruption() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        registry
            .get("p1")
            .unwrap()
            .ingest(&batch(&[1.0], 2.0))
            .unwrap();
        // A zero-length frame: len=0, crc of empty payload.
        storage.append("p1.log", &0u32.to_le_bytes()).unwrap();
        storage
            .append("p1.log", &crate::storage::crc32(b"").to_le_bytes())
            .unwrap();
        let registry = reopen(&storage);
        assert_eq!(
            registry.stats().checksum_failures.load(Ordering::Relaxed),
            1
        );
        assert_eq!(registry.get("p1").unwrap().version(), 1);
    }

    #[test]
    fn duplicate_sequence_numbers_are_skipped() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        p.ingest(&batch(&[1.0], 2.0)).unwrap();
        // Re-append a copy of the seq-1 batch record (a replayed
        // duplicate, e.g. from an at-least-once upstream writer).
        let dup = format!("1\n{}", batch(&[1.0], 2.0));
        storage
            .append("p1.log", &frame_record(b'B', dup.as_bytes()))
            .unwrap();
        let registry = reopen(&storage);
        assert_eq!(
            registry.stats().duplicates_skipped.load(Ordering::Relaxed),
            1
        );
        let p = registry.get("p1").unwrap();
        assert_eq!(p.version(), 1);
        assert_eq!(p.summary().event_count, 1, "duplicate did not re-apply");
    }

    #[test]
    fn sequence_gap_is_a_hard_error() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        registry
            .get("p1")
            .unwrap()
            .ingest(&batch(&[1.0], 2.0))
            .unwrap();
        let gap = format!("5\n{}", batch(&[3.0], 4.0));
        storage
            .append("p1.log", &frame_record(b'B', gap.as_bytes()))
            .unwrap();
        let err = Registry::open_with(
            Arc::new(MemStorage::from_map(storage.dump())),
            manual_policy(),
        )
        .unwrap_err();
        assert!(matches!(err, RegistryError::Data(_)));
        assert!(err.to_string().contains("sequence gap"));
    }

    #[test]
    fn snapshot_round_trip_and_fallback() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        for k in 0..5 {
            let t = (k + 1) as f64 * 10.0;
            p.ingest(&batch(&[t], t + 5.0)).unwrap();
        }
        p.snapshot_now().unwrap();
        let summary = p.summary();
        assert_eq!(
            registry.stats().snapshots_written.load(Ordering::Relaxed),
            1
        );

        // Reopen: the snapshot seeds the state and every log record is
        // a duplicate.
        let registry = reopen(&storage);
        assert_eq!(registry.stats().snapshots_loaded.load(Ordering::Relaxed), 1);
        assert_eq!(
            registry.stats().duplicates_skipped.load(Ordering::Relaxed),
            5
        );
        assert_eq!(registry.get("p1").unwrap().summary(), summary);

        // Corrupt the snapshot: replay falls back to the pure log and
        // recovers the identical state.
        let mut snap = storage.read("p1.snap").unwrap().unwrap();
        let n = snap.len();
        snap[n / 2] ^= 0xFF;
        storage.replace("p1.snap", &snap).unwrap();
        let registry = reopen(&storage);
        assert_eq!(
            registry.stats().snapshot_fallbacks.load(Ordering::Relaxed),
            1
        );
        assert_eq!(registry.get("p1").unwrap().summary(), summary);
    }

    #[test]
    fn snapshot_newer_than_log_tail_wins() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        p.ingest(&batch(&[1.0], 2.0)).unwrap();
        p.ingest(&batch(&[3.0], 4.0)).unwrap();
        p.snapshot_now().unwrap();
        // Truncate the log back to just the config record: the log tail
        // is now *older* than the snapshot (a compaction crash window
        // cannot produce this, but a restored-from-backup log can).
        let bytes = storage.read("p1.log").unwrap().unwrap();
        let config_len = frame_record(b'C', config_body(&times_config()).as_bytes()).len();
        storage.replace("p1.log", &bytes[..config_len]).unwrap();

        let registry = reopen(&storage);
        let p = registry.get("p1").unwrap();
        assert_eq!(p.version(), 2, "snapshot state wins over the stale log");
        assert_eq!(p.summary().event_count, 2);
        // And the project still extends cleanly from version 2.
        p.ingest(&batch(&[5.0], 6.0)).unwrap();
        assert_eq!(p.version(), 3);
    }

    #[test]
    fn compaction_bounds_replay_and_preserves_state() {
        let policy = DurabilityPolicy {
            snapshot_every: 0,
            compact_at_bytes: 1, // compact after every ingest
        };
        let (storage, registry) = mem_registry(policy);
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        for k in 0..8 {
            let t = (k + 1) as f64 * 10.0;
            p.ingest(&batch(&[t], t + 5.0)).unwrap();
        }
        assert_eq!(registry.stats().compactions_run.load(Ordering::Relaxed), 8);
        // The compacted log holds only the config record.
        let log = storage.read("p1.log").unwrap().unwrap();
        let scan = scan_records(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, b'C');

        let summary = p.summary();
        let registry = reopen(&storage);
        let p = registry.get("p1").unwrap();
        assert_eq!(p.summary(), summary);
        assert_eq!(p.version(), 8);
        // Post-recovery ingestion continues the sequence.
        p.ingest(&batch(&[100.0], 110.0)).unwrap();
        assert_eq!(p.version(), 9);
    }

    #[test]
    fn force_compact_shrinks_the_log() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        for k in 0..20 {
            let t = (k + 1) as f64 * 10.0;
            p.ingest(&batch(&[t], t + 5.0)).unwrap();
        }
        let (before, after) = p.force_compact().unwrap();
        assert!(after < before, "compaction shrank the log");
        let summary = p.summary();
        let registry = reopen(&storage);
        assert_eq!(registry.get("p1").unwrap().summary(), summary);
    }

    #[test]
    fn periodic_snapshots_follow_policy() {
        let policy = DurabilityPolicy {
            snapshot_every: 3,
            compact_at_bytes: 0,
        };
        let (storage, registry) = mem_registry(policy);
        registry.create("p1", times_config()).unwrap();
        let p = registry.get("p1").unwrap();
        for k in 0..7 {
            let t = (k + 1) as f64 * 10.0;
            p.ingest(&batch(&[t], t + 5.0)).unwrap();
        }
        // Versions 3 and 6 snapshot.
        assert_eq!(
            registry.stats().snapshots_written.load(Ordering::Relaxed),
            2
        );
        let snap = storage.read("p1.snap").unwrap().unwrap();
        let parsed = parse_snapshot_file(&snap).unwrap();
        assert_eq!(parsed.version, 6);
    }

    #[test]
    fn snapshot_all_writes_every_project() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p1", times_config()).unwrap();
        registry.create("p2", times_config()).unwrap();
        registry.create("empty", times_config()).unwrap();
        registry
            .get("p1")
            .unwrap()
            .ingest(&batch(&[1.0], 2.0))
            .unwrap();
        registry
            .get("p2")
            .unwrap()
            .ingest(&batch(&[1.0], 2.0))
            .unwrap();
        // `empty` has no data: snapshot_now is a no-op, not a failure.
        assert_eq!(registry.snapshot_all(), 3);
        assert!(storage.read("p1.snap").unwrap().is_some());
        assert!(storage.read("p2.snap").unwrap().is_some());
        assert!(storage.read("empty.snap").unwrap().is_none());
    }

    #[test]
    fn grouped_snapshot_round_trips() {
        let (storage, registry) = mem_registry(manual_policy());
        let config = ProjectConfig::from_labels("grouped", "go", "paper-info-grouped").unwrap();
        registry.create("g1", config).unwrap();
        let p = registry.get("g1").unwrap();
        p.ingest("1,3\n2,1\n").unwrap();
        p.ingest("3,0\n4,2\n").unwrap();
        p.snapshot_now().unwrap();
        let summary = p.summary();
        let registry = reopen(&storage);
        assert_eq!(registry.get("g1").unwrap().summary(), summary);
    }

    #[test]
    fn fsck_reports_health_and_corruption() {
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("good", times_config()).unwrap();
        registry.create("torn", times_config()).unwrap();
        let good = registry.get("good").unwrap();
        good.ingest(&batch(&[1.0], 2.0)).unwrap();
        good.ingest(&batch(&[3.0], 4.0)).unwrap();
        good.snapshot_now().unwrap();
        let torn_p = registry.get("torn").unwrap();
        torn_p.ingest(&batch(&[1.0], 2.0)).unwrap();
        let frame = frame_record(b'B', b"2\n# t_end=9\n6.0\n");
        storage
            .append("torn.log", &frame[..frame.len() - 3])
            .unwrap();

        let entries = fsck(storage.as_ref()).unwrap();
        assert_eq!(entries.len(), 2);
        let by_id = |id: &str| entries.iter().find(|e| e.id == id).unwrap();

        let good_entry = by_id("good");
        assert!(good_entry.healthy());
        assert_eq!(good_entry.torn_tail_bytes, 0);
        assert_eq!(good_entry.snapshot, SnapshotStatus::Valid { version: 2 });
        assert_eq!(good_entry.recovery, Ok(2));
        assert_eq!(good_entry.first_batch_seq, Some(1));

        let torn_entry = by_id("torn");
        assert!(torn_entry.healthy(), "a torn tail is recoverable");
        assert!(torn_entry.torn_tail_bytes > 0);
        assert!(!torn_entry.checksum_corrupt);
        assert_eq!(torn_entry.recovery, Ok(1));

        // fsck never modifies the inspected storage.
        let before = storage.dump();
        let _ = fsck(storage.as_ref()).unwrap();
        assert_eq!(storage.dump(), before);
    }

    #[test]
    fn config_labels_check_the_kind_and_replay_a_spaced_prior() {
        assert!(DataKind::parse("times").is_ok());
        assert!(DataKind::parse("stream").is_err());
        let spaced = ProjectConfig::from_labels("times", "go", "50, 15.8,1e-5 , 3.2e-6").unwrap();
        let tight = ProjectConfig::from_labels("times", "go", "50,15.8,1e-5,3.2e-6").unwrap();
        assert_eq!(spaced, tight, "one project, however the label is spaced");
        // The label lands in the space-separated `C` record, so the
        // project must replay from its log.
        let (storage, registry) = mem_registry(manual_policy());
        registry.create("p", spaced).unwrap();
        registry
            .get("p")
            .unwrap()
            .ingest(&batch(&[1.0, 2.0], 5.0))
            .unwrap();
        assert_eq!(reopen(&storage).get("p").unwrap().config(), tight);
    }
}
