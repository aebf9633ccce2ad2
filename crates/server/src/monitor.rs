//! Streaming SPC monitoring: per-project control charts scored on every
//! appended failure event, change-point detection with refit-and-alert,
//! and the persistence that lets charts survive a crash.
//!
//! # Charting
//!
//! Every `Times` project carries one chart. Each failure event (from
//! the second onward) contributes one plotted point for the gap it
//! closes, scored under *both* schemes from [`nhpp_models::spc`]: the
//! ordered-statistics statistic from the cached fitted posterior and
//! the MMLE-style plug-in statistic at the posterior means. The fit the
//! point was scored against is pinned into the point (`fit_version`,
//! `lane_width`) — the same provenance contract as served intervals.
//!
//! Scoring deliberately uses [`crate::scheduler::cached_fit`]: the
//! control limits for a new event are *supposed* to come from the fit
//! computed before the event arrived, and an ingest-rate refit storm
//! would defeat the coalescing scheduler. Ingests before the first fit
//! are counted as deferred and scored by the next fit-bearing query.
//!
//! # Change points
//!
//! A [`RunTracker`] per scheme watches for consecutive out-of-control
//! points on one side. When a run reaches the configured length the
//! monitor publishes an [`Alert`], triggers a refit through the
//! coalescing scheduler (the chart's limits should re-anchor on the
//! regime that fired them), and wakes every `/monitor/wait` long-poll.
//!
//! # Determinism and persistence
//!
//! Chart statistics are pure functions of `(posterior, t, τ)`, so for a
//! fixed SIMD dispatch the chart state is bitwise identical across
//! server thread counts (the posterior already is, per DESIGN §14).
//! Points and alerts are chart records of the project's own log
//! ([`Project::append_chart`]): text bodies whose floats round-trip
//! bitwise through `f64` `Display`, under the same framing, fsync and
//! rollback as the batches they score. A scoring pass appends its
//! points before it releases the chart lock, so the log holds them in
//! scoring order, after the batches they score. Recovery folds the
//! chart records of each replayed log and writes nothing. Points a
//! crash cut from the end of the log are scored again by the next
//! scoring pass.

use crate::metrics::Metrics;
use crate::registry::{Project, Registry, ALERT, POINT};
use crate::scheduler::{cached_fit, ensure_fit, CachedFit, FitServeError};
use crate::server::AppState;
use crate::storage::Storage;
use nhpp_models::spc::{
    classify, mmle_statistic, ordered_statistic, ChartScheme, ChartStatus, RunTracker,
};
use nhpp_models::ModelSpec;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which chart scheme(s) may raise alerts. Both statistics are always
/// computed and persisted — the selection gates alerting only, so
/// switching schemes later never invalidates a chart record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSelect {
    /// Ordered-statistics alerts only.
    Os,
    /// MMLE-style alerts only.
    Mmle,
    /// Either scheme may alert (default).
    Both,
}

impl SchemeSelect {
    /// Keyword form (`os` | `mmle` | `both`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SchemeSelect::Os => "os",
            SchemeSelect::Mmle => "mmle",
            SchemeSelect::Both => "both",
        }
    }

    /// Parses the keyword form.
    ///
    /// # Errors
    ///
    /// A message naming the valid keywords.
    pub fn parse(text: &str) -> Result<SchemeSelect, String> {
        match text {
            "os" => Ok(SchemeSelect::Os),
            "mmle" => Ok(SchemeSelect::Mmle),
            "both" => Ok(SchemeSelect::Both),
            other => Err(format!("unknown monitor scheme '{other}' (os|mmle|both)")),
        }
    }

    /// Whether `scheme` may raise alerts under this selection.
    pub fn active(&self, scheme: ChartScheme) -> bool {
        match self {
            SchemeSelect::Both => true,
            SchemeSelect::Os => scheme == ChartScheme::OrderedStatistics,
            SchemeSelect::Mmle => scheme == ChartScheme::Mmle,
        }
    }
}

/// Monitor tuning, fixed at boot.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Scheme(s) allowed to alert.
    pub schemes: SchemeSelect,
    /// Consecutive out-of-control points on one side that constitute a
    /// regime shift.
    pub run_length: u32,
    /// Recent chart points kept in memory per project (the `tail` array
    /// of the chart route).
    pub tail: usize,
    /// Alerts retained in the in-memory subscription ring.
    pub alert_capacity: usize,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            schemes: SchemeSelect::Both,
            run_length: 3,
            tail: 32,
            alert_capacity: 256,
        }
    }
}

/// One plotted chart point: the gap closing at failure-event `index`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartPoint {
    /// 1-based failure-event index of the point's own time (`≥ 2`).
    pub index: u64,
    /// Data version of the fit the point was scored against.
    pub fit_version: u64,
    /// SIMD lane width recorded by that fit (replay provenance).
    pub lane_width: u64,
    /// Previous failure time.
    pub t_prev: f64,
    /// This failure time.
    pub t: f64,
    /// Ordered-statistics statistic `P(T ≤ τ | D)`.
    pub p_os: f64,
    /// MMLE-style plug-in statistic.
    pub p_mmle: f64,
    /// Classification of `p_os`.
    pub status_os: ChartStatus,
    /// Classification of `p_mmle`.
    pub status_mmle: ChartStatus,
}

/// A published change-point alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Monotone subscription cursor, global across projects (from 1).
    pub seq: u64,
    /// Project whose chart fired.
    pub project: String,
    /// Scheme whose run reached the threshold.
    pub scheme: ChartScheme,
    /// Side of the chart the run was on.
    pub side: ChartStatus,
    /// Run length at the moment of firing.
    pub run: u32,
    /// Event index of the firing point.
    pub index: u64,
    /// Failure time of the firing point.
    pub t: f64,
    /// The firing scheme's statistic at that point.
    pub p: f64,
    /// Fit version the firing point was scored against.
    pub fit_version: u64,
    /// Data version of the refit the alert triggered (`None` when the
    /// refit itself failed; the alert still stands).
    pub refit_version: Option<u64>,
}

/// An alert detected during scoring, before a sequence number and the
/// triggered refit's version are known.
struct PendingAlert {
    scheme: ChartScheme,
    side: ChartStatus,
    run: u32,
    index: u64,
    t: f64,
    p: f64,
    fit_version: u64,
}

/// Mutable chart state of one project.
#[derive(Debug, Default)]
struct ChartState {
    /// 1-based index of the newest failure event consumed by scoring
    /// (points exist for events `2..=scored_through`).
    scored_through: u64,
    /// Status counts per [`ChartStatus::index`], ordered-statistics.
    counts_os: [u64; 3],
    /// Status counts, MMLE scheme.
    counts_mmle: [u64; 3],
    run_os: RunTracker,
    run_mmle: RunTracker,
    last: Option<ChartPoint>,
    tail: VecDeque<ChartPoint>,
}

/// A consistent copy of one chart, for serialisation.
#[derive(Debug, Clone)]
pub struct ChartSnapshot {
    /// Newest failure event consumed by scoring.
    pub scored_through: u64,
    /// `[deterioration, in-control, improvement]` counts, OS scheme.
    pub counts_os: [u64; 3],
    /// The same, MMLE scheme.
    pub counts_mmle: [u64; 3],
    /// Active out-of-control run `(side, length)`, OS scheme.
    pub run_os: Option<(ChartStatus, u32)>,
    /// The same, MMLE scheme.
    pub run_mmle: Option<(ChartStatus, u32)>,
    /// Newest plotted point.
    pub last: Option<ChartPoint>,
    /// Recent points, oldest first.
    pub tail: Vec<ChartPoint>,
}

/// The global alert log: a bounded ring plus the subscription cursor.
#[derive(Debug)]
struct AlertLog {
    /// Next sequence number to assign (sequences start at 1).
    next_seq: u64,
    ring: VecDeque<Alert>,
}

/// The monitoring subsystem: per-project charts, the alert ring, and
/// the long-poll wakeup. One instance lives in [`AppState`] when the
/// server was started with monitoring enabled.
#[derive(Debug)]
pub struct Monitor {
    config: MonitorConfig,
    charts: Mutex<BTreeMap<String, Arc<Mutex<ChartState>>>>,
    alerts: Mutex<AlertLog>,
    alert_ready: Condvar,
}

impl Monitor {
    /// A fresh monitor. `_storage` is not read (chart records go to each
    /// project's own log); callers may still pass the registry's backend.
    pub fn new(config: MonitorConfig, _storage: Option<Arc<dyn Storage>>) -> Monitor {
        Monitor {
            config,
            charts: Mutex::new(BTreeMap::new()),
            alerts: Mutex::new(AlertLog {
                next_seq: 1,
                ring: VecDeque::new(),
            }),
            alert_ready: Condvar::new(),
        }
    }

    /// The boot configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Rebuilds charts from the chart records of the registry's
    /// replayed project logs, in log order; replay has already cut any
    /// torn tail, and recovery writes nothing. Alert sequence numbering
    /// resumes after the highest recovered sequence.
    ///
    /// # Errors
    ///
    /// A log that cannot be read back; a chart record that does not
    /// decode is skipped, never fails the boot.
    pub fn recover(config: MonitorConfig, registry: &Registry) -> io::Result<Monitor> {
        let monitor = Monitor::new(config, None);
        let mut recovered_alerts: Vec<Alert> = Vec::new();
        for project in registry.all() {
            let id = project.id();
            let event_count = project.summary().event_count;
            let mut points: Vec<ChartPoint> = Vec::new();
            // A record beyond the recovered events is skipped: a corrupt
            // snapshot in front of a compacted log recovers fewer events
            // than the chart records it kept.
            for (tag, body) in project.chart_records().map_err(io::Error::other)? {
                if tag == POINT {
                    points.extend(decode_point(&body).ok().filter(|p| p.index <= event_count));
                } else {
                    let alert = decode_alert(&body, id).ok();
                    recovered_alerts.extend(alert.filter(|a| a.index <= event_count));
                }
            }
            if points.is_empty() {
                continue;
            }
            let chart = monitor.chart_for(id);
            let mut state = chart.lock().expect("chart state poisoned");
            for point in &points {
                state.counts_os[point.status_os.index()] += 1;
                state.counts_mmle[point.status_mmle.index()] += 1;
                // Rebuild the run trackers by re-observing; fires are
                // discarded — those alerts were published (and logged)
                // before the restart.
                state.run_os.observe(point.status_os, config.run_length);
                state.run_mmle.observe(point.status_mmle, config.run_length);
                state.scored_through = state.scored_through.max(point.index);
            }
            let tail_from = points.len().saturating_sub(config.tail);
            state.tail = points[tail_from..].iter().cloned().collect();
            state.last = points.last().cloned();
        }
        recovered_alerts.sort_by_key(|a| a.seq);
        let mut log = monitor.alerts.lock().expect("alert log poisoned");
        log.next_seq = recovered_alerts.last().map_or(1, |a| a.seq + 1);
        for alert in recovered_alerts {
            log.ring.push_back(alert);
            while log.ring.len() > config.alert_capacity {
                log.ring.pop_front();
            }
        }
        drop(log);
        Ok(monitor)
    }

    fn chart_for(&self, id: &str) -> Arc<Mutex<ChartState>> {
        let mut charts = self.charts.lock().expect("chart map poisoned");
        charts.entry(id.to_string()).or_default().clone()
    }

    /// A consistent copy of one project's chart (a fresh empty chart
    /// for a project never scored).
    pub fn snapshot(&self, id: &str) -> ChartSnapshot {
        let chart = self.chart_for(id);
        let state = chart.lock().expect("chart state poisoned");
        ChartSnapshot {
            scored_through: state.scored_through,
            counts_os: state.counts_os,
            counts_mmle: state.counts_mmle,
            run_os: state.run_os.current(),
            run_mmle: state.run_mmle.current(),
            last: state.last.clone(),
            tail: state.tail.iter().cloned().collect(),
        }
    }

    /// All charts that exist, as `(project id, snapshot)` in id order.
    pub fn charts(&self) -> Vec<(String, ChartSnapshot)> {
        let ids: Vec<String> = self
            .charts
            .lock()
            .expect("chart map poisoned")
            .keys()
            .cloned()
            .collect();
        ids.into_iter()
            .map(|id| {
                let snap = self.snapshot(&id);
                (id, snap)
            })
            .collect()
    }

    /// Total alerts ever published (sequences are dense from 1).
    pub fn total_alerts(&self) -> u64 {
        self.alerts.lock().expect("alert log poisoned").next_seq - 1
    }

    /// Alerts with `seq > since` still held by the ring, oldest first:
    /// `(alerts, next_since, dropped)` where `dropped` reports that the
    /// bounded ring has already discarded part of the requested range.
    pub fn alerts_since(&self, since: u64) -> (Vec<Alert>, u64, bool) {
        let log = self.alerts.lock().expect("alert log poisoned");
        collect_since(&log, since)
    }

    /// Long-poll variant of [`Monitor::alerts_since`]: blocks until an
    /// alert with `seq > since` exists or `timeout` passes. Returns
    /// `(alerts, next_since, dropped)`; an empty list means timeout.
    pub fn wait_alerts(&self, since: u64, timeout: Duration) -> (Vec<Alert>, u64, bool) {
        let deadline = Instant::now() + timeout;
        let mut log = self.alerts.lock().expect("alert log poisoned");
        loop {
            let (alerts, next, dropped) = collect_since(&log, since);
            if !alerts.is_empty() {
                return (alerts, next, dropped);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return (Vec::new(), since, dropped);
            }
            log = self
                .alert_ready
                .wait_timeout(log, remaining)
                .expect("alert log poisoned")
                .0;
        }
    }

    /// Scores every not-yet-charted gap of `project` against `cached`,
    /// logging the new points under the chart lock. Returns the
    /// change-point alerts the new points fired (run thresholds of
    /// active schemes), not yet sequenced or published.
    fn score(
        &self,
        project: &Project,
        cached: &CachedFit,
        spec: ModelSpec,
        metrics: &Metrics,
    ) -> Vec<PendingAlert> {
        let chart = self.chart_for(project.id());
        let mut state = chart.lock().expect("chart state poisoned");
        // The suffix starts one event *before* the first unscored one:
        // that event's time is the left edge of the first new gap.
        let from = (state.scored_through as usize).saturating_sub(1);
        let Some((total, suffix)) = project.times_from(from) else {
            return Vec::new();
        };
        if total <= state.scored_through || suffix.len() < 2 {
            state.scored_through = state.scored_through.max(total);
            return Vec::new();
        }
        let posterior = &cached.fit.posterior;
        let lane_width = cached.fit.report.lane_width as u64;
        let run_length = self.config.run_length;
        let mut pending = Vec::new();
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut scored = 0u64;
        let mut out_of_control = 0u64;
        for (j, pair) in suffix.windows(2).enumerate() {
            let (t_prev, t) = (pair[0], pair[1]);
            let index = (from + j + 2) as u64;
            if index <= state.scored_through {
                continue;
            }
            let tau = t - t_prev;
            let p_os = ordered_statistic(posterior, t_prev, tau);
            let p_mmle = mmle_statistic(spec, posterior, t_prev, tau);
            let point = ChartPoint {
                index,
                fit_version: cached.version,
                lane_width,
                t_prev,
                t,
                p_os,
                p_mmle,
                status_os: classify(p_os),
                status_mmle: classify(p_mmle),
            };
            state.counts_os[point.status_os.index()] += 1;
            state.counts_mmle[point.status_mmle.index()] += 1;
            if point.status_os != ChartStatus::InControl
                || point.status_mmle != ChartStatus::InControl
            {
                out_of_control += 1;
            }
            // Both runs are tracked regardless of the scheme selection
            // (recovery re-observes both), but only active schemes fire.
            let fired_os = state.run_os.observe(point.status_os, run_length);
            let fired_mmle = state.run_mmle.observe(point.status_mmle, run_length);
            for (scheme, fired, p) in [
                (ChartScheme::OrderedStatistics, fired_os, p_os),
                (ChartScheme::Mmle, fired_mmle, p_mmle),
            ] {
                if let Some(side) = fired {
                    if self.config.schemes.active(scheme) {
                        pending.push(PendingAlert {
                            scheme,
                            side,
                            run: run_length.max(1),
                            index,
                            t,
                            p,
                            fit_version: cached.version,
                        });
                    }
                }
            }
            records.push(encode_point(&point));
            state.tail.push_back(point.clone());
            while state.tail.len() > self.config.tail {
                state.tail.pop_front();
            }
            state.last = Some(point);
            state.scored_through = index;
            scored += 1;
        }
        metrics.monitor_points.fetch_add(scored, Ordering::Relaxed);
        metrics
            .monitor_out_of_control
            .fetch_add(out_of_control, Ordering::Relaxed);
        state.scored_through = total;
        // One append per scoring pass, under the chart lock, so the log
        // holds the points in scoring order.
        persist(project, POINT, &records, metrics);
        pending
    }

    /// Sequences and publishes alerts, waking long-polls. Returns their
    /// chart records, for the caller to append to the project log.
    fn publish(
        &self,
        project_id: &str,
        pending: Vec<PendingAlert>,
        refit_version: Option<u64>,
        metrics: &Metrics,
    ) -> Vec<Vec<u8>> {
        let mut records = Vec::with_capacity(pending.len());
        {
            let mut log = self.alerts.lock().expect("alert log poisoned");
            for p in pending {
                let alert = Alert {
                    seq: log.next_seq,
                    project: project_id.to_string(),
                    scheme: p.scheme,
                    side: p.side,
                    run: p.run,
                    index: p.index,
                    t: p.t,
                    p: p.p,
                    fit_version: p.fit_version,
                    refit_version,
                };
                log.next_seq += 1;
                records.push(encode_alert(&alert));
                log.ring.push_back(alert);
                while log.ring.len() > self.config.alert_capacity {
                    log.ring.pop_front();
                }
            }
        }
        self.alert_ready.notify_all();
        metrics
            .monitor_alerts
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        records
    }
}

/// Appends chart records to the project log. A failure is counted, and
/// the chart keeps them in memory only.
fn persist(project: &Project, tag: u8, records: &[Vec<u8>], metrics: &Metrics) {
    if project.append_chart(tag, records).is_err() {
        metrics
            .monitor_persist_errors
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn collect_since(log: &AlertLog, since: u64) -> (Vec<Alert>, u64, bool) {
    let dropped = match log.ring.front() {
        Some(front) => front.seq > since + 1 && since + 1 < log.next_seq,
        None => log.next_seq > since + 1,
    };
    let alerts: Vec<Alert> = log.ring.iter().filter(|a| a.seq > since).cloned().collect();
    let next = alerts.last().map_or(since, |a| a.seq);
    (alerts, next, dropped)
}

// ---------------------------------------------------------------------
// The event-path hooks used by the routes.
// ---------------------------------------------------------------------

/// Scores a project's chart after an accepted ingest, firing any
/// change-point alerts and triggering the refit they call for. Returns
/// the number of alerts published. No-op when monitoring is disabled or
/// the project is grouped; ingests arriving before the first fit are
/// counted as deferred (the next fit-bearing query scores them).
pub fn observe_ingest(state: &AppState, project: &Arc<Project>) -> u64 {
    let Some(monitor) = &state.monitor else {
        return 0;
    };
    if project.times_len().is_none() {
        return 0;
    }
    let Some(cached) = cached_fit(project) else {
        state
            .metrics
            .monitor_deferred
            .fetch_add(1, Ordering::Relaxed);
        return 0;
    };
    score_and_alert(state, monitor, project, &cached)
}

/// The chart route's catch-up: like [`observe_ingest`] but a project
/// that has never been fitted is fitted now (through the coalescing
/// scheduler — repeated status queries at one data version still cost
/// zero extra fits).
///
/// # Errors
///
/// [`FitServeError`] when that first fit is needed and fails.
pub fn catch_up(state: &AppState, project: &Arc<Project>) -> Result<u64, FitServeError> {
    let Some(monitor) = &state.monitor else {
        return Ok(0);
    };
    // Fewer than two failures chart nothing; don't force a fit that
    // could not plot a point anyway.
    if project.times_len().is_none_or(|total| total < 2) {
        return Ok(0);
    }
    let cached = match cached_fit(project) {
        Some(cached) => cached,
        None => {
            let cached = ensure_fit(project, &state.fit, &state.metrics)?;
            state.cache.touch(project, &state.metrics);
            cached
        }
    };
    Ok(score_and_alert(state, monitor, project, &cached))
}

fn score_and_alert(
    state: &AppState,
    monitor: &Monitor,
    project: &Arc<Project>,
    cached: &CachedFit,
) -> u64 {
    let spec = project.config().spec;
    let pending = monitor.score(project, cached, spec, &state.metrics);
    if pending.is_empty() {
        return 0;
    }
    // A regime shift means the fitted process no longer describes the
    // stream: re-anchor the chart by refitting at the current data
    // version. Coalesces with any in-flight fit; a cache hit (the
    // posterior is already current) costs nothing and counts nothing.
    let refit_version = match ensure_fit(project, &state.fit, &state.metrics) {
        Ok(refit) => {
            state.cache.touch(project, &state.metrics);
            if refit.version != cached.version {
                state.metrics.monitor_refits.fetch_add(1, Ordering::Relaxed);
            }
            Some(refit.version)
        }
        Err(_) => None,
    };
    let records = monitor.publish(project.id(), pending, refit_version, &state.metrics);
    persist(project, ALERT, &records, &state.metrics);
    records.len() as u64
}

// ---------------------------------------------------------------------
// Chart record codecs (point, alert). Text bodies, space-separated;
// floats use `f64` `Display` (shortest round-trip, so a decoded record
// is bit-identical to the state that wrote it, NaN included).
// ---------------------------------------------------------------------

fn encode_point(p: &ChartPoint) -> Vec<u8> {
    format!(
        "{} {} {} {} {} {} {} {} {}",
        p.index,
        p.fit_version,
        p.lane_width,
        p.t_prev,
        p.t,
        p.p_os,
        p.p_mmle,
        p.status_os.as_str(),
        p.status_mmle.as_str(),
    )
    .into_bytes()
}

/// Parses one space-separated field of a chart record body.
fn field<T: std::str::FromStr>(token: Option<&str>) -> Result<T, String> {
    let token = token.ok_or("short chart record")?;
    token.parse().map_err(|_| format!("bad field '{token}'"))
}

fn decode_point(body: &[u8]) -> Result<ChartPoint, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 point record")?;
    let mut f = text.split(' ');
    Ok(ChartPoint {
        index: field(f.next())?,
        fit_version: field(f.next())?,
        lane_width: field(f.next())?,
        t_prev: field(f.next())?,
        t: field(f.next())?,
        p_os: field(f.next())?,
        p_mmle: field(f.next())?,
        status_os: ChartStatus::parse(f.next().unwrap_or_default())?,
        status_mmle: ChartStatus::parse(f.next().unwrap_or_default())?,
    })
}

fn encode_alert(a: &Alert) -> Vec<u8> {
    format!(
        "{} {} {} {} {} {} {} {} {}",
        a.seq,
        a.scheme.as_str(),
        a.side.as_str(),
        a.run,
        a.index,
        a.t,
        a.p,
        a.fit_version,
        match a.refit_version {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        },
    )
    .into_bytes()
}

fn decode_alert(body: &[u8], project: &str) -> Result<Alert, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 alert record")?;
    let mut f = text.split(' ');
    Ok(Alert {
        seq: field(f.next())?,
        project: project.to_string(),
        scheme: ChartScheme::parse(f.next().unwrap_or_default())?,
        side: ChartStatus::parse(f.next().unwrap_or_default())?,
        run: field(f.next())?,
        index: field(f.next())?,
        t: field(f.next())?,
        p: field(f.next())?,
        fit_version: field(f.next())?,
        refit_version: match f.next() {
            Some("-") => None,
            token => Some(field(token)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: u64, p_os: f64) -> ChartPoint {
        ChartPoint {
            index,
            fit_version: 3,
            lane_width: 8,
            t_prev: 10.0,
            t: 11.5,
            p_os,
            p_mmle: 0.25,
            status_os: classify(p_os),
            status_mmle: ChartStatus::InControl,
        }
    }

    #[test]
    fn point_record_round_trips_bitwise_including_nan() {
        for p_os in [0.001, 0.5, f64::NAN, 1.0 / 3.0, 1e-300] {
            let original = point(7, p_os);
            let decoded = decode_point(&encode_point(&original)).unwrap();
            assert_eq!(decoded.index, original.index);
            assert_eq!(decoded.p_os.to_bits(), original.p_os.to_bits());
            assert_eq!(decoded.t_prev.to_bits(), original.t_prev.to_bits());
            assert_eq!(decoded.status_os, original.status_os);
        }
        assert!(decode_point(b"1 2 3").is_err(), "short record");
        assert!(decode_point(b"x 2 3 4 5 6 7 in-control in-control").is_err());
    }

    #[test]
    fn alert_record_round_trips_with_and_without_refit_version() {
        for refit_version in [Some(9), None] {
            let original = Alert {
                seq: 4,
                project: "p".to_string(),
                scheme: ChartScheme::Mmle,
                side: ChartStatus::Deterioration,
                run: 3,
                index: 12,
                t: 99.5,
                p: 0.0001,
                fit_version: 8,
                refit_version,
            };
            let decoded = decode_alert(&encode_alert(&original), "p").unwrap();
            assert_eq!(decoded, original);
        }
    }

    #[test]
    fn scheme_selection_gates_alerting() {
        assert!(SchemeSelect::Both.active(ChartScheme::OrderedStatistics));
        assert!(SchemeSelect::Both.active(ChartScheme::Mmle));
        assert!(SchemeSelect::Os.active(ChartScheme::OrderedStatistics));
        assert!(!SchemeSelect::Os.active(ChartScheme::Mmle));
        assert!(!SchemeSelect::Mmle.active(ChartScheme::OrderedStatistics));
        assert_eq!(SchemeSelect::parse("both"), Ok(SchemeSelect::Both));
        assert!(SchemeSelect::parse("fast").is_err());
    }

    #[test]
    fn alert_ring_is_bounded_and_reports_dropped_ranges() {
        let monitor = Monitor::new(
            MonitorConfig {
                alert_capacity: 2,
                ..MonitorConfig::default()
            },
            None,
        );
        let metrics = Metrics::new();
        let pending = |i: u64| PendingAlert {
            scheme: ChartScheme::OrderedStatistics,
            side: ChartStatus::Deterioration,
            run: 3,
            index: i,
            t: i as f64,
            p: 0.0001,
            fit_version: 1,
        };
        monitor.publish(
            "p",
            vec![pending(3), pending(4), pending(5)],
            Some(2),
            &metrics,
        );
        assert_eq!(monitor.total_alerts(), 3);
        // Capacity 2: seq 1 was dropped.
        let (alerts, next, dropped) = monitor.alerts_since(0);
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].seq, 2);
        assert_eq!(next, 3);
        assert!(dropped);
        // A cursor inside the retained range sees no gap.
        let (alerts, next, dropped) = monitor.alerts_since(2);
        assert_eq!(alerts.len(), 1);
        assert_eq!(next, 3);
        assert!(!dropped);
        // Fully caught up.
        let (alerts, next, dropped) = monitor.alerts_since(3);
        assert!(alerts.is_empty());
        assert_eq!(next, 3);
        assert!(!dropped);
    }

    #[test]
    fn wait_alerts_times_out_and_wakes_on_publish() {
        let monitor = Arc::new(Monitor::new(MonitorConfig::default(), None));
        let metrics = Metrics::new();
        // Timeout path.
        let started = Instant::now();
        let (alerts, next, _) = monitor.wait_alerts(0, Duration::from_millis(30));
        assert!(alerts.is_empty());
        assert_eq!(next, 0);
        assert!(started.elapsed() >= Duration::from_millis(25));
        // Wake path: a publish from another thread unblocks the wait.
        let waiter = {
            let monitor = Arc::clone(&monitor);
            std::thread::spawn(move || monitor.wait_alerts(0, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        monitor.publish(
            "p",
            vec![PendingAlert {
                scheme: ChartScheme::OrderedStatistics,
                side: ChartStatus::Improvement,
                run: 3,
                index: 5,
                t: 5.0,
                p: 0.9999,
                fit_version: 1,
            }],
            None,
            &metrics,
        );
        let (alerts, next, dropped) = waiter.join().unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].side, ChartStatus::Improvement);
        assert_eq!(alerts[0].refit_version, None);
        assert_eq!(next, 1);
        assert!(!dropped);
    }
}
