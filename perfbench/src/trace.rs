//! The outside-in layer trace.
//!
//! The traced replay re-enacts each route through the public calls the
//! route handler makes — `http::read_request`, `Registry::get`,
//! `Project::ingest`, `monitor::observe_ingest`, `scheduler::ensure_fit`
//! or `cached_fit`, the posterior's query methods and
//! `Response::write_to` — and times each call. Storage calls are timed
//! by a wrapper around the public [`Storage`] trait, into a per-thread
//! log, so the storage part of an ingest or a chart update can be taken
//! out of the caller's self time.
//!
//! Two costs sit inside calls the replay cannot split from outside, and
//! are estimated by *probes*: a `Project::snapshot` call just before a
//! refit (the fit's input copy), and a `reliability_point` call per new
//! chart gap (the ordered-statistics score). Probe time is excluded
//! from the traced operation's total and subtracted from the enclosing
//! call's self time.

use crate::drive::{fixed_part, Answer, Exec};
use crate::service::{serve_wire, split_response};
use crate::workload::{check, Route, Step};
use nhpp_models::spc::{SPC_CL, SPC_LCL, SPC_UCL};
use nhpp_models::Posterior;
use nhpp_serve::http::{read_request, Request};
use nhpp_serve::monitor::observe_ingest;
use nhpp_serve::registry::Project;
use nhpp_serve::scheduler::{cached_fit, ensure_fit, CachedFit};
use nhpp_serve::{AppState, FsStorage, Response, Storage};
use nhpp_vb::calibration::{dictionary_key, prior_informativeness};
use nhpp_vb::{Calibration, RobustPosterior};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Storage timing.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    LogAppend,
    MonAppend,
    Replace,
    Other,
}

impl IoKind {
    fn metric(self) -> &'static str {
        match self {
            IoKind::LogAppend => "storage.log_append_ms",
            IoKind::MonAppend => "storage.mon_append_ms",
            IoKind::Replace => "storage.replace_ms",
            IoKind::Other => "storage.other_ms",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct IoCall {
    pub kind: IoKind,
    pub start: Instant,
    pub end: Instant,
    pub bytes: usize,
}

thread_local! {
    static IO_LOG: RefCell<Vec<IoCall>> = const { RefCell::new(Vec::new()) };
}

fn io_mark() -> usize {
    IO_LOG.with(|log| log.borrow().len())
}

fn io_since(mark: usize) -> Vec<IoCall> {
    IO_LOG.with(|log| log.borrow()[mark..].to_vec())
}

fn io_clear() {
    IO_LOG.with(|log| log.borrow_mut().clear());
}

/// [`FsStorage`] with every call timed into the calling thread's log.
#[derive(Debug)]
pub struct TimedStorage {
    inner: FsStorage,
}

impl TimedStorage {
    pub fn open(dir: &std::path::Path) -> io::Result<TimedStorage> {
        Ok(TimedStorage {
            inner: FsStorage::open(dir)?,
        })
    }

    fn timed<T>(kind: IoKind, bytes: usize, call: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        IO_LOG.with(|log| {
            log.borrow_mut().push(IoCall {
                kind,
                start,
                end,
                bytes,
            })
        });
        result
    }
}

impl Storage for TimedStorage {
    fn list(&self) -> io::Result<Vec<String>> {
        TimedStorage::timed(IoKind::Other, 0, || self.inner.list())
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        TimedStorage::timed(IoKind::Other, 0, || self.inner.read(name))
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let kind = if name.ends_with(".log") {
            IoKind::LogAppend
        } else if name.ends_with(".mon") {
            IoKind::MonAppend
        } else {
            IoKind::Other
        };
        TimedStorage::timed(kind, data.len(), || self.inner.append(name, data))
    }

    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        TimedStorage::timed(IoKind::Replace, data.len(), || {
            self.inner.replace(name, data)
        })
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        TimedStorage::timed(IoKind::Other, 0, || self.inner.truncate(name, len))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        TimedStorage::timed(IoKind::Other, 0, || self.inner.remove(name))
    }
}

// ---------------------------------------------------------------------
// Per-operation spans.
// ---------------------------------------------------------------------

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The self times of one step, by layer, plus per-call samples.
#[derive(Debug, Default)]
struct StepTrace {
    self_ms: BTreeMap<&'static str, f64>,
    samples: Vec<(&'static str, f64)>,
    probe: Duration,
    glue_ms: f64,
}

impl StepTrace {
    fn add(&mut self, key: &'static str, value_ms: f64, sample: bool) {
        *self.self_ms.entry(key).or_insert(0.0) += value_ms;
        if sample {
            self.samples.push((key, value_ms));
        }
    }

    /// Times one call into a layer.
    fn call<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(key, ms(started.elapsed()), true);
        out
    }

    /// Times the re-enactment's route glue: dispatch, parameter checks,
    /// JSON.
    fn glue<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.glue_ms += ms(started.elapsed());
        out
    }

    /// Runs a probe: its time is excluded from the operation's total.
    fn probe<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.probe += started.elapsed();
        out
    }

    /// Books storage calls; returns their total time.
    fn add_io(&mut self, calls: &[IoCall]) -> f64 {
        let mut total = 0.0;
        for call in calls {
            let d = ms(call.end - call.start);
            self.add(call.kind.metric(), d, true);
            total += d;
        }
        total
    }
}

/// What one traced operation cost, summed over its steps.
#[derive(Debug, Default, Clone)]
pub struct OpTrace {
    /// Wall time of the operation's calls, probes excluded.
    pub total_ms: f64,
    /// Self time by layer.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Each call into a layer, in order: `(metric, milliseconds)`.
    pub calls: Vec<(&'static str, f64)>,
}

/// The re-enactment's own route glue: dispatch, parameter checks and
/// JSON in this file, not in `routes.rs`. It counts in the traced total,
/// but `routes.self_ms` is taken from the real handler instead.
pub const GLUE: &str = "routes.glue_ms";

impl OpTrace {
    /// Self time in every layer, the re-enactment's glue included.
    pub fn self_sum(&self) -> f64 {
        self.self_ms.values().sum()
    }

    /// Self time in the layers the route handler calls into: parse,
    /// render, registry, storage, monitor, scheduler and posterior.
    pub fn layer_sum(&self) -> f64 {
        self.self_sum() - self.self_ms.get(GLUE).copied().unwrap_or(0.0)
    }
}

/// Counts gathered at layer boundaries during the traced replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub ingests: u64,
    pub events_added: u64,
    pub storage_appends: u64,
    pub bytes_appended: u64,
    pub history_events: Vec<f64>,
    pub hits: u64,
    pub refits: u64,
    pub warm_refits: u64,
    pub attempts: u64,
    pub fallbacks: u64,
    pub inner_iterations: u64,
    pub n_max: u64,
    pub lane_widths: BTreeMap<usize, u64>,
    pub components: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct Collected {
    /// By `(stream, operation)`.
    pub ops: BTreeMap<(usize, usize), OpTrace>,
    pub counts: Counts,
}

// ---------------------------------------------------------------------
// The traced replay.
// ---------------------------------------------------------------------

struct Traced<'a> {
    state: &'a AppState,
    collected: Mutex<Collected>,
}

impl<'a> Traced<'a> {
    fn new(state: &'a AppState) -> Traced<'a> {
        Traced {
            state,
            collected: Mutex::new(Collected::default()),
        }
    }

    fn counts(&self) -> std::sync::MutexGuard<'_, Collected> {
        self.collected.lock().expect("trace collector poisoned")
    }
}

impl Exec for Traced<'_> {
    fn call(&self, stream: usize, op: usize, step: &Step) -> Answer {
        io_clear();
        let mut t = StepTrace::default();
        let wire = step.req.wire();
        let started = Instant::now();
        let req = t
            .call("http.parse_ms", || read_request(&mut wire.as_slice()))
            .map_err(|e| format!("parse: {e}"))?;
        let response = match step.route {
            Route::Append => self.append(&mut t, &req),
            Route::Interval => self.interval(&mut t, &req),
            Route::Spc => self.spc(&mut t, &req),
            Route::FitSummary => self.fit_summary(&mut t, &req),
            Route::ProjectSummary => self.project_summary(&mut t, &req),
            Route::Reliability => self.reliability(&mut t, &req),
            Route::Predict => self.predict(&mut t, &req),
            Route::Band => self.band(&mut t, &req),
        };
        let mut out = Vec::new();
        t.call("http.render_ms", || response.write_to(&mut out))
            .map_err(|e| e.to_string())?;
        let total = ms(started.elapsed().saturating_sub(t.probe));
        let glue = t.glue_ms;
        t.add(GLUE, glue, false);

        let mut collected = self.counts();
        let entry = collected.ops.entry((stream, op)).or_default();
        entry.total_ms += total;
        entry.calls.extend(t.samples);
        for (key, value) in t.self_ms {
            *entry.self_ms.entry(key).or_insert(0.0) += value;
        }
        drop(collected);
        split_response(&out)
    }
}

fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

fn error(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\": {}}}", jstr(message)))
}

fn param_f64(req: &Request, key: &str, default: f64) -> Result<f64, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| error(400, &format!("bad numeric parameter {key}='{raw}'"))),
    }
}

fn level_of(req: &Request) -> Result<f64, Response> {
    let level = param_f64(req, "level", 0.99)?;
    if 0.0 < level && level < 1.0 {
        Ok(level)
    } else {
        Err(error(400, "level must be in (0, 1)"))
    }
}

fn id_of(req: &Request) -> String {
    req.segments()
        .get(1)
        .map_or_else(String::new, |s| s.to_string())
}

impl Traced<'_> {
    fn lookup(&self, t: &mut StepTrace, id: &str) -> Result<Arc<Project>, Response> {
        t.call("registry.lookup_ms", || self.state.registry.get(id))
            .ok_or_else(|| error(404, &format!("unknown project '{id}'")))
    }

    /// `ensure_fit` plus the LRU touch, split into a cache hit or a
    /// refit; a refit's input snapshot is estimated by a probe.
    fn fit(&self, t: &mut StepTrace, project: &Arc<Project>) -> Result<Arc<CachedFit>, Response> {
        let state = self.state;
        let before = t.probe(|| cached_fit(project));
        let version = t.probe(|| project.version());
        let stale = before.as_ref().map(|c| c.version) != Some(version);
        let snapshot_ms = if stale {
            let started = Instant::now();
            black_box(project.snapshot().ok());
            let d = started.elapsed();
            t.probe += d;
            ms(d)
        } else {
            0.0
        };
        let started = Instant::now();
        let result = ensure_fit(project, &state.fit, &state.metrics);
        if result.is_ok() {
            state.cache.touch(project, &state.metrics);
        }
        let d = ms(started.elapsed());
        let cached = result.map_err(|e| t.glue(|| error(503, &format!("fit failed: {e:?}"))))?;
        let refit = before.as_ref().is_none_or(|b| !Arc::ptr_eq(b, &cached));
        if refit && d > snapshot_ms {
            t.add("registry.snapshot_ms", snapshot_ms, true);
            t.add("scheduler.refit_ms", d - snapshot_ms, true);
            self.record_fit(&cached);
        } else {
            t.add("scheduler.hit_ms", d, true);
            self.counts().counts.hits += 1;
        }
        if let RobustPosterior::Vb2(p) = &cached.fit.posterior {
            self.counts()
                .counts
                .components
                .push(p.mixture().len() as f64);
        }
        Ok(cached)
    }

    fn record_fit(&self, cached: &CachedFit) {
        let report = &cached.fit.report;
        let mut collected = self.counts();
        let c = &mut collected.counts;
        c.refits += 1;
        c.warm_refits += u64::from(cached.warm_started);
        c.attempts += report.total_attempts() as u64;
        c.fallbacks += u64::from(report.fallback_tier().is_some());
        *c.lane_widths.entry(report.lane_width).or_insert(0) += 1;
        if let RobustPosterior::Vb2(p) = &cached.fit.posterior {
            c.inner_iterations += p.inner_iterations() as u64;
            c.n_max += p.n_max();
        }
    }

    /// The calibration the route would apply: `Ok(None)` when not asked.
    fn calibration(
        &self,
        project: &Project,
        method: &str,
        req: &Request,
    ) -> Result<Option<(Calibration, String)>, Response> {
        match req.param("calibrated") {
            None | Some("false") | Some("0") => return Ok(None),
            Some("true") | Some("1") => {}
            Some(other) => {
                return Err(error(
                    400,
                    &format!("bad boolean parameter calibrated='{other}'"),
                ))
            }
        }
        let dict = self
            .state
            .calibration
            .as_ref()
            .ok_or_else(|| error(400, "calibration requested but no dictionary is loaded"))?;
        let config = project.config();
        let data = if config.kind.as_str() == "times" {
            "dt"
        } else {
            "dg"
        };
        let key = dictionary_key(
            &config.model_label,
            data,
            prior_informativeness(&config.prior),
            method,
        );
        let entry = dict
            .entries
            .get(&key)
            .ok_or_else(|| error(400, &format!("no calibration entry for regime '{key}'")))?;
        self.state
            .metrics
            .calibrated_queries
            .fetch_add(1, Ordering::Relaxed);
        Ok(Some((Calibration::new(entry.factor), key)))
    }

    fn calibration_json(&self, applied: Option<&(Calibration, String)>) -> String {
        match (applied, &self.state.calibration) {
            (Some((cal, key)), Some(dict)) => format!(
                "{{\"key\": {}, \"factor\": {}, \"dictionary\": {}, \"seed\": {}, \
                 \"replications\": {}, \"level\": {}}}",
                jstr(key),
                jnum(cal.factor),
                jstr(&dict.label),
                dict.seed,
                dict.replications,
                jnum(dict.level),
            ),
            _ => "null".to_string(),
        }
    }

    fn append(&self, t: &mut StepTrace, req: &Request) -> Response {
        let state = self.state;
        let id = t.glue(|| id_of(req));
        let project = match self.lookup(t, &id) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let Ok(text) = t.glue(|| std::str::from_utf8(&req.body)) else {
            return error(400, "body must be UTF-8 CSV");
        };
        let events = t.probe(|| project.summary().event_count);
        let mark = io_mark();
        let started = Instant::now();
        let result = project.ingest(text);
        let d = ms(started.elapsed());
        let io = io_since(mark);
        let io_ms = t.add_io(&io);
        t.add("registry.stage_ms", d - io_ms, true);
        {
            let mut collected = self.counts();
            let c = &mut collected.counts;
            c.ingests += 1;
            c.history_events.push(events as f64);
            for call in io
                .iter()
                .filter(|c| c.kind != IoKind::Replace && c.kind != IoKind::Other)
            {
                c.storage_appends += 1;
                c.bytes_appended += call.bytes as u64;
            }
        }
        let added = match result {
            Ok(added) => added,
            Err(e) => return t.glue(|| error(400, &e.to_string())),
        };
        self.counts().counts.events_added += added;
        t.glue(|| {
            state
                .metrics
                .events_ingested
                .fetch_add(added, Ordering::Relaxed)
        });
        let monitor_field = if state.monitor.is_some() {
            let alerts = self.observe(t, &project, added);
            t.glue(|| format!(", \"alerts\": {alerts}"))
        } else {
            String::new()
        };
        t.glue(|| {
            Response::json(
                200,
                format!(
                    "{{\"ingested\": {added}, \"version\": {}{monitor_field}}}",
                    project.version()
                ),
            )
        })
    }

    /// `observe_ingest`, split into storage, the alert-triggered refit,
    /// the ordered-statistics math (probed) and the monitor's own work.
    fn observe(&self, t: &mut StepTrace, project: &Arc<Project>, added: u64) -> u64 {
        let before = t.probe(|| cached_fit(project));
        let mark = io_mark();
        let started = Instant::now();
        let alerts = observe_ingest(self.state, project);
        let d = ms(started.elapsed());
        let io = io_since(mark);
        let io_ms = t.add_io(&io);
        {
            let mut collected = self.counts();
            for call in io.iter().filter(|c| c.kind == IoKind::MonAppend) {
                collected.counts.storage_appends += 1;
                collected.counts.bytes_appended += call.bytes as u64;
            }
        }
        // Probe: the ordered-statistics score of each new gap against
        // the posterior the monitor scored with.
        let mut math_ms = 0.0;
        if let Some(cached) = &before {
            let gaps = t.probe(|| {
                let total = project
                    .times_from(usize::MAX)
                    .map_or(0, |(n, _)| n as usize);
                let from = total.saturating_sub(added as usize + 1);
                project
                    .times_from(from)
                    .map(|(_, times)| times)
                    .unwrap_or_default()
            });
            for pair in gaps.windows(2) {
                let started = Instant::now();
                black_box(
                    cached
                        .fit
                        .posterior
                        .reliability_point(pair[0], pair[1] - pair[0]),
                );
                let d = started.elapsed();
                t.probe += d;
                math_ms += ms(d);
                t.samples.push(("posterior.reliability_point_ms", ms(d)));
            }
            if let RobustPosterior::Vb2(p) = &cached.fit.posterior {
                self.counts()
                    .counts
                    .components
                    .push(p.mixture().len() as f64);
            }
        }
        let after = t.probe(|| cached_fit(project));
        let mut refit_ms = 0.0;
        if let (Some(b), Some(a)) = (&before, &after) {
            if !Arc::ptr_eq(b, a) {
                // The refit runs between the chart-point journal append
                // and the alert journal append.
                let mons: Vec<&IoCall> =
                    io.iter().filter(|c| c.kind == IoKind::MonAppend).collect();
                if let (Some(first), Some(last)) = (mons.first(), mons.last()) {
                    if mons.len() >= 2 && last.start > first.end {
                        refit_ms = ms(last.start - first.end);
                    }
                }
                t.add("scheduler.refit_ms", refit_ms, true);
                self.record_fit(a);
            }
        }
        t.add("posterior.reliability_point_ms", math_ms, false);
        t.add("monitor.score_ms", d - io_ms - refit_ms - math_ms, true);
        alerts
    }

    fn interval(&self, t: &mut StepTrace, req: &Request) -> Response {
        let parsed = t.glue(|| {
            let level = level_of(req)?;
            let param = req.param("param").unwrap_or("omega").to_string();
            Ok::<_, Response>((level, param, id_of(req)))
        });
        let (level, param, id) = match parsed {
            Ok(v) => v,
            Err(r) => return r,
        };
        let project = match self.lookup(t, &id) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let cached = match self.fit(t, &project) {
            Ok(c) => c,
            Err(r) => return r,
        };
        let posterior = &cached.fit.posterior;
        let applied = match t.glue(|| self.calibration(&project, posterior.method_name(), req)) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let answer = t.call("posterior.interval_ms", || {
            let (raw, median) = match param.as_str() {
                "omega" => (
                    posterior.credible_interval_omega(level),
                    posterior.quantile_omega(0.5),
                ),
                "beta" => (
                    posterior.credible_interval_beta(level),
                    posterior.quantile_beta(0.5),
                ),
                _ => return None,
            };
            Some(match &applied {
                Some((cal, _)) => cal.interval(median, raw, 0.0),
                None => raw,
            })
        });
        let Some((lo, hi)) = answer else {
            return error(400, &format!("unknown param '{param}' (omega|beta)"));
        };
        t.glue(|| {
            Response::json(
                200,
                format!(
                    "{{\"param\": {}, \"level\": {}, \"lo\": {}, \"hi\": {}, \"calibrated\": {}, \
                     \"calibration\": {}, \"data_version\": {}}}",
                    jstr(&param),
                    jnum(level),
                    jnum(lo),
                    jnum(hi),
                    applied.is_some(),
                    self.calibration_json(applied.as_ref()),
                    cached.version,
                ),
            )
        })
    }

    fn spc(&self, t: &mut StepTrace, req: &Request) -> Response {
        let state = self.state;
        let id = t.glue(|| id_of(req));
        let project = match self.lookup(t, &id) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let Some((t_prev, t_last)) = t.call("registry.lookup_ms", || project.newest_gap()) else {
            return error(
                409,
                "SPC needs a times project with at least two recorded failures",
            );
        };
        let hit = t.call("scheduler.hit_ms", || {
            let cached = cached_fit(&project)?;
            state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            state.cache.touch(&project, &state.metrics);
            Some(cached)
        });
        let cached = match hit {
            Some(c) => {
                self.counts().counts.hits += 1;
                c
            }
            None => match self.fit(t, &project) {
                Ok(c) => c,
                Err(r) => return r,
            },
        };
        let posterior = &cached.fit.posterior;
        let applied = match t.glue(|| self.calibration(&project, posterior.method_name(), req)) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let tau = t_last - t_prev;
        let raw = t.call("posterior.reliability_point_ms", || {
            1.0 - posterior.reliability_point(t_prev, tau)
        });
        t.glue(|| {
            let p = match &applied {
                Some((cal, _)) => cal.spc_statistic(raw, SPC_CL),
                None => raw,
            };
            let status = if p < SPC_LCL {
                "deterioration-alarm"
            } else if p > SPC_UCL {
                "improvement"
            } else {
                "in-control"
            };
            Response::json(
                200,
                format!(
                    "{{\"t_prev\": {}, \"t_last\": {}, \"gap\": {}, \"p\": {}, \"lcl\": {}, \
                     \"cl\": {}, \"ucl\": {}, \"status\": {}, \"calibrated\": {}, \
                     \"calibration\": {}, \"data_version\": {}}}",
                    jnum(t_prev),
                    jnum(t_last),
                    jnum(tau),
                    jnum(p),
                    jnum(SPC_LCL),
                    jnum(SPC_CL),
                    jnum(SPC_UCL),
                    jstr(status),
                    applied.is_some(),
                    self.calibration_json(applied.as_ref()),
                    cached.version,
                ),
            )
        })
    }

    fn fit_summary(&self, t: &mut StepTrace, req: &Request) -> Response {
        let id = t.glue(|| id_of(req));
        let project = match self.lookup(t, &id) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let cached = match self.fit(t, &project) {
            Ok(c) => c,
            Err(r) => return r,
        };
        t.glue(|| {
            let report = &cached.fit.report;
            let posterior = &cached.fit.posterior;
            let warnings: Vec<String> = report.warnings.iter().map(|w| jstr(w)).collect();
            let tier = report
                .fallback_tier()
                .map_or_else(|| "null".to_string(), jstr);
            let mean_n = posterior.mean_n().map_or_else(|| "null".to_string(), jnum);
            Response::json(
                200,
                format!(
                    "{{\"data_version\": {}, \"method\": {}, \"provenance\": {}, \"attempts\": {}, \
                     \"warm_started\": {}, \"budget_exhausted\": {}, \"fallback_tier\": {}, \
                     \"warnings\": [{}], \"mean_omega\": {}, \"sd_omega\": {}, \"mean_beta\": {}, \
                     \"sd_beta\": {}, \"covariance\": {}, \"mean_n\": {}}}",
                    cached.version,
                    jstr(posterior.method_name()),
                    jstr(report.provenance),
                    report.total_attempts(),
                    cached.warm_started,
                    report.budget_exhausted(),
                    tier,
                    warnings.join(", "),
                    jnum(posterior.mean_omega()),
                    jnum(posterior.var_omega().sqrt()),
                    jnum(posterior.mean_beta()),
                    jnum(posterior.var_beta().sqrt()),
                    jnum(posterior.covariance()),
                    mean_n,
                ),
            )
        })
    }

    fn project_summary(&self, t: &mut StepTrace, req: &Request) -> Response {
        let id = t.glue(|| id_of(req));
        let project = match self.lookup(t, &id) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let summary = t.call("registry.lookup_ms", || project.summary());
        let fitted = t.call("scheduler.hit_ms", || {
            cached_fit(&project).map(|c| c.version)
        });
        t.glue(|| {
            Response::json(
                200,
                format!(
                    "{{\"id\": {}, \"kind\": {}, \"model\": {}, \"prior\": {}, \"version\": {}, \
                     \"event_count\": {}, \"observation_end\": {}, \"fitted_version\": {}}}",
                    jstr(&summary.id),
                    jstr(summary.kind),
                    jstr(&summary.model),
                    jstr(&summary.prior),
                    summary.version,
                    summary.event_count,
                    jnum(summary.observation_end),
                    fitted.map_or_else(|| "null".to_string(), |v| v.to_string()),
                ),
            )
        })
    }

    /// Level, window and project for the windowed functionals.
    fn windowed(
        &self,
        t: &mut StepTrace,
        req: &Request,
    ) -> Result<(f64, f64, Arc<Project>), Response> {
        let (level, window, id) = t.glue(|| {
            let level = level_of(req)?;
            let window = param_f64(req, "window", 0.0)?;
            if window.is_nan() || window <= 0.0 {
                return Err(error(400, "window must be positive"));
            }
            Ok((level, window, id_of(req)))
        })?;
        Ok((level, window, self.lookup(t, &id)?))
    }

    fn reliability(&self, t: &mut StepTrace, req: &Request) -> Response {
        let (level, window, project) = match self.windowed(t, req) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let cached = match self.fit(t, &project) {
            Ok(c) => c,
            Err(r) => return r,
        };
        let at = t.call("registry.lookup_ms", || project.summary().observation_end);
        let posterior = &cached.fit.posterior;
        let point = t.call("posterior.reliability_point_ms", || {
            posterior.reliability_point(at, window)
        });
        let (lo, hi) = t.call("posterior.reliability_interval_ms", || {
            posterior.reliability_interval(at, window, level)
        });
        t.glue(|| {
            Response::json(
                200,
                format!(
                    "{{\"t\": {}, \"window\": {}, \"point\": {}, \"level\": {}, \"lo\": {}, \
                     \"hi\": {}, \"data_version\": {}}}",
                    jnum(at),
                    jnum(window),
                    jnum(point),
                    jnum(level),
                    jnum(lo),
                    jnum(hi),
                    cached.version,
                ),
            )
        })
    }

    fn predict(&self, t: &mut StepTrace, req: &Request) -> Response {
        let (level, window, project) = match self.windowed(t, req) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let cached = match self.fit(t, &project) {
            Ok(c) => c,
            Err(r) => return r,
        };
        let at = t.call("registry.lookup_ms", || project.summary().observation_end);
        let answer = t.call("posterior.predict_ms", || {
            cached
                .fit
                .posterior
                .predictive_failures(at, window)
                .map(|counts| {
                    (
                        counts.interval(level),
                        counts.mean(),
                        counts.variance(),
                        counts.prob_zero(),
                    )
                })
        });
        let (interval, mean, variance, prob_zero) = match answer {
            Ok(v) => v,
            Err(e) => return error(500, &e.to_string()),
        };
        t.glue(|| {
            let interval =
                interval.map_or_else(|| "null".to_string(), |(lo, hi)| format!("[{lo}, {hi}]"));
            Response::json(
                200,
                format!(
                    "{{\"t\": {}, \"window\": {}, \"mean\": {}, \"variance\": {}, \
                     \"prob_zero\": {}, \"level\": {}, \"interval\": {}, \"data_version\": {}}}",
                    jnum(at),
                    jnum(window),
                    jnum(mean),
                    jnum(variance),
                    jnum(prob_zero),
                    jnum(level),
                    interval,
                    cached.version,
                ),
            )
        })
    }

    fn band(&self, t: &mut StepTrace, req: &Request) -> Response {
        let parsed = t.glue(|| {
            let level = level_of(req)?;
            let points = param_f64(req, "points", 20.0)?;
            if !(2.0..=512.0).contains(&points) {
                return Err(error(400, "points must be in [2, 512]"));
            }
            Ok((level, points as usize, id_of(req)))
        });
        let (level, n, id) = match parsed {
            Ok(v) => v,
            Err(r) => return r,
        };
        let project = match self.lookup(t, &id) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let cached = match self.fit(t, &project) {
            Ok(c) => c,
            Err(r) => return r,
        };
        let posterior = &cached.fit.posterior;
        let applied = match t.glue(|| self.calibration(&project, posterior.method_name(), req)) {
            Ok(a) => a,
            Err(r) => return r,
        };
        let t_end = t.call("registry.lookup_ms", || project.summary().observation_end);
        let grid: Vec<f64> = t.glue(|| (1..=n).map(|i| t_end * i as f64 / n as f64).collect());
        let band = t.call("posterior.band_ms", || {
            posterior.mean_value_band(&grid, level).map(|r| {
                r.map(|mut band| {
                    if let Some((cal, _)) = &applied {
                        cal.apply_band(&mut band);
                    }
                    band
                })
            })
        });
        let band = match band {
            Some(Ok(band)) => band,
            Some(Err(e)) => return error(500, &e.to_string()),
            None => return error(409, "posterior has no mixture to integrate a band over"),
        };
        t.glue(|| {
            let rows: Vec<String> = band
                .iter()
                .map(|p| {
                    format!(
                        "{{\"t\": {}, \"lower\": {}, \"mean\": {}, \"upper\": {}}}",
                        jnum(p.t),
                        jnum(p.lower),
                        jnum(p.mean),
                        jnum(p.upper)
                    )
                })
                .collect();
            Response::json(
                200,
                format!(
                    "{{\"level\": {}, \"band\": [{}], \"calibrated\": {}, \
                     \"calibration\": {}, \"data_version\": {}}}",
                    jnum(level),
                    rows.join(", "),
                    applied.is_some(),
                    self.calibration_json(applied.as_ref()),
                    cached.version
                ),
            )
        })
    }
}

/// The untraced in-process replay: the real `routes::handle` between
/// the same parse and render, timed as a whole per operation from the
/// same wire bytes the traced replay parses.
struct Untraced<'a> {
    state: &'a AppState,
    handler_ms: Mutex<BTreeMap<(usize, usize), f64>>,
}

impl<'a> Untraced<'a> {
    fn new(state: &'a AppState) -> Untraced<'a> {
        Untraced {
            state,
            handler_ms: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Untraced<'_> {
    fn call(&self, stream: usize, op: usize, step: &Step) -> Answer {
        let wire = step.req.wire();
        let started = Instant::now();
        let rendered = serve_wire(self.state, &wire);
        let d = ms(started.elapsed());
        *self
            .handler_ms
            .lock()
            .expect("replay timings poisoned")
            .entry((stream, op))
            .or_insert(0.0) += d;
        split_response(&rendered?)
    }
}

/// The two in-process replays, paired: each operation runs through the
/// real `routes::handle` on one state and through the traced calls on
/// another, back to back, in alternating order, so the host's drift over
/// the window falls on both alike and their difference is the trace's.
/// The traced answer is the one checked; the handler's must pass the
/// same checks and agree with it on every timing-independent answer.
pub struct Paired<'a> {
    untraced: Untraced<'a>,
    traced: Traced<'a>,
}

impl<'a> Paired<'a> {
    pub fn new(plain: &'a AppState, traced: &'a AppState) -> Paired<'a> {
        Paired {
            untraced: Untraced::new(plain),
            traced: Traced::new(traced),
        }
    }

    /// The handler time of each operation and what the trace collected.
    pub fn into_parts(self) -> (BTreeMap<(usize, usize), f64>, Collected) {
        (
            self.untraced
                .handler_ms
                .into_inner()
                .expect("replay timings poisoned"),
            self.traced
                .collected
                .into_inner()
                .expect("trace collector poisoned"),
        )
    }
}

impl Exec for Paired<'_> {
    fn call(&self, stream: usize, op: usize, step: &Step) -> Answer {
        let (plain, traced) = if (stream + op).is_multiple_of(2) {
            let plain = self.untraced.call(stream, op, step);
            (plain, self.traced.call(stream, op, step))
        } else {
            let traced = self.traced.call(stream, op, step);
            (self.untraced.call(stream, op, step), traced)
        };
        let (status, body) = plain.map_err(|e| format!("routes::handle: {e}"))?;
        check(&step.expect, status, &body).map_err(|e| format!("routes::handle: {e}"))?;
        let traced = traced?;
        if fixed_part(step.route, &body) != fixed_part(step.route, &traced.1) {
            return Err(format!(
                "traced answer {} differs from routes::handle's {body}",
                traced.1
            ));
        }
        Ok(traced)
    }
}
