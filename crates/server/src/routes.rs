//! The HTTP endpoint surface, as a pure function from request to
//! response — no sockets here, so every route is unit-testable without
//! binding a port.
//!
//! | Route | Purpose |
//! |---|---|
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /projects` | list projects |
//! | `PUT /projects/{id}?kind=&model=&prior=` | create a project |
//! | `GET /projects/{id}` | project summary |
//! | `POST /projects/{id}/events` | ingest a CSV batch |
//! | `GET /projects/{id}/fit` | posterior summary (refits if stale) |
//! | `GET /projects/{id}/interval?param=&level=` | credible interval |
//! | `GET /projects/{id}/band?points=&level=` | `Λ(t)` credible band |
//! | `GET /projects/{id}/predict?window=&level=` | residual failures |
//! | `GET /projects/{id}/reliability?window=&level=` | reliability |
//! | `GET /projects/{id}/spc` | control-limit check on newest gap |
//! | `GET /projects/{id}/monitor` | control-chart state (catch-up scores) |
//! | `GET /monitor/status` | all charts + alert totals |
//! | `GET /monitor/alerts?since=` | one-shot alert fetch |
//! | `GET /monitor/wait?since=&timeout_ms=` | long-poll alert subscription |
//!
//! Fit failures answer `503` with a structured body carrying the
//! cascade's [`nhpp_vb::FitReport`] essentials — the failure kind,
//! whether a solve budget was exhausted, and the fallback tier reached
//! — so operators see *why* without grepping server logs.

use crate::http::{Request, Response};
use crate::monitor::{Alert, ChartPoint, ChartSnapshot, Monitor};
use crate::registry::{CreateOutcome, Project, ProjectConfig, RegistryError};
use crate::scheduler::{cached_fit, ensure_fit, CachedFit, FitServeError};
use crate::server::AppState;
use nhpp_data::json::{json_number, json_string};
use nhpp_models::spc::ChartStatus;
use nhpp_models::Posterior;
use nhpp_vb::calibration::{dictionary_key, prior_informativeness};
use nhpp_vb::{Calibration, FailureKind, FitFailure};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

// The control limits moved to `nhpp_models::spc` when the streaming
// monitor joined the one-shot route; re-exported so existing callers
// keep their import path.
pub use nhpp_models::spc::{SPC_CL, SPC_LCL, SPC_UCL};

/// Long-poll ceiling for `/monitor/wait`: safely inside the server's
/// 30 s connection read timeout and the client's 60 s response timeout.
const MAX_WAIT_MS: f64 = 25_000.0;

/// Formats a number as JSON; non-finite values become `null` (JSON has
/// no NaN, and a query must not produce an unparsable body).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        json_number(x)
    } else {
        "null".to_string()
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\": {}}}", json_string(message)))
}

fn registry_error(err: &RegistryError) -> Response {
    let status = match err {
        RegistryError::Invalid(_) | RegistryError::Data(_) => 400,
        RegistryError::Conflict(_) => 409,
        RegistryError::Io(_) | RegistryError::ReadOnly(_) => 500,
    };
    error_response(status, &err.to_string())
}

/// The `503` body for a failed cascade: the satellite fix that surfaces
/// budget exhaustion and the fallback tier in the HTTP response instead
/// of only in the CLI report. Budget/deadline exhaustion is a load
/// signal, so those responses also carry `Retry-After`.
fn fit_failure_response(failure: &FitFailure, retry_after_secs: u32) -> Response {
    let kind = failure
        .report
        .attempts
        .iter()
        .rev()
        .find_map(|a| a.kind)
        .unwrap_or(FailureKind::Other);
    let tier = match failure.report.fallback_tier() {
        Some(t) => json_string(t),
        None => "null".to_string(),
    };
    let response = Response::json(
        503,
        format!(
            "{{\"error\": {}, \"kind\": {}, \"budget_exhausted\": {}, \
             \"fallback_tier\": {}, \"attempts\": {}}}",
            json_string(&failure.error.to_string()),
            json_string(kind.as_str()),
            failure.report.budget_exhausted(),
            tier,
            failure.report.total_attempts(),
        ),
    );
    if failure.report.budget_exhausted() {
        response.with_retry_after(retry_after_secs)
    } else {
        response
    }
}

fn fit_serve_error(state: &AppState, err: &FitServeError) -> Response {
    match err {
        FitServeError::Registry(e) => registry_error(e),
        FitServeError::Fit(failure) => fit_failure_response(failure, state.retry_after_secs),
        FitServeError::DeadlineExceeded => Response::json(
            503,
            "{\"error\": \"fit deadline exceeded\", \"kind\": \"deadline\"}".to_string(),
        )
        .with_retry_after(state.retry_after_secs),
    }
}

fn parse_f64(req: &Request, key: &str, default: f64) -> Result<f64, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| error_response(400, &format!("bad numeric parameter {key}='{raw}'"))),
    }
}

fn parse_u64(req: &Request, key: &str, default: u64) -> Result<u64, Response> {
    match req.param(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| error_response(400, &format!("bad integer parameter {key}='{raw}'"))),
    }
}

// One function per query parameter, each parsing and checking it in
// full, so a handler reads every parameter before it looks anything up
// or fits anything: a malformed query never costs a fit.

/// `level`: the credible level, in `(0, 1)`; default 0.99.
fn level(req: &Request) -> Result<f64, Response> {
    let level = parse_f64(req, "level", 0.99)?;
    if 0.0 < level && level < 1.0 {
        Ok(level)
    } else {
        Err(error_response(400, "level must be in (0, 1)"))
    }
}

/// `window`: the mission or prediction length past the observation
/// end; required, finite and positive.
fn window(req: &Request) -> Result<f64, Response> {
    let window = parse_f64(req, "window", 0.0)?;
    if window > 0.0 && window.is_finite() {
        Ok(window)
    } else {
        Err(error_response(400, "window must be finite and positive"))
    }
}

/// `points`: the band's grid size, an integer in `[2, 512]`; default 20.
fn points(req: &Request) -> Result<usize, Response> {
    let points = parse_u64(req, "points", 20)?;
    if (2..=512).contains(&points) {
        Ok(points as usize)
    } else {
        Err(error_response(400, "points must be in [2, 512]"))
    }
}

/// `param`: the marginal an interval is for, `omega` (default) or `beta`.
fn param(req: &Request) -> Result<&'static str, Response> {
    match req.param("param") {
        None | Some("omega") => Ok("omega"),
        Some("beta") => Ok("beta"),
        Some(other) => Err(error_response(
            400,
            &format!("unknown param '{other}' (omega|beta)"),
        )),
    }
}

/// `calibrated`: whether the answer is to be calibrated; default false.
fn calibrated(req: &Request) -> Result<bool, Response> {
    match req.param("calibrated") {
        None | Some("false") | Some("0") => Ok(false),
        Some("true") | Some("1") => Ok(true),
        Some(other) => Err(error_response(
            400,
            &format!("bad boolean parameter calibrated='{other}'"),
        )),
    }
}

/// A calibration resolved for one query: the transform plus the
/// provenance echoed back in the response body.
struct AppliedCalibration {
    cal: Calibration,
    key: String,
}

/// Resolves a [`calibrated`] request against the dictionary loaded at
/// boot. `Ok(None)` means the query did not ask for calibration; a
/// request that asks but cannot be honoured — no dictionary loaded, or
/// no entry for the project's regime × the serving method — is a `400`
/// with a body saying exactly which, never a silently-raw answer.
fn resolve_calibration(
    state: &AppState,
    project: &Project,
    method: &str,
    wanted: bool,
) -> Result<Option<AppliedCalibration>, Response> {
    if !wanted {
        return Ok(None);
    }
    let Some(dict) = &state.calibration else {
        state
            .metrics
            .calibration_rejected
            .fetch_add(1, Ordering::Relaxed);
        return Err(error_response(
            400,
            "calibration requested but no dictionary is loaded \
             (start the server with --calibration <file>)",
        ));
    };
    let config = project.config();
    let data = match config.kind.as_str() {
        "times" => "dt",
        _ => "dg",
    };
    let key = dictionary_key(
        &config.model_label,
        data,
        prior_informativeness(&config.prior),
        method,
    );
    match dict.entries.get(&key) {
        Some(entry) => {
            state
                .metrics
                .calibrated_queries
                .fetch_add(1, Ordering::Relaxed);
            Ok(Some(AppliedCalibration {
                cal: Calibration::new(entry.factor),
                key,
            }))
        }
        None => {
            state
                .metrics
                .calibration_rejected
                .fetch_add(1, Ordering::Relaxed);
            Err(error_response(
                400,
                &format!(
                    "no calibration entry for regime '{key}' in dictionary '{}'",
                    dict.label
                ),
            ))
        }
    }
}

/// The provenance object echoed by calibrated responses: which entry
/// was applied and where the dictionary came from, so a served interval
/// is traceable back to the learning sweep that justified it.
fn calibration_json(state: &AppState, applied: Option<&AppliedCalibration>) -> String {
    match (applied, &state.calibration) {
        (Some(applied), Some(dict)) => format!(
            "{{\"key\": {}, \"factor\": {}, \"dictionary\": {}, \"seed\": {}, \
             \"replications\": {}, \"level\": {}}}",
            json_string(&applied.key),
            jnum(applied.cal.factor),
            json_string(&dict.label),
            dict.seed,
            dict.replications,
            jnum(dict.level),
        ),
        _ => "null".to_string(),
    }
}

/// Dispatches one request against the shared state.
pub fn handle(state: &AppState, req: &Request) -> Response {
    let segments = req.segments();
    let routed = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(Response::json(200, "{\"status\": \"ok\"}".to_string())),
        ("GET", ["metrics"]) => Ok(metrics(state)),
        ("GET", ["projects"]) => Ok(list_projects(state)),
        ("PUT", ["projects", id]) => create_project(state, req, id),
        ("GET", ["projects", id]) => project_summary(state, id),
        ("POST", ["projects", id, "events"]) => ingest_events(state, req, id),
        ("GET", ["projects", id, "fit"]) => fit_summary(state, id),
        ("GET", ["projects", id, "interval"]) => interval(state, req, id),
        ("GET", ["projects", id, "band"]) => band(state, req, id),
        ("GET", ["projects", id, "predict"]) => predict(state, req, id),
        ("GET", ["projects", id, "reliability"]) => reliability(state, req, id),
        ("GET", ["projects", id, "spc"]) => spc(state, req, id),
        ("GET", ["projects", id, "monitor"]) => project_monitor(state, id),
        ("GET", ["monitor", "status"]) => monitor_status(state),
        ("GET", ["monitor", "alerts"]) => monitor_alerts(state, req),
        ("GET", ["monitor", "wait"]) => monitor_wait(state, req),
        ("GET" | "PUT" | "POST", _) => Err(error_response(404, "no such route")),
        _ => Err(error_response(405, "method not allowed")),
    };
    routed.unwrap_or_else(|error| error)
}

fn metrics(state: &AppState) -> Response {
    let mut text = state.metrics.render_with(Some(state.registry.stats()));
    // Dictionary provenance rides along as gauges, so a scrape shows not
    // just *that* calibration is on but *which* table.
    let _ = writeln!(
        text,
        "# HELP nhpp_serve_calibration_loaded Whether a calibration dictionary is loaded."
    );
    let _ = writeln!(text, "# TYPE nhpp_serve_calibration_loaded gauge");
    match &state.calibration {
        Some(dict) => {
            let _ = writeln!(text, "nhpp_serve_calibration_loaded 1");
            let _ = writeln!(
                text,
                "# HELP nhpp_serve_calibration_entries Entries in the loaded dictionary."
            );
            let _ = writeln!(text, "# TYPE nhpp_serve_calibration_entries gauge");
            let _ = writeln!(
                text,
                "nhpp_serve_calibration_entries{{dictionary=\"{}\",seed=\"{:#x}\"}} {}",
                dict.label,
                dict.seed,
                dict.entries.len()
            );
        }
        None => {
            let _ = writeln!(text, "nhpp_serve_calibration_loaded 0");
        }
    }
    Response::text(200, text)
}

fn summary_json(summary: &crate::registry::ProjectSummary, fitted_version: Option<u64>) -> String {
    format!(
        "{{\"id\": {}, \"kind\": {}, \"model\": {}, \"prior\": {}, \"version\": {}, \
         \"event_count\": {}, \"observation_end\": {}, \"fitted_version\": {}}}",
        json_string(&summary.id),
        json_string(summary.kind),
        json_string(&summary.model),
        json_string(&summary.prior),
        summary.version,
        summary.event_count,
        jnum(summary.observation_end),
        match fitted_version {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        },
    )
}

fn list_projects(state: &AppState) -> Response {
    let entries: Vec<String> = state
        .registry
        .all()
        .iter()
        .map(|p| summary_json(&p.summary(), cached_fit(p).map(|c| c.version)))
        .collect();
    Response::json(200, format!("{{\"projects\": [{}]}}", entries.join(", ")))
}

fn create_project(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let kind = req.param("kind").unwrap_or("times");
    let model = req
        .param("model")
        .ok_or_else(|| error_response(400, "missing 'model' parameter"))?;
    let prior = req
        .param("prior")
        .ok_or_else(|| error_response(400, "missing 'prior' parameter"))?;
    let config = ProjectConfig::from_labels(kind, model, prior)
        .map_err(|message| error_response(400, &message))?;
    let existed = match state.registry.create(id, config) {
        Ok(CreateOutcome::Created) => false,
        Ok(CreateOutcome::AlreadyExists) => true,
        Err(err) => return Err(registry_error(&err)),
    };
    Ok(Response::json(
        if existed { 200 } else { 201 },
        format!(
            "{{\"created\": {}, \"existed\": {existed}}}",
            json_string(id)
        ),
    ))
}

fn project(state: &AppState, id: &str) -> Result<Arc<Project>, Response> {
    state
        .registry
        .get(id)
        .ok_or_else(|| error_response(404, &format!("unknown project '{id}'")))
}

fn project_summary(state: &AppState, id: &str) -> Result<Response, Response> {
    let project = project(state, id)?;
    Ok(Response::json(
        200,
        summary_json(&project.summary(), cached_fit(&project).map(|c| c.version)),
    ))
}

fn ingest_events(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let project = project(state, id)?;
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| error_response(400, "body must be UTF-8 CSV"))?;
    let added = project.ingest(text).map_err(|err| registry_error(&err))?;
    state
        .metrics
        .events_ingested
        .fetch_add(added, Ordering::Relaxed);
    // The monitoring hook on the event path: score the new gaps against
    // the cached posterior and surface any change-point alerts they
    // fired right in the ingest response.
    let monitor_field = if state.monitor.is_some() {
        let alerts = crate::monitor::observe_ingest(state, &project);
        format!(", \"alerts\": {alerts}")
    } else {
        String::new()
    };
    Ok(Response::json(
        200,
        format!(
            "{{\"ingested\": {added}, \"version\": {}{monitor_field}}}",
            project.version()
        ),
    ))
}

/// Runs (or joins, or cache-hits) the fit for the current data version.
fn current_fit(state: &AppState, id: &str) -> Result<(Arc<CachedFit>, Arc<Project>), Response> {
    let project = project(state, id)?;
    let cached =
        ensure_fit(&project, &state.fit, &state.metrics).map_err(|e| fit_serve_error(state, &e))?;
    // Register the access with the LRU bound; this may evict the
    // coldest cached posterior elsewhere.
    state.cache.touch(&project, &state.metrics);
    Ok((cached, project))
}

/// The status-check fit source: the cached posterior when one exists —
/// stale by design, since control limits for the newest events must
/// come from the fit computed *before* them — falling back to one
/// coalesced fit only for a never-fitted project. Repeated status
/// queries therefore cost zero refits regardless of ingest churn.
fn cached_or_fit(state: &AppState, project: &Arc<Project>) -> Result<Arc<CachedFit>, Response> {
    let cached = match cached_fit(project) {
        Some(cached) => {
            state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            cached
        }
        None => ensure_fit(project, &state.fit, &state.metrics)
            .map_err(|e| fit_serve_error(state, &e))?,
    };
    state.cache.touch(project, &state.metrics);
    Ok(cached)
}

fn fit_summary(state: &AppState, id: &str) -> Result<Response, Response> {
    let (cached, _) = current_fit(state, id)?;
    let report = &cached.fit.report;
    let posterior = &cached.fit.posterior;
    let warnings: Vec<String> = report.warnings.iter().map(|w| json_string(w)).collect();
    let tier = match report.fallback_tier() {
        Some(t) => json_string(t),
        None => "null".to_string(),
    };
    let mean_n = match posterior.mean_n() {
        Some(v) => jnum(v),
        None => "null".to_string(),
    };
    Ok(Response::json(
        200,
        format!(
            "{{\"data_version\": {}, \"method\": {}, \"provenance\": {}, \"attempts\": {}, \
             \"warm_started\": {}, \"budget_exhausted\": {}, \"fallback_tier\": {}, \
             \"warnings\": [{}], \"mean_omega\": {}, \"sd_omega\": {}, \"mean_beta\": {}, \
             \"sd_beta\": {}, \"covariance\": {}, \"mean_n\": {}}}",
            cached.version,
            json_string(posterior.method_name()),
            json_string(report.provenance),
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
    ))
}

fn interval(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let (level, param, calibrated) = (level(req)?, param(req)?, calibrated(req)?);
    let (cached, project) = current_fit(state, id)?;
    let posterior = &cached.fit.posterior;
    let applied = resolve_calibration(state, &project, posterior.method_name(), calibrated)?;
    let (raw, median): (_, fn(&dyn Posterior) -> f64) = if param == "omega" {
        (posterior.credible_interval_omega(level), |p| {
            p.quantile_omega(0.5)
        })
    } else {
        (posterior.credible_interval_beta(level), |p| {
            p.quantile_beta(0.5)
        })
    };
    // Only a calibration reads the median.
    let (lo, hi) = match &applied {
        Some(a) => a.cal.interval(median(posterior), raw, 0.0),
        None => raw,
    };
    Ok(Response::json(
        200,
        format!(
            "{{\"param\": {}, \"level\": {}, \"lo\": {}, \"hi\": {}, \"calibrated\": {}, \
             \"calibration\": {}, \"data_version\": {}}}",
            json_string(param),
            jnum(level),
            jnum(lo),
            jnum(hi),
            applied.is_some(),
            calibration_json(state, applied.as_ref()),
            cached.version,
        ),
    ))
}

fn band(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let (level, n, calibrated) = (level(req)?, points(req)?, calibrated(req)?);
    let (cached, project) = current_fit(state, id)?;
    let applied = resolve_calibration(
        state,
        &project,
        cached.fit.posterior.method_name(),
        calibrated,
    )?;
    let t_end = cached.observation_end;
    let grid: Vec<f64> = (1..=n).map(|i| t_end * i as f64 / n as f64).collect();
    let mut band = match cached.fit.posterior.mean_value_band(&grid, level) {
        Some(Ok(band)) => band,
        Some(Err(err)) => return Err(error_response(500, &err.to_string())),
        None => {
            return Err(error_response(
                409,
                &format!(
                    "the posterior was produced by the '{}' fallback tier, which has no \
                     mixture representation to integrate a band over",
                    cached.fit.report.provenance
                ),
            ))
        }
    };
    if let Some(a) = &applied {
        a.cal.apply_band(&mut band);
    }
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
    Ok(Response::json(
        200,
        format!(
            "{{\"level\": {}, \"band\": [{}], \"calibrated\": {}, \
             \"calibration\": {}, \"data_version\": {}}}",
            jnum(level),
            rows.join(", "),
            applied.is_some(),
            calibration_json(state, applied.as_ref()),
            cached.version
        ),
    ))
}

fn predict(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let (level, window) = (level(req)?, window(req)?);
    let (cached, _) = current_fit(state, id)?;
    let t = cached.observation_end;
    let counts = cached
        .fit
        .posterior
        .predictive_failures(t, window)
        .map_err(|err| error_response(500, &err.to_string()))?;
    let interval = match counts.interval(level) {
        Some((lo, hi)) => format!("[{lo}, {hi}]"),
        None => "null".to_string(),
    };
    Ok(Response::json(
        200,
        format!(
            "{{\"t\": {}, \"window\": {}, \"mean\": {}, \"variance\": {}, \
             \"prob_zero\": {}, \"level\": {}, \"interval\": {}, \"data_version\": {}}}",
            jnum(t),
            jnum(window),
            jnum(counts.mean()),
            jnum(counts.variance()),
            jnum(counts.prob_zero()),
            jnum(level),
            interval,
            cached.version,
        ),
    ))
}

fn reliability(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let (level, window) = (level(req)?, window(req)?);
    let (cached, _) = current_fit(state, id)?;
    let t = cached.observation_end;
    let point = cached.fit.posterior.reliability_point(t, window);
    let (lo, hi) = cached.fit.posterior.reliability_interval(t, window, level);
    Ok(Response::json(
        200,
        format!(
            "{{\"t\": {}, \"window\": {}, \"point\": {}, \"level\": {}, \"lo\": {}, \
             \"hi\": {}, \"data_version\": {}}}",
            jnum(t),
            jnum(window),
            jnum(point),
            jnum(level),
            jnum(lo),
            jnum(hi),
            cached.version,
        ),
    ))
}

/// SPC control-limit check on the newest inter-failure time (ordered
/// statistics chart of Rao et al.): the plotted statistic is
/// `p = P(T ≤ τ | D) = 1 − E[R(t_{m−1} + τ | t_{m−1})]` — the posterior
/// probability of seeing the newest gap `τ` or shorter. `p` below the
/// LCL means failures are arriving much faster than the fitted process
/// predicts (reliability deterioration); above the UCL, much slower
/// (significant improvement). Sourced from the version-keyed fit cache
/// via [`cached_or_fit`]: status checks never trigger refits of their
/// own once a posterior exists.
fn spc(state: &AppState, req: &Request, id: &str) -> Result<Response, Response> {
    let calibrated = calibrated(req)?;
    let project = project(state, id)?;
    let (t_prev, t_last) = project.newest_gap().ok_or_else(|| {
        error_response(
            409,
            "SPC needs a times project with at least two recorded failures",
        )
    })?;
    let cached = cached_or_fit(state, &project)?;
    let applied = resolve_calibration(
        state,
        &project,
        cached.fit.posterior.method_name(),
        calibrated,
    )?;
    let tau = t_last - t_prev;
    // An under-dispersed posterior reports the observed gap as more
    // extreme than a calibrated one would; the spread factor maps onto
    // the chart as a contraction of the statistic towards the centre
    // line, so calibrated control limits alarm at the rate the regime's
    // measured coverage supports.
    let raw = 1.0 - cached.fit.posterior.reliability_point(t_prev, tau);
    let p = match &applied {
        Some(a) => a.cal.spc_statistic(raw, SPC_CL),
        None => raw,
    };
    let status = if p < SPC_LCL {
        "deterioration-alarm"
    } else if p > SPC_UCL {
        "improvement"
    } else {
        "in-control"
    };
    Ok(Response::json(
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
            json_string(status),
            applied.is_some(),
            calibration_json(state, applied.as_ref()),
            cached.version,
        ),
    ))
}

// ---------------------------------------------------------------------
// Streaming-monitor routes.
// ---------------------------------------------------------------------

fn point_json(p: &ChartPoint) -> String {
    format!(
        "{{\"index\": {}, \"fit_version\": {}, \"lane_width\": {}, \"t_prev\": {}, \
         \"t\": {}, \"p_os\": {}, \"p_mmle\": {}, \"status_os\": {}, \"status_mmle\": {}}}",
        p.index,
        p.fit_version,
        p.lane_width,
        jnum(p.t_prev),
        jnum(p.t),
        jnum(p.p_os),
        jnum(p.p_mmle),
        json_string(p.status_os.as_str()),
        json_string(p.status_mmle.as_str()),
    )
}

fn alert_json(a: &Alert) -> String {
    format!(
        "{{\"seq\": {}, \"project\": {}, \"scheme\": {}, \"side\": {}, \"run\": {}, \
         \"index\": {}, \"t\": {}, \"p\": {}, \"fit_version\": {}, \"refit_version\": {}}}",
        a.seq,
        json_string(&a.project),
        json_string(a.scheme.as_str()),
        json_string(a.side.as_str()),
        a.run,
        a.index,
        jnum(a.t),
        jnum(a.p),
        a.fit_version,
        match a.refit_version {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        },
    )
}

fn run_json(run: Option<(ChartStatus, u32)>) -> String {
    match run {
        Some((side, length)) => format!(
            "{{\"side\": {}, \"length\": {length}}}",
            json_string(side.as_str())
        ),
        None => "null".to_string(),
    }
}

fn snapshot_json(snap: &ChartSnapshot) -> String {
    let tail: Vec<String> = snap.tail.iter().map(point_json).collect();
    format!(
        "{{\"scored_through\": {}, \"counts_os\": [{}, {}, {}], \
         \"counts_mmle\": [{}, {}, {}], \"run_os\": {}, \"run_mmle\": {}, \
         \"last\": {}, \"tail\": [{}]}}",
        snap.scored_through,
        snap.counts_os[0],
        snap.counts_os[1],
        snap.counts_os[2],
        snap.counts_mmle[0],
        snap.counts_mmle[1],
        snap.counts_mmle[2],
        run_json(snap.run_os),
        run_json(snap.run_mmle),
        match &snap.last {
            Some(p) => point_json(p),
            None => "null".to_string(),
        },
        tail.join(", "),
    )
}

fn alerts_body(alerts: &[Alert], next_since: u64, dropped: bool) -> String {
    let rows: Vec<String> = alerts.iter().map(alert_json).collect();
    format!(
        "{{\"alerts\": [{}], \"next_since\": {next_since}, \"dropped\": {dropped}}}",
        rows.join(", ")
    )
}

fn monitor(state: &AppState) -> Result<&Monitor, Response> {
    state.monitor.as_deref().ok_or_else(|| {
        error_response(
            409,
            "monitoring is disabled (start the server with --monitor)",
        )
    })
}

/// One project's chart. Scores any events the ingest path could not
/// (no posterior yet, or alerts deferred) before snapshotting, so the
/// response always reflects every acknowledged event.
fn project_monitor(state: &AppState, id: &str) -> Result<Response, Response> {
    let monitor = monitor(state)?;
    let project = project(state, id)?;
    if project.times_len().is_none() {
        return Err(error_response(409, "monitoring requires a times project"));
    }
    let alerts =
        crate::monitor::catch_up(state, &project).map_err(|err| fit_serve_error(state, &err))?;
    let snap = monitor.snapshot(id);
    Ok(Response::json(
        200,
        format!(
            "{{\"project\": {}, \"scheme\": {}, \"run_length\": {}, \"lcl\": {}, \
             \"cl\": {}, \"ucl\": {}, \"alerts_fired\": {alerts}, \"chart\": {}}}",
            json_string(id),
            json_string(monitor.config().schemes.as_str()),
            monitor.config().run_length,
            jnum(SPC_LCL),
            jnum(SPC_CL),
            jnum(SPC_UCL),
            snapshot_json(&snap),
        ),
    ))
}

fn monitor_status(state: &AppState) -> Result<Response, Response> {
    let monitor = monitor(state)?;
    let charts: Vec<String> = monitor
        .charts()
        .iter()
        .map(|(id, snap)| {
            format!(
                "{{\"project\": {}, \"chart\": {}}}",
                json_string(id),
                snapshot_json(snap)
            )
        })
        .collect();
    Ok(Response::json(
        200,
        format!(
            "{{\"scheme\": {}, \"run_length\": {}, \"total_alerts\": {}, \"charts\": [{}]}}",
            json_string(monitor.config().schemes.as_str()),
            monitor.config().run_length,
            monitor.total_alerts(),
            charts.join(", "),
        ),
    ))
}

fn monitor_alerts(state: &AppState, req: &Request) -> Result<Response, Response> {
    let monitor = monitor(state)?;
    let since = parse_u64(req, "since", 0)?;
    let (alerts, next_since, dropped) = monitor.alerts_since(since);
    Ok(Response::json(
        200,
        alerts_body(&alerts, next_since, dropped),
    ))
}

/// Long-poll subscription: blocks (bounded by [`MAX_WAIT_MS`]) until an
/// alert newer than the `since` cursor exists. An empty `alerts` array
/// means the wait timed out; the client re-polls with the same cursor.
fn monitor_wait(state: &AppState, req: &Request) -> Result<Response, Response> {
    let monitor = monitor(state)?;
    let since = parse_u64(req, "since", 0)?;
    let timeout_ms = parse_f64(req, "timeout_ms", 15_000.0)?;
    if !(0.0..=MAX_WAIT_MS).contains(&timeout_ms) {
        return Err(error_response(
            400,
            &format!("timeout_ms must be in [0, {MAX_WAIT_MS}]"),
        ));
    }
    let (alerts, next_since, dropped) =
        monitor.wait_alerts(since, Duration::from_millis(timeout_ms as u64));
    let counter = if alerts.is_empty() {
        &state.metrics.monitor_wait_timeouts
    } else {
        &state.metrics.monitor_wait_delivered
    };
    counter.fetch_add(1, Ordering::Relaxed);
    Ok(Response::json(
        200,
        alerts_body(&alerts, next_since, dropped),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::scheduler::FitSettings;
    use nhpp_data::sys17;
    use std::collections::BTreeMap;

    fn state() -> AppState {
        AppState {
            registry: Registry::open(None).unwrap(),
            metrics: crate::Metrics::new(),
            fit: FitSettings::default(),
            cache: crate::scheduler::FitCache::new(0),
            retry_after_secs: 1,
            calibration: None,
            monitor: None,
            quiet: true,
        }
    }

    fn get(path: &str) -> Request {
        request("GET", path, "")
    }

    fn request(method: &str, path_and_query: &str, body: &str) -> Request {
        let (path, query_text) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_and_query, ""),
        };
        let mut query = BTreeMap::new();
        for pair in query_text.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.insert(k.to_string(), v.to_string());
        }
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            body: body.as_bytes().to_vec(),
        }
    }

    fn sys17_batch() -> String {
        let mut text = format!("# t_end={}\n", sys17::T_END);
        for t in sys17::FAILURE_TIMES {
            text.push_str(&format!("{t}\n"));
        }
        text
    }

    fn extract_num(body: &str, key: &str) -> f64 {
        let marker = format!("\"{key}\": ");
        let start = body.find(&marker).unwrap_or_else(|| {
            panic!("key {key} not in {body}");
        }) + marker.len();
        let rest = &body[start..];
        let end = rest.find([',', '}', ']']).unwrap();
        rest[..end].trim().parse().unwrap()
    }

    #[test]
    fn health_and_unknown_routes() {
        let state = state();
        assert_eq!(handle(&state, &get("/healthz")).status, 200);
        assert_eq!(handle(&state, &get("/nope")).status, 404);
        assert_eq!(
            handle(&state, &request("DELETE", "/projects/x", "")).status,
            405
        );
    }

    #[test]
    fn full_project_lifecycle_over_routes() {
        let state = state();
        let create = handle(
            &state,
            &request(
                "PUT",
                "/projects/sys17?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        assert_eq!(create.status, 201, "{}", create.body);
        // Idempotent re-create.
        assert_eq!(
            handle(
                &state,
                &request(
                    "PUT",
                    "/projects/sys17?kind=times&model=go&prior=paper-info-times",
                    "",
                ),
            )
            .status,
            200
        );

        let ingest = handle(
            &state,
            &request("POST", "/projects/sys17/events", &sys17_batch()),
        );
        assert_eq!(ingest.status, 200, "{}", ingest.body);
        assert!(ingest.body.contains("\"ingested\": 38"));

        let fit = handle(&state, &get("/projects/sys17/fit"));
        assert_eq!(fit.status, 200, "{}", fit.body);
        assert!(fit.body.contains("\"provenance\": \"vb2\""));
        assert!(fit.body.contains("\"warm_started\": false"));

        // The served interval equals the library's batch fit exactly
        // (same code path, same data).
        let direct = nhpp_vb::Vb2Posterior::fit(
            nhpp_models::ModelSpec::goel_okumoto(),
            nhpp_models::prior::NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            nhpp_vb::Vb2Options::default(),
        )
        .unwrap();
        let interval = handle(
            &state,
            &get("/projects/sys17/interval?param=omega&level=0.99"),
        );
        assert_eq!(interval.status, 200);
        let (lo, hi) = direct.credible_interval_omega(0.99);
        assert_eq!(extract_num(&interval.body, "lo"), lo);
        assert_eq!(extract_num(&interval.body, "hi"), hi);

        let rel = handle(
            &state,
            &get("/projects/sys17/reliability?window=1000&level=0.99"),
        );
        assert_eq!(rel.status, 200, "{}", rel.body);
        assert_eq!(
            extract_num(&rel.body, "point"),
            direct.reliability_point(sys17::T_END, 1000.0)
        );

        let predict = handle(&state, &get("/projects/sys17/predict?window=86400"));
        assert_eq!(predict.status, 200, "{}", predict.body);
        assert!(extract_num(&predict.body, "mean") > 0.0);

        let band = handle(&state, &get("/projects/sys17/band?points=5&level=0.9"));
        assert_eq!(band.status, 200, "{}", band.body);
        assert!(band.body.matches("\"t\":").count() == 5);

        let spc = handle(&state, &get("/projects/sys17/spc"));
        assert_eq!(spc.status, 200, "{}", spc.body);
        let p = extract_num(&spc.body, "p");
        assert!(p > 0.0 && p < 1.0, "p={p}");
        assert!(
            spc.body.contains("\"status\": \"in-control\""),
            "{}",
            spc.body
        );

        // All those queries ran exactly one fit.
        let fits = state
            .metrics
            .fits_total
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(fits, 1, "queries were served from the cached posterior");

        let metrics = handle(&state, &get("/metrics"));
        assert_eq!(metrics.status, 200);
        assert!(crate::metrics::scrape_counter(&metrics.body, "nhpp_serve_fits_total") == Some(1));
    }

    fn monitor_state(run_length: u32) -> AppState {
        let mut s = state();
        s.monitor = Some(std::sync::Arc::new(crate::monitor::Monitor::new(
            crate::monitor::MonitorConfig {
                run_length,
                ..crate::monitor::MonitorConfig::default()
            },
            None,
        )));
        s
    }

    #[test]
    fn spc_reads_cached_fit_without_refitting() {
        let state = state();
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        assert_eq!(handle(&state, &get("/projects/p/fit")).status, 200);
        let fits = |state: &AppState| {
            state
                .metrics
                .fits_total
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        assert_eq!(fits(&state), 1);
        // New events bump the data version; the fit is now stale.
        let t_end = sys17::T_END;
        let batch = format!(
            "# t_end={}\n{}\n{}\n",
            t_end + 200.0,
            t_end + 50.0,
            t_end + 100.0
        );
        assert_eq!(
            handle(&state, &request("POST", "/projects/p/events", &batch)).status,
            200
        );
        // N status queries, zero extra fits: the check deliberately
        // reads the posterior fitted before the events under test.
        for _ in 0..5 {
            let resp = handle(&state, &get("/projects/p/spc"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(extract_num(&resp.body, "data_version") as u64, 1);
        }
        assert_eq!(fits(&state), 1, "spc status checks must not refit");
        assert!(
            state
                .metrics
                .cache_hits
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 5
        );
    }

    #[test]
    fn monitor_routes_are_409_when_disabled() {
        let state = state();
        for path in [
            "/monitor/status",
            "/monitor/alerts",
            "/monitor/wait?timeout_ms=1",
            "/projects/x/monitor",
        ] {
            let resp = handle(&state, &get(path));
            assert_eq!(resp.status, 409, "{path}: {}", resp.body);
            assert!(resp.body.contains("--monitor"), "{}", resp.body);
        }
    }

    #[test]
    fn ingest_scores_chart_and_regime_shift_raises_alerts() {
        let state = monitor_state(3);
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        // First ingest arrives before any fit: scoring is deferred.
        let ingest = handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        assert!(ingest.body.contains("\"alerts\": 0"), "{}", ingest.body);
        assert_eq!(
            state
                .metrics
                .monitor_deferred
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // The chart route catches up: fits once, scores every gap.
        let chart = handle(&state, &get("/projects/p/monitor"));
        assert_eq!(chart.status, 200, "{}", chart.body);
        assert_eq!(extract_num(&chart.body, "scored_through") as u64, 38);
        let n = sys17::FAILURE_TIMES.len() as u64;
        let points = state
            .metrics
            .monitor_points
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(points, n - 1, "one point per gap");

        // Inject a regime shift: a burst of near-simultaneous failures
        // just past the current observation end. Each tiny gap scores
        // p ≈ λτ « LCL (deterioration side); the third consecutive one
        // trips the run threshold on both schemes. (The gap from the
        // last recorded failure into the burst may land anywhere on the
        // chart, so the burst carries four tiny gaps of its own.)
        let burst: Vec<f64> = (1..=5).map(|i| sys17::T_END + i as f64 * 0.01).collect();
        let mut batch = format!("# t_end={}\n", sys17::T_END + 1.0);
        for t in &burst {
            batch.push_str(&format!("{t}\n"));
        }
        let ingest = handle(&state, &request("POST", "/projects/p/events", &batch));
        assert_eq!(ingest.status, 200, "{}", ingest.body);
        assert!(
            ingest.body.contains("\"alerts\": 2"),
            "os + mmle alerts expected: {}",
            ingest.body
        );
        assert!(
            state
                .metrics
                .monitor_alerts
                .load(std::sync::atomic::Ordering::Relaxed)
                == 2
        );

        // The subscription surfaces them; the long-poll returns at once.
        let alerts = handle(&state, &get("/monitor/alerts?since=0"));
        assert_eq!(alerts.status, 200);
        assert!(
            alerts.body.contains("\"side\": \"deterioration-alarm\""),
            "{}",
            alerts.body
        );
        assert_eq!(extract_num(&alerts.body, "next_since") as u64, 2);
        let wait = handle(&state, &get("/monitor/wait?since=0&timeout_ms=25000"));
        assert_eq!(wait.status, 200);
        assert!(wait.body.contains("\"seq\": 1"), "{}", wait.body);
        assert_eq!(
            state
                .metrics
                .monitor_wait_delivered
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // A caught-up cursor times out empty.
        let wait = handle(&state, &get("/monitor/wait?since=2&timeout_ms=1"));
        assert!(wait.body.contains("\"alerts\": []"), "{}", wait.body);
        assert_eq!(
            state
                .metrics
                .monitor_wait_timeouts
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );

        // Global status sees the chart and the alert total.
        let status = handle(&state, &get("/monitor/status"));
        assert_eq!(status.status, 200);
        assert_eq!(extract_num(&status.body, "total_alerts") as u64, 2);
        assert!(
            status.body.contains("\"project\": \"p\""),
            "{}",
            status.body
        );

        // Validation still bites.
        assert_eq!(
            handle(&state, &get("/monitor/wait?timeout_ms=60000")).status,
            400
        );
        assert_eq!(handle(&state, &get("/monitor/alerts?since=x")).status, 400);
    }

    #[test]
    fn validation_errors_are_4xx() {
        let state = state();
        assert_eq!(
            handle(&state, &request("PUT", "/projects/bad id!", "")).status,
            400
        );
        assert_eq!(
            handle(
                &state,
                &request("PUT", "/projects/x?model=weibull&prior=flat", "")
            )
            .status,
            400
        );
        assert_eq!(handle(&state, &get("/projects/ghost/fit")).status, 404);

        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        // No data yet: fitting is a 400, not a crash.
        assert_eq!(handle(&state, &get("/projects/p/fit")).status, 400);
        handle(
            &state,
            &request("POST", "/projects/p/events", "# t_end=10\n1.0\n2.0\n"),
        );
        // The project has data but no fit: every parameter is checked
        // before the fit, so no malformed query costs one.
        for path in [
            "/projects/p/interval?level=1.5",
            "/projects/p/interval?param=sigma",
            "/projects/p/interval?calibrated=maybe",
            "/projects/p/band?calibrated=maybe",
            "/projects/p/band?points=2.5",
            "/projects/p/band?points=513",
            "/projects/p/spc?calibrated=maybe",
            "/projects/p/predict?window=-1",
            "/projects/p/predict?window=inf",
            "/projects/p/predict?window=1e400",
            "/projects/p/reliability?window=NaN",
            "/projects/p/reliability?window=inf",
            "/projects/p/reliability?window=1e400",
            "/projects/p/reliability?window=1&level=0",
        ] {
            let resp = handle(&state, &get(path));
            assert_eq!(resp.status, 400, "{path}: {}", resp.body);
        }
        assert_eq!(state.metrics.fits_total.load(Ordering::Relaxed), 0);
        // Malformed batch.
        assert_eq!(
            handle(&state, &request("POST", "/projects/p/events", "nonsense")).status,
            400
        );
    }

    #[test]
    fn windowed_answers_start_at_the_observation_end_of_their_version() {
        // An ingest lands after a query's fit snapshot and before its
        // answer: the answer must pair the fitted posterior with the
        // observation end of the version its `data_version` names.
        let state = state();
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        let project = state.registry.get("p").unwrap();
        let paths = [
            "/projects/p/reliability?window=1000",
            "/projects/p/predict?window=1000",
            "/projects/p/band?points=2",
        ];
        for (round, path) in paths.into_iter().enumerate() {
            let version = project.version();
            let fitted_end = project.summary().observation_end;
            // Hold this version's fit in flight, so the query snapshots
            // the data and then waits.
            project.fit.lock().unwrap().in_flight = Some(version);
            let body = std::thread::scope(|scope| {
                let query = scope.spawn(|| handle(&state, &get(path)));
                // The query counts itself as coalesced under the slot
                // lock, right before it waits for the held fit.
                while state.metrics.fits_coalesced.load(Ordering::Relaxed) <= round as u64
                    && !query.is_finished()
                {
                    std::thread::yield_now();
                }
                let t_end = fitted_end + 100.0;
                let batch = format!("# t_end={t_end}\n{}\n", fitted_end + 50.0);
                let ingest = handle(&state, &request("POST", "/projects/p/events", &batch));
                assert_eq!(ingest.status, 200, "{}", ingest.body);
                // Release the hold: the query fits the version it
                // snapshotted, and answers after the ingest.
                project.fit.lock().unwrap().in_flight = None;
                project.fit_ready.notify_all();
                query.join().unwrap()
            })
            .body;
            assert_eq!(extract_num(&body, "data_version") as u64, version, "{body}");
            let value = nhpp_data::json::parse(&body).unwrap();
            let t = match value.as_object().unwrap().get("band") {
                Some(band) => band
                    .as_array()
                    .unwrap()
                    .last()
                    .unwrap()
                    .as_object()
                    .unwrap()["t"]
                    .as_f64()
                    .unwrap(),
                None => extract_num(&body, "t"),
            };
            assert_eq!(t, fitted_end, "{path}: {body}");
        }
    }

    #[test]
    fn fit_failure_surfaces_budget_and_tier_in_body() {
        let mut state = state();
        let mut options = nhpp_vb::RobustOptions::strict();
        options.base.total_budget = Some(1);
        options.retry.max_attempts = 1;
        state.fit = FitSettings {
            options,
            threads: 1,
            deadline: None,
        };
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        let resp = handle(&state, &get("/projects/p/fit"));
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(
            resp.body.contains("\"budget_exhausted\": true"),
            "{}",
            resp.body
        );
        assert!(resp.body.contains("\"kind\": \"budget-exhausted\""));
        assert!(resp.body.contains("\"fallback_tier\": null"));
        // Budget exhaustion is a load signal: the response tells the
        // client when to come back.
        assert_eq!(resp.retry_after, Some(1));
    }

    #[test]
    fn deadline_exceeded_maps_to_503_with_retry_after() {
        let state = state();
        let resp = fit_serve_error(&state, &FitServeError::DeadlineExceeded);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(1));
        assert!(
            resp.body.contains("\"kind\": \"deadline\""),
            "{}",
            resp.body
        );
    }

    #[test]
    fn expired_request_deadline_fails_fast_over_routes() {
        let mut state = state();
        state.fit.deadline = Some(std::time::Duration::ZERO);
        handle(
            &state,
            &request(
                "PUT",
                "/projects/p?kind=times&model=go&prior=paper-info-times",
                "",
            ),
        );
        handle(
            &state,
            &request("POST", "/projects/p/events", &sys17_batch()),
        );
        let resp = handle(&state, &get("/projects/p/fit"));
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(
            resp.body.contains("budget_exhausted") || resp.body.contains("deadline"),
            "{}",
            resp.body
        );
        assert_eq!(resp.retry_after, Some(1), "{}", resp.body);
    }

    #[test]
    fn metrics_route_exposes_durability_counters() {
        let state = state();
        let resp = handle(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        assert_eq!(
            crate::metrics::scrape_counter(&resp.body, "nhpp_serve_recovery_torn_tails_total"),
            Some(0),
            "{}",
            resp.body
        );
        assert_eq!(
            crate::metrics::scrape_counter(&resp.body, "nhpp_serve_requests_shed_total"),
            Some(0)
        );
    }
}
