//! Chart-update determinism suite (DESIGN §16): the streaming monitor's
//! logged state is a pure function of the ingested data and the SIMD
//! dispatch — for a fixed forced lane width, every fit thread count
//! must produce a bitwise-identical project log `p.log`, chart points
//! and alerts included, because the chart statistics are pure
//! functions of `(posterior, t, τ)` and the posterior itself is
//! bitwise-stable across thread counts (§14).
//!
//! The workload deliberately crosses every monitor code path: a
//! deferred first ingest, a catch-up fit through the chart route, an
//! in-control stretch, and an injected regime shift whose alert
//! triggers a refit.

use nhpp_data::sys17;
use nhpp_serve::routes::handle;
use nhpp_serve::scheduler::FitSettings;
use nhpp_serve::{
    AppState, DurabilityPolicy, FitCache, MemStorage, Metrics, Monitor, MonitorConfig, Registry,
    Request, Storage,
};
use nhpp_vb::SimdPolicy;
use std::collections::BTreeMap;
use std::sync::Arc;

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

fn burst_batch() -> String {
    let mut text = format!("# t_end={}\n", sys17::T_END + 1.0);
    for i in 1..=5 {
        text.push_str(&format!("{}\n", sys17::T_END + f64::from(i) * 0.01));
    }
    text
}

/// One complete monitored workload under a forced dispatch and thread
/// count; returns the raw project log, the alert total, and the final
/// chart-route body.
fn run(lanes: SimdPolicy, threads: usize) -> (Vec<u8>, u64, String) {
    let mem = Arc::new(MemStorage::new());
    let storage: Arc<dyn Storage> = mem.clone();
    let registry =
        Registry::open_with(storage, DurabilityPolicy::default()).expect("registry opens");
    let monitor = Monitor::recover(MonitorConfig::default(), &registry).expect("monitor recovers");
    let mut fit = FitSettings::default();
    fit.options.base.lanes = lanes;
    fit.threads = threads;
    let state = AppState {
        registry,
        metrics: Metrics::new(),
        fit,
        cache: FitCache::new(0),
        retry_after_secs: 1,
        calibration: None,
        monitor: Some(Arc::new(monitor)),
        quiet: true,
    };

    // Delayed s-shaped (alpha0 = 2) on times data goes through the
    // lane-parallel recurrence, so the forced dispatch is genuinely
    // recorded; GO/times would take the closed form and pin width 1.
    let create = handle(
        &state,
        &request(
            "PUT",
            "/projects/p?kind=times&model=dss&prior=paper-info-times",
            "",
        ),
    );
    assert_eq!(create.status, 201, "{}", create.body);
    // Deferred: no posterior exists yet.
    let ingest = handle(
        &state,
        &request("POST", "/projects/p/events", &sys17_batch()),
    );
    assert_eq!(ingest.status, 200, "{}", ingest.body);
    assert!(ingest.body.contains("\"alerts\": 0"), "{}", ingest.body);
    // Catch-up: one fit, every gap scored.
    let chart = handle(&state, &request("GET", "/projects/p/monitor", ""));
    assert_eq!(chart.status, 200, "{}", chart.body);
    // Regime shift: scored inline against the cached fit, alerts fire,
    // and the alerts trigger a refit at the new data version.
    let ingest = handle(
        &state,
        &request("POST", "/projects/p/events", &burst_batch()),
    );
    assert_eq!(ingest.status, 200, "{}", ingest.body);
    assert!(
        ingest.body.contains("\"alerts\": 2"),
        "both schemes should alarm on the burst: {}",
        ingest.body
    );
    let chart = handle(&state, &request("GET", "/projects/p/monitor", ""));
    assert_eq!(chart.status, 200, "{}", chart.body);

    let monitor = state.monitor.as_ref().expect("monitor enabled");
    let log = mem
        .dump()
        .get("p.log")
        .cloned()
        .expect("project log exists");
    (log, monitor.total_alerts(), chart.body.clone())
}

#[test]
fn chart_journals_are_bitwise_identical_across_thread_counts() {
    for (lanes, width) in [(SimdPolicy::ForceScalar, 1u64), (SimdPolicy::ForceWide, 4)] {
        let (reference, alerts, body) = run(lanes, 1);
        assert_eq!(alerts, 2, "{lanes:?}");
        assert!(
            body.contains(&format!("\"lane_width\": {width}")),
            "{lanes:?}: recorded lane width should be {width}: {body}"
        );
        assert!(body.contains("\"scored_through\": 43"), "{lanes:?}: {body}");
        for threads in [2usize, 8] {
            let (log, alerts, other_body) = run(lanes, threads);
            assert_eq!(alerts, 2, "{lanes:?} x{threads}");
            assert_eq!(
                log, reference,
                "{lanes:?}: p.log differs between 1 and {threads} fit threads"
            );
            assert_eq!(
                other_body, body,
                "{lanes:?}: chart route body differs between 1 and {threads} fit threads"
            );
        }
    }
}

/// The recorded `lane_width` provenance is enough to replay a log
/// bitwise: re-running under the dispatch a log records reproduces
/// that log exactly (here: every forced width reproduces itself,
/// and different widths genuinely record different provenance).
#[test]
fn recorded_lane_width_replays_bitwise() {
    let (scalar, _, _) = run(SimdPolicy::ForceScalar, 2);
    let (scalar_again, _, _) = run(SimdPolicy::ForceScalar, 4);
    assert_eq!(scalar, scalar_again, "scalar replay must be bitwise");
    let (wide, _, _) = run(SimdPolicy::ForceWide, 2);
    let (wide_again, _, _) = run(SimdPolicy::ForceWide, 4);
    assert_eq!(wide, wide_again, "wide replay must be bitwise");
    let text_scalar = String::from_utf8_lossy(&scalar).to_string();
    let text_wide = String::from_utf8_lossy(&wide).to_string();
    assert!(text_scalar.contains(" 1 "), "scalar provenance recorded");
    assert!(text_wide.contains(" 4 "), "wide provenance recorded");
}
