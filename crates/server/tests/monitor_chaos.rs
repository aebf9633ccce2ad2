//! Chaos-recovery cases for the streaming monitor (DESIGN §16). Chart
//! points (`P`) and alerts (`A`) are records of the project log, so
//! they share its framing, fsync, rollback and torn-tail rules, and a
//! reboot recovers exactly the chart records the log kept:
//!
//! 1. a chart frame torn at the end of `p.log` is cut by replay, and the
//!    catch-up path rescores the lost point bitwise;
//! 2. a failed chart append that the process survives is rolled back,
//!    so it hides no later chart record;
//! 3. two concurrent scoring passes land their points in scoring order;
//! 4. a fault at every storage operation of a monitored workload, as a
//!    crash or survived, recovers a prefix of the reference chart (crash)
//!    or exactly the chart appends that returned `Ok` (survived);
//! 5. `fsck` sees a corrupted chart record, compaction keeps the chart
//!    across a reboot, the monitor's recovery writes nothing, and a
//!    monitored data dir holds only project logs and snapshots.

use nhpp_data::sys17;
use nhpp_serve::routes::handle;
use nhpp_serve::scheduler::FitSettings;
use nhpp_serve::storage::scan_records;
use nhpp_serve::{
    client_request, fsck, AppState, DurabilityPolicy, FaultStorage, FitCache, IoFaultKind,
    IoFaultPlan, MemStorage, Metrics, Monitor, MonitorConfig, Registry, Request, Server,
    ServerConfig, Storage,
};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

/// One failure at `t`, observed to `t`.
fn one_event(t: f64) -> String {
    format!("# t_end={t}\n{t}\n")
}

/// Snapshot every second version and compact after every ingest, so
/// the sweep also crosses every maintenance crash window.
const AGGRESSIVE: DurabilityPolicy = DurabilityPolicy {
    snapshot_every: 2,
    compact_at_bytes: 1,
};

/// A monitored service over `storage`, recovered as a boot would.
fn state_over(storage: Arc<dyn Storage>) -> Result<AppState, String> {
    state_with(storage, DurabilityPolicy::default())
}

fn state_with(storage: Arc<dyn Storage>, policy: DurabilityPolicy) -> Result<AppState, String> {
    let registry = Registry::open_with(storage, policy).map_err(|e| e.to_string())?;
    let monitor =
        Monitor::recover(MonitorConfig::default(), &registry).map_err(|e| e.to_string())?;
    Ok(AppState {
        registry,
        metrics: Metrics::new(),
        fit: FitSettings::default(),
        cache: FitCache::new(0),
        retry_after_secs: 1,
        calibration: None,
        monitor: Some(Arc::new(monitor)),
        quiet: true,
    })
}

/// Boots a monitored server over the given storage snapshot.
fn boot(files: BTreeMap<String, Vec<u8>>) -> (AppState, Arc<MemStorage>) {
    let mem = Arc::new(MemStorage::from_map(files));
    let state = state_over(mem.clone()).expect("boot recovers");
    (state, mem)
}

fn monitor(state: &AppState) -> &Monitor {
    state.monitor.as_deref().expect("monitor enabled")
}

fn chart(state: &AppState) -> String {
    format!("{:?}", monitor(state).snapshot("p"))
}

fn alerts(state: &AppState) -> String {
    format!("{:?}", monitor(state).alerts_since(0))
}

fn events(state: &AppState) -> u64 {
    state
        .registry
        .get("p")
        .map_or(0, |p| p.summary().event_count)
}

/// Creates `p`, ingests System 17 (deferred: no fit yet) and catches
/// the chart up through the chart route: one fit, 37 points.
fn in_control(state: &AppState) {
    let create = handle(
        state,
        &request(
            "PUT",
            "/projects/p?kind=times&model=go&prior=paper-info-times",
            "",
        ),
    );
    assert_eq!(create.status, 201, "{}", create.body);
    let ingest = handle(
        state,
        &request("POST", "/projects/p/events", &sys17_batch()),
    );
    assert_eq!(ingest.status, 200, "{}", ingest.body);
    let chart = handle(state, &request("GET", "/projects/p/monitor", ""));
    assert_eq!(chart.status, 200, "{}", chart.body);
}

/// Ingests the regime-shift burst, which both schemes alarm on.
fn burst(state: &AppState) {
    let ingest = handle(
        state,
        &request("POST", "/projects/p/events", &burst_batch()),
    );
    assert_eq!(ingest.status, 200, "{}", ingest.body);
    assert!(ingest.body.contains("\"alerts\": 2"), "{}", ingest.body);
}

/// The in-control run's storage and chart.
fn in_control_run() -> (BTreeMap<String, Vec<u8>>, String) {
    let (state, mem) = boot(BTreeMap::new());
    in_control(&state);
    (mem.dump(), chart(&state))
}

/// The chart records (`P`, `A`) of a log, in order.
fn chart_records(log: &[u8]) -> Vec<(u8, Vec<u8>)> {
    scan_records(log)
        .records
        .into_iter()
        .filter(|(tag, _)| matches!(tag, b'P' | b'A'))
        .collect()
}

#[test]
fn torn_chart_frame_in_the_log_is_cut_and_rescored() {
    let (reference, reference_chart) = in_control_run();
    let log = reference.get("p.log").expect("log exists").clone();
    let points = chart_records(&log);
    assert_eq!(points.len(), 37);
    assert_eq!(scan_records(&log).records.last().map(|r| r.0), Some(b'P'));

    // A garbage suffix (a torn frame that never completed) is dropped
    // without losing any valid record: the recovered chart is bitwise
    // the reference.
    let mut torn = reference.clone();
    torn.get_mut("p.log")
        .unwrap()
        .extend_from_slice(b"\x07garbage-torn-frame");
    let (state, mem) = boot(torn);
    assert_eq!(
        mem.dump().get("p.log"),
        Some(&log),
        "garbage tail should be truncated away on recovery"
    );
    assert_eq!(chart(&state), reference_chart);

    // Cutting into the last chart frame loses exactly that point; the
    // batches and the other points survive, and catch-up rescores the
    // missing gap against the same (deterministic) fit, so the log
    // converges back to the reference bitwise.
    let mut short = reference.clone();
    short.insert("p.log".into(), log[..log.len() - 4].to_vec());
    let (state, mem) = boot(short);
    let recovered = mem.dump().get("p.log").cloned().expect("log survives");
    assert!(recovered.len() < log.len());
    assert_eq!(log[..recovered.len()], recovered[..], "valid prefix kept");
    assert_eq!(chart_records(&recovered)[..], points[..36]);
    assert_eq!(events(&state), 38, "every batch survives the tear");
    assert_eq!(monitor(&state).snapshot("p").scored_through, 37);
    let route = handle(&state, &request("GET", "/projects/p/monitor", ""));
    assert_eq!(route.status, 200, "{}", route.body);
    assert_eq!(monitor(&state).snapshot("p").scored_through, 38);
    assert_eq!(
        mem.dump().get("p.log"),
        Some(&log),
        "rescored log must be bitwise the reference"
    );
    assert_eq!(chart(&state), reference_chart);
}

#[test]
fn monitor_recovery_writes_nothing() {
    let (mut files, _) = in_control_run();
    let log = files.get_mut("p.log").unwrap();
    log.truncate(log.len() - 4);
    let mem = Arc::new(MemStorage::from_map(files));
    let registry = Registry::open_with(mem.clone(), DurabilityPolicy::default()).unwrap();
    // Replay cut the torn chart frame; the monitor only reads.
    let replayed = mem.dump();
    let monitor = Monitor::recover(MonitorConfig::default(), &registry).unwrap();
    assert_eq!(monitor.snapshot("p").scored_through, 37);
    assert_eq!(mem.dump(), replayed);
}

/// The number of storage operations `steps` makes on a fresh monitored
/// service.
fn ops_of(steps: impl FnOnce(&AppState)) -> u64 {
    let never = IoFaultPlan::at(u64::MAX, IoFaultKind::DiskFull);
    let storage = Arc::new(FaultStorage::new(never));
    let state = state_over(storage.clone()).expect("boot");
    steps(&state);
    storage.ops()
}

#[test]
fn survived_torn_chart_append_hides_no_later_chart_record() {
    let event_39 = one_event(sys17::T_END);
    let ingest_39 = |state: &AppState| {
        let ingest = handle(state, &request("POST", "/projects/p/events", &event_39));
        assert_eq!(ingest.status, 200, "{}", ingest.body);
    };
    // Event 39's ingest is a batch append, then a chart append of its
    // one point: tear that point append in half, and carry on.
    let chart_append = ops_of(|state| {
        in_control(state);
        ingest_39(state);
    }) - 1;
    let plan = IoFaultPlan {
        survive: true,
        ..IoFaultPlan::at(chart_append, IoFaultKind::TornWrite)
    };
    let storage = Arc::new(FaultStorage::new(plan));
    let state = state_over(storage.clone()).expect("boot");
    in_control(&state);
    ingest_39(&state);
    assert_eq!(
        state.metrics.monitor_persist_errors.load(Ordering::Relaxed),
        1,
        "the torn append is the point append"
    );
    burst(&state);
    let live_alerts = alerts(&state);

    let rebooted = state_over(Arc::new(storage.survivor())).expect("reboot");
    assert_eq!(events(&rebooted), 44);
    assert_eq!(monitor(&rebooted).total_alerts(), 2);
    assert_eq!(
        alerts(&rebooted),
        live_alerts,
        "both alerts recovered with their sequence numbers"
    );
    assert_eq!(monitor(&rebooted).snapshot("p").scored_through, 44);
}

/// Memory storage that holds the first chart-point append it sees, once
/// armed, until a second one has landed or 500 ms pass.
#[derive(Debug, Default)]
struct HoldFirstPoints {
    inner: MemStorage,
    state: Mutex<HoldState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct HoldState {
    armed: bool,
    holding: bool,
    landed: u32,
}

impl HoldFirstPoints {
    /// Whether the appended frames start with a chart point.
    fn is_point_append(data: &[u8]) -> bool {
        data.get(8) == Some(&b'P')
    }

    /// Blocks until an append is being held (or 5 s pass).
    fn wait_holding(&self) {
        let state = self.state.lock().unwrap();
        let _held = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(5), |s| !s.holding)
            .unwrap();
    }
}

impl Storage for HoldFirstPoints {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let mut state = self.state.lock().unwrap();
        if state.armed && Self::is_point_append(data) {
            if state.holding {
                state.landed += 1;
                self.changed.notify_all();
            } else {
                state.holding = true;
                self.changed.notify_all();
                let timeout = Duration::from_millis(500);
                state = self
                    .changed
                    .wait_timeout_while(state, timeout, |s| s.landed == 0)
                    .unwrap()
                    .0;
            }
        }
        drop(state);
        self.inner.append(name, data)
    }

    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.replace(name, data)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[test]
fn concurrent_scoring_passes_log_points_in_scoring_order() {
    let storage = Arc::new(HoldFirstPoints::default());
    let state = state_over(storage.clone()).expect("boot");
    in_control(&state);
    storage.state.lock().unwrap().armed = true;
    let ingest = |t: f64| {
        let response = handle(
            &state,
            &request("POST", "/projects/p/events", &one_event(t)),
        );
        assert_eq!(response.status, 200, "{}", response.body);
    };
    std::thread::scope(|scope| {
        // Event 39's point append is held; event 40 is ingested and
        // scored meanwhile, or waits for it.
        let first = scope.spawn(|| ingest(sys17::T_END + 1000.0));
        storage.wait_holding();
        ingest(sys17::T_END + 2000.0);
        first.join().unwrap();
    });
    let live = monitor(&state).snapshot("p");
    assert_eq!(live.last.as_ref().map(|p| p.index), Some(40));

    let rebooted =
        state_over(Arc::new(MemStorage::from_map(storage.inner.dump()))).expect("reboot");
    assert_eq!(chart(&rebooted), format!("{live:?}"));
}

/// The monitored workload of the sweep: in control, then the burst
/// (a refit and two alerts). Every step tolerates a failed storage.
fn monitored_workload(storage: Arc<dyn Storage>, policy: DurabilityPolicy) {
    let Ok(state) = state_with(storage, policy) else {
        return;
    };
    for (method, path, body) in [
        (
            "PUT",
            "/projects/p?kind=times&model=go&prior=paper-info-times",
            String::new(),
        ),
        ("POST", "/projects/p/events", sys17_batch()),
        ("GET", "/projects/p/monitor", String::new()),
        ("POST", "/projects/p/events", burst_batch()),
        ("GET", "/projects/p/monitor", String::new()),
    ] {
        let _ = handle(&state, &request(method, path, &body));
    }
}

/// Passes storage through, keeping the chart records of every append
/// that returned `Ok`.
#[derive(Debug)]
struct Recorder {
    inner: Arc<FaultStorage>,
    acknowledged: Mutex<Vec<(u8, Vec<u8>)>>,
}

impl Storage for Recorder {
    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<u64> {
        let len = self.inner.append(name, data)?;
        self.acknowledged
            .lock()
            .unwrap()
            .extend(chart_records(data));
        Ok(len)
    }

    fn replace(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.replace(name, data)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[test]
fn a_fault_at_every_storage_op_recovers_the_logged_chart() {
    let reference = Arc::new(MemStorage::new());
    monitored_workload(reference.clone(), DurabilityPolicy::default());
    let reference = chart_records(&reference.dump()["p.log"]);
    let alarms = reference.iter().filter(|(tag, _)| *tag == b'A').count();
    assert_eq!(alarms, 2, "the reference run alarms");
    let shapes = [
        (IoFaultKind::TornWrite, 2, "torn half"),
        (IoFaultKind::TornWrite, 4, "torn whole"),
        (IoFaultKind::DiskFull, 0, "disk full"),
    ];
    for (policy, label) in [
        (DurabilityPolicy::default(), "log only"),
        (AGGRESSIVE, "compacting"),
    ] {
        let never = IoFaultPlan::at(u64::MAX, IoFaultKind::DiskFull);
        let counting = Arc::new(FaultStorage::new(never));
        monitored_workload(counting.clone(), policy);
        let ops = counting.ops();
        assert!(
            ops >= 7,
            "{label}: the workload makes {ops} storage operations"
        );
        for fail_at_op in 0..ops {
            for (kind, cut_quarters, shape) in shapes {
                for survive in [false, true] {
                    let context = format!("{label}, op {fail_at_op}, {shape}, survive {survive}");
                    let plan = IoFaultPlan {
                        fail_at_op,
                        kind,
                        cut_quarters,
                        survive,
                    };
                    let fault = Arc::new(FaultStorage::new(plan));
                    let recorder = Arc::new(Recorder {
                        inner: fault.clone(),
                        acknowledged: Mutex::new(Vec::new()),
                    });
                    monitored_workload(recorder.clone(), policy);

                    let survivor = Arc::new(fault.survivor());
                    let state = state_over(survivor.clone())
                        .unwrap_or_else(|e| panic!("{context}: reboot failed: {e}"));
                    let log = survivor.read("p.log").unwrap().unwrap_or_default();
                    let recovered = chart_records(&log);
                    if survive {
                        assert_eq!(
                            recovered,
                            *recorder.acknowledged.lock().unwrap(),
                            "{context}: the log keeps exactly the acknowledged chart appends"
                        );
                    } else {
                        assert!(
                            reference.starts_with(&recovered),
                            "{context}: recovered chart is not a prefix of the reference"
                        );
                    }
                    let scored_through = monitor(&state).snapshot("p").scored_through;
                    assert!(
                        scored_through <= events(&state),
                        "{context}: chart claims {scored_through} of {} events",
                        events(&state)
                    );
                    let logged_alerts = recovered.iter().filter(|(tag, _)| *tag == b'A').count();
                    assert_eq!(
                        monitor(&state).total_alerts(),
                        logged_alerts as u64,
                        "{context}: alerts"
                    );
                }
            }
        }
    }
}

#[test]
fn corrupted_chart_record_makes_fsck_report_the_project_unhealthy() {
    let (files, _) = in_control_run();
    let last = scan_records(&files["p.log"]).records.last().map(|r| r.0);
    assert_eq!(last, Some(b'P'), "the log ends in a chart point");
    let clean = fsck(&MemStorage::from_map(files.clone())).unwrap();
    assert!(clean.iter().all(|entry| entry.healthy()), "{clean:?}");
    // Flip a bit inside the last chart point's body.
    let mut corrupt = files;
    let log = corrupt.get_mut("p.log").unwrap();
    let n = log.len();
    log[n - 3] ^= 0x01;
    let entries = fsck(&MemStorage::from_map(corrupt)).unwrap();
    let entry = entries.iter().find(|e| e.id == "p").expect("p is checked");
    assert!(entry.checksum_corrupt, "{entry:?}");
    assert!(!entry.healthy(), "{entry:?}");
}

#[test]
fn force_compact_keeps_the_chart_across_a_reboot() {
    let (state, mem) = boot(BTreeMap::new());
    in_control(&state);
    burst(&state);
    let (live_chart, live_alerts) = (chart(&state), alerts(&state));
    let records = chart_records(&mem.dump()["p.log"]);

    let project = state.registry.get("p").unwrap();
    let (before, after) = project.force_compact().expect("compacts");
    assert!(after < before, "the batches are gone: {before} -> {after}");
    let log = mem.dump()["p.log"].clone();
    let kinds: Vec<u8> = scan_records(&log).records.iter().map(|r| r.0).collect();
    assert_eq!(kinds[0], b'C');
    assert!(!kinds.contains(&b'B'), "{kinds:?}");
    assert_eq!(chart_records(&log), records, "every chart record is kept");

    let (rebooted, _) = boot(mem.dump());
    assert_eq!(events(&rebooted), 43);
    assert_eq!(chart(&rebooted), live_chart);
    assert_eq!(alerts(&rebooted), live_alerts);
}

#[test]
fn a_monitored_data_dir_holds_only_logs_and_snapshots() {
    let dir = std::env::temp_dir().join(format!("nhpp-monitor-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(dir.clone()),
        monitor: Some(MonitorConfig::default()),
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let addr = handle.addr().to_string();
    let call = |method: &str, path: &str, body: Option<&str>| {
        let (status, text) = client_request(&addr, method, path, body).expect("request");
        assert!(
            (200..300).contains(&status),
            "{method} {path}: {status} {text}"
        );
        text
    };
    call(
        "PUT",
        "/projects/p?kind=times&model=go&prior=paper-info-times",
        None,
    );
    call("POST", "/projects/p/events", Some(&sys17_batch()));
    call("GET", "/projects/p/monitor", None);
    let ack = call("POST", "/projects/p/events", Some(&burst_batch()));
    assert!(ack.contains("\"alerts\": 2"), "{ack}");
    handle.shutdown();

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["p.log", "p.snap"]);
    let _ = std::fs::remove_dir_all(&dir);
}
