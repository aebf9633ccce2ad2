//! Booting the service under test, loading a workload's projects, and
//! the crash image that `recovery_ms` replays.

use crate::drive::{tcp_call, Answer, OpRecord};
use crate::workload::{Plan, Project, Req};
use nhpp_serve::http::read_request;
use nhpp_serve::{
    routes, AppState, DurabilityPolicy, FitCache, FitSettings, FsStorage, Metrics, Monitor,
    MonitorConfig, Registry, Server, ServerConfig, ServerHandle, Storage,
};
use nhpp_vb::CalibrationDictionary;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The calibration dictionary the `query` workload serves, relative to
/// the repository root.
pub const CALIBRATION: &str = "tests/golden/calibration_v1.json";

/// Pause before each timed restart.
const RESTART_GAP: std::time::Duration = std::time::Duration::from_millis(50);

/// The server the benchmark boots: durable in `dir`, two workers (one
/// per stream), no flush tick, so every refit comes from a request.
pub fn server_config(monitor: bool, calibration: bool, root: &Path, dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: Some(dir.to_path_buf()),
        workers: 2,
        flush_interval: None,
        calibration: calibration.then(|| root.join(CALIBRATION)),
        monitor: monitor.then(MonitorConfig::default),
        quiet: true,
        ..ServerConfig::default()
    }
}

/// The same state the server builds, assembled from public parts over
/// any storage backend: the substrate of the in-process replays.
pub fn app_state(plan: &Plan, root: &Path, storage: Arc<dyn Storage>) -> Result<AppState, String> {
    let registry =
        Registry::open_with(storage, DurabilityPolicy::default()).map_err(|e| e.to_string())?;
    let calibration = if plan.calibration {
        let path = root.join(CALIBRATION);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Some(Arc::new(
            CalibrationDictionary::parse(&text).map_err(|e| e.to_string())?,
        ))
    } else {
        None
    };
    let monitor = plan.monitor.then(|| {
        Arc::new(Monitor::new(
            MonitorConfig::default(),
            registry.storage_handle(),
        ))
    });
    Ok(AppState {
        registry,
        metrics: Metrics::new(),
        fit: FitSettings::default(),
        cache: FitCache::new(0),
        retry_after_secs: 1,
        calibration,
        monitor,
        quiet: true,
    })
}

/// Serves one request's bytes in process exactly as a connection worker
/// does: parse, route, render.
pub fn serve_wire(state: &AppState, wire: &[u8]) -> Result<Vec<u8>, String> {
    let parsed = read_request(&mut &wire[..]).map_err(|e| format!("parse: {e}"))?;
    let response = routes::handle(state, &parsed);
    let mut out = Vec::new();
    response.write_to(&mut out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn handle_in_process(state: &AppState, req: &Req) -> Answer {
    split_response(&serve_wire(state, &req.wire())?)
}

/// Splits rendered response bytes into status and body.
pub fn split_response(raw: &[u8]) -> Answer {
    let text = std::str::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("truncated response")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, body.to_string()))
}

/// Loads and warms every project of `plan` through `call`, one request
/// at a time: set-up is dominated by a few first fits and chart
/// primings, and two at once on a two-core host slow each other by
/// however the host places the two threads.
pub fn load_projects(plan: &Plan, call: &dyn Fn(&Req) -> Answer) -> Result<(), String> {
    for req in plan.projects.iter().flat_map(Project::setup_requests) {
        let (status, body) = call(&req)?;
        if !(200..300).contains(&status) {
            return Err(format!(
                "set-up {} {}: HTTP {status}: {body}",
                req.method, req.target
            ));
        }
    }
    Ok(())
}

/// Boots a durable server on a fresh `dir` and loads the workload;
/// returns the handle and the seconds the whole set-up took.
pub fn boot(plan: &Plan, root: &Path, dir: &Path) -> Result<(ServerHandle, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let config = server_config(plan.monitor, plan.calibration, root, dir);
    let handle = Server::spawn(config).map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr().to_string();
    load_projects(plan, &|req| tcp_call(&addr, req))?;
    Ok((handle, started.elapsed().as_secs_f64()))
}

/// An in-process state on a fresh `dir`, loaded like [`boot`] does.
pub fn boot_in_process(
    plan: &Plan,
    root: &Path,
    storage: Arc<dyn Storage>,
) -> Result<AppState, String> {
    let state = app_state(plan, root, storage)?;
    load_projects(plan, &|req| handle_in_process(&state, req))?;
    Ok(state)
}

/// The data version each project must recover to: its set-up version
/// or the highest version an append acknowledged.
pub fn acknowledged_versions(plan: &Plan, records: &[Vec<OpRecord>; 2]) -> Vec<u64> {
    let mut versions: Vec<u64> = plan.projects.iter().map(|p| p.version).collect();
    for (p, v) in records.iter().flatten().filter_map(|r| r.acked) {
        versions[p] = versions[p].max(v);
    }
    versions
}

/// Copies the flat data directory `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Checks that a recovered registry holds exactly the acknowledged
/// version of every project.
pub fn check_recovered(plan: &Plan, registry: &Registry, expected: &[u64]) -> Result<(), String> {
    for (project, &want) in plan.projects.iter().zip(expected) {
        let got = registry.get(&project.id).map(|p| p.version());
        if got != Some(want) {
            return Err(format!(
                "project {} recovered version {got:?}, acknowledged {want}",
                project.id
            ));
        }
    }
    Ok(())
}

/// Times a restart over the crash image `reps` times. A restart is a new
/// process with a cold heap, so each one is a child process of this
/// benchmark (`--restart`, see [`restart_child`]) binding a fresh copy
/// of the image; each checks that every project recovered exactly its
/// acknowledged version. Returns the `Server::bind` times, milliseconds.
pub fn time_restarts(
    plan: &Plan,
    image: &Path,
    work: &Path,
    expected: &[u64],
    reps: usize,
) -> Result<Vec<f64>, String> {
    let list = work.join("acknowledged.txt");
    let text: String = plan
        .projects
        .iter()
        .zip(expected)
        .map(|(p, v)| format!("{} {v}\n", p.id))
        .collect();
    std::fs::write(&list, text).map_err(|e| format!("{}: {e}", list.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let copy = work.join("restart");
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        // Spaced out, so the estimate does not rest on one moment of the
        // host's load.
        std::thread::sleep(RESTART_GAP);
        copy_dir(image, &copy)?;
        let out = std::process::Command::new(&exe)
            .arg("--restart")
            .arg(&copy)
            .arg(&list)
            .arg(u8::from(plan.monitor).to_string())
            .arg(u8::from(plan.calibration).to_string())
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("restart: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "restart: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let ms = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        times.push(ms.map_err(|e| format!("restart printed no time: {e}"))?);
    }
    let _ = std::fs::remove_dir_all(&copy);
    Ok(times)
}

/// The child side of [`time_restarts`]: binds a server over `dir`,
/// checks each project in `list` (`<id> <version>` lines) recovered that
/// version, and returns the bind time in milliseconds.
pub fn restart_child(
    root: &Path,
    dir: &Path,
    list: &Path,
    monitor: bool,
    calibration: bool,
) -> Result<f64, String> {
    let text = std::fs::read_to_string(list).map_err(|e| format!("{}: {e}", list.display()))?;
    let started = Instant::now();
    let server = Server::bind(server_config(monitor, calibration, root, dir))
        .map_err(|e| format!("bind: {e}"))?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let registry = &server.state().registry;
    for line in text.lines() {
        let (id, want) = line.split_once(' ').ok_or("bad acknowledged list")?;
        let got = registry.get(id).map(|p| p.version().to_string());
        if got.as_deref() != Some(want) {
            return Err(format!(
                "project {id} recovered version {got:?}, acknowledged {want}"
            ));
        }
    }
    Ok(ms)
}

/// Splits recovery into the registry replay and the monitor's journal
/// recovery, on fresh copies of the crash image. Returns per-rep
/// `(replay_ms, monitor_ms)`.
pub fn time_recovery_split(
    plan: &Plan,
    image: &Path,
    copy: &Path,
    expected: &[u64],
    reps: usize,
) -> Result<Vec<(f64, f64)>, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        copy_dir(image, copy)?;
        let storage = FsStorage::open(copy).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let registry = Registry::open_with(Arc::new(storage), DurabilityPolicy::default())
            .map_err(|e| e.to_string())?;
        let replayed = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        if plan.monitor {
            Monitor::recover(MonitorConfig::default(), &registry).map_err(|e| e.to_string())?;
        }
        let monitor = started.elapsed().as_secs_f64() * 1e3;
        check_recovered(plan, &registry, expected)?;
        times.push((replayed, monitor));
    }
    let _ = std::fs::remove_dir_all(copy);
    Ok(times)
}

/// The filesystem type holding `dir`, from `/proc/mounts`.
pub fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A work directory removed when dropped, with its parent once empty.
pub struct WorkDir(pub PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
