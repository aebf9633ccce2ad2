//! Service benchmark for `nhpp-serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|history|query|refit> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. `--trace 0` sets up a durable server in
//! this process until five or more set-ups took six seconds (`setup_s`
//! is their median), drives the last one over TCP with two open-loop
//! streams for `--seconds`, times restarts over a crash image of its
//! data dir (`recovery_ms`) and prints the end-to-end metrics.
//! `--trace 1` replays the same schedule over TCP, then in process
//! through the real route handler and through the traced calls (see
//! `trace.rs`), paired operation by operation, and prints the per-layer
//! metrics instead.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it name each
//! metric with its unit, the figures kept out of that line (tails, the
//! slow class, `failed_share`), the host and the verdict.
//!
//! The workload seed defaults to [`DEFAULT_SEED`]; [`HELD_OUT_SEED`] is
//! kept for confirming a claimed gain. `--smoke` runs every workload for
//! two seconds in both modes and checks the metric names and units
//! against `BENCHMARK.json` and every answer: the benchmark's own test.

mod drive;
mod rng;
mod service;
mod stats;
mod trace;
mod workload;

use drive::{pacing, run_streams, OpRecord, Pacing, Tcp, LATE_LIMIT_MS};
use nhpp_data::json::Value;
use service::WorkDir;
use stats::{mean, median, percentile, standard_error, trimmed_mean};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use workload::{field, Class, Plan};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Held out: never used while tuning the benchmark or a change, only to
/// confirm a claimed gain afterwards.
const HELD_OUT_SEED: u64 = 20_071_225;
/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, then more until
/// they took `SETUP_MIN_SECONDS` in all, up to `SETUP_MAX_REPS`;
/// `setup_s` is their median, so that of a set-up under 100 ms rests on
/// tens of samples.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 6.0;
const SETUP_MAX_REPS: usize = 81;
/// Restarts (child processes) per untraced run over copies of the crash
/// image; `recovery_ms` is their trimmed mean.
const RESTARTS: usize = 15;
/// In-process recoveries per traced run, split into replay and monitor.
const RECOVERY_REPS: usize = 5;
/// Stated accounting tolerance. For each operation class, waiting,
/// transport, the traced layer self times and the re-enactment's own
/// glue must add back to the mean end-to-end latency. The remainder,
/// `trace.unaccounted_ms`, is the real handler's time that the traced
/// calls do not explain: a re-enactment that skips or adds a call the
/// route makes shows here. It must stay within this share of the mean
/// end-to-end latency, plus `ACCOUNT_ABS_MS`, plus `ACCOUNT_SE` standard
/// errors of the per-operation remainder (the traced and the handler's
/// replay are two runs of each operation, so their difference carries
/// the host's noise), or the traced run is not correct.
const ACCOUNT_SHARE: f64 = 0.08;
const ACCOUNT_ABS_MS: f64 = 0.05;
const ACCOUNT_SE: f64 = 3.0;
const SMOKE_SECONDS: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One run's outcome.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Correctness problems: failed checks, a generator that fell
    /// behind, a wrong recovery, a trace that does not add up.
    problems: Vec<String>,
    /// `(name, value, unit, note)` in print order: the metrics of the
    /// result line.
    metrics: Vec<(String, f64, &'static str, String)>,
    /// Figures printed with the metrics but kept out of the result line,
    /// because on a shared two-core host they move more from run to run
    /// than any bound a regression gate could use.
    figures: Vec<(String, f64, &'static str, String)>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            figures: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .push((name.to_string(), value, unit, note.into()));
    }

    fn figure(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.figures
            .push((name.to_string(), value, unit, note.into()));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit, note) in &self.metrics {
            println!("  {name:<40} {value:>14.4} {unit:<8} {note}");
        }
        println!("also measured, not in the result line:");
        println!(
            "  {:<40} {:>14.4} {:<8} ({} of {} operations)",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            "fraction",
            self.failed,
            self.attempted
        );
        for (name, value, unit, note) in &self.figures {
            println!("  {name:<40} {value:>14.4} {unit:<8} {note}");
        }
        for problem in self.problems.iter().take(10) {
            println!("  problem: {problem}");
        }
        println!(
            "verdict: {}",
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        println!("{}", self.json());
    }
}

/// The commit checked out at `root`, read from its `.git` directory so
/// nothing outside the checkout is consulted.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".to_string();
    };
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(git.join(name))
            .ok()
            .map(|id| id.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed.lines().find_map(|line| {
                    let (id, r) = line.split_once(' ')?;
                    (r == name).then(|| id.to_string())
                })
            }),
    };
    id.map_or_else(|| "unknown".to_string(), |id| id.chars().take(12).collect())
}

/// FNV-1a over the path and bytes of every file under `crates/`, in
/// path order: names the source a result was measured on, also in a
/// checkout without git history.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn environment(root: &Path, work: &Path) -> String {
    format!(
        "environment: available_parallelism={} data_fs={} commit={} source_digest={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        service::filesystem_of(work),
        commit(root),
        source_digest(root)
    )
}

/// Counts failed operations and records the first few errors.
fn tally(out: &mut Outcome, records: &[Vec<OpRecord>; 2]) {
    for r in records.iter().flatten() {
        out.attempted += 1;
        if let Some(e) = &r.error {
            out.failed += 1;
            if out.problems.len() < 10 {
                out.problems.push(e.clone());
            }
        }
    }
}

fn check_pacing(out: &mut Outcome, p: &Pacing) {
    if p.late_p99_ms > LATE_LIMIT_MS {
        out.problems.push(format!(
            "generator fell behind: lag p99 {:.3} ms > {LATE_LIMIT_MS} ms",
            p.late_p99_ms
        ));
    }
    if p.backlog > p.backlog_limit {
        out.problems.push(format!(
            "backlog of {} operations at the end of the window (bound {})",
            p.backlog, p.backlog_limit
        ));
    }
}

fn latencies(records: &[Vec<OpRecord>; 2], keep: impl Fn(Class) -> bool) -> Vec<f64> {
    records
        .iter()
        .flatten()
        .filter(|r| r.error.is_none() && keep(r.class))
        .map(OpRecord::latency_ms)
        .collect()
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let plan = workload::build(&args.workload, args.seed, args.seconds)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let work = WorkDir(root.join(".perfbench-work").join(format!(
        "{}-{}-{}",
        std::process::id(),
        plan.name,
        u8::from(args.trace)
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;
    let mut out = Outcome::new();
    out.notes.push(format!(
        "perfbench workload={} seed={} (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds={} trace={}",
        plan.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    out.notes.push(environment(root, &work.0));
    out.notes.push(format!(
        "main class ({}): {}; slow class ({}): {}",
        plan.main.0, plan.main.1, plan.slow.0, plan.slow.1
    ));
    if args.trace {
        traced(&plan, args, root, &work.0, &mut out)?;
    } else {
        untraced(&plan, args, root, &work.0, &mut out)?;
    }
    Ok(out)
}

/// One window of the schedule against the live server.
struct TcpRun {
    records: [Vec<OpRecord>; 2],
    /// The version each project must recover to.
    expected: Vec<u64>,
    pace: Pacing,
    shed: u64,
}

/// Drives the live server over TCP with the plan's two streams, checks
/// every answer and the pacing, then copies its data dir into the crash
/// `image` — after the last acknowledged append, before any shutdown
/// snapshot — and stops it.
fn drive_tcp(
    plan: &Plan,
    handle: nhpp_serve::ServerHandle,
    dir: &Path,
    image: &Path,
    seconds: f64,
    out: &mut Outcome,
) -> Result<TcpRun, String> {
    let tcp = Tcp {
        addr: handle.addr().to_string(),
    };
    let records = run_streams(plan, &tcp);
    let expected = service::acknowledged_versions(plan, &records);
    service::copy_dir(dir, image)?;
    let shed = handle.state().metrics.requests_shed.load(Ordering::Relaxed);
    handle.shutdown();
    tally(out, &records);
    let pace = pacing(&records, seconds);
    check_pacing(out, &pace);
    if shed > 0 {
        out.problems.push(format!("{shed} requests shed"));
    }
    Ok(TcpRun {
        records,
        expected,
        pace,
        shed,
    })
}

fn untraced(
    plan: &Plan,
    args: &Args,
    root: &Path,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // The repeated set-ups come first, so every measured window follows
    // the same work within its own run, whatever ran before the run.
    let mut setups = Vec::new();
    while setups.len() + 1 < SETUP_MAX_REPS
        && (setups.len() + 1 < SETUP_MIN_REPS || setups.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        let dir = work.join("setup");
        let (handle, secs) = service::boot(plan, root, &dir)?;
        setups.push(secs);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let dir = work.join("data");
    let (handle, secs) = service::boot(plan, root, &dir)?;
    setups.push(secs);
    let image = work.join("crash");
    let TcpRun {
        records,
        expected,
        pace,
        shed,
    } = drive_tcp(plan, handle, &dir, &image, args.seconds, out)?;
    // The set-ups ran one server at a time, so the peak is still one
    // server's: set-up plus the measured window.
    let peak_rss = service::peak_rss_mb();
    let recovery = match service::time_restarts(plan, &image, work, &expected, RESTARTS) {
        Ok(times) => trimmed_mean(&times),
        Err(e) => {
            out.problems.push(format!("recovery: {e}"));
            0.0
        }
    };

    let main = latencies(&records, Class::main);
    let slow = latencies(&records, Class::slow);
    let (main_name, main_what) = plan.main;
    let (slow_name, slow_what) = plan.slow;
    out.metric(
        "p50_ms",
        median(&main),
        "ms",
        format!("= {main_name}_p50_ms: {main_what}, n={}", main.len()),
    );
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median of {} set-ups (quartiles {:.4}, {:.4}): boot, load, first fits, chart priming",
            setups.len(),
            percentile(&setups, 0.25),
            percentile(&setups, 0.75)
        ),
    );
    out.figure(
        "recovery_ms",
        recovery,
        "ms",
        format!("Server::bind over the crash image, trimmed mean of {RESTARTS} restarts"),
    );
    out.figure(
        "peak_rss_mb",
        peak_rss,
        "MB",
        "VmHWM of the benchmark process after set-up and the window",
    );
    let tail = tail_level(main.len());
    let tail_name = format!("{main_name}_p{:.0}_ms", tail * 100.0);
    out.figure(
        &tail_name,
        percentile(&main, tail),
        "ms",
        format!(
            "the highest percentile with 10 samples beyond it, n={}",
            main.len()
        ),
    );
    out.figure(
        &format!("{slow_name}_p50_ms"),
        median(&slow),
        "ms",
        format!("{slow_what}, n={}", slow.len()),
    );
    let thin = if slow.len() < 100 {
        ", fewer than ten samples beyond it"
    } else {
        ""
    };
    out.figure(
        &format!("{slow_name}_p90_ms"),
        percentile(&slow, 0.9),
        "ms",
        format!("n={}{thin}", slow.len()),
    );
    out.figure(
        "loadgen.late_p99_ms",
        pace.late_p99_ms,
        "ms",
        format!("generator lag, bound {LATE_LIMIT_MS} ms"),
    );
    out.figure(
        "loadgen.backlog",
        pace.backlog as f64,
        "count",
        format!("queued at window end, bound {}", pace.backlog_limit),
    );
    out.figure(
        "server.shed",
        shed as f64,
        "count",
        "requests refused by admission control",
    );
    Ok(())
}

/// The highest of the usual tail percentiles with at least ten of `n`
/// samples beyond it; the median when there are too few for any.
fn tail_level(n: usize) -> f64 {
    [0.99, 0.98, 0.95, 0.9]
        .into_iter()
        .find(|p| (1.0 - p) * n as f64 >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

fn traced(
    plan: &Plan,
    args: &Args,
    root: &Path,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // (1) The untraced run over TCP: end-to-end latency and waiting.
    let dir = work.join("tcp");
    let (handle, _) = service::boot(plan, root, &dir)?;
    let image = work.join("crash");
    let TcpRun {
        records: tcp,
        expected,
        pace,
        shed,
    } = drive_tcp(plan, handle, &dir, &image, args.seconds, out)?;
    let split = match service::time_recovery_split(
        plan,
        &image,
        &work.join("recover"),
        &expected,
        RECOVERY_REPS,
    ) {
        Ok(times) => times,
        Err(e) => {
            out.problems.push(format!("recovery: {e}"));
            Vec::new()
        }
    };

    // (2) The same schedule in process, through the real route handler
    // and through the traced calls, paired operation by operation.
    let storage = nhpp_serve::FsStorage::open(&work.join("untraced")).map_err(|e| e.to_string())?;
    let plain = service::boot_in_process(plan, root, Arc::new(storage))?;
    let storage = trace::TimedStorage::open(&work.join("traced")).map_err(|e| e.to_string())?;
    let state = service::boot_in_process(plan, root, Arc::new(storage))?;
    let before = Counters::read(&state);
    let paired = trace::Paired::new(&plain, &state);
    let records = run_streams(plan, &paired);
    tally(out, &records);
    let after = Counters::read(&state);
    let (handler, collected) = paired.into_parts();
    compare_answers(out, &tcp, &records);

    for (label, keep) in CLASSES {
        let lat = latencies(&tcp, keep);
        out.metric(
            &format!("e2e_ms.{label}.p50"),
            median(&lat),
            "ms",
            format!("over TCP in this run, n={}", lat.len()),
        );
        out.metric(
            &format!("e2e_ms.{label}.p99"),
            percentile(&lat, 0.99),
            "ms",
            "",
        );
    }
    layer_metrics(out, plan, &tcp, &handler, &collected, &before, &after);
    let replay: Vec<f64> = split.iter().map(|s| s.0).collect();
    let recover: Vec<f64> = split.iter().map(|s| s.1).collect();
    out.metric(
        "registry.replay_ms",
        median(&replay),
        "ms",
        "Registry::open_with over the crash image",
    );
    out.metric(
        "monitor.recover_ms",
        median(&recover),
        "ms",
        "Monitor::recover after the replay",
    );
    out.metric(
        "server.shed",
        shed as f64,
        "count",
        "requests shed by admission control",
    );
    out.metric(
        "loadgen.late_p99_ms",
        pace.late_p99_ms,
        "ms",
        format!("generator lag, bound {LATE_LIMIT_MS} ms"),
    );
    out.metric(
        "loadgen.backlog",
        pace.backlog as f64,
        "count",
        format!("queued at window end, bound {}", pace.backlog_limit),
    );
    Ok(())
}

/// Checks that the server over TCP and the paired in-process replay
/// gave the same timing-independent answers (see `drive::fixed_part`).
fn compare_answers(out: &mut Outcome, tcp: &[Vec<OpRecord>; 2], replay: &[Vec<OpRecord>; 2]) {
    let mut compared = 0usize;
    let mut differ = 0usize;
    for (a, b) in tcp.iter().flatten().zip(replay.iter().flatten()) {
        if a.error.is_some() || b.error.is_some() || a.fixed.is_empty() {
            continue;
        }
        compared += 1;
        if a.fixed != b.fixed {
            differ += 1;
            if differ == 1 {
                out.problems.push(format!(
                    "answered {:?} over TCP but {:?} in process",
                    a.fixed, b.fixed
                ));
            }
        }
    }
    out.notes.push(format!(
        "answers: {compared} timing-independent answers compared over TCP and in process \
         ({differ} differ); the traced and the handler's answers are compared per operation"
    ));
}

/// Service counters read before and after the traced replay.
struct Counters {
    snapshots: u64,
    compactions: u64,
    points: u64,
    alerts: u64,
    monitor_refits: u64,
    coalesced: u64,
}

impl Counters {
    fn read(state: &nhpp_serve::AppState) -> Counters {
        let m = &state.metrics;
        let r = state.registry.stats();
        let g = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Counters {
            snapshots: g(&r.snapshots_written),
            compactions: g(&r.compactions_run),
            points: g(&m.monitor_points),
            alerts: g(&m.monitor_alerts),
            monitor_refits: g(&m.monitor_refits),
            coalesced: g(&m.fits_coalesced),
        }
    }
}

/// The operation classes the per-layer figures are split by, as the
/// end-to-end figures define them.
const CLASSES: [(&str, ClassFilter); 2] = [("main", Class::main), ("slow", Class::slow)];

type ClassFilter = fn(Class) -> bool;

/// The per-layer time metrics, each reported per operation class as
/// `.p50` and `.p99` over the calls the traced replay made into that
/// layer for operations of the class. `routes.self_ms` is reported with
/// them, per operation.
const LAYER_TIMES: [&str; 16] = [
    "http.parse_ms",
    "http.render_ms",
    "registry.lookup_ms",
    "registry.stage_ms",
    "registry.snapshot_ms",
    "storage.log_append_ms",
    "storage.mon_append_ms",
    "storage.replace_ms",
    "monitor.score_ms",
    "scheduler.hit_ms",
    "scheduler.refit_ms",
    "posterior.interval_ms",
    "posterior.reliability_point_ms",
    "posterior.reliability_interval_ms",
    "posterior.predict_ms",
    "posterior.band_ms",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(
    out: &mut Outcome,
    plan: &Plan,
    tcp: &[Vec<OpRecord>; 2],
    handler: &BTreeMap<(usize, usize), f64>,
    collected: &trace::Collected,
    before: &Counters,
    after: &Counters,
) {
    // Operations that succeeded in all three passes, paired by index.
    let mut paired = Vec::new();
    for (s, records) in tcp.iter().enumerate() {
        for (k, r) in records.iter().enumerate() {
            if r.error.is_some() {
                continue;
            }
            if let (Some(h), Some(op)) = (handler.get(&(s, k)), collected.ops.get(&(s, k))) {
                paired.push((r, *h, op));
            }
        }
    }
    for (label, keep) in CLASSES {
        let ops: Vec<_> = paired.iter().filter(|(r, _, _)| keep(r.class)).collect();
        let transport: Vec<f64> = ops.iter().map(|(r, h, _)| r.service_ms() - h).collect();
        let note = format!(
            "TCP service time minus the in-process handler, n={}",
            ops.len()
        );
        out.metric(
            &format!("server.transport_ms.{label}.p50"),
            median(&transport),
            "ms",
            note,
        );
        out.metric(
            &format!("server.transport_ms.{label}.p99"),
            percentile(&transport, 0.99),
            "ms",
            "",
        );
        // The route handler's own time: the real `routes::handle`
        // replay less the traced parse, render and layer calls.
        let routes: Vec<f64> = ops.iter().map(|(_, h, op)| h - op.layer_sum()).collect();
        out.metric(
            &format!("routes.self_ms.{label}.p50"),
            median(&routes),
            "ms",
            "routes::handle replay minus the traced layer calls, per op",
        );
        out.metric(
            &format!("routes.self_ms.{label}.p99"),
            percentile(&routes, 0.99),
            "ms",
            "",
        );
        for key in LAYER_TIMES {
            let samples: Vec<f64> = collected
                .ops
                .iter()
                .filter(|((s, k), _)| keep(plan.streams[*s][*k].class))
                .flat_map(|(_, op)| {
                    op.calls
                        .iter()
                        .filter(|(name, _)| *name == key)
                        .map(|(_, ms)| *ms)
                })
                .collect();
            let note = format!("n={}", samples.len());
            out.metric(&format!("{key}.{label}.p50"), median(&samples), "ms", note);
            out.metric(
                &format!("{key}.{label}.p99"),
                percentile(&samples, 0.99),
                "ms",
                "",
            );
        }

        // Accounting: e2e = wait + transport + layers + glue +
        // unaccounted. Transport is the TCP service time less the real
        // handler's, so the remainder is the real handler's time less
        // everything the traced replay put in a layer or in its glue.
        let class_mean = |f: &dyn Fn(&OpRecord, f64, &trace::OpTrace) -> f64| {
            mean(
                &ops.iter()
                    .map(|(r, h, op)| f(r, *h, op))
                    .collect::<Vec<_>>(),
            )
        };
        let e2e = class_mean(&|r, _, _| r.latency_ms());
        let wait = class_mean(&|r, _, _| r.wait_ms());
        let layers = class_mean(&|_, _, op| op.layer_sum());
        let glue = class_mean(&|_, _, op| op.self_sum() - op.layer_sum());
        let remainders: Vec<f64> = ops.iter().map(|(_, h, op)| h - op.self_sum()).collect();
        let remainder = e2e - wait - mean(&transport) - layers - glue;
        let noise = standard_error(&remainders);
        let tolerance = ACCOUNT_SHARE * e2e + ACCOUNT_ABS_MS + ACCOUNT_SE * noise;
        out.notes.push(format!(
            "accounting {label} (n={}): e2e {e2e:.3} ms = wait {wait:.3} + transport {:.3} \
             + layers {layers:.3} + glue {glue:.3} + unaccounted {remainder:.3} \
             (tolerance ±{tolerance:.3}: {ACCOUNT_SHARE} of e2e + {ACCOUNT_ABS_MS} ms \
             + {ACCOUNT_SE} × standard error {noise:.3})",
            ops.len(),
            mean(&transport)
        ));
        if remainder.abs() > tolerance {
            out.problems.push(format!(
                "trace does not add up for the {label} class: {remainder:.3} ms of the route \
                 handler's time is in no traced call, beyond the ±{tolerance:.3} ms tolerance"
            ));
        }
        out.metric(
            &format!("loadgen.wait_ms.{label}"),
            wait,
            "ms",
            "mean wait behind the stream's previous operation",
        );
        out.metric(
            &format!("trace.unaccounted_ms.{label}"),
            remainder,
            "ms",
            format!("n={}", ops.len()),
        );
    }
    let overhead = mean(
        &paired
            .iter()
            .map(|(_, h, op)| op.total_ms - h)
            .collect::<Vec<_>>(),
    );
    out.metric(
        "trace.overhead_ms",
        overhead,
        "ms",
        "traced replay minus untraced routes::handle replay, per op",
    );

    let c = &collected.counts;
    let ingests = c.ingests as f64;
    let refits = c.refits as f64;
    let per_k = |delta: u64| ratio(delta as f64 * 1000.0, ingests);
    out.metric(
        "registry.history_events",
        mean(&c.history_events),
        "count",
        "events in the project at ingest, mean",
    );
    out.metric(
        "registry.snapshots_per_kappend",
        per_k(after.snapshots - before.snapshots),
        "count",
        "",
    );
    out.metric(
        "registry.compactions_per_kappend",
        per_k(after.compactions - before.compactions),
        "count",
        "",
    );
    out.metric(
        "storage.appends_per_ingest",
        ratio(c.storage_appends as f64, ingests),
        "count",
        "fsynced appends per accepted batch",
    );
    out.metric(
        "storage.bytes_per_event",
        ratio(c.bytes_appended as f64, c.events_added as f64),
        "bytes",
        "",
    );
    out.metric(
        "monitor.points_per_append",
        ratio((after.points - before.points) as f64, ingests),
        "count",
        "",
    );
    out.metric(
        "monitor.alerts_per_kappend",
        per_k(after.alerts - before.alerts),
        "count",
        "",
    );
    out.metric(
        "monitor.refits_per_kappend",
        per_k(after.monitor_refits - before.monitor_refits),
        "count",
        "",
    );
    let sourced = c.hits + c.refits;
    out.metric(
        "scheduler.hit_ratio",
        ratio(c.hits as f64, sourced as f64),
        "share",
        format!("of {sourced} posterior lookups"),
    );
    out.metric(
        "scheduler.coalesced",
        (after.coalesced - before.coalesced) as f64,
        "count",
        "",
    );
    out.metric(
        "scheduler.warm_share",
        ratio(c.warm_refits as f64, refits),
        "share",
        format!("of {} refits", c.refits),
    );
    out.metric(
        "vb2.inner_iterations",
        ratio(c.inner_iterations as f64, refits),
        "count",
        "per refit",
    );
    out.metric(
        "vb2.n_max",
        ratio(c.n_max as f64, refits),
        "count",
        "per refit",
    );
    for width in [1usize, 4, 8] {
        let n = c.lane_widths.get(&width).copied().unwrap_or(0);
        out.metric(
            &format!("vb2.lane_width.w{width}"),
            ratio(n as f64, refits),
            "share",
            "",
        );
    }
    out.metric(
        "robust.attempts_per_fit",
        ratio(c.attempts as f64, refits),
        "count",
        "",
    );
    out.metric(
        "robust.fallback_share",
        ratio(c.fallbacks as f64, refits),
        "share",
        "",
    );
    out.metric(
        "posterior.components",
        mean(&c.components),
        "count",
        "mixture components per query, mean",
    );
}

/// Runs every workload briefly in both modes and checks each result
/// against `BENCHMARK.json`: the metric names and units, and a correct
/// verdict.
fn smoke(root: &Path) -> ExitCode {
    let spec = match std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|t| nhpp_data::json::parse(&t))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected = |section: &str| -> BTreeMap<String, String> {
        let text = |m: &Value, key: &str| Some(field(m, key)?.as_str()?.to_string());
        field(&spec, section)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| Some((text(m, "name")?, text(m, "unit")?)))
            .collect()
    };
    let mut ok = true;
    for name in workload::WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: name.to_string(),
                seed: 7,
                seconds: SMOKE_SECONDS,
                trace,
                smoke: false,
            };
            let want = expected(if trace { "per_layer" } else { "end_to_end" });
            let verdict = match run(&args, root) {
                Ok(out) => {
                    let got: BTreeMap<String, String> = out
                        .metrics
                        .iter()
                        .map(|(n, _, u, _)| (n.clone(), u.to_string()))
                        .collect();
                    if got != want {
                        Err(format!("metrics differ from BENCHMARK.json: got {got:?}"))
                    } else if !out.correct() {
                        Err(format!("incorrect: {:?}", out.problems))
                    } else {
                        Ok(out.attempted)
                    }
                }
                Err(e) => Err(e),
            };
            match verdict {
                Ok(n) => println!(
                    "smoke {name:<8} trace={}: ok ({n} operations)",
                    u8::from(trace)
                ),
                Err(e) => {
                    ok = false;
                    println!("smoke {name:<8} trace={}: FAILED: {e}", u8::from(trace));
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--restart <dir> <acknowledged-list> <monitor 0|1> <calibration 0|1>`:
/// the child process of a timed restart. Prints the bind time.
fn restart(root: &Path, rest: &[String]) -> ExitCode {
    let [dir, list, monitor, calibration] = rest else {
        eprintln!("perfbench: --restart needs <dir> <list> <monitor> <calibration>");
        return ExitCode::from(2);
    };
    match service::restart_child(
        root,
        Path::new(dir),
        Path::new(list),
        monitor == "1",
        calibration == "1",
    ) {
        Ok(ms) => {
            println!("{ms}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let root: PathBuf = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--restart") {
        return restart(&root, &raw[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(&root);
    }
    match run(&args, &root) {
        Ok(out) => {
            out.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
