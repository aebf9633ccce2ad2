//! The `serve` and `client` subcommands: running the `nhpp-serve`
//! HTTP service from the CLI binary, and a small blocking client for
//! scripting against it (used by the CI smoke job and the examples in
//! the README).
//!
//! The client's `check` operation re-derives the golden-oracle
//! quantities (`tests/golden/smoke.txt`) from live server responses and
//! compares them under the fixture's own per-entry relative tolerances,
//! so a served posterior is held to exactly the same bar as a batch fit.

use crate::args::ParsedArgs;
use crate::commands::CliError;
use nhpp_bench::json;
use nhpp_models::prior::NhppPrior;
use nhpp_models::ModelSpec;
use nhpp_serve::{
    client_request_with_backoff, DurabilityPolicy, FitSettings, FsStorage, MonitorConfig, Registry,
    SchemeSelect, Server, ServerConfig, SnapshotStatus,
};
use std::fmt::Write as _;
use std::time::Duration;

fn run_err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> CliError + '_ {
    move |e| CliError::Run(format!("{context}: {e}"))
}

/// `nhpp serve`: boot the service and block until the process is
/// killed. Prints the bound address on stderr once accepting.
pub fn cmd_serve(args: &ParsedArgs) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let data_dir = args.get("data-dir").map(std::path::PathBuf::from);
    let workers = args.get_u64("workers", 0)? as usize;
    let flush_ms = args.get_u64("flush-ms", 500)?;
    let threads = args.get_u64("threads", 0)? as usize;
    let deadline_ms = args.get_u64("fit-deadline-ms", 0)?;
    let config = ServerConfig {
        addr,
        data_dir,
        calibration: args.get("calibration").map(std::path::PathBuf::from),
        workers,
        flush_interval: (flush_ms > 0).then(|| Duration::from_millis(flush_ms)),
        fit: FitSettings {
            threads,
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            ..FitSettings::default()
        },
        queue_capacity: args.get_u64("queue", 1024)? as usize,
        max_cached_fits: args.get_u64("max-cached-fits", 0)? as usize,
        retry_after_secs: args.get_u64("retry-after-secs", 1)? as u32,
        durability: DurabilityPolicy {
            snapshot_every: args.get_u64("snapshot-every", 64)?,
            compact_at_bytes: args.get_u64("compact-at-bytes", 1 << 20)?,
        },
        monitor: if args.flag("monitor") {
            let schemes = match args.get("monitor-scheme") {
                None => SchemeSelect::Both,
                Some(raw) => SchemeSelect::parse(raw).map_err(CliError::Run)?,
            };
            Some(MonitorConfig {
                schemes,
                run_length: args.get_u64("monitor-run-length", 3)? as u32,
                ..MonitorConfig::default()
            })
        } else {
            None
        },
        quiet: args.flag("quiet"),
    };
    let server = Server::bind(config).map_err(run_err("starting server"))?;
    eprintln!(
        "nhpp-serve listening on {} ({} project(s) recovered)",
        server.local_addr(),
        server.state().registry.all().len()
    );
    server.run().map_err(run_err("serving"))?;
    Ok(String::new())
}

/// `nhpp fsck`: verify a service data directory without modifying it.
///
/// Checksums are scanned in place and recovery is dry-run against an
/// in-memory copy, so this is safe against a live server's directory.
/// The exit is nonzero only for corruption a restart could not absorb;
/// a torn tail (crash residue the next startup truncates) is reported
/// but clean.
pub fn cmd_fsck(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let storage = FsStorage::open(&dir).map_err(run_err("opening data dir"))?;
    let mut entries = nhpp_serve::fsck(&storage).map_err(run_err("fsck"))?;
    if let Some(only) = args.get("project") {
        entries.retain(|e| e.id == only);
        if entries.is_empty() {
            return Err(CliError::Run(format!(
                "no stored project '{only}' in {}",
                dir.display()
            )));
        }
    }

    let mut out = String::new();
    let mut unhealthy = 0usize;
    writeln!(
        out,
        "{:<16} {:>10} {:>8} {:>10} {:<14} {:>10} {:<8}",
        "project", "log_bytes", "records", "torn_tail", "snapshot", "recovers", "status"
    )
    .unwrap();
    for entry in &entries {
        let snapshot = match entry.snapshot {
            SnapshotStatus::Missing => "missing".to_string(),
            SnapshotStatus::Valid { version } => format!("v{version}"),
            SnapshotStatus::Corrupt => "CORRUPT".to_string(),
        };
        let recovers = match &entry.recovery {
            Ok(version) => format!("v{version}"),
            Err(_) => "FAILS".to_string(),
        };
        let status = if entry.healthy() {
            if entry.torn_tail_bytes > 0 {
                "torn-tail"
            } else {
                "ok"
            }
        } else {
            unhealthy += 1;
            "CORRUPT"
        };
        writeln!(
            out,
            "{:<16} {:>10} {:>8} {:>10} {:<14} {:>10} {:<8}",
            entry.id,
            entry.log_bytes,
            entry.log_records,
            entry.torn_tail_bytes,
            snapshot,
            recovers,
            status
        )
        .unwrap();
        if let Err(reason) = &entry.recovery {
            writeln!(out, "  {}: {reason}", entry.id).unwrap();
        }
    }
    writeln!(
        out,
        "{} project(s) checked, {unhealthy} unhealthy",
        entries.len()
    )
    .unwrap();
    if unhealthy > 0 {
        return Err(CliError::Run(format!(
            "fsck found {unhealthy} unhealthy project(s):\n{out}"
        )));
    }
    Ok(out)
}

/// `nhpp compact`: snapshot projects and rewrite their logs to the
/// minimum, bounding the next startup's replay cost. Must not run
/// against a directory a live server is writing.
pub fn cmd_compact(args: &ParsedArgs) -> Result<String, CliError> {
    let dir = std::path::PathBuf::from(args.require("data-dir")?);
    let registry = Registry::open(Some(&dir)).map_err(run_err("opening data dir"))?;
    let mut projects = registry.all();
    if let Some(only) = args.get("project") {
        projects.retain(|p| p.id() == only);
        if projects.is_empty() {
            return Err(CliError::Run(format!(
                "no stored project '{only}' in {}",
                dir.display()
            )));
        }
    }

    let mut out = String::new();
    for project in &projects {
        if project.version() == 0 {
            writeln!(out, "{}: empty, skipped", project.id()).unwrap();
            continue;
        }
        let (before, after) = project
            .force_compact()
            .map_err(run_err(&format!("compacting '{}'", project.id())))?;
        writeln!(
            out,
            "{}: log {before} -> {after} bytes (snapshot at v{})",
            project.id(),
            project.version()
        )
        .unwrap();
    }
    writeln!(out, "{} project(s) compacted", projects.len()).unwrap();
    Ok(out)
}

/// One client request with shed-aware retries: a 503 is retried up to
/// three times, honouring the server's `Retry-After` (capped at 2 s per
/// wait, 5 s of sleeping in total) so scripted clients ride out
/// transient overload instead of failing on the first shed, without a
/// long shed sequence stalling them past the fit-deadline budget.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), CliError> {
    client_request_with_backoff(
        addr,
        method,
        path,
        body,
        3,
        Duration::from_secs(2),
        Duration::from_secs(5),
    )
    .map_err(run_err(&format!("{method} {path} against {addr}")))
}

/// Issues a request that must succeed, returning the raw body.
fn expect_ok(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<String, CliError> {
    let (status, text) = http(addr, method, path, body)?;
    if (200..300).contains(&status) {
        Ok(text)
    } else {
        Err(CliError::Run(format!(
            "{method} {path}: HTTP {status}: {text}"
        )))
    }
}

/// Issues a request that must succeed and parses the JSON body.
fn get_json(addr: &str, path: &str) -> Result<json::Value, CliError> {
    let text = expect_ok(addr, "GET", path, None)?;
    json::parse(&text).map_err(run_err(&format!("parsing response of {path}")))
}

fn json_field(value: &json::Value, key: &str) -> Result<f64, CliError> {
    value
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(json::Value::as_f64)
        .ok_or_else(|| CliError::Run(format!("response is missing numeric field '{key}'")))
}

/// `nhpp client`: one operation against a running server.
pub fn cmd_client(args: &ParsedArgs) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let op = args.get("op").unwrap_or("fit");
    match op {
        "create" => {
            let project = args.require("project")?;
            let kind = if args.flag("grouped") {
                "grouped"
            } else {
                "times"
            };
            let kind = args.get("kind").unwrap_or(kind);
            let model = args.get("model").unwrap_or("go");
            let prior = args.get("prior").unwrap_or("paper-info-times");
            // The shared grammars reject a bad label before any request.
            // The URL is not percent-decoded, so the prior goes without
            // whitespace: the form the server stores.
            model.parse::<ModelSpec>().map_err(run_err("--model"))?;
            prior.parse::<NhppPrior>().map_err(run_err("--prior"))?;
            let prior: String = prior.split_whitespace().collect();
            let path = format!("/projects/{project}?kind={kind}&model={model}&prior={prior}");
            let body = expect_ok(addr, "PUT", &path, None)?;
            Ok(format!("{body}\n"))
        }
        "ingest" => cmd_ingest(args, addr),
        "fit" | "spc" => {
            let project = args.require("project")?;
            let query = if op == "spc" && args.flag("calibrated") {
                "?calibrated=true"
            } else {
                ""
            };
            let path = format!("/projects/{project}/{op}{query}");
            let body = expect_ok(addr, "GET", &path, None)?;
            Ok(format!("{body}\n"))
        }
        "interval" => {
            let project = args.require("project")?;
            let level = args.get_f64("level", 0.99)?;
            let param = args.get("param").unwrap_or("omega");
            let mut path = format!("/projects/{project}/interval?param={param}&level={level}");
            if args.flag("calibrated") {
                path.push_str("&calibrated=true");
            }
            let body = expect_ok(addr, "GET", &path, None)?;
            Ok(format!("{body}\n"))
        }
        "predict" | "reliability" => {
            let project = args.require("project")?;
            let level = args.get_f64("level", 0.99)?;
            let window = args.get_f64("window", 1000.0)?;
            let path = format!("/projects/{project}/{op}?window={window}&level={level}");
            let body = expect_ok(addr, "GET", &path, None)?;
            Ok(format!("{body}\n"))
        }
        "metrics" => expect_ok(addr, "GET", "/metrics", None),
        "check" => cmd_check(args, addr),
        "monitor" => cmd_monitor(args, addr),
        other => Err(CliError::Run(format!(
            "unknown --op '{other}' (create | ingest | fit | interval | predict | \
             reliability | spc | monitor | metrics | check)"
        ))),
    }
}

/// Replays a failure-data CSV into a project, optionally split into
/// incremental batches to exercise the streaming path.
fn cmd_ingest(args: &ParsedArgs, addr: &str) -> Result<String, CliError> {
    let project = args.require("project")?;
    let path = args.require("file")?;
    let text = std::fs::read_to_string(path).map_err(run_err(&format!("reading {path}")))?;
    let batch = args.get_u64("batch", 0)? as usize;
    let events_path = format!("/projects/{project}/events");

    if batch == 0 || args.flag("grouped") {
        let body = expect_ok(addr, "POST", &events_path, Some(&text))?;
        return Ok(format!("{body}\n"));
    }

    // Incremental replay: each chunk's censoring time is its own last
    // failure, except the final chunk which carries the file's t_end.
    let times = nhpp_data::io::read_failure_times(text.as_bytes())
        .map_err(run_err(&format!("parsing {path}")))?;
    let all: Vec<f64> = times.times().to_vec();
    let mut out = String::new();
    let mut batches = 0usize;
    let mut last_version = 0.0;
    for (i, chunk) in all.chunks(batch).enumerate() {
        let is_last = (i + 1) * batch >= all.len();
        let t_end = if is_last {
            times.observation_end()
        } else {
            chunk[chunk.len() - 1]
        };
        let mut body = format!("# t_end={t_end}\n");
        for t in chunk {
            let _ = writeln!(body, "{t}");
        }
        let reply = expect_ok(addr, "POST", &events_path, Some(&body))?;
        let parsed = json::parse(&reply).map_err(run_err("parsing ingest reply"))?;
        last_version = json_field(&parsed, "version")?;
        batches += 1;
    }
    writeln!(
        out,
        "replayed {} events in {batches} batches; project at version {last_version}",
        all.len()
    )
    .unwrap();
    Ok(out)
}

/// `--op monitor`: tail change-point alerts from the long-poll
/// subscription route. Each round blocks server-side until an alert
/// arrives or the poll timeout lapses; the `since` cursor advances so
/// no alert prints twice, and `--polls` bounds the rounds so scripts
/// terminate. The shared [`http`] helper's retry budget is tuned for
/// one-shot operations, so this talks to the backoff client directly
/// with room for the server-side wait (capped under the 60 s client
/// read timeout) plus shed retries honouring `Retry-After`.
fn cmd_monitor(args: &ParsedArgs, addr: &str) -> Result<String, CliError> {
    let mut since = args.get_u64("since", 0)?;
    let polls = args.get_u64("polls", 1)?.max(1);
    let timeout_ms = args.get_u64("timeout-ms", 15_000)?.min(25_000);
    let mut out = String::new();
    let mut total = 0u64;
    for _ in 0..polls {
        let path = format!("/monitor/wait?since={since}&timeout_ms={timeout_ms}");
        let (status, text) = client_request_with_backoff(
            addr,
            "GET",
            &path,
            None,
            5,
            Duration::from_secs(5),
            Duration::from_secs(30),
        )
        .map_err(run_err(&format!("GET {path} against {addr}")))?;
        if !(200..300).contains(&status) {
            return Err(CliError::Run(format!("GET {path}: HTTP {status}: {text}")));
        }
        let parsed = json::parse(&text).map_err(run_err("parsing alert response"))?;
        let object = parsed
            .as_object()
            .ok_or_else(|| CliError::Run("alert response is not an object".into()))?;
        if object.get("dropped").and_then(json::Value::as_bool) == Some(true) {
            writeln!(
                out,
                "warning: the alert ring dropped part of the requested range"
            )
            .unwrap();
        }
        let alerts = object
            .get("alerts")
            .and_then(json::Value::as_array)
            .ok_or_else(|| CliError::Run("alert response is missing 'alerts'".into()))?;
        for alert in alerts {
            let num = |k: &str| json_field(alert, k);
            let s = |k: &str| -> Result<&str, CliError> {
                alert
                    .as_object()
                    .and_then(|o| o.get(k))
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| CliError::Run(format!("alert is missing field '{k}'")))
            };
            writeln!(
                out,
                "alert seq={} project={} scheme={} side={} run={} index={} t={} p={:e} \
                 fit_version={}",
                num("seq")? as u64,
                s("project")?,
                s("scheme")?,
                s("side")?,
                num("run")? as u64,
                num("index")? as u64,
                num("t")?,
                num("p")?,
                num("fit_version")? as u64,
            )
            .unwrap();
            total += 1;
        }
        since = json_field(&parsed, "next_since")? as u64;
    }
    writeln!(out, "{total} alert(s); resume with --since {since}").unwrap();
    Ok(out)
}

/// One golden quantity to check: `<quantity>` (the key with its
/// `<prefix>/` stripped), pinned value and tolerance.
struct GoldenEntry {
    quantity: String,
    value: f64,
    rel_tol: f64,
}

/// Loads a golden fixture through the conformance crate's parser — the
/// single authority for the fixture format and its tolerance bands —
/// keeping only the entries under `prefix`.
fn load_golden(path: &str, prefix: &str) -> Result<Vec<GoldenEntry>, CliError> {
    let text = std::fs::read_to_string(path).map_err(run_err(&format!("reading {path}")))?;
    let parsed = nhpp_conformance::golden::parse(&text).map_err(run_err(path))?;
    let entries: Vec<GoldenEntry> = parsed
        .into_iter()
        .filter_map(|e| {
            let quantity = e.key.strip_prefix(prefix)?.strip_prefix('/')?;
            Some(GoldenEntry {
                quantity: quantity.to_string(),
                value: e.value,
                rel_tol: e.rel_tol,
            })
        })
        .collect();
    if entries.is_empty() {
        return Err(CliError::Run(format!(
            "no golden entries under prefix '{prefix}' in {path}"
        )));
    }
    Ok(entries)
}

/// `--op check`: fetch the served posterior summary, derive the golden
/// quantities, and compare against the fixture. Any miss is an error
/// (nonzero process exit), so CI can gate on it.
fn cmd_check(args: &ParsedArgs, addr: &str) -> Result<String, CliError> {
    let project = args.require("project")?;
    let golden_path = args.get("golden").unwrap_or("tests/golden/smoke.txt");
    let prefix = args.get("prefix").unwrap_or("DT-Info/VB2");
    let entries = load_golden(golden_path, prefix)?;

    let fit = get_json(addr, &format!("/projects/{project}/fit"))?;
    let iv_omega = get_json(
        addr,
        &format!("/projects/{project}/interval?param=omega&level=0.99"),
    )?;
    let iv_beta = get_json(
        addr,
        &format!("/projects/{project}/interval?param=beta&level=0.99"),
    )?;
    let mut served: Vec<(String, f64)> = vec![
        ("mean_omega".into(), json_field(&fit, "mean_omega")?),
        ("sd_omega".into(), json_field(&fit, "sd_omega")?),
        ("mean_beta".into(), json_field(&fit, "mean_beta")?),
        ("sd_beta".into(), json_field(&fit, "sd_beta")?),
        ("ci99_omega_lo".into(), json_field(&iv_omega, "lo")?),
        ("ci99_omega_hi".into(), json_field(&iv_omega, "hi")?),
        ("ci99_beta_lo".into(), json_field(&iv_beta, "lo")?),
        ("ci99_beta_hi".into(), json_field(&iv_beta, "hi")?),
    ];
    for u in [1000u32, 10000] {
        let rel = get_json(
            addr,
            &format!("/projects/{project}/reliability?window={u}&level=0.99"),
        )?;
        served.push((format!("rel_point_u{u}"), json_field(&rel, "point")?));
        served.push((format!("rel_lo_u{u}"), json_field(&rel, "lo")?));
        served.push((format!("rel_hi_u{u}"), json_field(&rel, "hi")?));
    }

    let mut out = String::new();
    let mut failures = 0usize;
    let mut compared = 0usize;
    writeln!(
        out,
        "{:<20} {:>16} {:>16} {:>10} {:>8}",
        "quantity", "served", "golden", "rel_err", "status"
    )
    .unwrap();
    for entry in &entries {
        let Some((_, value)) = served.iter().find(|(k, _)| *k == entry.quantity) else {
            continue;
        };
        compared += 1;
        let rel_err = (value - entry.value).abs() / entry.value.abs().max(f64::MIN_POSITIVE);
        let ok = rel_err <= entry.rel_tol;
        if !ok {
            failures += 1;
        }
        writeln!(
            out,
            "{:<20} {:>16.9e} {:>16.9e} {:>10.2e} {:>8}",
            entry.quantity,
            value,
            entry.value,
            rel_err,
            if ok { "ok" } else { "FAIL" }
        )
        .unwrap();
    }
    if compared == 0 {
        return Err(CliError::Run(format!(
            "no served quantity matched any golden entry under '{prefix}'"
        )));
    }
    writeln!(out, "{compared} quantities compared, {failures} failed").unwrap();
    if failures > 0 {
        return Err(CliError::Run(format!(
            "golden check failed ({failures}/{compared}):\n{out}"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;
    use nhpp_data::{io, sys17};
    use std::io::Write as _;

    fn parse(words: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_times_csv(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("nhpp_client_test_{tag}_{}.csv", std::process::id()));
        let mut file = std::fs::File::create(&path).unwrap();
        let mut buf = Vec::new();
        io::write_failure_times(&mut buf, &sys17::failure_times()).unwrap();
        file.write_all(&buf).unwrap();
        path
    }

    fn spawn_server() -> nhpp_serve::ServerHandle {
        Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            flush_interval: None,
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn client_lifecycle_against_live_server() {
        let handle = spawn_server();
        let addr = handle.addr().to_string();
        let csv = temp_times_csv("lifecycle");

        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "create",
            "--project",
            "sys17",
            "--model",
            "go",
            "--prior",
            "paper-info-times",
        ]))
        .unwrap();
        assert!(out.contains("\"existed\": false"), "{out}");

        // Incremental replay in batches of 10 exercises the streaming
        // ingestion path (censoring time advances batch by batch).
        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "ingest",
            "--project",
            "sys17",
            "--file",
            csv.to_str().unwrap(),
            "--batch",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("replayed 38 events in 4 batches"), "{out}");

        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "fit",
            "--project",
            "sys17",
        ]))
        .unwrap();
        assert!(out.contains("\"provenance\": \"vb2\""), "{out}");

        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "spc",
            "--project",
            "sys17",
        ]))
        .unwrap();
        assert!(out.contains("\"status\""), "{out}");

        // The golden check passes against the live server: the served
        // posterior is the same paper-conformant fit as the batch path.
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/smoke.txt");
        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "check",
            "--project",
            "sys17",
            "--golden",
            golden,
        ]))
        .unwrap();
        assert!(out.contains("14 quantities compared, 0 failed"), "{out}");

        std::fs::remove_file(csv).ok();
        handle.shutdown();
    }

    /// A spaced prior tuple, which `nhpp fit --prior` accepts, creates
    /// the project and is stored as the whitespace-free label of the
    /// same prior; bad labels fail before any request is sent.
    #[test]
    fn create_sends_a_spaced_prior_as_its_stored_label() {
        let handle = spawn_server();
        let addr = handle.addr().to_string();
        let spaced = "50, 16, 1e-5, 3.2e-6";
        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "create",
            "--project",
            "p",
            "--prior",
            spaced,
        ]))
        .unwrap();
        assert!(out.contains("\"existed\": false"), "{out}");
        let summary = get_json(&addr, "/projects/p").unwrap();
        let stored = summary.as_object().unwrap()["prior"].as_str().unwrap();
        assert_eq!(stored, "50,16,1e-5,3.2e-6");
        assert_eq!(stored.parse::<NhppPrior>(), spaced.parse::<NhppPrior>());

        // Nothing reaches the server for a label the grammar rejects.
        for (flag, label) in [("--prior", "50, 16"), ("--model", "gompertz")] {
            let err = cmd_client(&parse(&[
                "client",
                "--addr",
                &addr,
                "--op",
                "create",
                "--project",
                "q",
                flag,
                label,
            ]))
            .unwrap_err();
            assert!(err.to_string().starts_with(flag), "{err}");
        }
        let (status, _) = nhpp_serve::client_request(&addr, "GET", "/projects/q", None).unwrap();
        assert_eq!(status, 404);
        handle.shutdown();
    }

    #[test]
    fn check_fails_on_wrong_posterior() {
        let handle = spawn_server();
        let addr = handle.addr().to_string();
        let csv = temp_times_csv("wrongprior");
        // A flat prior gives a different posterior than the paper's
        // informative one; the golden gate must catch it.
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "create",
            "--project",
            "p",
            "--prior",
            "flat",
        ]))
        .unwrap();
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "ingest",
            "--project",
            "p",
            "--file",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/smoke.txt");
        let err = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "check",
            "--project",
            "p",
            "--golden",
            golden,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("golden check failed"), "{err}");
        std::fs::remove_file(csv).ok();
        handle.shutdown();
    }

    #[test]
    fn calibrated_request_without_dictionary_is_refused() {
        let handle = spawn_server();
        let addr = handle.addr().to_string();
        let csv = temp_times_csv("nocal");
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "create",
            "--project",
            "p",
            "--prior",
            "paper-info-times",
        ]))
        .unwrap();
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "ingest",
            "--project",
            "p",
            "--file",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        let err = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "interval",
            "--project",
            "p",
            "--calibrated",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no dictionary"), "{err}");
        std::fs::remove_file(csv).ok();
        handle.shutdown();
    }

    #[test]
    fn monitor_op_tails_alerts_from_live_server() {
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            flush_interval: None,
            quiet: true,
            monitor: Some(MonitorConfig::default()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let csv = temp_times_csv("monitor");
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "create",
            "--project",
            "p",
            "--prior",
            "paper-info-times",
        ]))
        .unwrap();
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "ingest",
            "--project",
            "p",
            "--file",
            csv.to_str().unwrap(),
        ]))
        .unwrap();
        // Seed the fit cache so the next ingest scores inline.
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "fit",
            "--project",
            "p",
        ]))
        .unwrap();
        // A caught-up cursor times out empty (the deliverable either way
        // is the resume cursor).
        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "monitor",
            "--timeout-ms",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("0 alert(s); resume with --since 0"), "{out}");

        // Inject a failure burst; its tiny gaps trip the run threshold.
        let burst_path =
            std::env::temp_dir().join(format!("nhpp_client_test_burst_{}.csv", std::process::id()));
        let mut burst = format!("# t_end={}\n", sys17::T_END + 1.0);
        for i in 1..=5 {
            burst.push_str(&format!("{}\n", sys17::T_END + f64::from(i) * 0.01));
        }
        std::fs::write(&burst_path, &burst).unwrap();
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "ingest",
            "--project",
            "p",
            "--file",
            burst_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "monitor",
            "--timeout-ms",
            "2000",
        ]))
        .unwrap();
        assert!(out.contains("alert seq=1"), "{out}");
        assert!(out.contains("side=deterioration-alarm"), "{out}");
        assert!(out.contains("2 alert(s); resume with --since 2"), "{out}");

        std::fs::remove_file(csv).ok();
        std::fs::remove_file(burst_path).ok();
        handle.shutdown();
    }

    #[test]
    fn unknown_op_is_rejected() {
        let err = cmd_client(&parse(&["client", "--op", "frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("unknown --op"));
    }

    /// End-to-end admin loop: serve durably, fsck clean, compact, fsck
    /// again, then corrupt the log checksum and watch fsck fail.
    #[test]
    fn fsck_and_compact_admin_cycle() {
        let dir = std::env::temp_dir().join(format!("nhpp_admin_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let csv = temp_times_csv("admin");
        let handle = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: Some(dir.clone()),
            flush_interval: None,
            quiet: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "create",
            "--project",
            "p",
            "--prior",
            "paper-info-times",
        ]))
        .unwrap();
        cmd_client(&parse(&[
            "client",
            "--addr",
            &addr,
            "--op",
            "ingest",
            "--project",
            "p",
            "--file",
            csv.to_str().unwrap(),
            "--batch",
            "10",
        ]))
        .unwrap();
        handle.shutdown();

        let dir_arg = dir.to_str().unwrap();
        let out = cmd_fsck(&parse(&["fsck", "--data-dir", dir_arg])).unwrap();
        assert!(out.contains("1 project(s) checked, 0 unhealthy"), "{out}");
        assert!(out.contains("recovers"), "{out}");

        let out = cmd_compact(&parse(&[
            "compact",
            "--data-dir",
            dir_arg,
            "--project",
            "p",
        ]))
        .unwrap();
        assert!(out.contains("p: log"), "{out}");
        assert!(out.contains("snapshot at v4"), "{out}");

        // Compacted state still fscks clean and replays to v4.
        let out = cmd_fsck(&parse(&["fsck", "--data-dir", dir_arg])).unwrap();
        assert!(out.contains("v4"), "{out}");
        assert!(out.contains("0 unhealthy"), "{out}");

        // Flip a byte inside the log: fsck must exit nonzero.
        let log = dir.join("p.log");
        let mut bytes = std::fs::read(&log).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&log, &bytes).unwrap();
        let err = cmd_fsck(&parse(&["fsck", "--data-dir", dir_arg])).unwrap_err();
        assert!(err.to_string().contains("unhealthy"), "{err}");

        let err = cmd_fsck(&parse(&[
            "fsck",
            "--data-dir",
            dir_arg,
            "--project",
            "ghost",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no stored project"), "{err}");

        std::fs::remove_file(csv).ok();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
