//! Service-level load benchmark for `nhpp-serve`: boots the server
//! in-process, drives it over real TCP with closed-loop clients, and
//! writes a `BENCH_*.json` report through the shared
//! [`nhpp_bench::perf`] pipeline.
//!
//! ```text
//! bench_serve --out NEW.json [--label L] [--quick]
//! bench_serve --overload --out NEW.json [--label L] [--quick]
//! bench_serve --ingest --out NEW.json [--label L] [--quick]
//! ```
//!
//! `--out` is required, so a run never overwrites a committed record
//! (`BENCH_5`, `BENCH_6` or `BENCH_9.json`) by default; without it the
//! bin prints the usage and exits 2.
//!
//! Default metrics (all milliseconds, lower is better, so the standard
//! `bench_report compare` gate applies unchanged):
//!
//! * `serve-p50-ms-c{1,8,64}` / `serve-p99-ms-c{1,8,64}` — latency
//!   percentiles of `GET /interval` on a warm posterior at 1/8/64
//!   concurrent closed-loop clients;
//! * `serve-refit-per-100q-c64` — the coalescing ratio: rounds of
//!   "ingest one event, then 64 concurrent `/fit` queries"; the value
//!   is executed refits per 100 queries (perfect coalescing: 100/64 ≈
//!   1.6; no coalescing: 100). Not a wall time, but gate-safe: `compare`
//!   only inspects metrics shared with the baseline report.
//!
//! `--overload` metrics (BENCH_6): the overload/recovery scenario.
//!
//! * `serve-ovl-p99-ms-c{N}` — accepted-request p99 against a small
//!   admission queue at N closed-loop clients over 4 projects: the
//!   saturation curve. With shedding, p99 stays bounded as N grows
//!   instead of scaling with queue depth;
//! * `serve-shed-per-100-c{N}` — requests shed (503 + `Retry-After`)
//!   per 100 issued at the same points (a ratio, not a wall time);
//! * `serve-coldstart-ms-full` / `serve-coldstart-ms-compacted` —
//!   median registry replay time of a long pure log vs the same state
//!   after `force_compact`: the measured bound on replay cost.
//!
//! `--ingest` metrics (BENCH_9): the monitored write path.
//!
//! * `serve-ingest-p50-ms-c{N}` / `serve-ingest-p99-ms-c{N}` — per
//!   single-event append latency with `--monitor` scoring inline, at
//!   N concurrent clients each appending to its own project (so the
//!   append path, not project-lock contention, is what's measured);
//! * `serve-alert-append-ms` — median latency of the append that
//!   carries a regime-shift burst: chart scoring, alert publication,
//!   the alert-record append and the triggered refit all land inside
//!   this request;
//! * `serve-alert-wake-ms` — median delay from that append to a
//!   blocked `/monitor/wait` long-poll returning the alert.
//!
//! Derived requests/sec per concurrency level is printed for humans.

use nhpp_bench::json;
use nhpp_bench::perf::{Metric, Report};
use nhpp_data::sys17;
use nhpp_serve::{
    client_request, client_request_full, metrics::scrape_counter, DurabilityPolicy, FsStorage,
    MonitorConfig, ProjectConfig, Registry, Server, ServerConfig,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn sys17_batch() -> String {
    let mut text = format!("# t_end={}\n", sys17::T_END);
    for t in sys17::FAILURE_TIMES {
        text.push_str(&format!("{t}\n"));
    }
    text
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn must_ok(addr: &str, method: &str, path: &str, body: Option<&str>) -> String {
    let (status, text) =
        client_request(addr, method, path, body).unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    assert!(
        (200..300).contains(&status),
        "{method} {path}: HTTP {status}: {text}"
    );
    text
}

fn scrape_fits(addr: &str) -> u64 {
    let text = must_ok(addr, "GET", "/metrics", None);
    scrape_counter(&text, "nhpp_serve_fits_total").expect("fits counter present")
}

/// Each of `clients` threads issues `per_client` requests back-to-back;
/// returns all latencies in milliseconds, sorted.
fn closed_loop(addr: &str, clients: usize, per_client: usize, path: &str) -> Vec<f64> {
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    let mut times = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let t0 = Instant::now();
                        must_ok(addr, "GET", path, None);
                        times.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    times
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// Writes a finished report and prints it; shared by both modes.
fn finish(out_path: &str, label: String, metrics: BTreeMap<String, Metric>) -> ExitCode {
    let report = Report { label, metrics };
    if let Err(e) = std::fs::write(out_path, report.to_json()) {
        eprintln!("bench_serve: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}:");
    for (name, m) in &report.metrics {
        println!("  {name:<28} {:>10.3}", m.median_ms);
    }
    ExitCode::SUCCESS
}

/// The `--overload` scenario: saturation curve against a small
/// admission queue, then cold-start replay before/after compaction.
fn overload_main(out_path: &str, label: String, quick: bool) -> ExitCode {
    let per_client = if quick { 10 } else { 24 };
    let mut metrics = BTreeMap::new();

    // --- Saturation curve: 2 workers, an 8-slot queue, 4 projects. ---
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 8,
        retry_after_secs: 1,
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = handle.addr().to_string();
    let projects = 4usize;
    for p in 0..projects {
        must_ok(
            &addr,
            "PUT",
            &format!("/projects/p{p}?kind=times&model=go&prior=paper-info-times"),
            None,
        );
        must_ok(
            &addr,
            "POST",
            &format!("/projects/p{p}/events"),
            Some(&sys17_batch()),
        );
        must_ok(&addr, "GET", &format!("/projects/p{p}/fit"), None);
    }

    for clients in [4usize, 16, 64] {
        let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
            let addr = &addr;
            // Collect the handles before joining: a lazy spawn→join chain
            // would run the clients one at a time.
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        // A moderately heavy query (~100 ms of posterior
                        // integration) so the queue actually fills under
                        // concurrency.
                        let path = format!(
                            "/projects/p{}/predict?window=86400&level=0.99",
                            c % projects
                        );
                        let mut ok_ms = Vec::new();
                        let mut shed = 0usize;
                        for _ in 0..per_client {
                            let t0 = Instant::now();
                            let (status, retry_after, body) =
                                client_request_full(addr, "GET", &path, None)
                                    .expect("request completes");
                            match status {
                                200..=299 => ok_ms.push(t0.elapsed().as_secs_f64() * 1e3),
                                503 => {
                                    assert!(
                                        retry_after.is_some(),
                                        "shed response without Retry-After: {body}"
                                    );
                                    shed += 1;
                                }
                                other => panic!("unexpected HTTP {other}: {body}"),
                            }
                        }
                        (ok_ms, shed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut ok_ms: Vec<f64> = results.iter().flat_map(|(ms, _)| ms.clone()).collect();
        let shed: usize = results.iter().map(|(_, s)| s).sum();
        let issued = clients * per_client;
        ok_ms.sort_by(f64::total_cmp);
        let p99 = if ok_ms.is_empty() {
            f64::NAN
        } else {
            percentile(&ok_ms, 0.99)
        };
        let shed_per_100 = shed as f64 / issued as f64 * 100.0;
        eprintln!(
            "c={clients:<3} {issued} issued: {} accepted (p99 {p99:.3} ms), {shed} shed \
             ({shed_per_100:.2} per 100, every one with Retry-After)",
            ok_ms.len()
        );
        metrics.insert(
            format!("serve-ovl-p99-ms-c{clients}"),
            Metric {
                median_ms: p99,
                samples: ok_ms.len(),
                baseline_median_ms: None,
                speedup: None,
            },
        );
        metrics.insert(
            format!("serve-shed-per-100-c{clients}"),
            Metric {
                median_ms: shed_per_100,
                samples: issued,
                baseline_median_ms: None,
                speedup: None,
            },
        );
    }
    let total_shed = handle
        .state()
        .metrics
        .requests_shed
        .load(std::sync::atomic::Ordering::Relaxed);
    eprintln!("server counted {total_shed} shed requests; still live");
    must_ok(&addr, "GET", "/healthz", None);
    handle.shutdown();

    // --- Cold-start replay: long pure log vs compacted state. ---
    let dir = std::env::temp_dir().join(format!("nhpp_bench6_coldstart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batches = if quick { 96 } else { 384 };
    {
        let storage = Arc::new(FsStorage::open(&dir).expect("open data dir"));
        let manual = DurabilityPolicy {
            snapshot_every: 0,
            compact_at_bytes: 0,
        };
        let registry = Registry::open_with(storage, manual).expect("open registry");
        let config = ProjectConfig::from_labels("times", "go", "paper-info-times").expect("config");
        registry.create("cold", config).expect("create");
        let project = registry.get("cold").expect("project");
        for i in 0..batches {
            let base = 10.0 * i as f64;
            let batch = format!(
                "# t_end={}\n{}\n{}\n{}\n{}\n",
                base + 10.0,
                base + 2.0,
                base + 4.0,
                base + 6.0,
                base + 8.0
            );
            project.ingest(&batch).expect("ingest");
        }
    }
    let log_bytes_full = std::fs::metadata(dir.join("cold.log")).map_or(0, |m| m.len());

    let replay_median_ms = |label: &str| {
        let runs = if quick { 3 } else { 5 };
        let mut times: Vec<f64> = (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                let registry = Registry::open(Some(&dir)).expect("replay");
                let version = registry.get("cold").expect("project").version();
                assert_eq!(version as usize, batches, "{label}: wrong replay version");
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        (times[times.len() / 2], runs)
    };

    let (full_ms, runs) = replay_median_ms("full");
    // Compact (snapshot + minimal log), then measure the same replay.
    {
        let registry = Registry::open(Some(&dir)).expect("open for compaction");
        let (before, after) = registry
            .get("cold")
            .expect("project")
            .force_compact()
            .expect("compact");
        eprintln!("compaction: log {before} -> {after} bytes");
    }
    let log_bytes_compacted = std::fs::metadata(dir.join("cold.log")).map_or(0, |m| m.len());
    let (compacted_ms, _) = replay_median_ms("compacted");
    eprintln!(
        "cold start over {batches} batches: full log ({log_bytes_full} B) {full_ms:.3} ms, \
         compacted ({log_bytes_compacted} B) {compacted_ms:.3} ms"
    );
    for (name, value) in [
        ("serve-coldstart-ms-full", full_ms),
        ("serve-coldstart-ms-compacted", compacted_ms),
    ] {
        metrics.insert(
            name.to_string(),
            Metric {
                median_ms: value,
                samples: runs,
                baseline_median_ms: None,
                speedup: None,
            },
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    finish(out_path, label, metrics)
}

/// The `--ingest` scenario: the monitored write path under load, then
/// the alert path (append-with-burst latency and long-poll wake).
fn ingest_main(out_path: &str, label: String, quick: bool) -> ExitCode {
    let per_client = if quick { 20 } else { 80 };
    let alert_rounds = if quick { 3 } else { 7 };
    let mut metrics = BTreeMap::new();

    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // Enough workers that a blocked /monitor/wait long-poll can
        // never starve the append path (auto resolves to 1 on a
        // single-core host, which would serialise the two).
        workers: 4,
        flush_interval: None,
        quiet: true,
        monitor: Some(MonitorConfig::default()),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = handle.addr().to_string();

    // --- Write path: C clients, each streaming single-event appends
    // into its own monitored project. Gaps grow geometrically so the
    // traces roughly track the fitted (decaying-intensity) process and
    // stay mostly in control; the occasional excursion is part of the
    // measured path, exactly as in production.
    for clients in [1usize, 8, 32] {
        for c in 0..clients {
            let project = format!("ing{clients}x{c}");
            must_ok(
                &addr,
                "PUT",
                &format!("/projects/{project}?kind=times&model=go&prior=paper-info-times"),
                None,
            );
            must_ok(
                &addr,
                "POST",
                &format!("/projects/{project}/events"),
                Some(&sys17_batch()),
            );
            // Prime the chart: one fit, every historical gap scored, so
            // the timed appends exercise the incremental path only.
            must_ok(&addr, "GET", &format!("/projects/{project}/monitor"), None);
        }
        let mut latencies: Vec<f64> = std::thread::scope(|scope| {
            let addr = &addr;
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let path = format!("/projects/ing{clients}x{c}/events");
                        let mut times = Vec::with_capacity(per_client);
                        let mut prev_end = sys17::T_END;
                        let mut gap = 6000.0;
                        for _ in 0..per_client {
                            let t = prev_end + gap;
                            prev_end = t + 1.0;
                            gap *= 1.05;
                            let body = format!("# t_end={prev_end}\n{t}\n");
                            let t0 = Instant::now();
                            must_ok(addr, "POST", &path, Some(&body));
                            times.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        times
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        latencies.sort_by(f64::total_cmp);
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        let total_s: f64 = latencies.iter().sum::<f64>() / 1e3;
        let rps = latencies.len() as f64 / (total_s / clients as f64);
        eprintln!(
            "c={clients:<3} {} monitored appends: p50 {p50:.3} ms, p99 {p99:.3} ms, \
             ≈{rps:.0} appends/s",
            latencies.len()
        );
        for (tag, value) in [("p50", p50), ("p99", p99)] {
            metrics.insert(
                format!("serve-ingest-{tag}-ms-c{clients}"),
                Metric {
                    median_ms: value,
                    samples: latencies.len(),
                    baseline_median_ms: None,
                    speedup: None,
                },
            );
        }
    }

    // --- Alert path: each round seeds a fresh project, then appends a
    // burst of implausibly tight gaps. The append carries scoring,
    // alert publication, the chart-record appends and the triggered
    // refit; a long-poll subscriber blocked on /monitor/wait measures
    // the wake.
    let total_alerts = |addr: &str| -> u64 {
        let body = must_ok(addr, "GET", "/monitor/status", None);
        let value = json::parse(&body).expect("status parses");
        value
            .as_object()
            .and_then(|o| o.get("total_alerts"))
            .and_then(json::Value::as_f64)
            .expect("total_alerts present") as u64
    };
    let mut append_ms = Vec::new();
    let mut wake_ms = Vec::new();
    for round in 0..alert_rounds {
        let project = format!("alert{round}");
        must_ok(
            &addr,
            "PUT",
            &format!("/projects/{project}?kind=times&model=go&prior=paper-info-times"),
            None,
        );
        must_ok(
            &addr,
            "POST",
            &format!("/projects/{project}/events"),
            Some(&sys17_batch()),
        );
        must_ok(&addr, "GET", &format!("/projects/{project}/monitor"), None);
        let since = total_alerts(&addr);
        let mut burst = format!("# t_end={}\n", sys17::T_END + 1.0);
        for i in 1..=5 {
            burst.push_str(&format!("{}\n", sys17::T_END + f64::from(i) * 0.01));
        }
        let t0 = Instant::now();
        let (append_elapsed, wake_elapsed) = std::thread::scope(|scope| {
            let addr = &addr;
            let waiter = scope.spawn(move || {
                let path = format!("/monitor/wait?since={since}&timeout_ms=10000");
                let body = must_ok(addr, "GET", &path, None);
                assert!(
                    body.contains("deterioration-alarm"),
                    "long-poll returned without the alert: {body}"
                );
                t0.elapsed().as_secs_f64() * 1e3
            });
            let body = must_ok(
                addr,
                "POST",
                &format!("/projects/{project}/events"),
                Some(&burst),
            );
            let append = t0.elapsed().as_secs_f64() * 1e3;
            assert!(body.contains("\"alerts\": 2"), "burst must alarm: {body}");
            (append, waiter.join().expect("waiter thread"))
        });
        append_ms.push(append_elapsed);
        wake_ms.push(wake_elapsed);
    }
    append_ms.sort_by(f64::total_cmp);
    wake_ms.sort_by(f64::total_cmp);
    let append_median = append_ms[append_ms.len() / 2];
    let wake_median = wake_ms[wake_ms.len() / 2];
    eprintln!(
        "alert path over {alert_rounds} rounds: append median {append_median:.3} ms, \
         long-poll wake median {wake_median:.3} ms"
    );
    for (name, value) in [
        ("serve-alert-append-ms", append_median),
        ("serve-alert-wake-ms", wake_median),
    ] {
        metrics.insert(
            name.to_string(),
            Metric {
                median_ms: value,
                samples: alert_rounds,
                baseline_median_ms: None,
                speedup: None,
            },
        );
    }

    must_ok(&addr, "GET", "/healthz", None);
    handle.shutdown();
    finish(out_path, label, metrics)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let overload = args.iter().any(|a| a == "--overload");
    let ingest = args.iter().any(|a| a == "--ingest");
    let Some(out_path) = flag_value(&args, "--out") else {
        eprintln!("usage: bench_serve [--overload | --ingest] --out FILE [--label L] [--quick]");
        return ExitCode::from(2);
    };
    let label = flag_value(&args, "--label")
        .map(str::to_string)
        .unwrap_or_else(|| {
            std::path::Path::new(out_path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "BENCH".to_string())
        });
    let quick = args.iter().any(|a| a == "--quick");
    if ingest {
        return ingest_main(out_path, label, quick);
    }
    if overload {
        return overload_main(out_path, label, quick);
    }
    let per_client = if quick { 30 } else { 150 };
    let rounds = if quick { 4 } else { 10 };

    // Flush ticks disabled: the coalescing measurement must attribute
    // every refit to a query, not to the background scheduler.
    let handle = Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        flush_interval: None,
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = handle.addr().to_string();

    must_ok(
        &addr,
        "PUT",
        "/projects/sys17?kind=times&model=go&prior=paper-info-times",
        None,
    );
    must_ok(
        &addr,
        "POST",
        "/projects/sys17/events",
        Some(&sys17_batch()),
    );
    // Warm the posterior so the latency sections measure the cached
    // query path, not one giant first fit.
    must_ok(&addr, "GET", "/projects/sys17/fit", None);

    let mut metrics = BTreeMap::new();
    let query = "/projects/sys17/interval?param=omega&level=0.99";
    for clients in [1usize, 8, 64] {
        let latencies = closed_loop(&addr, clients, per_client, query);
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        let total_s: f64 = latencies.iter().sum::<f64>() / 1e3;
        let rps = latencies.len() as f64 / (total_s / clients as f64);
        eprintln!(
            "c={clients:<3} {} requests: p50 {p50:.3} ms, p99 {p99:.3} ms, ≈{rps:.0} req/s",
            latencies.len()
        );
        for (tag, value) in [("p50", p50), ("p99", p99)] {
            metrics.insert(
                format!("serve-{tag}-ms-c{clients}"),
                Metric {
                    median_ms: value,
                    samples: latencies.len(),
                    baseline_median_ms: None,
                    speedup: None,
                },
            );
        }
    }

    // Coalescing: each round makes the posterior stale, then 64 clients
    // race to /fit. A correct scheduler runs exactly one refit a round.
    let fits_before = scrape_fits(&addr);
    for round in 0..rounds {
        let t_end = sys17::T_END + 1000.0 * (round + 1) as f64;
        must_ok(
            &addr,
            "POST",
            "/projects/sys17/events",
            Some(&format!("# t_end={t_end}\n")),
        );
        closed_loop(&addr, 64, 1, "/projects/sys17/fit");
    }
    let refits = scrape_fits(&addr) - fits_before;
    let queries = (rounds * 64) as f64;
    let per_100q = refits as f64 / queries * 100.0;
    eprintln!(
        "coalescing: {refits} refits across {queries} stale-posterior queries \
         ({per_100q:.2} per 100 queries; ideal {:.2})",
        100.0 / 64.0
    );
    metrics.insert(
        "serve-refit-per-100q-c64".to_string(),
        Metric {
            median_ms: per_100q,
            samples: rounds,
            baseline_median_ms: None,
            speedup: None,
        },
    );

    handle.shutdown();

    finish(out_path, label, metrics)
}
