//! Headless performance-report runner and regression gate: the one
//! kernel benchmark of the workspace.
//!
//! `bench_report run` times the VB2 component sweeps (the paper's
//! successive substitution and, for the §6 solver conjecture, Newton),
//! the production and supervised VB2 fits, batch and thread-pool
//! fitting, NINT, the posterior reliability functionals, the predictive
//! failure counts, the mean-value band, marginal quantiles, the
//! registry's long-history append and replay and the scheduler's cache
//! hit on that history, with plain `Instant` medians, and writes a
//! `BENCH_*.json` report;
//! `bench_report compare` gates a new report against a previous one.
//!
//! ```text
//! bench_report run --out NEW.json [--label L]
//!                  [--baseline OLD.json] [--samples N] [--quick]
//! bench_report compare OLD.json NEW.json [--max-regression 0.10] [--smoke]
//! ```
//!
//! `--out` is required, so a run never overwrites a committed record by
//! default. A missing `--out`, or a `--samples` or `--max-regression`
//! that does not parse, prints the usage and exits 2.
//!
//! `compare` prints the full per-metric delta table (old ms, new ms,
//! ratio, PASS/WARN/FAIL) whether or not the gate holds; a metric that
//! regressed more than `--max-regression` exits non-zero unless
//! `--smoke` is given (CI smoke mode: warn but pass). A file that
//! fails to parse is a hard error in both modes.

use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_bench::perf::{compare_full, Metric, Report};
use nhpp_bench::Scenario;
use nhpp_data::sys17;
use nhpp_dist::Continuous;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_serve::registry::Project;
use nhpp_serve::scheduler::ensure_fit;
use nhpp_serve::{DurabilityPolicy, FitSettings, MemStorage, Metrics, ProjectConfig, Registry};
use nhpp_vb::{
    fit_supervised, RobustOptions, SolverKind, Truncation, Vb2Options, Vb2Posterior, Vb2Task,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        _ => usage(),
    }
}

/// Prints the usage and returns the usage-error exit code.
fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_report run --out FILE [--label L] [--baseline FILE] \
         [--samples N] [--quick]\n       bench_report compare OLD NEW \
         [--max-regression F] [--smoke]"
    );
    ExitCode::from(2)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Times `work` `samples` times after one warm-up call and returns the
/// median wall time in milliseconds.
fn median_ms<R>(samples: usize, mut work: impl FnMut() -> R) -> f64 {
    black_box(work());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(work());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn run(args: &[String]) -> ExitCode {
    let Some(out_path) = flag_value(args, "--out") else {
        return usage();
    };
    let label = flag_value(args, "--label")
        .map(str::to_string)
        .unwrap_or_else(|| {
            std::path::Path::new(out_path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "BENCH".to_string())
        });
    let quick = args.iter().any(|a| a == "--quick");
    let default_samples = if quick { 3 } else { 5 };
    let samples = match flag_value(args, "--samples").map(str::parse::<usize>) {
        None => default_samples,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => return usage(),
    };
    let baseline = match flag_value(args, "--baseline") {
        Some(path) => match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
            Ok(text) => match Report::from_json(&text) {
                Ok(report) => Some(report),
                Err(e) => {
                    eprintln!("bench_report: malformed baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("bench_report: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut metrics = BTreeMap::new();
    let spec = ModelSpec::goel_okumoto();
    let dt = Scenario::dt_info();
    let dg = Scenario::dg_info();
    let dt_flat = Scenario::dt_noinfo();

    // vb2-sweep: the single-thread component sweep with the paper's
    // successive-substitution solver at a fixed truncation, which
    // isolates per-component cost.
    let sweep_n_max = if quick { 500 } else { 1000 };
    let sweep_opts = Vb2Options {
        solver: SolverKind::SuccessiveSubstitution,
        truncation: Truncation::Fixed { n_max: sweep_n_max },
        threads: 1,
        ..Vb2Options::default()
    };
    // Grouped data drives the interval-mass path (incomplete-gamma
    // differences per bin) instead of the closed-form tail.
    let sweep_grouped_opts = Vb2Options {
        truncation: Truncation::Fixed {
            n_max: if quick { 200 } else { 400 },
        },
        ..sweep_opts
    };
    // The `-newton` rows are the solver ablation: the same sweeps with
    // Newton iteration on the fixed-point residual, the speedup the
    // paper's §6 conjectures for Table 7.
    for (name, scenario, options) in [
        ("vb2-sweep", &dt, sweep_opts),
        ("vb2-sweep-grouped", &dg, sweep_grouped_opts),
    ] {
        record(&mut metrics, name, samples, || {
            Vb2Posterior::fit(spec, scenario.prior, &scenario.data, options).unwrap()
        });
        let newton = Vb2Options {
            solver: SolverKind::Newton,
            ..options
        };
        record(&mut metrics, &format!("{name}-newton"), samples, || {
            Vb2Posterior::fit(spec, scenario.prior, &scenario.data, newton).unwrap()
        });
    }

    // vb2-fit: the default production configuration (adaptive
    // truncation, Auto solver), what `nhpp fit` runs;
    // vb2-fit-supervised: the same fit through the supervised pipeline,
    // whose happy path is one VB2 attempt plus its `FitReport`.
    record(&mut metrics, "vb2-fit", samples, || {
        Vb2Posterior::fit(spec, dt.prior, &dt.data, dt.vb2_options()).unwrap()
    });
    let supervised = RobustOptions {
        base: dt.vb2_options(),
        ..RobustOptions::default()
    };
    record(&mut metrics, "vb2-fit-supervised", samples, || {
        fit_supervised(spec, dt.prior, &dt.data, supervised).unwrap()
    });

    // vb2-fit-many: the batch API over all four paper scenarios,
    // repeated to give the pool real queue depth.
    let scenarios = Scenario::all();
    let tasks: Vec<Vb2Task<'_>> = scenarios
        .iter()
        .cycle()
        .take(if quick { 4 } else { 8 })
        .map(|s| Vb2Task {
            spec,
            prior: s.prior,
            data: &s.data,
            options: s.vb2_options(),
        })
        .collect();
    record(&mut metrics, "vb2-fit-many", samples, || {
        for r in Vb2Posterior::fit_many(&tasks, 4) {
            r.unwrap();
        }
    });

    // vb2-fit-many-lanes: the batch API over independent failure-time
    // projects on the successive-substitution solver, so every task's
    // N-sweep rides the four-lane kernels inside a threaded pool — the
    // shape of the server's coalesced refit ticks.
    let lane_opts = Vb2Options {
        solver: SolverKind::SuccessiveSubstitution,
        truncation: Truncation::Fixed {
            n_max: if quick { 250 } else { 500 },
        },
        ..Vb2Options::default()
    };
    let lane_tasks: Vec<Vb2Task<'_>> = [&dt, &dt_flat]
        .into_iter()
        .cycle()
        .take(if quick { 4 } else { 8 })
        .map(|s| Vb2Task {
            spec,
            prior: s.prior,
            data: &s.data,
            options: lane_opts,
        })
        .collect();
    record(&mut metrics, "vb2-fit-many-lanes", samples, || {
        for r in Vb2Posterior::fit_many(&lane_tasks, 4) {
            r.unwrap();
        }
    });

    // vb2-parallel-t{1,4}: thread-count scaling on the flat-prior sweep,
    // large fixed truncation (the component-dominated regime).
    let par_n_max = if quick { 800 } else { 2000 };
    for threads in [1usize, 4] {
        let options = Vb2Options {
            solver: SolverKind::SuccessiveSubstitution,
            truncation: Truncation::Fixed { n_max: par_n_max },
            threads,
            ..Vb2Options::default()
        };
        record(
            &mut metrics,
            &format!("vb2-parallel-t{threads}"),
            samples,
            || Vb2Posterior::fit(spec, dt_flat.prior, &dt_flat.data, options).unwrap(),
        );
    }

    // nint-fit: the numerical-integration reference on its default
    // 200×200 grid, integration box from a VB2 pre-fit (as in §6).
    let vb2_dt = Vb2Posterior::fit(spec, dt.prior, &dt.data, dt.vb2_options()).unwrap();
    let bounds_dt = bounds_from_posterior(&vb2_dt);
    record(&mut metrics, "nint-fit", samples, || {
        NintPosterior::fit(spec, dt.prior, &dt.data, bounds_dt, NintOptions::default()).unwrap()
    });
    let vb2_dg = Vb2Posterior::fit(spec, dg.prior, &dg.data, dg.vb2_options()).unwrap();
    let bounds_dg = bounds_from_posterior(&vb2_dg);
    record(&mut metrics, "nint-fit-grouped", samples, || {
        NintPosterior::fit(spec, dg.prior, &dg.data, bounds_dg, NintOptions::default()).unwrap()
    });

    // reliability-*: the posterior functionals on the System 17 GO info
    // posterior. `reliability-point` scores every ordered-statistics
    // chart gap plus one 0.01 s burst gap on a warm β-table;
    // `reliability-point-cold` is the first call on a fresh clone of a
    // never-queried posterior, so it carries the table build;
    // `reliability-interval` is the `/reliability` route's interval.
    let gaps: Vec<(f64, f64)> = sys17::FAILURE_TIMES
        .windows(2)
        .map(|pair| (pair[0], pair[1] - pair[0]))
        .chain([(sys17::T_END, 0.01)])
        .collect();
    let mission = sys17::T_END / 100.0;
    let warm = vb2_dt.clone();
    record(&mut metrics, "reliability-point", samples, || {
        gaps.iter()
            .map(|&(t, u)| warm.reliability_point(t, u))
            .sum::<f64>()
    });
    record(&mut metrics, "reliability-point-cold", samples, || {
        vb2_dt.clone().reliability_point(sys17::T_END, mission)
    });
    record(&mut metrics, "reliability-interval", samples, || {
        warm.reliability_interval(sys17::T_END, mission, 0.9)
    });
    // predict: the `/predict` route's predictive failure-count pmf over
    // the same window, on the warm posterior.
    record(&mut metrics, "predict", samples, || {
        warm.predictive_failures(sys17::T_END, mission).unwrap()
    });
    // band: the `/band` route's default band, 20 points over
    // (0, t_end] at level 0.99, on the same warm posterior.
    let band_grid: Vec<f64> = (1..=20).map(|i| sys17::T_END * i as f64 / 20.0).collect();
    record(&mut metrics, "band", samples, || {
        warm.mean_value_band(&band_grid, 0.99).unwrap()
    });

    // credible-interval: the ω and β 0.95 equal-tail intervals and their
    // medians (Tables 2–3, and what a calibrated `/interval` solves);
    // quantile-tail: the marginal solver deep in the upper tail, at the
    // ω quantile 1 − 1e-12.
    record(&mut metrics, "credible-interval", samples, || {
        (
            warm.credible_interval_omega(0.95),
            warm.quantile_omega(0.5),
            warm.credible_interval_beta(0.95),
            warm.quantile_beta(0.5),
        )
    });
    record(&mut metrics, "quantile-tail", samples, || {
        warm.mixture().marginal_omega().quantile(1.0 - 1e-12)
    });

    // append-long-history: 100 one-event appends (per sample, so the
    // microsecond call clears timer noise) into a 10^5-event project on
    // in-memory storage, so the row times staging rather than fsync;
    // replay-long-history: reopening a 10^5-event snapshot plus 63
    // single-event records, the worst case between periodic snapshots.
    let (_, appending) = long_history(LONG_HISTORY);
    let mut newest = LONG_HISTORY;
    record(&mut metrics, "append-long-history", samples, || {
        for _ in 0..100 {
            newest += 1;
            appending.ingest(&one_event(newest)).expect("valid batch");
        }
    });
    // cache-hit-long-history: 100 `ensure_fit` calls per sample on a
    // 10^5-event project whose posterior is cached at its version, so
    // each is a cache hit: a version check, not a copy of the history.
    let (_, cached) = long_history(LONG_HISTORY);
    let (settings, fit_metrics) = (FitSettings::default(), Metrics::new());
    ensure_fit(&cached, &settings, &fit_metrics).expect("the long history fits");
    record(&mut metrics, "cache-hit-long-history", samples, || {
        for _ in 0..100 {
            black_box(ensure_fit(&cached, &settings, &fit_metrics).is_ok());
        }
    });
    let (storage, replaying) = long_history(LONG_HISTORY);
    replaying.force_compact().expect("snapshot and compact");
    for i in 1..=63 {
        replaying
            .ingest(&one_event(LONG_HISTORY + i))
            .expect("valid batch");
    }
    let files = storage.dump();
    record(&mut metrics, "replay-long-history", samples, || {
        Registry::open_with(Arc::new(MemStorage::from_map(files.clone())), MANUAL).expect("replay")
    });

    // Derived throughput, printed for humans; the gated metrics above
    // are all time-valued so the comparison rule stays uniform.
    if let Some(m) = metrics.get("vb2-sweep") {
        let comps = sweep_n_max as f64;
        println!(
            "derived: vb2-sweep throughput ≈ {:.0} components/s",
            comps / (m.median_ms / 1e3)
        );
    }

    if let Some(base) = &baseline {
        for (name, metric) in metrics.iter_mut() {
            if let Some(old) = base.metrics.get(name) {
                metric.baseline_median_ms = Some(old.median_ms);
                if metric.median_ms > 0.0 {
                    metric.speedup = Some(old.median_ms / metric.median_ms);
                }
            }
        }
    }

    let report = Report { label, metrics };
    let json = report.to_json();
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("bench_report: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}:");
    for (name, m) in &report.metrics {
        match m.speedup {
            Some(s) => println!(
                "  {name:<20} {:>10.3} ms  ({:.2}x vs baseline {:.3} ms)",
                m.median_ms,
                s,
                m.baseline_median_ms.unwrap_or(f64::NAN)
            ),
            None => println!("  {name:<20} {:>10.3} ms", m.median_ms),
        }
    }
    ExitCode::SUCCESS
}

/// Failure times in the long-history rows.
const LONG_HISTORY: usize = 100_000;

/// Snapshots and compaction only on request.
const MANUAL: DurabilityPolicy = DurabilityPolicy {
    snapshot_every: 0,
    compact_at_bytes: 0,
};

/// The batch holding failure number `i`, at `10·i` seconds.
fn one_event(i: usize) -> String {
    format!("# t_end={0}\n{0}\n", 10 * i)
}

/// A durable in-memory project holding failures `1..=events`, loaded in
/// 25 000-event batches.
fn long_history(events: usize) -> (Arc<MemStorage>, Arc<Project>) {
    let storage = Arc::new(MemStorage::new());
    let registry = Registry::open_with(storage.clone(), MANUAL).expect("in-memory registry");
    let config = ProjectConfig::from_labels("times", "go", "flat").expect("valid config");
    registry.create("long", config).expect("create");
    let project = registry.get("long").expect("created above");
    for start in (1..=events).step_by(25_000) {
        let end = (start + 24_999).min(events);
        let times: String = (start..=end).map(|i| format!("{}\n", 10 * i)).collect();
        project
            .ingest(&format!("# t_end={}\n{times}", 10 * end))
            .expect("valid batch");
    }
    (storage, project)
}

fn record<R>(
    metrics: &mut BTreeMap<String, Metric>,
    name: &str,
    samples: usize,
    work: impl FnMut() -> R,
) {
    let median = median_ms(samples, work);
    eprintln!("timed {name:<20} {median:>10.3} ms ({samples} samples)");
    metrics.insert(
        name.to_string(),
        Metric {
            median_ms: median,
            samples,
            baseline_median_ms: None,
            speedup: None,
        },
    );
}

fn run_compare(args: &[String]) -> ExitCode {
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let (Some(old_path), Some(new_path)) = (positional.first(), positional.get(1)) else {
        return usage();
    };
    let max_regression = match flag_value(args, "--max-regression").map(str::parse::<f64>) {
        None => 0.10,
        Some(Ok(f)) if f.is_finite() => f,
        Some(_) => return usage(),
    };
    let smoke = args.iter().any(|a| a == "--smoke");

    let mut reports = Vec::new();
    for path in [old_path, new_path] {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_report: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match Report::from_json(&text) {
            Ok(r) => reports.push(r),
            Err(e) => {
                // Malformed input is always a hard failure, smoke mode
                // or not: an unreadable report must not pass the gate.
                eprintln!("bench_report: malformed report {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (old, new) = (&reports[0], &reports[1]);
    let comparison = compare_full(old, new, max_regression);
    if comparison.deltas.is_empty() {
        eprintln!("bench_report: no shared metrics between {old_path} and {new_path}");
        return ExitCode::FAILURE;
    }
    // New benchmarks are benign; report them for the record.
    for name in &comparison.missing_in_baseline {
        println!("  {name:<20} new metric (not in baseline)");
    }
    // A benchmark that vanished from the new report means a scenario
    // was renamed or deleted: warn in smoke mode, fail the real gate —
    // a silently dropped metric must not read as "no regression".
    let mut dropped = false;
    for name in &comparison.missing_in_new {
        dropped = true;
        if smoke {
            println!("  {name:<20} MISSING from new report (smoke mode: warning only)");
        } else {
            eprintln!("  {name:<20} MISSING from new report");
        }
    }
    // The full per-metric delta table, printed on every run (pass or
    // fail): PASS = at or below baseline, WARN = slower but inside the
    // gate, FAIL = regressed past `--max-regression`.
    let mut regressed = false;
    println!(
        "  {:<20} {:>12} {:>12} {:>8}  verdict",
        "metric", "old ms", "new ms", "ratio"
    );
    for d in &comparison.deltas {
        let verdict = if d.regressed {
            "FAIL"
        } else if d.change > 0.0 {
            "WARN"
        } else {
            "PASS"
        };
        println!(
            "  {:<20} {:>12.3} {:>12.3} {:>7.3}x  {verdict} ({:+.1}%)",
            d.name,
            d.old_ms,
            d.new_ms,
            d.new_ms / d.old_ms,
            d.change * 100.0
        );
        regressed |= d.regressed;
    }
    if dropped && !smoke {
        eprintln!(
            "bench_report: FAIL — {} baseline metric(s) missing from the new report",
            comparison.missing_in_new.len()
        );
        return ExitCode::FAILURE;
    }
    if regressed {
        if smoke {
            println!(
                "bench_report: regression beyond {:.0}% (smoke mode: warning only)",
                max_regression * 100.0
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "bench_report: FAIL — at least one metric regressed more than {:.0}%",
                max_regression * 100.0
            );
            ExitCode::FAILURE
        }
    } else {
        println!(
            "bench_report: no metric regressed more than {:.0}%",
            max_regression * 100.0
        );
        ExitCode::SUCCESS
    }
}
