//! Subcommand implementations. Every command is a pure function from
//! parsed arguments to an output string, so the full CLI surface is
//! unit-testable without spawning processes.

use crate::args::{ArgError, ParsedArgs};
use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::mcmc::{McmcOptions, McmcPosterior};
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_data::simulate::NhppSimulator;
use nhpp_data::{io, laplace_trend_factor, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::selection::{akaike_weights, score_models};
use nhpp_models::{confidence, ModelSpec, Posterior};
use nhpp_vb::{
    fit_supervised, FitReport, RetryPolicy, RobustOptions, Truncation, Vb1Options, Vb1Posterior,
    Vb2Options, Vb2Posterior,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/validation failure.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Any downstream failure, with context.
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(cmd) => {
                write!(f, "unknown command '{cmd}' (try 'nhpp help')")
            }
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

fn run_err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> CliError + '_ {
    move |e| CliError::Run(format!("{context}: {e}"))
}

/// Usage text.
pub const HELP: &str = "\
nhpp — Bayesian interval estimation for NHPP software reliability models

USAGE:
  nhpp <command> [--key value ...] [--grouped]

COMMANDS:
  fit       Fit a posterior and print parameter estimates and intervals
  report    Full markdown analysis: trend, model selection, fit,
            growth-curve band, prediction
  predict   Posterior-predictive failure counts over a future window
  simulate  Generate a synthetic failure trace (CSV on stdout)
  select    Rank model families by AIC/BIC on the data
  trend     Laplace trend test for reliability growth
  serve     Run the long-lived fitting service (HTTP/1.1 JSON)
  client    Talk to a running service (one request per invocation)
  fsck      Verify a service data directory (checksums, snapshots,
            dry-run recovery) without modifying it
  compact   Snapshot projects and rewrite their logs to the minimum
  calibrate Learn or inspect an interval-calibration dictionary
  help      Show this message

COMMON OPTIONS:
  --data FILE        input CSV ('# t_end=..' + one time per line, or
                     'boundary,count' lines with --grouped)
  --grouped          treat the input as grouped counts
  --model M          go | dss | gamma:<alpha0>        [default go]
  --method M         vb2 | vb1 | laplace | mcmc | nint | profile | all
                     [default vb2]
  --prior P          flat | paper-info-times | paper-info-grouped
                     | wmean,wsd,bmean,bsd            [default flat]
  --level L          credible/confidence level        [default 0.95]
  --threads N        worker threads for the VB2 component sweep
                     (1 = serial, 0 = auto-detect)    [default 1]

ROBUSTNESS (VB2 fits run under a supervised retry/fallback pipeline):
  --max-attempts N   VB2 retry-ladder length          [default 4]
  --strict           retry VB2 but never degrade to VB1/Laplace
  --fallback         allow the VB2 -> VB1 -> Laplace cascade [default]

SERVICE (see README \"Running as a service\"):
  serve  --addr A        bind address            [default 127.0.0.1:7878]
         --data-dir DIR  durable project logs (omit for in-memory)
         --workers N     request workers (0 = auto)
         --flush-ms MS   background refit tick, 0 disables [default 500]
         --threads N     threads per fit (0 = auto)
         --queue N       admission queue bound, 0 = unbounded
                         (full queue sheds 503 + Retry-After) [default 1024]
         --retry-after-secs S  seconds advertised on shed    [default 1]
         --fit-deadline-ms MS  per-request fit deadline, 0 = none
         --max-cached-fits N   LRU bound on cached posteriors, 0 = none
         --snapshot-every N    snapshot every N batches, 0 = never
                               [default 64]
         --compact-at-bytes B  compact logs past B bytes, 0 = never
                               [default 1048576]
         --calibration FILE    nhpp-calibration/v1 dictionary; enables
                               ?calibrated=true on interval/band/spc
         --monitor             per-project SPC control charts scored on
                               every ingest, with change-point alerts
         --monitor-scheme S    alerting scheme: os | mmle | both
                               [default both]
         --monitor-run-length N  consecutive out-of-control points that
                               raise an alert [default 3]
         --quiet         suppress per-request log lines
  fsck   --data-dir DIR [--project ID]  nonzero exit on corruption a
         restart could not absorb (torn tails are reported, but clean)
  compact --data-dir DIR [--project ID]  bound future replay cost
  client --addr A --op OP --project ID
         OP: create | ingest | fit | interval | predict | reliability
             | spc | monitor | metrics | check
         create:  --kind times|grouped --model M --prior P
         ingest:  --file CSV [--batch N]  replay a trace, N events at a time
         check:   --golden FILE --prefix P  compare the served posterior
                  against the golden fixture (nonzero exit on mismatch)
         monitor: [--since N] [--polls N] [--timeout-ms MS]  tail
                  change-point alerts over the long-poll subscription
         --calibrated    ask for calibrated intervals (interval | spc)

CALIBRATION (conformance-driven interval recalibration):
  calibrate learn  [--smoke] [--reps N] [--seed S] [--level L]
                   [--label NAME] [--out FILE]
                   sweep the scenario grid, learn per-regime factors,
                   print (or write) the nhpp-calibration/v1 dictionary
  calibrate show   --file FILE   pretty-print a learned dictionary

EXAMPLES:
  nhpp fit --data failures.csv --prior 50,16,1e-5,3.2e-6 --method all
  nhpp predict --data counts.csv --grouped --window 5
  nhpp simulate --omega 40 --beta 1e-5 --t-end 200000 --seed 7
  nhpp serve --data-dir ./projects &
  nhpp client --op create --project sys17 --prior paper-info-times
";

/// Dispatches a parsed command line and returns the printable output.
///
/// # Errors
///
/// [`CliError`] on unknown commands, bad arguments or downstream
/// failures.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "fit" => cmd_fit(args),
        "report" => cmd_report(args),
        "predict" => cmd_predict(args),
        "simulate" => cmd_simulate(args),
        "select" => cmd_select(args),
        "trend" => cmd_trend(args),
        "serve" => crate::service::cmd_serve(args),
        "client" => crate::service::cmd_client(args),
        "fsck" => crate::service::cmd_fsck(args),
        "compact" => crate::service::cmd_compact(args),
        "calibrate" => cmd_calibrate(args),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// `nhpp calibrate <learn|show>`: run the conformance-driven interval
/// calibration learner, or inspect a learned dictionary.
fn cmd_calibrate(args: &ParsedArgs) -> Result<String, CliError> {
    match args.op.as_deref() {
        Some("learn") => cmd_calibrate_learn(args),
        Some("show") => cmd_calibrate_show(args),
        Some(other) => Err(CliError::Run(format!(
            "unknown calibrate operation '{other}' (learn | show)"
        ))),
        None => Err(CliError::Run(
            "calibrate needs an operation: learn | show".into(),
        )),
    }
}

fn cmd_calibrate_learn(args: &ParsedArgs) -> Result<String, CliError> {
    use nhpp_conformance::{learn, CalibrateConfig, Grid};
    let smoke = args.flag("smoke");
    let mut config = CalibrateConfig {
        label: format!("CALIBRATION_{}", if smoke { "SMOKE" } else { "FULL" }),
        ..CalibrateConfig::default()
    };
    if let Some(label) = args.get("label") {
        config.label = label.to_string();
    }
    config.replications = args.get_u64("reps", config.replications as u64)? as usize;
    config.seed = args.get_u64("seed", config.seed)?;
    config.level = args.get_f64("level", config.level)?;
    if !(config.level > 0.0 && config.level < 1.0) {
        return Err(CliError::Run("--level must lie strictly in (0, 1)".into()));
    }
    let grid = if smoke { Grid::Smoke } else { Grid::Full };
    let dict = learn(&grid.cells(), &config);
    let json = dict.to_json();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(run_err(&format!("writing {path}")))?;
            Ok(format!(
                "calibration dictionary '{}' ({} entries) written to {path}\n",
                dict.label,
                dict.entries.len()
            ))
        }
        None => Ok(json),
    }
}

fn cmd_calibrate_show(args: &ParsedArgs) -> Result<String, CliError> {
    use nhpp_vb::CalibrationDictionary;
    let path = args.require("file")?;
    let text = std::fs::read_to_string(path).map_err(run_err(&format!("reading {path}")))?;
    let dict = CalibrationDictionary::parse(&text).map_err(run_err(&format!("parsing {path}")))?;
    let mut out = String::new();
    writeln!(
        out,
        "dictionary '{}' — {} entries, level {:.0}%, {} reps/regime, seed {:#x}",
        dict.label,
        dict.entries.len(),
        dict.level * 100.0,
        dict.replications,
        dict.seed
    )
    .unwrap();
    writeln!(
        out,
        "{:<24} {:>8} {:>10} {:>12} {:>8}",
        "regime/method", "factor", "raw_cov", "cal_cov", "fitted"
    )
    .unwrap();
    for (key, entry) in &dict.entries {
        writeln!(
            out,
            "{:<24} {:>8.4} {:>10.4} {:>12.4} {:>8}",
            key, entry.factor, entry.raw_rate, entry.calibrated_rate, entry.fitted
        )
        .unwrap();
    }
    Ok(out)
}

fn load_data(args: &ParsedArgs) -> Result<ObservedData, CliError> {
    let path = args.require("data")?;
    let file = File::open(path).map_err(run_err(&format!("cannot open {path}")))?;
    let reader = BufReader::new(file);
    if args.flag("grouped") {
        Ok(io::read_grouped(reader)
            .map_err(run_err("parsing grouped data"))?
            .into())
    } else {
        Ok(io::read_failure_times(reader)
            .map_err(run_err("parsing failure times"))?
            .into())
    }
}

/// `--model`, by `ModelSpec`'s grammar; default `go`.
fn model(args: &ParsedArgs) -> Result<ModelSpec, CliError> {
    args.get("model")
        .unwrap_or("go")
        .parse()
        .map_err(run_err("--model"))
}

/// `--prior`, by `NhppPrior`'s grammar; default `flat`.
fn prior(args: &ParsedArgs) -> Result<NhppPrior, CliError> {
    args.get("prior")
        .unwrap_or("flat")
        .parse()
        .map_err(run_err("--prior"))
}

/// Supervised-pipeline options from the CLI flags.
fn robust_options(
    args: &ParsedArgs,
    prior: &NhppPrior,
    data: &ObservedData,
) -> Result<RobustOptions, CliError> {
    if args.flag("strict") && args.flag("fallback") {
        return Err(CliError::Run(
            "--strict and --fallback are mutually exclusive".into(),
        ));
    }
    let max_attempts = args.get_u64("max-attempts", 4)? as u32;
    if max_attempts == 0 {
        return Err(CliError::Run("--max-attempts must be at least 1".into()));
    }
    Ok(RobustOptions {
        base: Vb2Options {
            truncation: Truncation::for_prior(prior, data.total_count() as u64),
            threads: args.get_u64("threads", 1)? as usize,
            ..Vb2Options::default()
        },
        retry: RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        },
        fallback: !args.flag("strict"),
        fault: None,
        total_deadline: None,
    })
}

/// Renders a pipeline degradation report (provenance, attempts,
/// warnings) for the CLI output.
fn render_report(out: &mut String, report: &FitReport) {
    writeln!(
        out,
        "pipeline: provenance={}, attempts={}",
        report.provenance,
        report.total_attempts()
    )
    .unwrap();
    if !report.is_clean() {
        for attempt in &report.attempts {
            let outcome = match &attempt.outcome {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("failed: {e}"),
            };
            writeln!(
                out,
                "  attempt {}/{}: {} — {outcome}",
                attempt.attempt, attempt.method, attempt.detail
            )
            .unwrap();
        }
        for warning in &report.warnings {
            writeln!(out, "  warning: {warning}").unwrap();
        }
    }
}

fn fit_method(
    method: &str,
    spec: ModelSpec,
    prior: NhppPrior,
    data: &ObservedData,
    robust: RobustOptions,
) -> Result<(Box<dyn Posterior>, Option<FitReport>), CliError> {
    match method {
        "vb2" => {
            let fit =
                fit_supervised(spec, prior, data, robust).map_err(run_err("VB2 supervised fit"))?;
            Ok((Box::new(fit.posterior), Some(fit.report)))
        }
        "vb1" => Ok((
            Box::new(
                Vb1Posterior::fit(spec, prior, data, Vb1Options::default())
                    .map_err(run_err("VB1 fit"))?,
            ),
            None,
        )),
        "laplace" => Ok((
            Box::new(LaplacePosterior::fit(spec, prior, data).map_err(run_err("Laplace fit"))?),
            None,
        )),
        "mcmc" => Ok((
            Box::new(
                McmcPosterior::fit_gibbs(spec, prior, data, McmcOptions::default())
                    .map_err(run_err("MCMC fit"))?,
            ),
            None,
        )),
        "nint" => {
            let vb2 = Vb2Posterior::fit(spec, prior, data, robust.base)
                .map_err(run_err("VB2 pre-fit for NINT bounds"))?;
            Ok((
                Box::new(
                    NintPosterior::fit(
                        spec,
                        prior,
                        data,
                        bounds_from_posterior(&vb2),
                        NintOptions::default(),
                    )
                    .map_err(run_err("NINT fit"))?,
                ),
                None,
            ))
        }
        other => Err(CliError::Run(format!(
            "unknown --method '{other}' (vb2 | vb1 | laplace | mcmc | nint | profile | all)"
        ))),
    }
}

fn cmd_fit(args: &ParsedArgs) -> Result<String, CliError> {
    let data = load_data(args)?;
    let spec = model(args)?;
    let prior = prior(args)?;
    let level = args.get_f64("level", 0.95)?;
    let method = args.get("method").unwrap_or("vb2").to_string();

    let mut out = String::new();
    writeln!(
        out,
        "data: {} failures to t={}, model alpha0={}, level {:.0}%",
        data.total_count(),
        data.observation_end(),
        spec.alpha0(),
        level * 100.0
    )
    .unwrap();

    if method == "profile" {
        let w = confidence::profile_interval(spec, &data, confidence::Param::Omega, level)
            .map_err(run_err("profile interval (omega)"))?;
        let b = confidence::profile_interval(spec, &data, confidence::Param::Beta, level)
            .map_err(run_err("profile interval (beta)"))?;
        let wald =
            confidence::wald_intervals(spec, &data, level).map_err(run_err("wald intervals"))?;
        writeln!(
            out,
            "MLE: omega = {:.4}, beta = {:.6e}",
            wald.mle.0, wald.mle.1
        )
        .unwrap();
        writeln!(out, "profile CI omega: {:.4} .. {:.4}", w.0, w.1).unwrap();
        writeln!(out, "profile CI beta : {:.6e} .. {:.6e}", b.0, b.1).unwrap();
        writeln!(
            out,
            "wald    CI omega: {:.4} .. {:.4}",
            wald.omega.0, wald.omega.1
        )
        .unwrap();
        writeln!(
            out,
            "wald    CI beta : {:.6e} .. {:.6e}",
            wald.beta.0, wald.beta.1
        )
        .unwrap();
        return Ok(out);
    }

    let methods: Vec<String> = if method == "all" {
        ["nint", "laplace", "mcmc", "vb1", "vb2"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    } else {
        vec![method]
    };
    writeln!(
        out,
        "{:<8} {:>10} {:>12} {:>22} {:>12}",
        "method", "E[omega]", "E[beta]", "omega interval", "Cov"
    )
    .unwrap();
    let robust = robust_options(args, &prior, &data)?;
    let mut reports = Vec::new();
    for m in methods {
        let (posterior, report) = fit_method(&m, spec, prior, &data, robust)?;
        let (lo, hi) = posterior.credible_interval_omega(level);
        writeln!(
            out,
            "{:<8} {:>10.4} {:>12.5e} {:>10.3} .. {:>8.3} {:>12.3e}",
            posterior.method_name(),
            posterior.mean_omega(),
            posterior.mean_beta(),
            lo,
            hi,
            posterior.covariance(),
        )
        .unwrap();
        reports.extend(report);
    }
    for report in &reports {
        render_report(&mut out, report);
    }
    Ok(out)
}

fn cmd_report(args: &ParsedArgs) -> Result<String, CliError> {
    let data = load_data(args)?;
    let prior = prior(args)?;
    let level = args.get_f64("level", 0.95)?;
    let mut out = String::new();
    writeln!(out, "# NHPP reliability analysis\n").unwrap();
    writeln!(
        out,
        "- observations: **{}** failures up to t = {}",
        data.total_count(),
        data.observation_end()
    )
    .unwrap();

    // Trend (failure-time data only).
    if let nhpp_data::ObservedData::Times(times) = &data {
        let trend = nhpp_data::laplace_trend_factor(times);
        writeln!(
            out,
            "- Laplace trend factor: **{trend:.2}** ({})",
            if trend < -1.96 {
                "significant reliability growth"
            } else {
                "no significant growth trend"
            }
        )
        .unwrap();
    }

    // Model selection.
    let candidates = [
        ("goel-okumoto", ModelSpec::goel_okumoto()),
        ("delayed-s-shaped", ModelSpec::delayed_s_shaped()),
    ];
    let scores = score_models(&candidates, &data).map_err(run_err("scoring"))?;
    let weights = akaike_weights(&scores);
    writeln!(out, "\n## Model selection\n").unwrap();
    writeln!(out, "| model | logLik | AIC | weight |").unwrap();
    writeln!(out, "|---|---|---|---|").unwrap();
    for (score, weight) in scores.iter().zip(&weights) {
        writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.3} |",
            score.name, score.fit.log_likelihood, score.aic, weight
        )
        .unwrap();
    }
    let spec = scores[0].spec;
    writeln!(out, "\nproceeding with **{}**.", scores[0].name).unwrap();

    // Posterior fit through the supervised pipeline.
    let robust = robust_options(args, &prior, &data)?;
    let fit = fit_supervised(spec, prior, &data, robust).map_err(run_err("supervised fit"))?;
    let posterior = fit.posterior;
    let (w_lo, w_hi) = posterior.credible_interval_omega(level);
    let (b_lo, b_hi) = posterior.credible_interval_beta(level);
    writeln!(out, "\n## Posterior ({})\n", posterior.method_name()).unwrap();
    writeln!(
        out,
        "| quantity | estimate | {:.0}% interval |",
        level * 100.0
    )
    .unwrap();
    writeln!(out, "|---|---|---|").unwrap();
    writeln!(
        out,
        "| total faults ω | {:.2} | {:.2} .. {:.2} |",
        posterior.mean_omega(),
        w_lo,
        w_hi
    )
    .unwrap();
    writeln!(
        out,
        "| detection rate β | {:.4e} | {:.4e} .. {:.4e} |",
        posterior.mean_beta(),
        b_lo,
        b_hi
    )
    .unwrap();
    if let Some(mean_n) = posterior.mean_n() {
        writeln!(
            out,
            "| residual faults | {:.2} | — |",
            mean_n - data.total_count() as f64
        )
        .unwrap();
    }

    // Provenance: which cascade stage produced the numbers above.
    writeln!(out, "\n## Fitting pipeline\n").unwrap();
    render_report(&mut out, &fit.report);

    // Goodness of fit before anyone trusts the intervals.
    let point_model =
        nhpp_models::GammaNhpp::new(spec, posterior.mean_omega(), posterior.mean_beta())
            .map_err(run_err("point model"))?;
    writeln!(out, "\n## Goodness of fit\n").unwrap();
    match &data {
        nhpp_data::ObservedData::Times(times) => {
            match nhpp_models::gof::ks_test(&point_model, times) {
                Ok(gof) => writeln!(
                    out,
                    "Kolmogorov-Smirnov (time-rescaled): D = {:.4}, p = {:.3} — {}",
                    gof.statistic,
                    gof.p_value,
                    if gof.p_value > 0.05 {
                        "no evidence against the model"
                    } else {
                        "MODEL REJECTED at 5%"
                    }
                )
                .unwrap(),
                Err(e) => writeln!(out, "KS test unavailable: {e}").unwrap(),
            }
        }
        nhpp_data::ObservedData::Grouped(grouped) => {
            match nhpp_models::gof::chi_square_test(&point_model, grouped) {
                Ok(gof) => writeln!(
                    out,
                    "chi-square ({} dof): X2 = {:.3}, p = {:.3} — {}",
                    gof.dof,
                    gof.statistic,
                    gof.p_value,
                    if gof.p_value > 0.05 {
                        "no evidence against the model"
                    } else {
                        "MODEL REJECTED at 5%"
                    }
                )
                .unwrap(),
                Err(e) => writeln!(out, "chi-square test unavailable: {e}").unwrap(),
            }
        }
    }

    // Growth-curve band over eight grid points (VB2 mixture only; the
    // fallback posteriors have no mixture to integrate over).
    let t_end = data.observation_end();
    let grid: Vec<f64> = (1..=8).map(|i| t_end * i as f64 / 8.0).collect();
    writeln!(out, "\n## Growth-curve credible band\n").unwrap();
    match posterior.mean_value_band(&grid, level) {
        Some(band) => {
            let band = band.map_err(run_err("mean value band"))?;
            writeln!(out, "| t | lower | mean Λ(t) | upper |").unwrap();
            writeln!(out, "|---|---|---|---|").unwrap();
            for point in band {
                writeln!(
                    out,
                    "| {:.1} | {:.2} | {:.2} | {:.2} |",
                    point.t, point.lower, point.mean, point.upper
                )
                .unwrap();
            }
        }
        None => writeln!(
            out,
            "unavailable: the {} fallback posterior has no mixture representation",
            posterior.method_name()
        )
        .unwrap(),
    }

    // Prediction over the next 10% of the observation window.
    let window = t_end * 0.1;
    let predictive = posterior
        .predictive_failures(t_end, window)
        .map_err(run_err("predictive distribution"))?;
    let (p_lo, p_hi) = predictive
        .interval(level)
        .ok_or_else(|| CliError::Run("invalid level".into()))?;
    writeln!(out, "\n## Prediction (next {window:.1} time units)\n").unwrap();
    writeln!(
        out,
        "expected failures **{:.2}** ({:.0}% predictive interval {p_lo} .. {p_hi}); P(no failure) = {:.4}",
        predictive.mean(),
        level * 100.0,
        predictive.prob_zero()
    )
    .unwrap();
    Ok(out)
}

fn cmd_predict(args: &ParsedArgs) -> Result<String, CliError> {
    let data = load_data(args)?;
    let spec = model(args)?;
    let prior = prior(args)?;
    let window = args.get_f64("window", data.observation_end() * 0.1)?;
    let level = args.get_f64("level", 0.95)?;

    let robust = robust_options(args, &prior, &data)?;
    let fit = fit_supervised(spec, prior, &data, robust).map_err(run_err("supervised fit"))?;
    let posterior = fit.posterior;
    let t = data.observation_end();
    let predictive = posterior
        .predictive_failures(t, window)
        .map_err(run_err("predictive distribution"))?;

    let mut out = String::new();
    if !fit.report.is_clean() {
        render_report(&mut out, &fit.report);
    }
    writeln!(out, "window: ({t}, {}]", t + window).unwrap();
    writeln!(
        out,
        "expected failures: {:.3} (sd {:.3})",
        predictive.mean(),
        predictive.variance().sqrt()
    )
    .unwrap();
    let (lo, hi) = predictive
        .interval(level)
        .ok_or_else(|| CliError::Run("invalid level".into()))?;
    writeln!(
        out,
        "{:.0}% predictive interval: {lo} .. {hi} failures",
        level * 100.0
    )
    .unwrap();
    writeln!(out, "P(no failure) = {:.4}", predictive.prob_zero()).unwrap();
    writeln!(out, "\n k   P(K=k)    cumulative").unwrap();
    let mut cumulative = 0.0;
    for k in 0..=predictive.k_max().min(15) {
        cumulative += predictive.pmf(k);
        writeln!(
            out,
            "{k:>2}   {:>8.5}  {:>8.5}",
            predictive.pmf(k),
            cumulative
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_simulate(args: &ParsedArgs) -> Result<String, CliError> {
    let omega = args.get_f64("omega", 40.0)?;
    let beta = args.get_f64("beta", 1e-5)?;
    let t_end = args.get_f64("t-end", 2e5)?;
    let seed = args.get_u64("seed", 42)?;
    let spec = model(args)?;
    let law = spec.failure_law(beta).map_err(run_err("failure law"))?;
    let sim = NhppSimulator::new(omega, law).map_err(run_err("simulator"))?;
    let mut rng = StdRng::seed_from_u64(seed);

    let mut out = Vec::new();
    if let Some(bins) = args.get("bins") {
        let bins: usize = bins
            .parse()
            .map_err(|_| CliError::Run("--bins expects a positive integer".into()))?;
        let width = t_end / bins as f64;
        let boundaries = (1..=bins).map(|i| i as f64 * width).collect();
        let grouped = sim
            .simulate_grouped(&mut rng, boundaries)
            .map_err(run_err("simulation"))?;
        io::write_grouped(&mut out, &grouped).map_err(run_err("serialising"))?;
    } else {
        let trace = sim
            .simulate_censored(&mut rng, t_end)
            .map_err(run_err("simulation"))?;
        io::write_failure_times(&mut out, &trace).map_err(run_err("serialising"))?;
    }
    String::from_utf8(out).map_err(|e| CliError::Run(e.to_string()))
}

fn cmd_select(args: &ParsedArgs) -> Result<String, CliError> {
    let data = load_data(args)?;
    let candidates = [
        ("goel-okumoto", ModelSpec::goel_okumoto()),
        ("delayed-s-shaped", ModelSpec::delayed_s_shaped()),
        (
            "gamma(0.5)",
            ModelSpec::gamma_type(0.5).expect("valid constant"),
        ),
        (
            "gamma(3)",
            ModelSpec::gamma_type(3.0).expect("valid constant"),
        ),
    ];
    let scores = score_models(&candidates, &data).map_err(run_err("scoring"))?;
    let weights = akaike_weights(&scores);
    let mut out = String::new();
    writeln!(
        out,
        "{:<18} {:>10} {:>10} {:>10} {:>8} {:>10} {:>12}",
        "model", "logLik", "AIC", "BIC", "weight", "omega^", "beta^"
    )
    .unwrap();
    for (score, weight) in scores.iter().zip(weights) {
        writeln!(
            out,
            "{:<18} {:>10.3} {:>10.3} {:>10.3} {:>8.3} {:>10.3} {:>12.5e}",
            score.name,
            score.fit.log_likelihood,
            score.aic,
            score.bic,
            weight,
            score.fit.model.omega(),
            score.fit.model.beta(),
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_trend(args: &ParsedArgs) -> Result<String, CliError> {
    let data = load_data(args)?;
    let ObservedData::Times(times) = &data else {
        return Err(CliError::Run(
            "the trend test needs failure-time data (not --grouped)".into(),
        ));
    };
    let u = laplace_trend_factor(times);
    let mut out = String::new();
    writeln!(out, "Laplace trend factor: {u:.4}").unwrap();
    let verdict = if u < -1.96 {
        "significant reliability GROWTH (fit a finite-failures NHPP)"
    } else if u > 1.96 {
        "significant reliability DETERIORATION (an NHPP growth model is inappropriate)"
    } else {
        "no significant trend at the 5% level"
    };
    writeln!(out, "verdict: {verdict}").unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ParsedArgs;
    use std::io::Write as _;

    fn parse(words: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    fn temp_times_csv() -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("nhpp_cli_test_{}.csv", std::process::id()));
        let mut file = File::create(&path).unwrap();
        let mut buf = Vec::new();
        io::write_failure_times(&mut buf, &nhpp_data::sys17::failure_times()).unwrap();
        file.write_all(&buf).unwrap();
        path
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&parse(&["help"])).unwrap().contains("USAGE"));
        let err = run(&parse(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
    }

    #[test]
    fn fit_vb2_end_to_end() {
        let path = temp_times_csv();
        let out = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--prior",
            "50,15.8,1e-5,3.2e-6",
        ]))
        .unwrap();
        assert!(out.contains("VB2"), "{out}");
        assert!(out.contains("38 failures"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fit_profile_end_to_end() {
        let path = temp_times_csv();
        let out = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--method",
            "profile",
        ]))
        .unwrap();
        assert!(out.contains("profile CI omega"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_end_to_end() {
        let path = temp_times_csv();
        let out = run(&parse(&[
            "report",
            "--data",
            path.to_str().unwrap(),
            "--prior",
            "50,15.8,1e-5,3.2e-6",
        ]))
        .unwrap();
        assert!(out.contains("# NHPP reliability analysis"), "{out}");
        assert!(out.contains("## Model selection"));
        assert!(out.contains("## Goodness of fit"));
        assert!(out.contains("Kolmogorov-Smirnov"));
        assert!(out.contains("## Growth-curve credible band"));
        assert!(out.contains("## Prediction"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn predict_end_to_end() {
        let path = temp_times_csv();
        let out = run(&parse(&[
            "predict",
            "--data",
            path.to_str().unwrap(),
            "--window",
            "20000",
            "--prior",
            "50,15.8,1e-5,3.2e-6",
        ]))
        .unwrap();
        assert!(out.contains("expected failures"), "{out}");
        assert!(out.contains("P(no failure)"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_round_trips_through_the_reader() {
        let out = run(&parse(&[
            "simulate", "--omega", "30", "--beta", "1e-4", "--t-end", "20000", "--seed", "3",
        ]))
        .unwrap();
        let parsed = io::read_failure_times(out.as_bytes()).unwrap();
        assert!(parsed.observation_end() == 20000.0);
        assert!(!parsed.is_empty());
        // Grouped variant.
        let out = run(&parse(&[
            "simulate", "--omega", "30", "--beta", "1e-4", "--t-end", "20000", "--bins", "8",
        ]))
        .unwrap();
        let grouped = io::read_grouped(out.as_bytes()).unwrap();
        assert_eq!(grouped.len(), 8);
    }

    #[test]
    fn select_ranks_models() {
        let path = temp_times_csv();
        let out = run(&parse(&["select", "--data", path.to_str().unwrap()])).unwrap();
        let first_model_line = out.lines().nth(1).unwrap();
        assert!(first_model_line.starts_with("goel-okumoto"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trend_detects_growth() {
        let path = temp_times_csv();
        let out = run(&parse(&["trend", "--data", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("GROWTH"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trend_rejects_grouped() {
        let path = temp_times_csv();
        let err = run(&parse(&[
            "trend",
            "--data",
            path.to_str().unwrap(),
            "--grouped",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Run(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fit_prints_pipeline_provenance() {
        let path = temp_times_csv();
        let out = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--prior",
            "50,15.8,1e-5,3.2e-6",
        ]))
        .unwrap();
        assert!(
            out.contains("pipeline: provenance=vb2, attempts=1"),
            "{out}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn strict_and_fallback_are_mutually_exclusive() {
        let path = temp_times_csv();
        let err = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--strict",
            "--fallback",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn strict_flat_prior_still_degrades_truncation_within_vb2() {
        // A flat prior overflows strict adaptive truncation; the CLI's
        // default options pre-cap it, so force the adaptive policy via
        // a small max-attempts and confirm the run still succeeds and
        // reports its provenance.
        let path = temp_times_csv();
        let out = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--strict",
            "--max-attempts",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("pipeline: provenance=vb2"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn threads_flag_does_not_change_the_output() {
        let path = temp_times_csv();
        let base: Vec<String> = ["fit", "--data", path.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let fit = |threads: &str| {
            let mut words = base.clone();
            words.extend(["--threads".to_string(), threads.to_string()]);
            run(&ParsedArgs::parse(words).unwrap()).unwrap()
        };
        let serial = fit("1");
        assert_eq!(serial, fit("2"), "parallel fit must match serial output");
        assert_eq!(serial, fit("0"), "auto thread count must match serial");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_max_attempts_is_rejected() {
        let path = temp_times_csv();
        let err = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--max-attempts",
            "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("at least 1"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn calibrate_learn_and_show_round_trip() {
        let path =
            std::env::temp_dir().join(format!("nhpp_cli_calibrate_{}.json", std::process::id()));
        let out = run(&parse(&[
            "calibrate",
            "learn",
            "--smoke",
            "--reps",
            "2",
            "--label",
            "CLI_TEST",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("written to"), "{out}");
        let shown = run(&parse(&[
            "calibrate",
            "show",
            "--file",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(shown.contains("dictionary 'CLI_TEST'"), "{shown}");
        assert!(shown.contains("/VB1"), "{shown}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn calibrate_requires_a_known_operation() {
        let err = run(&parse(&["calibrate"])).unwrap_err();
        assert!(err.to_string().contains("learn | show"), "{err}");
        let err = run(&parse(&["calibrate", "frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"), "{err}");
        let err = run(&parse(&["calibrate", "learn", "--level", "1.5"])).unwrap_err();
        assert!(err.to_string().contains("(0, 1)"), "{err}");
    }

    #[test]
    fn bad_method_and_prior_are_reported() {
        let path = temp_times_csv();
        let err = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--method",
            "voodoo",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("voodoo"));
        let err = run(&parse(&[
            "fit",
            "--data",
            path.to_str().unwrap(),
            "--prior",
            "1,2,3",
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("--prior: unknown prior '1,2,3'"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    /// The `/fit` report for one scenario's data, served through the
    /// routes of an in-memory service.
    fn served_fit(kind: &str, prior: &str, csv: &str) -> nhpp_data::json::Value {
        use nhpp_serve::http::Request;
        use nhpp_serve::{routes, AppState, FitCache, FitSettings, Metrics, Registry};
        let state = AppState {
            registry: Registry::open(None).unwrap(),
            metrics: Metrics::new(),
            fit: FitSettings::default(),
            cache: FitCache::new(0),
            retry_after_secs: 1,
            calibration: None,
            monitor: None,
            quiet: true,
        };
        let call = |method: &str, path: &str, query: &[(&str, &str)], body: &str| {
            let request = Request {
                method: method.to_string(),
                path: path.to_string(),
                query: query
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                body: body.as_bytes().to_vec(),
            };
            let response = routes::handle(&state, &request);
            assert!(response.status < 300, "{method} {path}: {}", response.body);
            response.body
        };
        let project = [("kind", kind), ("model", "go"), ("prior", prior)];
        call("PUT", "/projects/p", &project, "");
        call("POST", "/projects/p/events", &[], csv);
        nhpp_data::json::parse(&call("GET", "/projects/p/fit", &[], "")).unwrap()
    }

    #[test]
    fn cli_fit_matches_the_served_fit_on_the_paper_scenarios() {
        for scenario in nhpp_bench::Scenario::all() {
            let label = match scenario.name {
                "DT-Info" => "paper-info-times",
                "DG-Info" => "paper-info-grouped",
                _ => "flat",
            };
            assert_eq!(label.parse::<NhppPrior>(), Ok(scenario.prior));
            let mut csv = Vec::new();
            let kind = match &scenario.data {
                ObservedData::Times(d) => io::write_failure_times(&mut csv, d).map(|_| "times"),
                ObservedData::Grouped(d) => io::write_grouped(&mut csv, d).map(|_| "grouped"),
            }
            .unwrap();
            let path = std::env::temp_dir().join(format!(
                "nhpp_cli_served_{}_{}.csv",
                scenario.name,
                std::process::id()
            ));
            std::fs::write(&path, &csv).unwrap();

            // The CLI's `fit` path: its arguments, its options, its fit.
            let mut words = vec!["fit", "--data", path.to_str().unwrap(), "--prior", label];
            if kind == "grouped" {
                words.push("--grouped");
            }
            let args = parse(&words);
            let data = load_data(&args).unwrap();
            let prior = prior(&args).unwrap();
            let robust = robust_options(&args, &prior, &data).unwrap();
            let fit = fit_supervised(model(&args).unwrap(), prior, &data, robust).unwrap();
            let (cli, report) = (fit.posterior, fit.report);
            std::fs::remove_file(&path).ok();

            let served = served_fit(kind, label, std::str::from_utf8(&csv).unwrap());
            let served = served.as_object().unwrap();
            let num = |key: &str| served[key].as_f64().unwrap().to_bits();
            let name = scenario.name;
            assert_eq!(num("mean_omega"), cli.mean_omega().to_bits(), "{name}");
            assert_eq!(num("sd_omega"), cli.var_omega().sqrt().to_bits(), "{name}");
            assert_eq!(num("mean_beta"), cli.mean_beta().to_bits(), "{name}");
            assert_eq!(num("sd_beta"), cli.var_beta().sqrt().to_bits(), "{name}");
            assert_eq!(num("covariance"), cli.covariance().to_bits(), "{name}");
            assert_eq!(num("mean_n"), cli.mean_n().unwrap().to_bits(), "{name}");
            assert_eq!(
                served["provenance"].as_str(),
                Some(report.provenance),
                "{name}"
            );
            assert_eq!(
                served["attempts"].as_f64(),
                Some(report.total_attempts() as f64),
                "{name}"
            );
        }
    }
}
