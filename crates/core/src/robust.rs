//! Supervised fitting pipeline: retry ladder and degradation cascade.
//!
//! The estimators in this crate are numerical algorithms with real
//! failure modes — a fixed point that stalls on a pathological basin,
//! a truncation that will not satisfy its tail tolerance under a flat
//! prior, a non-finite intermediate value. A production fit should not
//! surface those as hard errors when a slightly different configuration
//! (or an honest, documented approximation) would succeed. This module
//! wraps every estimator behind [`fit_supervised`], which applies:
//!
//! 1. a tiered **retry ladder** for VB2: each attempt escalates the
//!    iteration budget, relaxes the inner tolerance, jitters the
//!    initial point deterministically from a seed, and alternates the
//!    inner solver (Newton → successive substitution → bisection);
//! 2. a within-VB2 **truncation degradation**: a
//!    [`VbError::TruncationOverflow`] converts the adaptive policy to
//!    [`Truncation::AdaptiveCapped`] at the overflowed cap, with a
//!    warning — the same accommodation the paper's flat-prior runs
//!    make implicitly;
//! 3. a **method cascade** VB2 → VB1 → Laplace when the ladder is
//!    exhausted (unless `strict`), recording provenance, every
//!    attempt, and human-readable warnings in a [`FitReport`].
//!
//! The returned [`RobustPosterior`] implements
//! [`nhpp_models::Posterior`], so downstream reliability and
//! prediction code is agnostic to which stage produced it.

use crate::error::VbError;
use crate::fault::FaultPlan;
use crate::vb1::{Vb1Options, Vb1Posterior};
use crate::vb2::{SolverKind, Truncation, Vb2Options, Vb2Posterior, Vb2WarmStart};
use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_data::ObservedData;
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_numeric::NumericError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How the VB2 retry ladder escalates between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total VB2 attempts (first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Multiplier applied to the iteration budgets per retry tier.
    pub budget_growth: u64,
    /// Multiplier applied to the inner tolerance per retry tier
    /// (relaxation is capped at `1e-6` so results stay usable).
    pub tol_relaxation: f64,
    /// Seed of the deterministic initial-point jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            budget_growth: 4,
            tol_relaxation: 100.0,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The escalated options for VB2 attempt `attempt` (0-based).
    /// Attempt 0 is the caller's configuration verbatim; later tiers
    /// grow budgets geometrically, relax the tolerance, jitter the
    /// initial point and walk the solver alternation
    /// Newton → successive substitution → bisection.
    pub fn options_for(&self, attempt: u32, base: &Vb2Options) -> Vb2Options {
        if attempt == 0 {
            return *base;
        }
        let growth = self.budget_growth.max(1).saturating_pow(attempt);
        let solver = match (attempt - 1) % 3 {
            0 => SolverKind::Newton,
            1 => SolverKind::SuccessiveSubstitution,
            _ => SolverKind::Bisection,
        };
        Vb2Options {
            solver,
            inner_tol: (base.inner_tol * self.tol_relaxation.powi(attempt as i32)).min(1e-6),
            inner_max_iter: base.inner_max_iter.saturating_mul(growth as usize),
            total_budget: base.total_budget.map(|b| b.saturating_mul(growth)),
            init_scale: base.init_scale * jitter_factor(self.seed, attempt),
            ..*base
        }
    }
}

/// Deterministic log-uniform jitter in `[1/2, 2)`: the same seed and
/// attempt always produce the same factor.
fn jitter_factor(seed: u64, attempt: u32) -> f64 {
    let stream = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let u: f64 = StdRng::seed_from_u64(stream).random();
    2f64.powf(2.0 * u - 1.0)
}

/// Options of the supervised pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustOptions {
    /// Baseline VB2 configuration (attempt 0 runs it verbatim).
    pub base: Vb2Options,
    /// Retry escalation schedule.
    pub retry: RetryPolicy,
    /// Whether the cascade may degrade VB2 → VB1 → Laplace once the
    /// retry ladder is exhausted. `false` is *strict* mode: retries
    /// still happen, but a persistent VB2 failure is surfaced as an
    /// error instead of a lower-fidelity posterior.
    pub fallback: bool,
    /// Deterministic fault injection (tests only; `None` in production).
    pub fault: Option<FaultPlan>,
    /// Wall-clock budget for the *whole* cascade — every VB2 retry
    /// tier, VB1 and Laplace together. Each stage's own deadline is
    /// clamped to the time remaining, and a stage is not started at all
    /// once the budget is spent; the failure classifies as
    /// [`FailureKind::BudgetExhausted`]. `None` = unbounded (the
    /// per-attempt `base.deadline` still applies if set). This is how a
    /// serving layer threads a per-request deadline into the fit.
    pub total_deadline: Option<std::time::Duration>,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            base: Vb2Options::default(),
            retry: RetryPolicy::default(),
            fallback: true,
            fault: None,
            total_deadline: None,
        }
    }
}

impl RobustOptions {
    /// Strict-mode options: retry but never switch methods.
    pub fn strict() -> Self {
        RobustOptions {
            fallback: false,
            ..RobustOptions::default()
        }
    }
}

/// Machine-readable classification of a failed cascade attempt, so
/// non-CLI surfaces (the HTTP service, batch supervisors) can report
/// *why* an attempt failed without parsing error strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A cooperative solve [`nhpp_numeric::Budget`] ran out of
    /// iterations or wall-clock time.
    BudgetExhausted,
    /// An inner or outer loop stalled below tolerance.
    NoConvergence,
    /// The adaptive truncation overflowed its hard cap.
    TruncationOverflow,
    /// The variational weights degenerated.
    DegenerateWeights,
    /// A non-finite intermediate value surfaced.
    NonFinite,
    /// A misconfigured option (never retried).
    InvalidOption,
    /// Anything else (model/distribution/conventional-estimator layers).
    Other,
}

impl FailureKind {
    /// Classifies a pipeline error.
    pub fn classify(err: &VbError) -> FailureKind {
        match err {
            VbError::Numeric(NumericError::BudgetExhausted { .. }) => FailureKind::BudgetExhausted,
            VbError::Numeric(NumericError::MaxIterations { .. })
            | VbError::NoConvergence { .. } => FailureKind::NoConvergence,
            VbError::Numeric(NumericError::NonFinite { .. }) => FailureKind::NonFinite,
            VbError::TruncationOverflow { .. } => FailureKind::TruncationOverflow,
            VbError::DegenerateWeights { .. } => FailureKind::DegenerateWeights,
            VbError::InvalidOption { .. } => FailureKind::InvalidOption,
            _ => FailureKind::Other,
        }
    }

    /// Stable kebab-case label (used by HTTP bodies and metrics).
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::BudgetExhausted => "budget-exhausted",
            FailureKind::NoConvergence => "no-convergence",
            FailureKind::TruncationOverflow => "truncation-overflow",
            FailureKind::DegenerateWeights => "degenerate-weights",
            FailureKind::NonFinite => "non-finite",
            FailureKind::InvalidOption => "invalid-option",
            FailureKind::Other => "other",
        }
    }
}

/// One attempt of the cascade, as recorded in the [`FitReport`].
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Which estimator ran (`"vb2"`, `"vb1"` or `"laplace"`).
    pub method: &'static str,
    /// 0-based attempt index within that estimator.
    pub attempt: u32,
    /// Human-readable configuration summary of the attempt.
    pub detail: String,
    /// `Ok(())` or the stringified error.
    pub outcome: Result<(), String>,
    /// Structured classification of the failure (`None` on success).
    pub kind: Option<FailureKind>,
}

/// Structured provenance of a supervised fit.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Which stage produced the returned posterior: `"vb2"`,
    /// `"vb2-retry"`, `"vb1"` or `"laplace"`.
    pub provenance: &'static str,
    /// Every attempt made, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Degradations and accommodations the caller should know about.
    pub warnings: Vec<String>,
    /// SIMD lane width of the sweep that produced the posterior
    /// (`nhpp_special::WIDE_LANES` when the wide VB2 path ran, `1` for
    /// scalar sweeps and for the VB1/Laplace fallbacks). Recording it
    /// here makes a supervised fit reproducible on any machine: replay
    /// with the matching [`crate::SimdPolicy`] and the sweep is
    /// bitwise identical.
    pub lane_width: usize,
}

impl FitReport {
    /// Total attempts across all cascade stages.
    pub fn total_attempts(&self) -> usize {
        self.attempts.len()
    }

    /// Whether the fit succeeded without retries or degradation.
    pub fn is_clean(&self) -> bool {
        self.provenance == "vb2" && self.warnings.is_empty()
    }

    /// Whether any attempt died of solve-budget exhaustion — the
    /// signal a serving layer should surface as "try a larger budget
    /// or deadline" rather than a generic failure.
    pub fn budget_exhausted(&self) -> bool {
        self.attempts
            .iter()
            .any(|a| a.kind == Some(FailureKind::BudgetExhausted))
    }

    /// The degraded method that produced the posterior, when the
    /// cascade left VB2 (`"vb1"` or `"laplace"`); `None` while the
    /// result is full-fidelity VB2 (including retried VB2).
    pub fn fallback_tier(&self) -> Option<&'static str> {
        match self.provenance {
            "vb1" | "laplace" => Some(self.provenance),
            _ => None,
        }
    }
}

/// A supervised-pipeline failure that keeps its [`FitReport`]: every
/// attempt, classification and warning up to the point the cascade gave
/// up, so serving layers can put budget exhaustion and the tier reached
/// in the response body instead of a bare error string.
#[derive(Debug)]
pub struct FitFailure {
    /// The error the pipeline surfaced.
    pub error: VbError,
    /// Everything that was tried before giving up.
    pub report: FitReport,
}

impl std::fmt::Display for FitFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for FitFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Posterior produced by some stage of the cascade. Every variant
/// implements [`Posterior`], so callers stay stage-agnostic; match on
/// it (or consult [`FitReport::provenance`]) when the stage matters.
#[derive(Debug, Clone)]
pub enum RobustPosterior {
    /// The full structured variational posterior.
    Vb2(Vb2Posterior),
    /// The factorised fallback (covariance structurally zero).
    Vb1(Vb1Posterior),
    /// The bivariate-normal floor of the cascade.
    Laplace(LaplacePosterior),
}

/// A supervised fit: the posterior plus its provenance report.
#[derive(Debug, Clone)]
pub struct RobustFit {
    /// The posterior the cascade settled on.
    pub posterior: RobustPosterior,
    /// How it got there.
    pub report: FitReport,
}

/// Whether an error can plausibly be cured by a different tier
/// (bigger budget, relaxed tolerance, jittered start, other solver).
fn is_retryable(err: &VbError) -> bool {
    !matches!(err, VbError::InvalidOption { .. })
}

/// Tracks the cascade-wide wall-clock budget of
/// [`RobustOptions::total_deadline`].
#[derive(Clone, Copy)]
struct CascadeClock {
    started: std::time::Instant,
    total: Option<std::time::Duration>,
}

impl CascadeClock {
    fn start(total: Option<std::time::Duration>) -> CascadeClock {
        CascadeClock {
            started: std::time::Instant::now(),
            total,
        }
    }

    /// `Some(remaining)` when a total deadline is set; `None` when the
    /// cascade is unbounded.
    fn remaining(&self) -> Option<std::time::Duration> {
        self.total
            .map(|total| total.saturating_sub(self.started.elapsed()))
    }

    /// Whether the budget is spent.
    fn expired(&self) -> bool {
        self.remaining() == Some(std::time::Duration::ZERO)
    }

    /// Clamps a stage's own deadline to the time remaining.
    fn clamp(&self, stage: Option<std::time::Duration>) -> Option<std::time::Duration> {
        match (self.remaining(), stage) {
            (Some(rem), Some(own)) => Some(rem.min(own)),
            (Some(rem), None) => Some(rem),
            (None, own) => own,
        }
    }
}

/// The failure returned when the cascade deadline expires before
/// `method` could start: classified as budget exhaustion so serving
/// layers surface it as "retry later / raise the deadline".
fn deadline_failure(mut report: FitReport, method: &'static str) -> FitFailure {
    report.attempts.push(AttemptRecord {
        method,
        attempt: 0,
        detail: "not started".to_string(),
        outcome: Err("cascade deadline exhausted before this stage".to_string()),
        kind: Some(FailureKind::BudgetExhausted),
    });
    FitFailure {
        error: VbError::Numeric(NumericError::BudgetExhausted {
            used: 0,
            reason: "cascade deadline exhausted",
        }),
        report,
    }
}

/// Runs the supervised fitting pipeline (see the module docs).
///
/// # Errors
///
/// * [`VbError::InvalidOption`] immediately for misconfiguration
///   (never retried — a bad option stays bad).
/// * In strict mode (`fallback = false`), the last VB2 error once the
///   retry ladder is exhausted.
/// * [`VbError::CascadeExhausted`] if VB2, VB1 *and* Laplace all fail.
pub fn fit_supervised(
    spec: ModelSpec,
    prior: NhppPrior,
    data: &ObservedData,
    options: RobustOptions,
) -> Result<RobustFit, VbError> {
    fit_supervised_warm(spec, prior, data, options, None).map_err(|failure| failure.error)
}

/// [`fit_supervised`] with two serving-layer extensions: VB2 attempts
/// may be warm-started from a previous fit's `ξ` table (see
/// [`Vb2WarmStart`]), and a failure keeps its full [`FitReport`] (as a
/// [`FitFailure`]) instead of discarding everything but the error.
///
/// # Errors
///
/// As [`fit_supervised`], wrapped in [`FitFailure`] with the report.
// The report-carrying error is only built on the cold give-up path;
// boxing it would tax every caller for a case that never dominates.
#[allow(clippy::result_large_err)]
pub fn fit_supervised_warm(
    spec: ModelSpec,
    prior: NhppPrior,
    data: &ObservedData,
    options: RobustOptions,
    warm: Option<&Vb2WarmStart>,
) -> Result<RobustFit, FitFailure> {
    let mut report = FitReport {
        provenance: "vb2",
        attempts: Vec::new(),
        warnings: Vec::new(),
        lane_width: 1,
    };
    let mut truncation = options.base.truncation;
    let mut last_err: Option<VbError> = None;
    let clock = CascadeClock::start(options.total_deadline);

    for attempt in 0..options.retry.max_attempts.max(1) {
        if clock.expired() {
            return Err(deadline_failure(report, "vb2"));
        }
        let tier = options.retry.options_for(attempt, &options.base);
        let vb2_options = Vb2Options {
            truncation,
            fault: options.fault.and_then(|plan| plan.vb2_fault(attempt)),
            deadline: clock.clamp(tier.deadline),
            ..tier
        };
        let detail = format!(
            "solver={:?}, inner_tol={:.1e}, inner_max_iter={}, init_scale={:.4}, truncation={:?}{}",
            vb2_options.solver,
            vb2_options.inner_tol,
            vb2_options.inner_max_iter,
            vb2_options.init_scale,
            vb2_options.truncation,
            if warm.is_some() { ", warm-started" } else { "" },
        );
        match Vb2Posterior::fit_warm(spec, prior, data, vb2_options, warm) {
            Ok(posterior) => {
                report.attempts.push(AttemptRecord {
                    method: "vb2",
                    attempt,
                    detail,
                    outcome: Ok(()),
                    kind: None,
                });
                report.provenance = if attempt == 0 && report.warnings.is_empty() {
                    "vb2"
                } else {
                    "vb2-retry"
                };
                report.lane_width = posterior.lane_width();
                return Ok(RobustFit {
                    posterior: RobustPosterior::Vb2(posterior),
                    report,
                });
            }
            Err(err) => {
                report.attempts.push(AttemptRecord {
                    method: "vb2",
                    attempt,
                    detail,
                    outcome: Err(err.to_string()),
                    kind: Some(FailureKind::classify(&err)),
                });
                if !is_retryable(&err) {
                    return Err(FitFailure { error: err, report });
                }
                if let VbError::TruncationOverflow { cap, tail_mass } = &err {
                    if let Truncation::Adaptive { epsilon } = truncation {
                        truncation = Truncation::AdaptiveCapped { epsilon, cap: *cap };
                        report.warnings.push(format!(
                            "adaptive truncation overflowed its hard cap; degraded to a capped \
                             policy at n_max={cap} with tail mass {tail_mass:.3e} above tolerance"
                        ));
                    }
                }
                last_err = Some(err);
            }
        }
    }

    let vb2_err = last_err.expect("at least one VB2 attempt ran");
    if !options.fallback {
        return Err(FitFailure {
            error: vb2_err,
            report,
        });
    }

    if clock.expired() {
        return Err(deadline_failure(report, "vb1"));
    }
    report.warnings.push(format!(
        "VB2 failed after {} attempt(s) (last error: {vb2_err}); falling back to VB1 — its \
         posterior has structurally zero ω–β covariance and underestimated variances",
        report.attempts.len()
    ));
    let vb1_options = Vb1Options {
        tol: options.base.inner_tol,
        max_iter: options.base.inner_max_iter,
        deadline: clock.clamp(options.base.deadline),
        fault: options.fault.and_then(|plan| plan.vb1_fault()),
    };
    let vb1_err = match Vb1Posterior::fit(spec, prior, data, vb1_options) {
        Ok(posterior) => {
            report.attempts.push(AttemptRecord {
                method: "vb1",
                attempt: 0,
                detail: format!(
                    "tol={:.1e}, max_iter={}",
                    vb1_options.tol, vb1_options.max_iter
                ),
                outcome: Ok(()),
                kind: None,
            });
            report.provenance = "vb1";
            return Ok(RobustFit {
                posterior: RobustPosterior::Vb1(posterior),
                report,
            });
        }
        Err(err) => {
            report.attempts.push(AttemptRecord {
                method: "vb1",
                attempt: 0,
                detail: format!(
                    "tol={:.1e}, max_iter={}",
                    vb1_options.tol, vb1_options.max_iter
                ),
                outcome: Err(err.to_string()),
                kind: Some(FailureKind::classify(&err)),
            });
            err
        }
    };

    if clock.expired() {
        return Err(deadline_failure(report, "laplace"));
    }
    report.warnings.push(format!(
        "VB1 fallback failed ({vb1_err}); falling back to the Laplace approximation — a \
         bivariate normal at the MAP that misses the posterior's right skew"
    ));
    match LaplacePosterior::fit(spec, prior, data) {
        Ok(posterior) => {
            report.attempts.push(AttemptRecord {
                method: "laplace",
                attempt: 0,
                detail: "MAP + analytic Hessian".to_string(),
                outcome: Ok(()),
                kind: None,
            });
            report.provenance = "laplace";
            Ok(RobustFit {
                posterior: RobustPosterior::Laplace(posterior),
                report,
            })
        }
        Err(laplace_err) => {
            report.attempts.push(AttemptRecord {
                method: "laplace",
                attempt: 0,
                detail: "MAP + analytic Hessian".to_string(),
                outcome: Err(laplace_err.to_string()),
                // The Laplace layer carries no budget/convergence
                // structure worth classifying.
                kind: Some(FailureKind::Other),
            });
            Err(FitFailure {
                error: VbError::CascadeExhausted {
                    message: format!("vb2: {vb2_err}; vb1: {vb1_err}; laplace: {laplace_err}"),
                },
                report,
            })
        }
    }
}

/// One unit of a [`fit_many_supervised`] batch: a complete supervised
/// fitting problem.
#[derive(Debug, Clone, Copy)]
pub struct RobustTask<'a> {
    /// Model family to fit.
    pub spec: ModelSpec,
    /// Prior for this task.
    pub prior: NhppPrior,
    /// Observed dataset.
    pub data: &'a ObservedData,
    /// Pipeline options. The base `threads` field is overridden to `1`:
    /// the batch layer owns the pool.
    pub options: RobustOptions,
}

/// Supervised batch fitting for portfolio and sequential-monitoring
/// workloads: fans the tasks across a `threads`-wide work pool (`0` =
/// available parallelism). Every task runs the full retry/fallback
/// pipeline of [`fit_supervised`] independently, so results come back
/// in task order, each carrying its own [`FitReport`] provenance, and
/// one pathological dataset cannot poison the rest of the batch.
pub fn fit_many_supervised(
    tasks: &[RobustTask<'_>],
    threads: usize,
) -> Vec<Result<RobustFit, VbError>> {
    nhpp_numeric::parallel::map_items(threads, tasks, |_, task| {
        let mut options = task.options;
        options.base.threads = 1;
        fit_supervised(task.spec, task.prior, task.data, options)
    })
}

/// One unit of a [`fit_many_supervised_warm`] batch: a supervised
/// fitting problem plus an optional warm-start table from the
/// project's previous fit.
#[derive(Debug, Clone, Copy)]
pub struct WarmRobustTask<'a> {
    /// The fitting problem.
    pub task: RobustTask<'a>,
    /// Warm-start table for the VB2 attempts (`None` = cold).
    pub warm: Option<&'a Vb2WarmStart>,
}

/// [`fit_many_supervised`] for refit batches: each task may carry a
/// warm-start table, and failures keep their reports. This is the
/// flush-tick path of a serving layer — many projects went stale, one
/// pool refits them all, each warm-started from its own previous fit.
#[allow(clippy::result_large_err)]
pub fn fit_many_supervised_warm(
    tasks: &[WarmRobustTask<'_>],
    threads: usize,
) -> Vec<Result<RobustFit, FitFailure>> {
    nhpp_numeric::parallel::map_items(threads, tasks, |_, unit| {
        let mut options = unit.task.options;
        options.base.threads = 1;
        fit_supervised_warm(
            unit.task.spec,
            unit.task.prior,
            unit.task.data,
            options,
            unit.warm,
        )
    })
}

impl RobustPosterior {
    /// Posterior-predictive failure counts over `(t, t+u]`, whatever
    /// stage produced the posterior (the Laplace stage uses its
    /// plug-in predictive).
    ///
    /// # Errors
    ///
    /// The producing stage's error for an invalid window.
    pub fn predictive_failures(
        &self,
        t: f64,
        u: f64,
    ) -> Result<nhpp_models::prediction::PredictiveCounts, VbError> {
        match self {
            RobustPosterior::Vb2(p) => p.predictive_failures(t, u),
            RobustPosterior::Vb1(p) => p.predictive_failures(t, u),
            RobustPosterior::Laplace(p) => p.predictive_failures(t, u).map_err(VbError::from),
        }
    }

    /// Credible band of the mean value function, when the producing
    /// stage exposes one (VB2 only — the fallback posteriors have no
    /// mixture representation to integrate over).
    ///
    /// # Errors
    ///
    /// [`VbError::InvalidOption`] for an invalid grid or level.
    pub fn mean_value_band(
        &self,
        t_grid: &[f64],
        level: f64,
    ) -> Option<Result<Vec<crate::bands::BandPoint>, VbError>> {
        match self {
            RobustPosterior::Vb2(p) => Some(p.mean_value_band(t_grid, level)),
            _ => None,
        }
    }

    /// Posterior mean of the total fault count, when the producing
    /// stage models it (VB2 only).
    pub fn mean_n(&self) -> Option<f64> {
        match self {
            RobustPosterior::Vb2(p) => Some(p.mean_n()),
            _ => None,
        }
    }
}

macro_rules! delegate {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            RobustPosterior::Vb2($p) => $body,
            RobustPosterior::Vb1($p) => $body,
            RobustPosterior::Laplace($p) => $body,
        }
    };
}

impl Posterior for RobustPosterior {
    fn method_name(&self) -> &'static str {
        delegate!(self, p => p.method_name())
    }

    fn mean_omega(&self) -> f64 {
        delegate!(self, p => p.mean_omega())
    }

    fn mean_beta(&self) -> f64 {
        delegate!(self, p => p.mean_beta())
    }

    fn var_omega(&self) -> f64 {
        delegate!(self, p => p.var_omega())
    }

    fn var_beta(&self) -> f64 {
        delegate!(self, p => p.var_beta())
    }

    fn covariance(&self) -> f64 {
        delegate!(self, p => p.covariance())
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        delegate!(self, p => p.central_moment_omega(k))
    }

    fn quantile_omega(&self, p_level: f64) -> f64 {
        delegate!(self, p => p.quantile_omega(p_level))
    }

    fn quantile_beta(&self, p_level: f64) -> f64 {
        delegate!(self, p => p.quantile_beta(p_level))
    }

    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
        delegate!(self, p => p.ln_joint_density(omega, beta))
    }

    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        delegate!(self, p => p.reliability_point(t, u))
    }

    fn reliability_quantile(&self, t: f64, u: f64, p_level: f64) -> f64 {
        delegate!(self, p => p.reliability_quantile(t, u, p_level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;

    fn spec() -> ModelSpec {
        ModelSpec::goel_okumoto()
    }

    #[test]
    fn happy_path_is_plain_vb2() {
        let fit = fit_supervised(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            RobustOptions::default(),
        )
        .unwrap();
        assert_eq!(fit.report.provenance, "vb2");
        assert!(fit.report.is_clean());
        assert_eq!(fit.report.total_attempts(), 1);
        let direct = Vb2Posterior::fit(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap();
        assert_eq!(fit.posterior.mean_omega(), direct.mean_omega());
        assert_eq!(fit.posterior.covariance(), direct.covariance());
    }

    #[test]
    fn flat_prior_overflow_degrades_to_capped_truncation() {
        // A flat prior under strictly adaptive truncation overflows
        // (harmonic tail); the supervisor must degrade to a capped
        // policy and still return a VB2 posterior.
        let fit = fit_supervised(
            spec(),
            NhppPrior::flat(),
            &sys17::failure_times().into(),
            RobustOptions {
                base: Vb2Options {
                    hard_cap: 20_000,
                    ..Vb2Options::default()
                },
                ..RobustOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fit.report.provenance, "vb2-retry");
        assert!(!fit.report.warnings.is_empty());
        assert!(fit.posterior.mean_omega() > 40.0 && fit.posterior.mean_omega() < 60.0);
    }

    #[test]
    fn invalid_options_are_not_retried() {
        let err = fit_supervised(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            RobustOptions {
                base: Vb2Options {
                    inner_tol: -1.0,
                    ..Vb2Options::default()
                },
                ..RobustOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, VbError::InvalidOption { .. }));
    }

    #[test]
    fn warm_supervised_matches_cold_on_closed_form_path() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let cold = fit_supervised(spec(), prior, &data, RobustOptions::default()).unwrap();
        let RobustPosterior::Vb2(cold_post) = &cold.posterior else {
            panic!("happy path must be VB2");
        };
        let table = cold_post.warm_start();
        let warm =
            fit_supervised_warm(spec(), prior, &data, RobustOptions::default(), Some(&table))
                .unwrap();
        assert_eq!(warm.posterior.mean_omega(), cold.posterior.mean_omega());
        assert_eq!(warm.posterior.covariance(), cold.posterior.covariance());
        assert!(warm.report.attempts[0].detail.contains("warm-started"));
        assert_eq!(warm.report.attempts[0].kind, None);
    }

    #[test]
    fn budget_exhaustion_is_classified_and_kept_on_both_paths() {
        // A 2-iteration budget kills every VB2 tier; the budget-free
        // VB1 stage catches the cascade.
        let options = RobustOptions {
            base: Vb2Options {
                total_budget: Some(2),
                ..Vb2Options::default()
            },
            retry: RetryPolicy {
                max_attempts: 2,
                budget_growth: 1,
                ..RetryPolicy::default()
            },
            ..RobustOptions::default()
        };
        let fit = fit_supervised(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            options,
        )
        .unwrap();
        assert_eq!(fit.report.fallback_tier(), Some("vb1"));
        assert!(fit.report.budget_exhausted());
        assert!(fit
            .report
            .attempts
            .iter()
            .any(|a| a.kind == Some(FailureKind::BudgetExhausted)));
        // Strict mode: the failure keeps the full report instead of
        // collapsing to a bare error.
        let failure = fit_supervised_warm(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            RobustOptions {
                fallback: false,
                ..options
            },
            None,
        )
        .unwrap_err();
        assert!(failure.report.budget_exhausted());
        assert_eq!(failure.report.fallback_tier(), None);
        assert_eq!(
            FailureKind::classify(&failure.error),
            FailureKind::BudgetExhausted
        );
        assert_eq!(FailureKind::BudgetExhausted.as_str(), "budget-exhausted");
    }

    #[test]
    fn cascade_deadline_bounds_the_whole_pipeline() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        // A spent deadline fails before any stage starts — even with
        // fallback enabled, because the fallbacks share the budget.
        let failure = fit_supervised_warm(
            spec(),
            prior,
            &data,
            RobustOptions {
                total_deadline: Some(std::time::Duration::ZERO),
                ..RobustOptions::default()
            },
            None,
        )
        .unwrap_err();
        assert_eq!(
            FailureKind::classify(&failure.error),
            FailureKind::BudgetExhausted
        );
        assert!(failure.report.budget_exhausted());
        assert_eq!(failure.report.attempts.len(), 1);
        assert_eq!(failure.report.attempts[0].method, "vb2");

        // A generous deadline changes nothing about the result.
        let bounded = fit_supervised(
            spec(),
            prior,
            &data,
            RobustOptions {
                total_deadline: Some(std::time::Duration::from_secs(600)),
                ..RobustOptions::default()
            },
        )
        .unwrap();
        let unbounded = fit_supervised(spec(), prior, &data, RobustOptions::default()).unwrap();
        assert_eq!(
            bounded.posterior.mean_omega(),
            unbounded.posterior.mean_omega()
        );
        assert!(bounded.report.is_clean());
    }

    #[test]
    fn report_records_lane_width_of_producing_sweep() {
        use nhpp_special::{SimdPolicy, WIDE_LANES};
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        // The default Auto fit takes the closed-form scalar path.
        let closed = fit_supervised(spec(), prior, &data, RobustOptions::default()).unwrap();
        assert_eq!(closed.report.lane_width, 1);
        // A forced-wide successive-substitution fit rides the lanes,
        // and the report pins the width for replay.
        let wide = fit_supervised(
            spec(),
            prior,
            &data,
            RobustOptions {
                base: Vb2Options {
                    solver: SolverKind::SuccessiveSubstitution,
                    lanes: SimdPolicy::ForceWide,
                    ..Vb2Options::default()
                },
                ..RobustOptions::default()
            },
        )
        .unwrap();
        assert_eq!(wide.report.lane_width, WIDE_LANES);
        // Fallback tiers are scalar: a budget-starved cascade that
        // lands on VB1 reports width 1 even under a wide policy.
        let fallen = fit_supervised(
            spec(),
            prior,
            &data,
            RobustOptions {
                base: Vb2Options {
                    solver: SolverKind::SuccessiveSubstitution,
                    lanes: SimdPolicy::ForceWide,
                    total_budget: Some(2),
                    ..Vb2Options::default()
                },
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..RobustOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fallen.report.fallback_tier(), Some("vb1"));
        assert_eq!(fallen.report.lane_width, 1);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for attempt in 1..16 {
            let a = jitter_factor(42, attempt);
            let b = jitter_factor(42, attempt);
            assert_eq!(a, b);
            assert!((0.5..2.0).contains(&a));
        }
        assert_ne!(jitter_factor(1, 1), jitter_factor(2, 1));
    }

    #[test]
    fn retry_tiers_escalate() {
        let policy = RetryPolicy::default();
        let base = Vb2Options::default();
        let t0 = policy.options_for(0, &base);
        assert_eq!(t0, base);
        let t1 = policy.options_for(1, &base);
        let t2 = policy.options_for(2, &base);
        assert_eq!(t1.solver, SolverKind::Newton);
        assert_eq!(t2.solver, SolverKind::SuccessiveSubstitution);
        assert_eq!(policy.options_for(3, &base).solver, SolverKind::Bisection);
        assert!(t1.inner_max_iter > base.inner_max_iter);
        assert!(t2.inner_max_iter > t1.inner_max_iter);
        assert!(t1.inner_tol > base.inner_tol);
        assert!(t1.init_scale != 1.0);
    }
}
