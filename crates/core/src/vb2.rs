//! VB2 — the structured variational Bayes method proposed by the paper.
//!
//! # Algorithm (paper §5)
//!
//! For each candidate total fault count `N` the optimal conditional
//! variational posteriors are (Eq. (22)):
//!
//! ```text
//! Pᵥ(ω | N) = Gamma(m_ω + N,     φ_ω + 1)
//! Pᵥ(β | N) = Gamma(m_β + N·α₀,  φ_β + ζ_{T|N})
//! ```
//!
//! where `ζ_{T|N} = E[Σ Tᵢ | N]` and `ξ_{β|N} = E[β | N]` solve the
//! simultaneous equations (24)–(27). `ζ` decomposes into the observed
//! contribution plus conditional means of gamma variables truncated to
//! the unobserved regions — the censored tail `(t_e, ∞)` (and, for
//! grouped data, the within-bin windows). Note the tail terms use the
//! *survival* mass `S = 1 − G`; the paper's Eqs. (24)/(26)/(29)/(30)
//! print `G` where `S` is required (re-deriving Eq. (28) from Eqs.
//! (17)–(19) confirms the survival reading — see `DESIGN.md` §2), and
//! Eq. (25) prints shape `m_β + N` where the general-`α₀` shape is
//! `m_β + N·α₀`.
//!
//! The mixture weights are `Pᵥ(N) ∝ P̃ᵥ(N)` (Eq. (28)); in log form, for
//! failure-time data with `A = m_ω + N`, `B = m_β + N·α₀`, `r = N − m`:
//!
//! ```text
//! ln P̃ᵥ(N) = ln Γ(A) − A·ln(φ_ω + 1) + ln Γ(B) − B·ln(φ_β + ζ_N)
//!           − r·α₀·ln ξ_N + ξ_N·(ζ_N − Σ tᵢ)
//!           + r·ln S(t_e; α₀, ξ_N) − ln r!
//! ```
//!
//! and for grouped data
//!
//! ```text
//! ln P̃ᵥ(N) = ln Γ(A) − A·ln(φ_ω + 1) + ln Γ(B) − B·ln(φ_β + ζ_N)
//!           − N·α₀·ln ξ_N + ξ_N·ζ_N + Σᵢ xᵢ·ln ΔG(s_{i−1}, s_i; α₀, ξ_N)
//!           + r·ln S(s_k; α₀, ξ_N) − ln r!
//! ```
//!
//! All digamma terms cancel exactly at the coordinate-ascent optimum.
//! The truncation point `n_max` grows (Step 4) until
//! `Pᵥ(n_max) < ε`.

use crate::endpoint::{ln_mass_between, mean_from_masses, tail_mean_from_masses_lane, Endpoint};
use crate::error::VbError;
use crate::fault::FaultKind;
use crate::reliability;
use nhpp_data::ObservedData;
use nhpp_dist::{Continuous, Gamma, GammaMixture, GammaProductMixture, MixtureComponent};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_numeric::fixed_point::{
    bisection_fixed_point, newton_fixed_point_budgeted, successive_substitution_budgeted,
};
use nhpp_numeric::{parallel, Budget, NumericError, SharedBudget};
use nhpp_special::{
    ln_factorial, ln_gamma, LnGammaLadder, SimdDispatch, SimdPolicy, StreamingLogSumExp, WIDE_LANES,
};
use std::cell::RefCell;
use std::time::Duration;

/// Width of the component chunks handed to the work pool. The chunk
/// partition is a pure function of the solved `N`-range — never of the
/// thread count — which is what makes parallel fits bitwise-identical
/// to serial ones. 64 components amortise both the chunk-head seed
/// solve and the pool's per-chunk synchronisation.
const COMPONENT_CHUNK: usize = 64;

/// Iteration allowance of a chunk-head seed solve.
const SEED_MAX_ITER: u64 = 16;

/// Coarse relative tolerance of a chunk-head seed solve: the seed only
/// needs to land in the fixed point's basin, the component solve
/// finishes the job at `inner_tol`.
const SEED_TOL: f64 = 1e-3;

/// How the per-`N` fixed point `(ζ, ξ)` is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Closed form where available (Goel–Okumoto with failure-time
    /// data), successive substitution otherwise.
    #[default]
    Auto,
    /// Plain successive substitution (globally convergent; the variant
    /// timed in the paper's Table 7).
    SuccessiveSubstitution,
    /// Newton iteration on the residual (the speedup conjectured in the
    /// paper's §6 closing remarks; `bench_report`'s `-newton` rows
    /// measure it).
    Newton,
    /// Bisection on the residual `F(ξ) − ξ`: slow but essentially
    /// unconditionally convergent — the retry ladder's last-resort
    /// inner solver.
    Bisection,
}

/// Truncation policy for the mixture over `N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Truncation {
    /// Grow `n_max` until `Pᵥ(n_max) < epsilon` (paper Steps 1–4).
    Adaptive {
        /// Tail tolerance `ε` (the paper quotes `ε = 5e−15`).
        epsilon: f64,
    },
    /// Grow `n_max` until `Pᵥ(n_max) < epsilon`, but stop growing (without
    /// error) once `cap` is reached. This is the right policy for flat
    /// (NoInfo) priors, where the exact posterior over `N` has a harmonic,
    /// non-summable tail — the posterior is improper in the limit and
    /// *every* method in the paper implicitly truncates it (NINT by its
    /// integration box, MCMC by its finite run). See `EXPERIMENTS.md`.
    AdaptiveCapped {
        /// Tail tolerance `ε`.
        epsilon: f64,
        /// Largest `n_max` the growth may reach.
        cap: u64,
    },
    /// Evaluate exactly up to the given `n_max` (used by the Table 7
    /// cost experiment).
    Fixed {
        /// Largest total fault count included in the mixture.
        n_max: u64,
    },
}

impl Default for Truncation {
    fn default() -> Self {
        Truncation::Adaptive { epsilon: 5e-15 }
    }
}

impl Truncation {
    /// The fit policy for `prior` over `observed` failures: the paper's
    /// adaptive growth under a proper prior; under a flat (NoInfo)
    /// prior, whose exact posterior over `N` is improper, the same
    /// growth capped at five times the observed count (and at least
    /// 100), saturating at `u64::MAX`. The CLI, the service and the
    /// bench scenarios all truncate here (see `EXPERIMENTS.md` for the
    /// cap-sensitivity sweep).
    pub fn for_prior(prior: &NhppPrior, observed: u64) -> Truncation {
        if prior.omega.is_flat() || prior.beta.is_flat() {
            Truncation::AdaptiveCapped {
                epsilon: 5e-15,
                cap: observed.saturating_mul(5).max(100),
            }
        } else {
            Truncation::default()
        }
    }
}

/// Options for the VB2 fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vb2Options {
    /// Inner fixed-point solver.
    pub solver: SolverKind,
    /// Truncation policy for `N`.
    pub truncation: Truncation,
    /// Relative tolerance of the inner fixed point.
    pub inner_tol: f64,
    /// Iteration budget of each inner fixed point.
    pub inner_max_iter: usize,
    /// Hard cap on the adaptive `n_max` growth.
    pub hard_cap: u64,
    /// Total iteration budget shared by the whole fit — every inner
    /// solver iteration and every solved component charges it. `None`
    /// leaves only the per-component `inner_max_iter` bound.
    pub total_budget: Option<u64>,
    /// Wall-clock deadline for the whole fit, observed cooperatively
    /// at iteration boundaries (see [`Budget`]).
    pub deadline: Option<Duration>,
    /// Multiplier applied to the inner solver's initial point. The
    /// retry ladder jitters this to escape a pathological basin; leave
    /// at `1.0` otherwise.
    pub init_scale: f64,
    /// Worker threads for the component sweep: `1` (the default) is
    /// the spawn-free serial path, `0` asks for the machine's available
    /// parallelism, anything else is the pool width. Results are
    /// bitwise-identical across thread counts (see `DESIGN.md` §9).
    pub threads: usize,
    /// Forced numerical pathology (deterministic fault injection for
    /// the robustness tests; `None` in production).
    pub fault: Option<FaultKind>,
    /// Lane policy for the component sweep's kernels: follow the
    /// process-wide dispatch (`NHPP_SIMD`), or force the scalar or the
    /// 4-lane path. The width actually used is pinned into
    /// the result ([`Vb2Posterior::lane_width`]); forcing it reproduces
    /// a recorded run bitwise on any machine. The wide path engages
    /// only where the sweep supports it — iterative substitution
    /// sweeps over failure times (any integer `α₀ ≤ 8`) or grouped
    /// counts (`α₀ = 1`), without fault injection (see `DESIGN.md`
    /// §14 for the eligibility table) — everywhere else fits run
    /// scalar and are bitwise identical under every policy.
    pub lanes: SimdPolicy,
}

impl Default for Vb2Options {
    fn default() -> Self {
        Vb2Options {
            solver: SolverKind::Auto,
            truncation: Truncation::default(),
            inner_tol: 1e-12,
            inner_max_iter: 200_000,
            hard_cap: 2_000_000,
            total_budget: None,
            deadline: None,
            init_scale: 1.0,
            threads: 1,
            fault: None,
            lanes: SimdPolicy::Auto,
        }
    }
}

/// Summary statistics of the dataset needed by the VB2 recursions.
#[derive(Debug, Clone)]
enum DataSummary {
    Times {
        m: u64,
        sum_obs: f64,
        sum_ln_obs: f64,
        t_end: f64,
    },
    Grouped {
        bins: Vec<(f64, f64, u64)>,
        m: u64,
        t_end: f64,
    },
}

impl DataSummary {
    fn from(data: &ObservedData) -> Self {
        match data {
            ObservedData::Times(d) => DataSummary::Times {
                m: d.len() as u64,
                sum_obs: d.sum_times(),
                sum_ln_obs: d.sum_ln_times(),
                t_end: d.observation_end(),
            },
            ObservedData::Grouped(d) => DataSummary::Grouped {
                bins: d.intervals().collect(),
                m: d.total_count(),
                t_end: d.observation_end(),
            },
        }
    }

    fn observed(&self) -> u64 {
        match self {
            DataSummary::Times { m, .. } | DataSummary::Grouped { m, .. } => *m,
        }
    }

    fn t_end(&self) -> f64 {
        match self {
            DataSummary::Times { t_end, .. } | DataSummary::Grouped { t_end, .. } => *t_end,
        }
    }

    /// `ζ(ξ)` — Eq. (24) (times) / Eq. (26) (grouped), survival form.
    ///
    /// A non-positive or non-finite `ξ` (an iterate that escaped the
    /// domain) yields NaN rather than a panic: the budgeted solvers
    /// convert a non-finite map value into a proper
    /// [`nhpp_numeric::NumericError::NonFinite`], which the supervised
    /// pipeline can classify and retry. This is the standalone entry
    /// point (kept for the domain-guard tests); the fits go through
    /// [`zeta_and_data`] with the fit-level memoized `ln Γ` values —
    /// the value is the same because `ln_gamma` is deterministic.
    #[cfg(test)]
    fn zeta(&self, alpha0: f64, xi: f64, n: u64) -> f64 {
        zeta_and_data(
            self,
            alpha0,
            xi,
            n,
            ln_gamma(alpha0),
            ln_gamma(alpha0 + 1.0),
        )
        .0
    }
}

/// The data-dependent parts of a component in one pass: `ζ(ξ)`
/// (Eq. (24)/(26), survival form) together with the weight's data
/// factor — `ξ·(ζ − Σt) − r·α₀·ln ξ + r·ln S(t_e)` for failure times,
/// `ξ·ζ − N·α₀·ln ξ + Σ xᵢ·ln ΔG + r·ln S(t_e)` for grouped data.
///
/// This is the single shared evaluation behind both the inner solver
/// map and the stored component state, so the `ζ` the weight sees is
/// bitwise the `ζ` the fixed point converged on. Every regularised
/// incomplete-gamma quantity is derived from one base evaluation per
/// endpoint plus recurrence steps (see [`Endpoint`]); for grouped data,
/// contiguous bins share their common endpoint, so `k` bins cost `k+1`
/// endpoint evaluations rather than `4k` independent tail calls.
///
/// Invalid `ξ` (an iterate that escaped the domain) or `n` below the
/// observed count yields `(NaN, NaN)`, which the solvers and the weight
/// check convert into proper errors.
fn zeta_and_data(
    summary: &DataSummary,
    alpha0: f64,
    xi: f64,
    n: u64,
    gln: f64,
    gln1: f64,
) -> (f64, f64) {
    if !xi.is_finite() || !(xi > 0.0) || !(alpha0 > 0.0) || !alpha0.is_finite() {
        return (f64::NAN, f64::NAN);
    }
    let Some(r) = n.checked_sub(summary.observed()) else {
        return (f64::NAN, f64::NAN);
    };
    let rf = r as f64;
    // Censored-tail state at t_end, shared by ζ and the weight; only
    // needed when unobserved faults remain, and only on the Q side.
    let (tail_mean_term, tail_ln_term) = if rf > 0.0 {
        let (ln_q, ln_q1) = Endpoint::eval_tail(alpha0, xi, summary.t_end(), gln, gln1);
        (rf * mean_from_masses(alpha0, xi, ln_q, ln_q1), rf * ln_q)
    } else {
        (0.0, 0.0)
    };
    match summary {
        DataSummary::Times { sum_obs, .. } => {
            let zeta = sum_obs + tail_mean_term;
            let ln_data = xi * (zeta - sum_obs) - rf * alpha0 * xi.ln() + tail_ln_term;
            (zeta, ln_data)
        }
        DataSummary::Grouped { bins, .. } => {
            let mut zeta = 0.0;
            let mut ln_bins = 0.0;
            let mut prev: Option<Endpoint> = None;
            for &(lo, hi, count) in bins {
                if count == 0 {
                    continue;
                }
                let e_lo = match prev {
                    Some(e) if e.t == lo => e,
                    _ => Endpoint::eval(alpha0, xi, lo, gln, gln1),
                };
                let e_hi = Endpoint::eval(alpha0, xi, hi, gln, gln1);
                let ln_mass = ln_mass_between(e_lo.ln_p, e_lo.ln_q, e_hi.ln_p, e_hi.ln_q);
                let ln_mass1 = ln_mass_between(e_lo.ln_p1, e_lo.ln_q1, e_hi.ln_p1, e_hi.ln_q1);
                zeta += count as f64 * mean_from_masses(alpha0, xi, ln_mass, ln_mass1);
                ln_bins += count as f64 * ln_mass;
                prev = Some(e_hi);
            }
            zeta += tail_mean_term;
            let ln_data = xi * zeta - n as f64 * alpha0 * xi.ln() + tail_ln_term + ln_bins;
            (zeta, ln_data)
        }
    }
}

/// Test-only probe of `ζ(ξ)` through the same shared evaluation the
/// fits use, so out-of-crate regression tests can pin its domain guards
/// (notably the `n < observed-count` u64-underflow boundary) without
/// exposing [`DataSummary`].
#[doc(hidden)]
pub fn zeta_probe(data: &ObservedData, alpha0: f64, xi: f64, n: u64) -> f64 {
    let summary = DataSummary::from(data);
    zeta_and_data(
        &summary,
        alpha0,
        xi,
        n,
        ln_gamma(alpha0),
        ln_gamma(alpha0 + 1.0),
    )
    .0
}

/// The per-`N` solved state.
#[derive(Debug, Clone, Copy)]
struct Component {
    n: u64,
    zeta: f64,
    xi: f64,
    ln_weight: f64,
    inner_iterations: usize,
}

impl Component {
    /// Pre-fill value for scratch slots the sweep is about to solve;
    /// never observable after a successful round.
    const PLACEHOLDER: Component = Component {
        n: 0,
        zeta: f64::NAN,
        xi: f64::NAN,
        ln_weight: f64::NAN,
        inner_iterations: 0,
    };
}

/// Reusable working memory for [`Vb2Posterior::fit_with_scratch`].
///
/// A VB2 fit's transient allocations are the candidate-`N` range and
/// the per-component solved state; holding them here lets repeated
/// fits (the batch workers of [`Vb2Posterior::fit_many`]) run the
/// whole sweep without touching the allocator once the buffers have
/// grown to the working size. A scratch is plain state — reusing one
/// across different datasets or options is fine, and dropping it is
/// always safe.
#[derive(Debug, Default)]
pub(crate) struct Vb2Scratch {
    ns: Vec<u64>,
    components: Vec<Component>,
}

impl Vb2Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One unit of a [`Vb2Posterior::fit_many`] batch: a complete
/// (model, prior, dataset, options) fitting problem.
#[derive(Debug, Clone, Copy)]
pub struct Vb2Task<'a> {
    /// Model family to fit.
    pub spec: ModelSpec,
    /// Prior for this task.
    pub prior: NhppPrior,
    /// Observed dataset.
    pub data: &'a ObservedData,
    /// Fit options. The per-fit `threads` field is overridden to `1`:
    /// the batch layer owns the pool, and each task solves serially on
    /// one worker.
    pub options: Vb2Options,
}

/// A warm-start table distilled from a fitted [`Vb2Posterior`]: the
/// converged `ξ_{β|N}` of every mixture component, indexed by `N`.
///
/// Feeding the table into [`Vb2Posterior::fit_warm`] makes each
/// component's inner fixed point start from the previous fit's solution
/// instead of the cold heuristic, which is what makes incremental
/// refits after `k` new events cheap: the fixed points move only
/// slightly, so the iterative solvers converge in a handful of steps
/// (the closed-form Goel–Okumoto/failure-time path ignores starting
/// points entirely, so warm fits there are bitwise identical to cold
/// ones). The lookup is a pure function of `N` — never of chunk
/// neighbours or the thread count — so warm fits keep the bitwise
/// thread-count determinism of cold fits.
#[derive(Debug, Clone, PartialEq)]
pub struct Vb2WarmStart {
    /// `N` of the first table entry (the previous fit's observed count).
    n0: u64,
    /// `ξ_{β|N}` for `N = n0, n0+1, …`, all finite and positive.
    xis: Vec<f64>,
}

impl Vb2WarmStart {
    /// The stored starting point for component `N`, if the table
    /// covers it.
    pub fn xi(&self, n: u64) -> Option<f64> {
        let idx = n.checked_sub(self.n0)? as usize;
        self.xis.get(idx).copied()
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.xis.len()
    }

    /// Whether the table has no entries (warm fits then behave cold).
    pub fn is_empty(&self) -> bool {
        self.xis.is_empty()
    }
}

/// The VB2 variational posterior: a finite Gamma-product mixture over the
/// latent total fault count `N`.
#[derive(Debug, Clone)]
pub struct Vb2Posterior {
    spec: ModelSpec,
    mixture: GammaProductMixture,
    /// `(N, Pᵥ(N))` pairs, ascending in `N`.
    pv: Vec<(u64, f64)>,
    /// Converged `ξ_{β|N}` per component, aligned with `pv`.
    xis: Vec<f64>,
    elbo: f64,
    n_max: u64,
    inner_iterations: usize,
    /// Kernel lane width the sweep ran on (1 = scalar, 4 = wide).
    lane_width: usize,
}

impl Vb2Posterior {
    /// Runs the VB2 algorithm (paper §5.1 Steps 1–5).
    ///
    /// # Errors
    ///
    /// * [`VbError::InvalidOption`] for non-positive tolerances.
    /// * [`VbError::TruncationOverflow`] if the adaptive growth hits
    ///   `hard_cap` while `Pᵥ(n_max) >= ε`, or — before any sweep
    ///   buffer is sized — if the first candidate range overflows `u64`
    ///   or holds more than `hard_cap` components.
    /// * [`VbError::NoConvergence`] if an inner fixed point stalls.
    /// * [`VbError::DegenerateWeights`] if every weight collapses.
    pub fn fit(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        options: Vb2Options,
    ) -> Result<Self, VbError> {
        Self::fit_with_scratch(spec, prior, data, options, &mut Vb2Scratch::new())
    }

    /// [`Vb2Posterior::fit`] warm-started from a previous fit's
    /// converged `ξ` table (see [`Vb2WarmStart`]). Components the table
    /// covers start their inner solve at the stored fixed point; the
    /// rest fall back to the usual within-chunk warm chain. `None`
    /// behaves exactly like [`Vb2Posterior::fit`].
    ///
    /// # Errors
    ///
    /// As [`Vb2Posterior::fit`].
    pub fn fit_warm(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        options: Vb2Options,
        warm: Option<&Vb2WarmStart>,
    ) -> Result<Self, VbError> {
        Self::fit_impl(spec, prior, data, options, warm, &mut Vb2Scratch::new())
    }

    /// [`Vb2Posterior::fit`] reusing caller-owned working memory.
    ///
    /// The hot sweep writes into the scratch's buffers instead of
    /// allocating per round, so a caller fitting in a loop (the batch
    /// workers of [`Vb2Posterior::fit_many`]) amortises all transient
    /// allocation to the first fit. Results are identical to
    /// [`Vb2Posterior::fit`] regardless of the scratch's history.
    fn fit_with_scratch(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        options: Vb2Options,
        scratch: &mut Vb2Scratch,
    ) -> Result<Self, VbError> {
        Self::fit_impl(spec, prior, data, options, None, scratch)
    }

    fn fit_impl(
        spec: ModelSpec,
        prior: NhppPrior,
        data: &ObservedData,
        options: Vb2Options,
        warm: Option<&Vb2WarmStart>,
        scratch: &mut Vb2Scratch,
    ) -> Result<Self, VbError> {
        if !(options.inner_tol > 0.0) {
            return Err(VbError::InvalidOption {
                message: "inner_tol must be positive",
            });
        }
        if !(options.init_scale > 0.0) || !options.init_scale.is_finite() {
            return Err(VbError::InvalidOption {
                message: "init_scale must be positive and finite",
            });
        }
        match options.truncation {
            Truncation::Adaptive { epsilon } | Truncation::AdaptiveCapped { epsilon, .. } => {
                if !(epsilon > 0.0) {
                    return Err(VbError::InvalidOption {
                        message: "epsilon must be positive",
                    });
                }
            }
            Truncation::Fixed { .. } => {}
        }
        let summary = DataSummary::from(data);
        let m = summary.observed();
        let alpha0 = spec.alpha0();
        let (a_w, r_w) = prior.omega.shape_rate();
        let (a_b, r_b) = prior.beta.shape_rate();

        // One cooperative budget governs the whole fit: every solved
        // component and every inner solver iteration charges it, so
        // iteration limits and deadlines bound total work rather than
        // each inner loop independently. The shared view lets pool
        // workers settle their consumption against the same limit.
        let mut budget = match options.total_budget {
            Some(limit) => Budget::iterations(limit),
            None => Budget::unlimited(),
        };
        if let Some(timeout) = options.deadline {
            budget = budget.with_deadline(timeout);
        }
        let shared = SharedBudget::from_budget(&budget);
        let ctx = FitContext {
            summary: &summary,
            spec,
            alpha0,
            a_w,
            r_w,
            a_b,
            r_b,
            ln_gamma_alpha0: ln_gamma(alpha0),
            ln_gamma_alpha0p1: ln_gamma(alpha0 + 1.0),
            // The weight ladders walk ln Γ(m_β + N·α₀) by unit steps,
            // which needs an integral stride; every model family in the
            // workspace has α₀ ∈ {1, 2}, and anything exotic falls back
            // to direct evaluation.
            b_stride: if alpha0.fract() == 0.0 && (1.0..=8.0).contains(&alpha0) {
                Some(alpha0 as u32)
            } else {
                None
            },
            warm: warm.filter(|w| !w.is_empty()),
            dispatch: options.lanes.resolve(),
            grouped_agg: match (&summary, alpha0 == 1.0) {
                (DataSummary::Grouped { bins, .. }, true) => GroupedAgg::build(bins),
                _ => None,
            },
            options,
        };
        // Pinned into the result: the lane width is part of the
        // reproducibility contract (same data + options + lane width ⇒
        // same bits, on any machine — dispatch is a software choice,
        // never a CPU-feature probe).
        let lane_width = if wide_sweep_eligible(&ctx) {
            ctx.dispatch.lane_width()
        } else {
            1
        };

        scratch.components.clear();
        // Compensated running accumulator for the mixture
        // log-normaliser: each component's log weight is pushed exactly
        // once, in `N` order, so the normaliser needs no per-round
        // recollection and is independent of the thread count.
        let mut acc = StreamingLogSumExp::new();
        let first_hi = match options.truncation {
            Truncation::Adaptive { .. } | Truncation::AdaptiveCapped { .. } => m
                .checked_mul(2)
                .zip(m.checked_add(50))
                .map(|(double, pad)| double.max(pad)),
            Truncation::Fixed { n_max } => {
                if n_max < m {
                    return Err(VbError::InvalidOption {
                        message: "n_max must be at least m",
                    });
                }
                Some(n_max)
            }
        };
        // Bound the first candidate range before sizing any buffer for
        // it: a range whose end overflows `u64`, or that holds more than
        // `hard_cap` components, could never be swept.
        let mut n_hi = match first_hi {
            Some(n_hi) if n_hi - m < options.hard_cap => n_hi,
            _ => {
                return Err(VbError::TruncationOverflow {
                    cap: options.hard_cap,
                    tail_mass: 1.0,
                })
            }
        };

        loop {
            // The candidate range is partitioned into fixed-width
            // chunks and fanned across the work pool; each chunk
            // re-seeds its own warm-start chain, so the partition (and
            // hence every solved value) is independent of the thread
            // count. Chunk results are folded back in range order and
            // the lowest-indexed error wins, exactly as in a serial
            // sweep.
            let start = scratch.components.last().map(|c| c.n + 1).unwrap_or(m);
            scratch.ns.clear();
            scratch.ns.extend(start..=n_hi);
            let base = scratch.components.len();
            scratch
                .components
                .resize(base + scratch.ns.len(), Component::PLACEHOLDER);
            parallel::run_chunks_with_out(
                options.threads,
                COMPONENT_CHUNK,
                &scratch.ns,
                &mut scratch.components[base..],
                |_, chunk, out| solve_chunk(&ctx, chunk, out, &shared),
            )?;
            for c in &scratch.components[base..] {
                acc.push(c.ln_weight);
            }
            let lse = acc.value();
            if !lse.is_finite() {
                return Err(VbError::DegenerateWeights {
                    message: format!("log normaliser = {lse} over N in [{m}, {n_hi}]"),
                });
            }
            let mut tail = (scratch
                .components
                .last()
                .expect("non-empty range")
                .ln_weight
                - lse)
                .exp();
            if options.fault == Some(FaultKind::InflateTail) {
                // Fault injection: pretend the tail never falls below
                // tolerance, driving the genuine overflow/cap logic.
                tail = tail.max(1.0);
            }
            match options.truncation {
                Truncation::Fixed { .. } => break,
                Truncation::Adaptive { epsilon } => {
                    if tail < epsilon {
                        break;
                    }
                    if n_hi >= options.hard_cap {
                        return Err(VbError::TruncationOverflow {
                            cap: options.hard_cap,
                            tail_mass: tail,
                        });
                    }
                    n_hi = (n_hi.saturating_mul(2)).min(options.hard_cap);
                }
                Truncation::AdaptiveCapped { epsilon, cap } => {
                    if tail < epsilon || n_hi >= cap {
                        break;
                    }
                    n_hi = (n_hi.saturating_mul(2)).min(cap);
                }
            }
        }

        let components = &scratch.components;
        let lse = acc.value();
        let elbo = lse + elbo_constant(&summary, alpha0, &prior);

        let mut pv = Vec::with_capacity(components.len());
        let mut xis = Vec::with_capacity(components.len());
        let mut parts = Vec::with_capacity(components.len());
        let mut inner_total = 0;
        for c in components {
            let w = (c.ln_weight - lse).exp();
            pv.push((c.n, w));
            xis.push(c.xi);
            inner_total += c.inner_iterations;
            parts.push(MixtureComponent {
                weight: w,
                omega: Gamma::new(a_w + c.n as f64, r_w + 1.0)?,
                beta: Gamma::new(a_b + c.n as f64 * alpha0, r_b + c.zeta)?,
            });
        }
        let mixture = GammaProductMixture::new(parts)?;
        Ok(Vb2Posterior {
            spec,
            mixture,
            pv,
            xis,
            elbo,
            n_max: n_hi,
            inner_iterations: inner_total,
            lane_width,
        })
    }

    /// Fits every task of a batch, fanning the tasks across a
    /// `threads`-wide work pool (`0` = the machine's available
    /// parallelism, `1` = serial). Results come back in task order and
    /// each task succeeds or fails independently — one degenerate
    /// dataset does not poison the portfolio. Task-level parallelism
    /// supersedes component-level parallelism here: each task runs with
    /// `threads = 1` internally, which keeps every individual result
    /// bitwise identical to a standalone serial [`Vb2Posterior::fit`].
    pub fn fit_many(tasks: &[Vb2Task<'_>], threads: usize) -> Vec<Result<Vb2Posterior, VbError>> {
        parallel::map_items(threads, tasks, |_, task| {
            // One scratch per worker thread, reused across all the
            // tasks that worker drains — the batch path allocates per
            // portfolio, not per fit. (Scratch state never leaks
            // between fits; see `Vb2Scratch`.)
            thread_local! {
                static SCRATCH: RefCell<Vb2Scratch> = RefCell::new(Vb2Scratch::new());
            }
            SCRATCH.with(|scratch| {
                Vb2Posterior::fit_with_scratch(
                    task.spec,
                    task.prior,
                    task.data,
                    Vb2Options {
                        threads: 1,
                        ..task.options
                    },
                    &mut scratch.borrow_mut(),
                )
            })
        })
    }

    /// The variational posterior mixture `Σ_N Pᵥ(N)·Pᵥ(ω|N)⊗Pᵥ(β|N)`.
    pub fn mixture(&self) -> &GammaProductMixture {
        &self.mixture
    }

    /// The variational posterior over the total fault count,
    /// `(N, Pᵥ(N))` ascending in `N`.
    pub fn pv_n(&self) -> &[(u64, f64)] {
        &self.pv
    }

    /// Posterior mean of the total fault count `E[N]`.
    pub fn mean_n(&self) -> f64 {
        self.pv.iter().map(|&(n, w)| n as f64 * w).sum()
    }

    /// The probability mass `Pᵥ(n_max)` at the truncation point — the
    /// adequacy check of the paper's Step 4 and the quantity reported in
    /// Table 7.
    pub fn tail_mass(&self) -> f64 {
        self.pv.last().map(|&(_, w)| w).unwrap_or(0.0)
    }

    /// The truncation point `n_max` actually used.
    pub fn n_max(&self) -> u64 {
        self.n_max
    }

    /// Distils this fit's converged per-`N` `ξ` table into a
    /// [`Vb2WarmStart`] for a cheap incremental refit on extended data
    /// (see [`Vb2Posterior::fit_warm`]).
    pub fn warm_start(&self) -> Vb2WarmStart {
        Vb2WarmStart {
            n0: self.pv.first().map(|&(n, _)| n).unwrap_or(0),
            xis: self.xis.clone(),
        }
    }

    /// The evidence lower bound `F[Pᵥ] <= ln P(D)` at the optimum,
    /// including all constants, so it is directly comparable with the
    /// log-evidence computed by numerical integration.
    pub fn elbo(&self) -> f64 {
        self.elbo
    }

    /// Total inner fixed-point iterations across all `N` (the cost driver
    /// examined in Table 7).
    pub fn inner_iterations(&self) -> usize {
        self.inner_iterations
    }

    /// The kernel lane width the component sweep actually ran on:
    /// `1` (scalar kernels) or [`WIDE_LANES`]. Part of the
    /// reproducibility contract — re-running with the same data,
    /// options and a [`SimdPolicy`] forcing this width reproduces the
    /// posterior bitwise on any machine.
    pub fn lane_width(&self) -> usize {
        self.lane_width
    }

    /// Credible band of the mean value function `Λ(t)` over a time grid
    /// (see [`crate::bands`]).
    ///
    /// # Errors
    ///
    /// [`VbError::InvalidOption`] for an invalid grid or level.
    pub fn mean_value_band(
        &self,
        t_grid: &[f64],
        level: f64,
    ) -> Result<Vec<crate::bands::BandPoint>, VbError> {
        crate::bands::mean_value_band(&self.mixture, self.spec, t_grid, level)
    }

    /// Posterior-predictive distribution of the number of failures in
    /// the future window `(t, t+u]` (exact negative-binomial mixture; see
    /// [`crate::prediction`]).
    ///
    /// # Errors
    ///
    /// [`VbError::InvalidOption`] for an empty window.
    pub fn predictive_failures(
        &self,
        t: f64,
        u: f64,
    ) -> Result<nhpp_models::prediction::PredictiveCounts, VbError> {
        crate::prediction::predictive_counts(&self.mixture, self.spec, t, u, 1e-10)
    }

    /// Marginal variational posterior of `ω` (a Gamma mixture).
    pub fn marginal_omega(&self) -> GammaMixture {
        self.mixture.marginal_omega()
    }

    /// Marginal variational posterior of `β` (a Gamma mixture).
    pub fn marginal_beta(&self) -> GammaMixture {
        self.mixture.marginal_beta()
    }
}

/// Everything constant across the components of one fit, bundled so it
/// can cross the work-pool boundary as one shared reference. It also
/// carries the fit-level memoized special-function values: `ln Γ(α₀)`
/// and `ln Γ(α₀ + 1)` are evaluated once here and reused by every
/// component's tail and weight evaluation, instead of once per
/// regularised-incomplete-gamma call.
struct FitContext<'a> {
    summary: &'a DataSummary,
    spec: ModelSpec,
    alpha0: f64,
    a_w: f64,
    r_w: f64,
    a_b: f64,
    r_b: f64,
    ln_gamma_alpha0: f64,
    ln_gamma_alpha0p1: f64,
    /// Unit-step stride of the `ln Γ(m_β + N·α₀)` weight ladder —
    /// `α₀` as an integer when it is one (always, for the workspace's
    /// model families); `None` disables the ladder in favour of direct
    /// evaluation.
    b_stride: Option<u32>,
    /// Per-`N` starting points carried over from a previous fit. The
    /// lookup is a pure function of `N`, so warm fits keep the bitwise
    /// thread-count determinism of cold fits.
    warm: Option<&'a Vb2WarmStart>,
    /// The resolved lane dispatch (policy against the process default),
    /// fixed once per fit so every chunk sees the same kernels.
    dispatch: SimdDispatch,
    /// Per-distinct-width aggregates of the grouped bins, built once
    /// per fit when the lane sweep's closed-form ΔG terms apply
    /// (grouped data, `α₀ = 1`); `None` otherwise.
    grouped_agg: Option<GroupedAgg>,
    options: Vb2Options,
}

/// Grouped-data aggregates for the lane sweep's closed-form ΔG terms
/// (`α₀ = 1`, the exponential law). The conditional bin mean is
/// `lo + g(ξ, δ)` with `g = 1/ξ − δ/expm1(ξδ)` and the log bin mass is
/// `−ξ·lo + ln(−expm1(−ξδ))`, so everything data-dependent collapses
/// to `Σ count·lo` plus one coefficient per *distinct* bin width:
/// each solver iteration costs one `expm1` per width instead of one
/// endpoint-recurrence pair per bin.
struct GroupedAgg {
    /// `Σ count·lo` over the occupied bins.
    s_lo: f64,
    /// `(δ, Σ count)` per distinct bin width, in first-appearance
    /// order (a pure function of the bin list, so chunked sweeps stay
    /// deterministic).
    widths: Vec<(f64, f64)>,
}

impl GroupedAgg {
    /// Aggregates the occupied bins, or `None` when any occupied bin
    /// is malformed for the closed forms (non-finite or non-positive
    /// width, non-finite lower edge) — those fits keep the scalar path.
    fn build(bins: &[(f64, f64, u64)]) -> Option<GroupedAgg> {
        let mut s_lo = 0.0;
        let mut widths: Vec<(f64, f64)> = Vec::new();
        for &(lo, hi, count) in bins {
            if count == 0 {
                continue;
            }
            let d = hi - lo;
            if !d.is_finite() || !(d > 0.0) || !lo.is_finite() || !(lo >= 0.0) {
                return None;
            }
            let c = count as f64;
            s_lo += c * lo;
            match widths.iter_mut().find(|(w, _)| *w == d) {
                Some((_, acc)) => *acc += c,
                None => widths.push((d, c)),
            }
        }
        Some(GroupedAgg { s_lo, widths })
    }
}

/// Crossover of the within-bin mean `g(ξ, δ) = 1/ξ − δ/expm1(ξδ)` to
/// its Bernoulli series: below `z = ξδ = 0.05` the direct form cancels
/// (both terms are `≈ δ/z` while `g ≈ δ/2`) and the series truncation
/// error is still `< 2e−15` relative.
const GROUPED_SERIES_Z: f64 = 0.05;

/// `E[T′ | T′ < δ]` for `T′ ~ Exp(ξ)` — the within-bin part of the
/// conditional bin mean `lo + g(ξ, δ)`. `recip` is the caller-hoisted
/// `1/ξ` (shared across the widths of one lane iteration).
fn exp_bin_mean(xi: f64, recip: f64, d: f64) -> f64 {
    let z = xi * d;
    if z <= GROUPED_SERIES_Z {
        // g = δ·(1/2 − z/12 + z³/720 − z⁵/30240 + O(z⁷/1209600)).
        let z2 = z * z;
        d * (0.5 - z * (1.0 / 12.0 - z2 * (1.0 / 720.0 - z2 * (1.0 / 30240.0))))
    } else {
        recip - d / z.exp_m1()
    }
}

/// `(e_k(x), e_{k+1}(x))` with `e_j(x) = Σ_{i<j} xⁱ/i!` — the truncated
/// exponential sums behind the integer-shape survival
/// `Q(j, x) = e^{−x}·e_j(x)`. Terms accumulate in fixed ascending
/// order (all positive, no cancellation), so the value is a pure
/// function of `(k, x)`.
fn exp_sum_pair(k: u32, x: f64) -> (f64, f64) {
    let mut term = 1.0;
    let mut sum = 1.0;
    for j in 1..k {
        term = term * x / j as f64;
        sum += term;
    }
    let e_k = sum;
    term = term * x / k as f64;
    (e_k, sum + term)
}

/// Largest scaled endpoint `x = ξ·t_e` the integer-shape lane tail
/// evaluates through [`exp_sum_pair`]: far past it the leading term
/// `x^{α₀}/α₀!` approaches the overflow threshold (for `α₀ ≤ 8` that
/// is `x ≈ 1e38`), so those lanes fall back to the scalar
/// [`Endpoint::eval_tail`] recurrence, which is exact there.
const INT_TAIL_X_MAX: f64 = 1e37;

impl FitContext<'_> {
    /// `ζ(ξ)` through the shared one-pass evaluation, with the
    /// fit-level memoized `ln Γ(α₀)` / `ln Γ(α₀ + 1)`.
    fn zeta(&self, xi: f64, n: u64) -> f64 {
        zeta_and_data(
            self.summary,
            self.alpha0,
            xi,
            n,
            self.ln_gamma_alpha0,
            self.ln_gamma_alpha0p1,
        )
        .0
    }
}

/// Whether the fit takes the iteration-free closed form: Goel–Okumoto
/// with failure-time data (paper §5.2) — only under `Auto`, so
/// explicitly requesting an iterative solver (e.g. for the Table 7
/// cost experiment) is honoured. A `StallInner` fault forces the
/// iterative path, which is where the pathology it simulates lives.
fn uses_closed_form(ctx: &FitContext) -> bool {
    ctx.options.solver == SolverKind::Auto
        && ctx.options.fault != Some(FaultKind::StallInner)
        && matches!(
            (ctx.spec.is_goel_okumoto(), ctx.summary),
            (true, DataSummary::Times { .. })
        )
}

/// Which closed-form lane map a wide sweep runs (see [`solve_lanes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKind {
    /// Failure times, `α₀ = 1`: the censored-tail mean is `t_e + 1/ξ`
    /// in closed form, so the fixed-point map is pure lane arithmetic.
    TimesExp,
    /// Failure times, integer `α₀ = k ≥ 2` (delayed S-shaped): the
    /// survival is `Q(k, x) = e^{−x}·e_k(x)` with `e_k` the truncated
    /// exponential sum, so the tail mean is `(k/ξ)·e_{k+1}(x)/e_k(x)` —
    /// lanes past the [`INT_TAIL_X_MAX`] overflow guard fall back to
    /// the scalar tail recurrence element-wise.
    TimesInt(u32),
    /// Grouped counts, `α₀ = 1`: per-bin truncated-exponential means
    /// and log masses in closed form, aggregated per distinct bin
    /// width (see [`GroupedAgg`]).
    GroupedExp,
}

/// Which lane map (if any) the component sweep may run its iterative
/// fixed points on. The wide path covers the iterative successive-
/// substitution sweeps whose per-`N` map has a closed algebraic form
/// per lane: failure times at any ladder-integral `α₀` (`α₀ = 1` and
/// the delayed-S-shaped `α₀ = 2` included) and grouped counts at
/// `α₀ = 1`. Everything else — the closed form (already
/// iteration-free), non-integer or `> 8` shapes, grouped data with
/// `α₀ ≠ 1`, Newton/bisection solvers, fault injection — keeps the
/// scalar path, bitwise unchanged from previous releases.
fn wide_sweep_kind(ctx: &FitContext) -> Option<LaneKind> {
    if ctx.dispatch == SimdDispatch::Scalar
        || uses_closed_form(ctx)
        || ctx.options.fault.is_some()
        || !matches!(
            ctx.options.solver,
            SolverKind::Auto | SolverKind::SuccessiveSubstitution
        )
    {
        return None;
    }
    match ctx.summary {
        DataSummary::Times { .. } => {
            if ctx.alpha0 == 1.0 {
                Some(LaneKind::TimesExp)
            } else {
                match ctx.b_stride {
                    Some(k) if k >= 2 => Some(LaneKind::TimesInt(k)),
                    _ => None,
                }
            }
        }
        DataSummary::Grouped { .. } => {
            if ctx.alpha0 == 1.0 && ctx.grouped_agg.is_some() {
                Some(LaneKind::GroupedExp)
            } else {
                None
            }
        }
    }
}

/// Whether the component sweep runs on the wide kernels (any lane
/// map) — the gate behind the pinned
/// [`Vb2Posterior::lane_width`].
fn wide_sweep_eligible(ctx: &FitContext) -> bool {
    wide_sweep_kind(ctx).is_some()
}

/// A cheap, coarse pre-solve of the chunk head's `ξ` so the chunk's
/// warm-start chain begins near its fixed point instead of cold. The
/// seed depends only on the component index — never on other chunks or
/// the thread count — which is what keeps chunked sweeps deterministic.
/// It is best-effort: any failure just falls back to the cold start
/// inside [`solve_component`]. Seed iterations still settle against
/// the shared budget; a genuine exhaustion then surfaces through the
/// first real component solve.
fn chunk_head_seed(ctx: &FitContext, n: u64, shared: &SharedBudget) -> Option<f64> {
    if uses_closed_form(ctx) {
        // Warm starts are unused on the closed-form path.
        return None;
    }
    if ctx.options.fault == Some(FaultKind::NanZeta) {
        // Every map evaluation would be NaN; don't spend seed budget.
        return None;
    }
    let alpha0 = ctx.alpha0;
    let b_shape = ctx.a_b + n as f64 * alpha0;
    let map = |xi: f64| b_shape / (ctx.r_b + ctx.zeta(xi, n));
    let x0 = b_shape / (ctx.r_b + ctx.zeta(alpha0 / ctx.summary.t_end(), n));
    if !x0.is_finite() || !(x0 > 0.0) {
        return None;
    }
    let mut local = shared.local(SEED_MAX_ITER);
    let seed = newton_fixed_point_budgeted(map, x0, SEED_TOL, &mut local)
        .ok()
        .map(|fp| fp.value)
        .filter(|xi| xi.is_finite() && *xi > 0.0);
    let _ = shared.absorb(&local);
    seed
}

/// Picks the inner-solver seed for component `N` between a warm-table
/// entry (a converged fixed point from a *previous* fit) and the
/// in-chunk chain value (the neighbouring `N`'s fixed point on the
/// *current* data), by one fixed-point-map residual evaluation of
/// each. When the data has not changed the table entry wins with a
/// near-zero residual; after new events the per-`N` fixed points
/// shift, and the chain — already converged on the new data — is
/// often the closer start. Both candidates and `ζ` are pure functions
/// of `N` and chunk-local state, so the choice preserves bitwise
/// thread-count determinism. Best-effort: on budget exhaustion or
/// under fault injection it just returns the chain value.
fn pick_seed(
    ctx: &FitContext,
    n: u64,
    table: Option<f64>,
    chain: Option<f64>,
    shared: &SharedBudget,
) -> Option<f64> {
    let (Some(t), Some(c)) = (table, chain) else {
        return table.or(chain);
    };
    if t == c || uses_closed_form(ctx) || ctx.options.fault.is_some() {
        return Some(c);
    }
    let mut local = shared.local(2);
    if local.charge(2).is_err() {
        let _ = shared.absorb(&local);
        return Some(c);
    }
    let _ = shared.absorb(&local);
    let b_shape = ctx.a_b + n as f64 * ctx.alpha0;
    let residual = |xi: f64| {
        let next = b_shape / (ctx.r_b + ctx.zeta(xi, n));
        ((next - xi) / xi).abs()
    };
    let (rt, rc) = (residual(t), residual(c));
    if rt.is_finite() && (!rc.is_finite() || rt < rc) {
        Some(t)
    } else {
        Some(c)
    }
}

/// Solves one contiguous chunk of candidate `N`s into its disjoint
/// output window: the head is seeded by [`chunk_head_seed`], the rest
/// warm-start sequentially from their predecessor, exactly as the old
/// serial sweep did within a chunk.
///
/// The weight's `ln Γ(m_ω + N)` and `ln Γ(m_β + N·α₀)` terms walk
/// [`LnGammaLadder`]s anchored at the chunk head — all recurrence
/// state is chunk-local, so the solved values stay a pure function of
/// `(chunk_index, chunk)` and parallel fits remain bitwise identical
/// across thread counts.
fn solve_chunk(
    ctx: &FitContext,
    ns: &[u64],
    out: &mut [Component],
    shared: &SharedBudget,
) -> Result<(), VbError> {
    let Some(&n0) = ns.first() else {
        return Ok(());
    };
    // A warm-start table entry outranks the seed solve — it *is* a
    // converged fixed point from the previous fit — and, per
    // component, races the chain through [`pick_seed`]: all the
    // lookups are pure in `N`.
    let mut warm_xi = match ctx.warm.and_then(|w| w.xi(n0)) {
        Some(xi) => Some(xi),
        None => chunk_head_seed(ctx, n0, shared),
    };
    let mut ladder_a = LnGammaLadder::new(ctx.a_w + n0 as f64);
    let mut ladder_b = ctx
        .b_stride
        .map(|_| LnGammaLadder::new(ctx.a_b + n0 as f64 * ctx.alpha0));
    // Lane-parallel sweep: whole blocks of [`WIDE_LANES`] consecutive
    // `N` solve their fixed points side by side in struct-of-arrays
    // form; the ragged tail (and any
    // ineligible fit) takes the scalar loop below, which continues
    // from the same ladder and warm-chain state. Block staging lives
    // in registers; results fold back into the array-of-structs
    // scratch, so the chunk output layout (and the chunk partition,
    // and therefore thread-count determinism) is unchanged.
    let mut idx = 0;
    if let Some(kind) = wide_sweep_kind(ctx) {
        idx = solve_lane_blocks::<WIDE_LANES>(
            ctx,
            kind,
            ns,
            out,
            &mut warm_xi,
            &mut ladder_a,
            &mut ladder_b,
            shared,
        )?;
    }
    for (&n, slot) in ns[idx..].iter().zip(out[idx..].iter_mut()) {
        let ln_gamma_a = ladder_a.value();
        let ln_gamma_b = match &ladder_b {
            Some(ladder) => ladder.value(),
            None => ln_gamma(ctx.a_b + n as f64 * ctx.alpha0),
        };
        let start = pick_seed(ctx, n, ctx.warm.and_then(|w| w.xi(n)), warm_xi, shared);
        let mut local = shared.local(u64::MAX);
        let result = solve_component(ctx, n, start, ln_gamma_a, ln_gamma_b, &mut local);
        // Settle the consumption either way, but let a solve error take
        // precedence over a budget trip caused by that same solve.
        let settled = shared.absorb(&local);
        let comp = result?;
        settled.map_err(VbError::from)?;
        warm_xi = Some(comp.xi);
        *slot = comp;
        ladder_a.advance();
        if let (Some(ladder), Some(stride)) = (&mut ladder_b, ctx.b_stride) {
            ladder.advance_by(stride);
        }
    }
    Ok(())
}

/// Drains whole `L`-wide blocks of a chunk through [`solve_lanes`],
/// advancing the caller's ladders and warm chain exactly as the scalar
/// loop would, and returns the index of the first component left for
/// the scalar ragged tail.
#[allow(clippy::too_many_arguments)]
fn solve_lane_blocks<const L: usize>(
    ctx: &FitContext,
    kind: LaneKind,
    ns: &[u64],
    out: &mut [Component],
    warm_xi: &mut Option<f64>,
    ladder_a: &mut LnGammaLadder,
    ladder_b: &mut Option<LnGammaLadder>,
    shared: &SharedBudget,
) -> Result<usize, VbError> {
    let mut idx = 0;
    while idx + L <= ns.len() {
        let mut block_ns = [0u64; L];
        block_ns.copy_from_slice(&ns[idx..idx + L]);
        let mut lga = [0.0; L];
        let mut lgb = [0.0; L];
        for i in 0..L {
            lga[i] = ladder_a.value();
            lgb[i] = match &*ladder_b {
                Some(ladder) => ladder.value(),
                None => ln_gamma(ctx.a_b + block_ns[i] as f64 * ctx.alpha0),
            };
            ladder_a.advance();
            if let (Some(ladder), Some(stride)) = (ladder_b.as_mut(), ctx.b_stride) {
                ladder.advance_by(stride);
            }
        }
        let block = solve_lanes::<L>(ctx, kind, block_ns, *warm_xi, lga, lgb, shared)?;
        *warm_xi = Some(block[L - 1].xi);
        out[idx..idx + L].copy_from_slice(&block);
        idx += L;
    }
    Ok(idx)
}

/// Solves `L` consecutive components side by side on the lane kernels
/// (see [`wide_sweep_kind`] for the eligible maps).
///
/// Each [`LaneKind`] gives the fixed-point map `ξ ← B/(φ_β + ζ(ξ))` a
/// closed algebraic form per lane — the exponential censored tail
/// `t_e + 1/ξ`, the integer-shape truncated-sum ratio, or the per-
/// distinct-width grouped bin means — so an iteration is pure lane
/// arithmetic (at most one `expm1` per distinct bin width), and the
/// independent lanes pipeline. Where a lane's closed form would
/// overflow (the [`INT_TAIL_X_MAX`] guard), that lane alone falls back
/// to the shared scalar evaluation, so guard decisions stay element-
/// wise like the scalar path's. Each lane replicates the scalar
/// successive-substitution contract exactly: one budget charge per
/// executed iteration, a `NonFinite` error on an escaped iterate,
/// convergence at `|Δξ| <= tol·max(|ξ|, 1)`, and the per-component
/// `inner_max_iter` cap; converged lanes freeze while the rest keep
/// iterating.
///
/// Lanes seed through the same [`pick_seed`] race as the scalar path —
/// warm-table entry vs. the predecessor block's last converged `ξ`
/// (the chunk-head seed for the first block), whichever has the
/// smaller fixed-point residual — pure functions of `N` and
/// chunk-local state, so the bitwise thread-count determinism of the
/// sweep is preserved and a stale table never costs a warm refit more
/// iterations than the chain would. Wide results may differ from
/// scalar results by inner-tolerance-sized amounts (different iterate
/// sequence, polynomial exponential); the lane width pinned into the
/// posterior records which path produced them, and `L = 4` reproduces
/// the 4-lane sweeps of previous releases bitwise.
fn solve_lanes<const L: usize>(
    ctx: &FitContext,
    kind: LaneKind,
    ns: [u64; L],
    chain: Option<f64>,
    ln_gamma_a: [f64; L],
    ln_gamma_b: [f64; L],
    shared: &SharedBudget,
) -> Result<[Component; L], VbError> {
    let m = ctx.summary.observed();
    let t_end = ctx.summary.t_end();
    let sum_obs = match ctx.summary {
        DataSummary::Times { sum_obs, .. } => *sum_obs,
        DataSummary::Grouped { .. } => 0.0,
    };
    let tol = ctx.options.inner_tol;
    let max_iter = ctx.options.inner_max_iter;
    let mut local = shared.local(u64::MAX);
    let result = (|| -> Result<[Component; L], VbError> {
        // The per-component head charges, as in the scalar path.
        local.charge(L as u64).map_err(VbError::from)?;
        let mut b_shapes = [0.0; L];
        let mut denoms = [0.0; L];
        let mut rfs = [0.0; L];
        let mut rs = [0u64; L];
        let mut x = [0.0; L];
        for i in 0..L {
            let n = ns[i];
            let Some(r) = n.checked_sub(m) else {
                return Err(VbError::InvalidOption {
                    message: "candidate N must be at least the observed count m",
                });
            };
            rs[i] = r;
            let rf = r as f64;
            rfs[i] = rf;
            b_shapes[i] = ctx.a_b + n as f64 * ctx.alpha0;
            denoms[i] = ctx.r_b + sum_obs + rf * t_end;
            let seed = pick_seed(ctx, n, ctx.warm.and_then(|w| w.xi(n)), chain, shared)
                .unwrap_or_else(|| match kind {
                    // Cold start at the ξ = α₀/t_e probe, algebraically
                    // where α₀ = 1 gives ζ(1/t_e) = Σt + 2·r·t_e, and
                    // through the shared scalar evaluation otherwise.
                    LaneKind::TimesExp => b_shapes[i] / (ctx.r_b + sum_obs + 2.0 * rf * t_end),
                    LaneKind::TimesInt(_) | LaneKind::GroupedExp => {
                        b_shapes[i] / (ctx.r_b + ctx.zeta(ctx.alpha0 / t_end, n))
                    }
                });
            x[i] = ctx.options.init_scale * seed;
        }
        let mut iters = [0usize; L];
        let mut done = [false; L];
        loop {
            let mut active = 0u64;
            for i in 0..L {
                if !done[i] {
                    if iters[i] >= max_iter {
                        // The scalar path's per-component sub-budget
                        // trips on this same iteration's charge.
                        return Err(VbError::from(NumericError::BudgetExhausted {
                            used: iters[i] as u64,
                            reason: "iteration limit",
                        }));
                    }
                    active += 1;
                }
            }
            if active == 0 {
                break;
            }
            local.charge(active).map_err(VbError::from)?;
            let mut next = [0.0; L];
            match kind {
                LaneKind::TimesExp => {
                    // ξ ← (m_β + N) / (φ_β + Σt + r·t_e + r/ξ): the
                    // same per-lane arithmetic (scalar `mul_add`) as
                    // the 4-lane sweeps of previous releases.
                    for i in 0..L {
                        next[i] = b_shapes[i] / rfs[i].mul_add(1.0 / x[i], denoms[i]);
                    }
                }
                LaneKind::TimesInt(k) => {
                    for i in 0..L {
                        let xi = x[i];
                        let xx = xi * t_end;
                        let zeta = if xx < INT_TAIL_X_MAX {
                            let (e_k, e_k1) = exp_sum_pair(k, xx);
                            sum_obs + rfs[i] * (ctx.alpha0 / xi) * (e_k1 / e_k)
                        } else {
                            // Far-tail overflow guard: the scalar
                            // evaluation is exact there and just as
                            // deterministic.
                            ctx.zeta(xi, ns[i])
                        };
                        next[i] = b_shapes[i] / (ctx.r_b + zeta);
                    }
                }
                LaneKind::GroupedExp => {
                    let agg = ctx
                        .grouped_agg
                        .as_ref()
                        .expect("guarded by wide_sweep_kind");
                    for i in 0..L {
                        let xi = x[i];
                        let recip = 1.0 / xi;
                        let mut zeta = agg.s_lo;
                        for &(d, c) in &agg.widths {
                            zeta += c * exp_bin_mean(xi, recip, d);
                        }
                        zeta += rfs[i] * (t_end + recip);
                        next[i] = b_shapes[i] / (ctx.r_b + zeta);
                    }
                }
            }
            for i in 0..L {
                if done[i] {
                    continue;
                }
                let nx = next[i];
                iters[i] += 1;
                if !nx.is_finite() {
                    return Err(VbError::from(NumericError::NonFinite {
                        context: "successive substitution update",
                    }));
                }
                if (nx - x[i]).abs() <= tol * x[i].abs().max(1.0) {
                    done[i] = true;
                }
                x[i] = nx;
            }
        }

        // Weight assembly in the same shape as the scalar
        // `zeta_and_data` + `solve_component` finish, on the lane
        // kernels: tail (and, for grouped data, bin) terms, ζ, data
        // factor, ln weight.
        let ln_rw1 = (ctx.r_w + 1.0).ln();
        let mut comps = [Component::PLACEHOLDER; L];
        for i in 0..L {
            let n = ns[i];
            let xi = x[i];
            let rf = rfs[i];
            let (zeta, ln_data) = match kind {
                LaneKind::TimesExp => {
                    let (ln_q, ln_q1) = Endpoint::eval_tail_lane(
                        ctx.alpha0,
                        xi,
                        t_end,
                        ctx.ln_gamma_alpha0,
                        ctx.ln_gamma_alpha0p1,
                    );
                    let mean = tail_mean_from_masses_lane(ctx.alpha0, xi, ln_q, ln_q1);
                    let tail_mean_term = rf * mean;
                    let zeta = sum_obs + tail_mean_term;
                    let ln_data = xi * tail_mean_term - rf * ctx.alpha0 * xi.ln() + rf * ln_q;
                    (zeta, ln_data)
                }
                LaneKind::TimesInt(k) => {
                    let xx = xi * t_end;
                    let (ln_q, mean) = if xx < INT_TAIL_X_MAX {
                        let (e_k, e_k1) = exp_sum_pair(k, xx);
                        (e_k.ln() - xx, (ctx.alpha0 / xi) * (e_k1 / e_k))
                    } else {
                        let (ln_q, ln_q1) = Endpoint::eval_tail(
                            ctx.alpha0,
                            xi,
                            t_end,
                            ctx.ln_gamma_alpha0,
                            ctx.ln_gamma_alpha0p1,
                        );
                        (ln_q, mean_from_masses(ctx.alpha0, xi, ln_q, ln_q1))
                    };
                    let tail_mean_term = rf * mean;
                    let zeta = sum_obs + tail_mean_term;
                    let ln_data = xi * tail_mean_term - rf * ctx.alpha0 * xi.ln() + rf * ln_q;
                    (zeta, ln_data)
                }
                LaneKind::GroupedExp => {
                    let agg = ctx
                        .grouped_agg
                        .as_ref()
                        .expect("guarded by wide_sweep_kind");
                    let recip = 1.0 / xi;
                    let mut zeta = agg.s_lo;
                    let mut ln_bins = -xi * agg.s_lo;
                    for &(d, c) in &agg.widths {
                        zeta += c * exp_bin_mean(xi, recip, d);
                        ln_bins += c * (-(-xi * d).exp_m1()).ln();
                    }
                    zeta += rf * (t_end + recip);
                    let xx = xi * t_end;
                    let ln_q = if xx == 0.0 { 0.0 } else { -xx };
                    let ln_data = xi * zeta - n as f64 * ctx.alpha0 * xi.ln() + rf * ln_q + ln_bins;
                    (zeta, ln_data)
                }
            };
            let a_shape = ctx.a_w + n as f64;
            let ln_rb_zeta = (ctx.r_b + zeta).ln();
            let ln_w = ln_gamma_a[i] - a_shape * ln_rw1 + ln_gamma_b[i]
                - b_shapes[i] * ln_rb_zeta
                - ln_factorial(rs[i])
                + ln_data;
            if ln_w.is_nan() {
                return Err(VbError::DegenerateWeights {
                    message: format!("ln weight is NaN at N={n} (ζ={zeta}, ξ={xi})"),
                });
            }
            comps[i] = Component {
                n,
                zeta,
                xi,
                ln_weight: ln_w,
                inner_iterations: iters[i],
            };
        }
        Ok(comps)
    })();
    // Settle the consumption either way; a solve error takes precedence
    // over a budget trip caused by that same solve (as in the scalar
    // path).
    let settled = shared.absorb(&local);
    let comps = result?;
    settled.map_err(VbError::from)?;
    Ok(comps)
}

/// Solves the `(ζ, ξ)` fixed point for one `N` and evaluates the
/// weight. `ln_gamma_a_shape` / `ln_gamma_b_shape` are
/// `ln Γ(m_ω + N)` / `ln Γ(m_β + N·α₀)` supplied by the caller's
/// chunk-local ladders (see [`solve_chunk`]).
fn solve_component(
    ctx: &FitContext,
    n: u64,
    warm_xi: Option<f64>,
    ln_gamma_a_shape: f64,
    ln_gamma_b_shape: f64,
    budget: &mut Budget,
) -> Result<Component, VbError> {
    // Each solved component costs at least one charge, so deadlines
    // are observed even on the iteration-free closed-form path.
    budget.charge(1).map_err(VbError::from)?;
    let FitContext {
        summary,
        alpha0,
        a_w,
        r_w,
        a_b,
        r_b,
        ref options,
        ..
    } = *ctx;
    let b_shape = a_b + n as f64 * alpha0;
    let Some(r) = n.checked_sub(summary.observed()) else {
        return Err(VbError::InvalidOption {
            message: "candidate N must be at least the observed count m",
        });
    };

    let (xi, iterations) = if uses_closed_form(ctx) {
        let (sum_obs, t_end) = match summary {
            DataSummary::Times { sum_obs, t_end, .. } => (*sum_obs, *t_end),
            DataSummary::Grouped { .. } => unreachable!("guarded by uses_closed_form"),
        };
        // ξ(φ_β + Σt + r·t_e) + r = m_β + N  ⇒  closed form.
        (
            (a_b + summary.observed() as f64) / (r_b + sum_obs + r as f64 * t_end),
            0,
        )
    } else {
        let fault = options.fault;
        let stall_step = 1e3 * options.inner_tol;
        let map = |xi: f64| {
            if fault == Some(FaultKind::NanZeta) {
                return f64::NAN;
            }
            let z = ctx.zeta(xi, n);
            let next = b_shape / (r_b + z);
            if fault == Some(FaultKind::StallInner) {
                // Drift by a super-tolerance step: substitution and
                // Newton never converge, bisection sees no sign change.
                return xi + stall_step * xi.abs().max(1.0);
            }
            next
        };
        let x0 = options.init_scale
            * warm_xi.unwrap_or_else(|| b_shape / (r_b + ctx.zeta(alpha0 / summary.t_end(), n)));
        let mut inner = budget.sub_budget(options.inner_max_iter as u64);
        let fp = match options.solver {
            SolverKind::Newton => {
                newton_fixed_point_budgeted(map, x0, options.inner_tol, &mut inner)
            }
            SolverKind::Bisection => bisection_fixed_point(map, x0, options.inner_tol, &mut inner),
            SolverKind::Auto | SolverKind::SuccessiveSubstitution => {
                successive_substitution_budgeted(map, x0, options.inner_tol, &mut inner)
            }
        };
        budget.absorb(&inner).map_err(VbError::from)?;
        let fp = fp.map_err(VbError::from)?;
        (fp.value, fp.iterations)
    };

    let (zeta, ln_data) = if options.fault == Some(FaultKind::NanZeta) {
        (f64::NAN, f64::NAN)
    } else {
        // The same one-pass evaluation the solver map went through, so
        // the stored ζ is bitwise the ζ the fixed point converged on.
        zeta_and_data(
            summary,
            alpha0,
            xi,
            n,
            ctx.ln_gamma_alpha0,
            ctx.ln_gamma_alpha0p1,
        )
    };
    let a_shape = a_w + n as f64;
    let ln_w = ln_gamma_a_shape - a_shape * (r_w + 1.0).ln() + ln_gamma_b_shape
        - b_shape * (r_b + zeta).ln()
        - ln_factorial(r)
        + ln_data;
    if ln_w.is_nan() {
        return Err(VbError::DegenerateWeights {
            message: format!("ln weight is NaN at N={n} (ζ={zeta}, ξ={xi})"),
        });
    }
    Ok(Component {
        n,
        zeta,
        xi,
        ln_weight: ln_w,
        inner_iterations: iterations,
    })
}

/// The `N`-independent constants completing `F[Pᵥ] = ln Σ P̃ᵥ(N) + C₀` so
/// the ELBO is an honest bound on the log evidence.
fn elbo_constant(summary: &DataSummary, alpha0: f64, prior: &NhppPrior) -> f64 {
    let prior_norm = |prior: &nhpp_models::prior::ParamPrior| {
        let (a, r) = prior.shape_rate();
        if prior.is_flat() {
            0.0
        } else {
            a * r.ln() - ln_gamma(a)
        }
    };
    let base = prior_norm(&prior.omega) + prior_norm(&prior.beta);
    match summary {
        DataSummary::Times { m, sum_ln_obs, .. } => {
            base + (alpha0 - 1.0) * sum_ln_obs - *m as f64 * ln_gamma(alpha0)
        }
        DataSummary::Grouped { bins, .. } => {
            base - bins.iter().map(|&(_, _, x)| ln_factorial(x)).sum::<f64>()
        }
    }
}

impl Posterior for Vb2Posterior {
    fn method_name(&self) -> &'static str {
        "VB2"
    }

    fn mean_omega(&self) -> f64 {
        self.mixture.mean_omega()
    }

    fn mean_beta(&self) -> f64 {
        self.mixture.mean_beta()
    }

    fn var_omega(&self) -> f64 {
        self.mixture.var_omega()
    }

    fn var_beta(&self) -> f64 {
        self.mixture.var_beta()
    }

    fn covariance(&self) -> f64 {
        self.mixture.covariance()
    }

    fn central_moment_omega(&self, k: u32) -> f64 {
        self.mixture.marginal_omega().central_moment(k)
    }

    fn quantile_omega(&self, p: f64) -> f64 {
        self.mixture.marginal_omega().quantile(p)
    }

    fn quantile_beta(&self, p: f64) -> f64 {
        self.mixture.marginal_beta().quantile(p)
    }

    fn ln_joint_density(&self, omega: f64, beta: f64) -> Option<f64> {
        Some(self.mixture.ln_pdf(omega, beta))
    }

    fn reliability_point(&self, t: f64, u: f64) -> f64 {
        reliability::reliability_point(&self.mixture, self.spec, t, u)
    }

    fn reliability_quantile(&self, t: f64, u: f64, p: f64) -> f64 {
        reliability::reliability_quantile(&self.mixture, self.spec, t, u, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nhpp_data::sys17;

    fn spec() -> ModelSpec {
        ModelSpec::goel_okumoto()
    }

    fn fit_times_info() -> Vb2Posterior {
        Vb2Posterior::fit(
            spec(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap()
    }

    fn fit_grouped_info() -> Vb2Posterior {
        Vb2Posterior::fit(
            spec(),
            NhppPrior::paper_info_grouped(),
            &sys17::grouped().into(),
            Vb2Options::default(),
        )
        .unwrap()
    }

    #[test]
    fn weights_are_a_distribution() {
        let post = fit_times_info();
        let total: f64 = post.pv_n().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!(post.pv_n().iter().all(|&(_, w)| w >= 0.0));
        // Starts at N = m = 38.
        assert_eq!(post.pv_n()[0].0, 38);
        // Tail satisfies the adaptive criterion.
        assert!(post.tail_mass() < 5e-15);
    }

    #[test]
    fn pv_n_is_unimodal_with_plausible_mode() {
        let post = fit_times_info();
        let pv = post.pv_n();
        let mode_idx = pv
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .unwrap()
            .0;
        let mode_n = pv[mode_idx].0;
        assert!((38..60).contains(&mode_n), "mode N = {mode_n}");
        // Non-increasing after the mode (unimodality).
        for w in pv[mode_idx..].windows(2) {
            assert!(w[1].1 <= w[0].1 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn closed_form_matches_substitution_for_go_times() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let auto = Vb2Posterior::fit(spec(), prior, &data, Vb2Options::default()).unwrap();
        let subst = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                solver: SolverKind::SuccessiveSubstitution,
                ..Vb2Options::default()
            },
        )
        .unwrap();
        // The closed form is only taken on the Auto path; the explicit
        // substitution solver must land on the same fixed point.
        assert!((auto.mean_omega() - subst.mean_omega()).abs() < 1e-8 * auto.mean_omega());
        assert!((auto.mean_beta() - subst.mean_beta()).abs() < 1e-8 * auto.mean_beta());
        assert!((auto.elbo() - subst.elbo()).abs() < 1e-6);
    }

    #[test]
    fn newton_matches_substitution() {
        let data: ObservedData = sys17::grouped().into();
        let prior = NhppPrior::paper_info_grouped();
        let subst = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                solver: SolverKind::SuccessiveSubstitution,
                ..Vb2Options::default()
            },
        )
        .unwrap();
        let newton = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                solver: SolverKind::Newton,
                ..Vb2Options::default()
            },
        )
        .unwrap();
        assert!((subst.mean_omega() - newton.mean_omega()).abs() < 1e-7 * subst.mean_omega());
        assert!((subst.var_beta() - newton.var_beta()).abs() < 1e-6 * subst.var_beta());
    }

    #[test]
    fn moments_match_paper_magnitudes() {
        let post = fit_times_info();
        // Paper Table 1 magnitudes (our surrogate data): E[ω] ≈ 40–46,
        // E[β] ≈ 1e−5, negative covariance.
        assert!(
            post.mean_omega() > 39.0 && post.mean_omega() < 48.0,
            "{}",
            post.mean_omega()
        );
        assert!(
            post.mean_beta() > 8e-6 && post.mean_beta() < 1.4e-5,
            "{}",
            post.mean_beta()
        );
        assert!(post.covariance() < 0.0);
        assert!(post.var_omega() > 0.0 && post.var_beta() > 0.0);
    }

    #[test]
    fn grouped_moments_match_scale() {
        let post = fit_grouped_info();
        assert!(
            post.mean_omega() > 39.0 && post.mean_omega() < 55.0,
            "{}",
            post.mean_omega()
        );
        // β on the working-day axis.
        assert!(
            post.mean_beta() > 1.5e-2 && post.mean_beta() < 6e-2,
            "{}",
            post.mean_beta()
        );
        assert!(post.covariance() < 0.0);
    }

    #[test]
    fn fixed_truncation_matches_table7_protocol() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let t100 = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                truncation: Truncation::Fixed { n_max: 100 },
                ..Vb2Options::default()
            },
        )
        .unwrap();
        let t500 = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                truncation: Truncation::Fixed { n_max: 500 },
                ..Vb2Options::default()
            },
        )
        .unwrap();
        assert_eq!(t100.n_max(), 100);
        assert_eq!(t100.pv_n().len(), 63); // N from 38 to 100
                                           // Tail mass decays sharply with n_max (Table 7's Pᵥ(n_max) column).
        assert!(t100.tail_mass() > t500.tail_mass());
        assert!(t500.tail_mass() < 1e-30);
        // Moments are unaffected once the tail is negligible.
        assert!((t100.mean_omega() - t500.mean_omega()).abs() < 1e-6 * t500.mean_omega());
    }

    #[test]
    fn elbo_is_finite_and_stable() {
        let a = fit_times_info();
        let b = fit_times_info();
        assert!(a.elbo().is_finite());
        assert_eq!(a.elbo(), b.elbo());
        // ELBO should be in a plausible log-evidence range for 38 points.
        assert!(a.elbo() < 0.0 && a.elbo() > -1e4, "elbo={}", a.elbo());
    }

    #[test]
    fn quantiles_and_intervals() {
        let post = fit_times_info();
        let (lo, hi) = post.credible_interval_omega(0.99);
        assert!(lo < post.mean_omega() && post.mean_omega() < hi);
        assert!(lo > 25.0 && hi < 75.0, "({lo}, {hi})");
        let (blo, bhi) = post.credible_interval_beta(0.99);
        assert!(blo > 1e-6 && bhi < 5e-5 && blo < bhi);
    }

    #[test]
    fn reliability_estimates() {
        let post = fit_times_info();
        let t = sys17::T_END;
        for u in [1_000.0, 10_000.0] {
            let r = post.reliability_point(t, u);
            let (lo, hi) = post.reliability_interval(t, u, 0.99);
            assert!(
                0.0 < lo && lo < r && r < hi && hi <= 1.0,
                "u={u}: ({lo}, {r}, {hi})"
            );
        }
        // Longer mission ⇒ lower reliability.
        assert!(post.reliability_point(t, 10_000.0) < post.reliability_point(t, 1_000.0));
    }

    #[test]
    fn mean_n_exceeds_observed_count() {
        let post = fit_times_info();
        assert!(post.mean_n() > 38.0);
        assert!(post.mean_n() < 80.0);
    }

    #[test]
    fn flat_prior_requires_capped_truncation() {
        // The NoInfo posterior over N has a harmonic tail: strict
        // adaptive truncation must overflow...
        let err = Vb2Posterior::fit(
            spec(),
            NhppPrior::flat(),
            &sys17::failure_times().into(),
            Vb2Options {
                hard_cap: 20_000,
                ..Vb2Options::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, VbError::TruncationOverflow { .. }));
        // ...while the capped policy reproduces the paper's NoInfo runs.
        let post = Vb2Posterior::fit(
            spec(),
            NhppPrior::flat(),
            &sys17::failure_times().into(),
            Vb2Options {
                truncation: Truncation::AdaptiveCapped {
                    epsilon: 5e-15,
                    cap: 2_000,
                },
                ..Vb2Options::default()
            },
        )
        .unwrap();
        // NoInfo: posterior centred near the MLE (ω̂ ≈ 41) but with the
        // mean pushed up by the right skew.
        assert!(
            post.mean_omega() > 40.0 && post.mean_omega() < 60.0,
            "{}",
            post.mean_omega()
        );
    }

    #[test]
    fn delayed_s_shaped_fit_works() {
        let post = Vb2Posterior::fit(
            ModelSpec::delayed_s_shaped(),
            NhppPrior::paper_info_times(),
            &sys17::failure_times().into(),
            Vb2Options::default(),
        )
        .unwrap();
        assert!(post.mean_omega() > 38.0);
        assert!(post.covariance() < 0.0);
        let total: f64 = post.pv_n().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_options() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        assert!(matches!(
            Vb2Posterior::fit(
                spec(),
                prior,
                &data,
                Vb2Options {
                    inner_tol: 0.0,
                    ..Vb2Options::default()
                }
            ),
            Err(VbError::InvalidOption { .. })
        ));
        assert!(matches!(
            Vb2Posterior::fit(
                spec(),
                prior,
                &data,
                Vb2Options {
                    truncation: Truncation::Fixed { n_max: 10 },
                    ..Vb2Options::default()
                }
            ),
            Err(VbError::InvalidOption { .. })
        ));
        assert!(matches!(
            Vb2Posterior::fit(
                spec(),
                prior,
                &data,
                Vb2Options {
                    truncation: Truncation::Adaptive { epsilon: -1.0 },
                    ..Vb2Options::default()
                }
            ),
            Err(VbError::InvalidOption { .. })
        ));
    }

    #[test]
    fn zeta_below_observed_count_is_nan_not_garbage() {
        // Regression: `(n - m) as f64` wrapped to ~1.8e19 for n < m,
        // silently producing an astronomically wrong ζ.
        let summary = DataSummary::from(&sys17::failure_times().into());
        let m = summary.observed();
        assert_eq!(m, 38);
        assert!(summary.zeta(1.0, 1e-5, m - 1).is_nan());
        assert!(summary.zeta(1.0, 1e-5, 0).is_nan());
        // At and above m the value is finite and well-behaved.
        assert!(summary.zeta(1.0, 1e-5, m).is_finite());
        assert!(summary.zeta(1.0, 1e-5, m + 10) > summary.zeta(1.0, 1e-5, m));
        // Grouped data takes the same guard.
        let grouped = DataSummary::from(&sys17::grouped().into());
        assert!(grouped.zeta(1.0, 1e-2, grouped.observed() - 1).is_nan());
    }

    fn bits(post: &Vb2Posterior) -> Vec<u64> {
        let mut v: Vec<u64> = post
            .pv_n()
            .iter()
            .flat_map(|&(n, w)| [n, w.to_bits()])
            .collect();
        v.extend(
            [
                post.elbo(),
                post.mean_omega(),
                post.mean_beta(),
                post.var_omega(),
                post.var_beta(),
                post.covariance(),
            ]
            .map(f64::to_bits),
        );
        v
    }

    #[test]
    fn warm_start_table_looks_up_by_n() {
        let post = fit_times_info();
        let warm = post.warm_start();
        let (lo, hi) = (38, post.pv_n().last().unwrap().0);
        assert_eq!(post.pv_n()[0].0, lo);
        assert_eq!(warm.len(), post.pv_n().len());
        assert!(warm.xi(lo).unwrap() > 0.0);
        assert!(warm.xi(hi).unwrap() > 0.0);
        assert_eq!(warm.xi(lo - 1), None);
        assert_eq!(warm.xi(hi + 1), None);
    }

    #[test]
    fn warm_fit_on_closed_form_path_is_bitwise_cold() {
        // GO + failure times solves in closed form (starting points are
        // ignored), so a warm fit must be bitwise identical to cold.
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let cold = Vb2Posterior::fit(spec(), prior, &data, Vb2Options::default()).unwrap();
        let warm = Vb2Posterior::fit_warm(
            spec(),
            prior,
            &data,
            Vb2Options::default(),
            Some(&cold.warm_start()),
        )
        .unwrap();
        assert_eq!(bits(&warm), bits(&cold));
    }

    #[test]
    fn warm_fit_cuts_inner_iterations_on_iterative_path() {
        // Grouped data iterates; starting at the previous fixed point
        // must converge in far fewer inner iterations and land on the
        // same optimum to well within the solver tolerance.
        let data: ObservedData = sys17::grouped().into();
        let prior = NhppPrior::paper_info_grouped();
        let cold = Vb2Posterior::fit(spec(), prior, &data, Vb2Options::default()).unwrap();
        let warm = Vb2Posterior::fit_warm(
            spec(),
            prior,
            &data,
            Vb2Options::default(),
            Some(&cold.warm_start()),
        )
        .unwrap();
        assert!(
            warm.inner_iterations() < cold.inner_iterations(),
            "warm {} vs cold {}",
            warm.inner_iterations(),
            cold.inner_iterations()
        );
        assert!((warm.mean_omega() - cold.mean_omega()).abs() < 1e-9 * cold.mean_omega());
        assert!((warm.mean_beta() - cold.mean_beta()).abs() < 1e-9 * cold.mean_beta());
        assert!((warm.elbo() - cold.elbo()).abs() < 1e-8);
    }

    #[test]
    fn parallel_fit_is_bitwise_identical_to_serial() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        // Iterative solver + a multi-chunk flat-prior range, so the
        // warm-start chains genuinely matter.
        let options = Vb2Options {
            solver: SolverKind::SuccessiveSubstitution,
            truncation: Truncation::AdaptiveCapped {
                epsilon: 5e-15,
                cap: 400,
            },
            ..Vb2Options::default()
        };
        let serial = Vb2Posterior::fit(spec(), prior, &data, options).unwrap();
        for threads in [2usize, 8] {
            let parallel =
                Vb2Posterior::fit(spec(), prior, &data, Vb2Options { threads, ..options }).unwrap();
            assert_eq!(bits(&parallel), bits(&serial), "threads={threads}");
        }
    }

    #[test]
    fn wide_lanes_agree_with_scalar_and_pin_width() {
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let base = Vb2Options {
            solver: SolverKind::SuccessiveSubstitution,
            ..Vb2Options::default()
        };
        let scalar = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                lanes: SimdPolicy::ForceScalar,
                ..base
            },
        )
        .unwrap();
        let wide = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                lanes: SimdPolicy::ForceWide,
                ..base
            },
        )
        .unwrap();
        assert_eq!(scalar.lane_width(), 1);
        assert_eq!(wide.lane_width(), WIDE_LANES);
        // Different iterate sequences, same fixed points: moments agree
        // to inner-tolerance-sized amounts.
        assert!((scalar.mean_omega() - wide.mean_omega()).abs() < 1e-8 * scalar.mean_omega());
        assert!((scalar.mean_beta() - wide.mean_beta()).abs() < 1e-8 * scalar.mean_beta());
        assert!((scalar.elbo() - wide.elbo()).abs() < 1e-6);
        // Each lane width is individually deterministic: repeating the
        // fit reproduces it bitwise.
        for (policy, first) in [
            (SimdPolicy::ForceScalar, &scalar),
            (SimdPolicy::ForceWide, &wide),
        ] {
            let again = Vb2Posterior::fit(
                spec(),
                prior,
                &data,
                Vb2Options {
                    lanes: policy,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(bits(&again), bits(first), "{policy:?}");
        }
    }

    #[test]
    fn wide_parallel_fit_is_bitwise_identical_to_serial() {
        // The ForceWide twin of the thread-determinism test: quad
        // boundaries are chunk-local, so the lane path must also be a
        // pure function of the solved N-range.
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let options = Vb2Options {
            solver: SolverKind::SuccessiveSubstitution,
            truncation: Truncation::AdaptiveCapped {
                epsilon: 5e-15,
                cap: 400,
            },
            lanes: SimdPolicy::ForceWide,
            ..Vb2Options::default()
        };
        let serial = Vb2Posterior::fit(spec(), prior, &data, options).unwrap();
        assert_eq!(serial.lane_width(), WIDE_LANES);
        for threads in [2usize, 8] {
            let parallel =
                Vb2Posterior::fit(spec(), prior, &data, Vb2Options { threads, ..options }).unwrap();
            assert_eq!(bits(&parallel), bits(&serial), "threads={threads}");
        }
    }

    #[test]
    fn ineligible_sweeps_report_scalar_lane_width() {
        // The closed-form path and non-substitution solvers never take
        // the lanes, even when the policy asks for them.
        let times: ObservedData = sys17::failure_times().into();
        let closed = Vb2Posterior::fit(
            spec(),
            NhppPrior::paper_info_times(),
            &times,
            Vb2Options {
                lanes: SimdPolicy::ForceWide,
                ..Vb2Options::default()
            },
        )
        .unwrap();
        assert_eq!(closed.lane_width(), 1);
        let newton = Vb2Posterior::fit(
            spec(),
            NhppPrior::paper_info_times(),
            &times,
            Vb2Options {
                solver: SolverKind::Newton,
                lanes: SimdPolicy::ForceWide,
                ..Vb2Options::default()
            },
        )
        .unwrap();
        assert_eq!(newton.lane_width(), 1);
        // Grouped counts ride the lanes only at α₀ = 1: the delayed
        // S-shaped grouped likelihood still runs scalar.
        let grouped_dss = Vb2Posterior::fit(
            ModelSpec::delayed_s_shaped(),
            NhppPrior::paper_info_grouped(),
            &sys17::grouped().into(),
            Vb2Options {
                solver: SolverKind::SuccessiveSubstitution,
                lanes: SimdPolicy::ForceWide,
                ..Vb2Options::default()
            },
        )
        .unwrap();
        assert_eq!(grouped_dss.lane_width(), 1);
    }

    #[test]
    fn flat_prior_cap_saturates_instead_of_overflowing() {
        let flat = NhppPrior::flat();
        assert_eq!(
            Truncation::for_prior(&flat, 38),
            Truncation::AdaptiveCapped {
                epsilon: 5e-15,
                cap: 190,
            }
        );
        for observed in [u64::MAX / 5 + 1, u64::MAX] {
            assert_eq!(
                Truncation::for_prior(&flat, observed),
                Truncation::AdaptiveCapped {
                    epsilon: 5e-15,
                    cap: u64::MAX,
                }
            );
        }
        assert!(matches!(
            Truncation::for_prior(&flat, 3),
            Truncation::AdaptiveCapped { cap: 100, .. }
        ));
        // One flat component is enough to make the posterior improper;
        // a proper prior keeps the paper's uncapped growth.
        let half_flat = NhppPrior {
            beta: nhpp_models::prior::ParamPrior::Flat,
            ..NhppPrior::paper_info_times()
        };
        assert_eq!(
            Truncation::for_prior(&half_flat, 38),
            Truncation::for_prior(&flat, 38)
        );
        assert_eq!(
            Truncation::for_prior(&NhppPrior::paper_info_times(), u64::MAX),
            Truncation::default()
        );
    }

    #[test]
    fn widened_gate_reports_lane_width_for_grouped_and_dss_sweeps() {
        // The PR-8 gate: grouped counts at α₀ = 1 and failure times at
        // integer α₀ ≥ 2 both take the lanes, and agree with the scalar
        // solve to well inside the inner tolerance.
        let grouped: ObservedData = sys17::grouped().into();
        let times: ObservedData = sys17::failure_times().into();
        for (label, spec, prior, data) in [
            (
                "grouped-exp",
                spec(),
                NhppPrior::paper_info_grouped(),
                &grouped,
            ),
            (
                "times-int",
                ModelSpec::delayed_s_shaped(),
                NhppPrior::paper_info_times(),
                &times,
            ),
        ] {
            let base = Vb2Options {
                solver: SolverKind::SuccessiveSubstitution,
                ..Vb2Options::default()
            };
            let wide = Vb2Posterior::fit(
                spec,
                prior,
                data,
                Vb2Options {
                    lanes: SimdPolicy::ForceWide,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(wide.lane_width(), WIDE_LANES, "{label}");
            let scalar = Vb2Posterior::fit(
                spec,
                prior,
                data,
                Vb2Options {
                    lanes: SimdPolicy::ForceScalar,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(scalar.lane_width(), 1, "{label}");
            assert!(
                (wide.mean_omega() - scalar.mean_omega()).abs() < 1e-8 * scalar.mean_omega(),
                "{label}: {} vs {}",
                wide.mean_omega(),
                scalar.mean_omega()
            );
            assert!((wide.elbo() - scalar.elbo()).abs() < 1e-6, "{label}");
        }
    }

    #[test]
    fn wide_warm_fit_converges_on_same_optimum() {
        // Warm tables feed per-lane seeds on the wide path; the refit
        // must land on the same optimum and stay cheap.
        let data: ObservedData = sys17::failure_times().into();
        let prior = NhppPrior::paper_info_times();
        let options = Vb2Options {
            solver: SolverKind::SuccessiveSubstitution,
            lanes: SimdPolicy::ForceWide,
            ..Vb2Options::default()
        };
        let cold = Vb2Posterior::fit(spec(), prior, &data, options).unwrap();
        let warm = Vb2Posterior::fit_warm(spec(), prior, &data, options, Some(&cold.warm_start()))
            .unwrap();
        assert!(
            warm.inner_iterations() <= cold.inner_iterations(),
            "warm {} vs cold {}",
            warm.inner_iterations(),
            cold.inner_iterations()
        );
        assert!((warm.mean_omega() - cold.mean_omega()).abs() < 1e-9 * cold.mean_omega());
        assert!((warm.elbo() - cold.elbo()).abs() < 1e-8);
    }

    #[test]
    fn parallel_grouped_fit_is_bitwise_identical_to_serial() {
        let data: ObservedData = sys17::grouped().into();
        let prior = NhppPrior::paper_info_grouped();
        let serial = Vb2Posterior::fit(spec(), prior, &data, Vb2Options::default()).unwrap();
        let parallel = Vb2Posterior::fit(
            spec(),
            prior,
            &data,
            Vb2Options {
                threads: 0, // auto
                ..Vb2Options::default()
            },
        )
        .unwrap();
        assert_eq!(bits(&parallel), bits(&serial));
    }

    #[test]
    fn fit_many_matches_individual_fits() {
        let times: ObservedData = sys17::failure_times().into();
        let grouped: ObservedData = sys17::grouped().into();
        let tasks = [
            Vb2Task {
                spec: spec(),
                prior: NhppPrior::paper_info_times(),
                data: &times,
                options: Vb2Options::default(),
            },
            Vb2Task {
                spec: spec(),
                prior: NhppPrior::paper_info_grouped(),
                data: &grouped,
                options: Vb2Options::default(),
            },
            Vb2Task {
                spec: ModelSpec::delayed_s_shaped(),
                prior: NhppPrior::paper_info_times(),
                data: &times,
                options: Vb2Options::default(),
            },
        ];
        let batch = Vb2Posterior::fit_many(&tasks, 4);
        assert_eq!(batch.len(), tasks.len());
        for (task, result) in tasks.iter().zip(&batch) {
            let one = Vb2Posterior::fit(task.spec, task.prior, task.data, task.options).unwrap();
            let posterior = result.as_ref().unwrap();
            assert_eq!(bits(posterior), bits(&one));
        }
    }

    #[test]
    fn fit_many_isolates_per_task_failures() {
        let data: ObservedData = sys17::failure_times().into();
        let good = Vb2Task {
            spec: spec(),
            prior: NhppPrior::paper_info_times(),
            data: &data,
            options: Vb2Options::default(),
        };
        let bad = Vb2Task {
            options: Vb2Options {
                inner_tol: 0.0,
                ..Vb2Options::default()
            },
            ..good
        };
        let results = Vb2Posterior::fit_many(&[good, bad, good], 2);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(VbError::InvalidOption { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_dataset_with_prior() {
        // Zero failures: the posterior over N starts at 0 and the prior
        // dominates.
        let data: ObservedData = nhpp_data::FailureTimeData::new(vec![], 1_000.0)
            .unwrap()
            .into();
        let post = Vb2Posterior::fit(
            spec(),
            NhppPrior::paper_info_times(),
            &data,
            Vb2Options::default(),
        )
        .unwrap();
        assert_eq!(post.pv_n()[0].0, 0);
        let total: f64 = post.pv_n().iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // With β·t_e ≈ 0.01 almost nothing is learned: mean ω stays near 50.
        assert!(
            post.mean_omega() > 40.0 && post.mean_omega() < 55.0,
            "{}",
            post.mean_omega()
        );
    }
}
