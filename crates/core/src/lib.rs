//! Variational Bayesian interval estimation for NHPP-based software
//! reliability models.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Okamura, Grottke, Dohi & Trivedi, *DSN 2007*): two variational
//! approximations of the joint posterior `P(ω, β | D)` of the gamma-type
//! NHPP software reliability model.
//!
//! * [`Vb2Posterior`] — the paper's proposed method (**VB2**, §5). The
//!   variational family conditions on the latent total fault count `N`
//!   (`Pᵥ(T|N)·Pᵥ(μ|N)·Pᵥ(N)`, Eq. (16)). Per `N` the optimal factors
//!   are conjugate Gammas coupled through the fixed point
//!   `(ζ_{T|N}, ξ_{β|N})` of Eqs. (24)–(27), and the full posterior is a
//!   finite **mixture** `Σ_N Pᵥ(N)·Gamma(ω|N) ⊗ Gamma(β|N)` whose
//!   truncation point `n_max` is grown adaptively (Steps 1–5 of §5.1).
//!   The mixture captures the ω–β correlation and the right skew that
//!   Laplace and VB1 miss, at a cost far below MCMC.
//! * [`Vb1Posterior`] — the earlier fully factorised approach
//!   (Okamura, Sakoh & Dohi 2006) the paper uses as a baseline (**VB1**):
//!   `Pᵥ(U)·Pᵥ(ω)·Pᵥ(β)` with a Poisson residual-fault factor. Its
//!   posterior is a single product of independent Gammas, so its
//!   covariance is structurally zero and its variances are
//!   underestimated — exactly the deficiency Tables 1–5 of the paper
//!   document.
//!
//! Both types implement [`nhpp_models::Posterior`], making them
//! interchangeable with the conventional estimators in `nhpp-bayes`.
//!
//! # Example
//!
//! ```
//! use nhpp_vb::{Vb2Options, Vb2Posterior};
//! use nhpp_models::{prior::NhppPrior, ModelSpec, Posterior};
//! use nhpp_data::sys17;
//!
//! # fn main() -> Result<(), nhpp_vb::VbError> {
//! let posterior = Vb2Posterior::fit(
//!     ModelSpec::goel_okumoto(),
//!     NhppPrior::paper_info_times(),
//!     &sys17::failure_times().into(),
//!     Vb2Options::default(),
//! )?;
//! // 99% credible interval for the expected total fault count.
//! let (lo, hi) = posterior.credible_interval_omega(0.99);
//! assert!(lo > 20.0 && hi < 100.0 && lo < hi);
//! // The mixture structure captures the negative ω–β correlation.
//! assert!(posterior.covariance() < 0.0);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod bands;
pub mod calibration;
pub mod empirical_bayes;
mod endpoint;
mod error;
pub mod fault;
pub mod prediction;
pub mod reliability;
pub mod robust;
pub mod simulation;
mod vb1;
mod vb2;

pub use calibration::{Calibration, CalibrationDictionary, CalibrationEntry};
pub use error::VbError;
pub use fault::{FaultKind, FaultPlan};
pub use robust::{
    fit_many_supervised, fit_many_supervised_warm, fit_supervised, fit_supervised_warm,
    FailureKind, FitFailure, FitReport, RetryPolicy, RobustFit, RobustOptions, RobustPosterior,
    RobustTask, WarmRobustTask,
};
pub use vb1::{Vb1Options, Vb1Posterior};
pub use vb2::{SolverKind, Truncation, Vb2Options, Vb2Posterior, Vb2Task, Vb2WarmStart};
// The lane-dispatch vocabulary travels with the fit options that use it.
pub use nhpp_special::{SimdDispatch, SimdPolicy, WIDE_LANES};
#[doc(hidden)]
pub use vb2::zeta_probe;
