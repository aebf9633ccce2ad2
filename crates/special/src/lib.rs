//! Special functions underpinning the `nhpp-vb` workspace.
//!
//! This crate provides the handful of classical special functions that every
//! other crate in the workspace builds on: the log-gamma function and its
//! derivatives, the regularised incomplete gamma functions and their
//! inverse, the error function family, and the standard normal CDF and
//! quantile. All routines are pure `f64` implementations with no external
//! dependencies, accurate to close to machine precision over the parameter
//! ranges exercised by NHPP-based software reliability models (shapes up to
//! roughly `1e6`).
//!
//! # Conventions
//!
//! * Functions return [`f64::NAN`] when called outside their mathematical
//!   domain (mirroring `f64::ln` and friends) instead of panicking, so they
//!   can be used safely inside optimisation loops that probe boundaries.
//! * "Lower" incomplete gamma means `P(a, x) = γ(a, x) / Γ(a)` and "upper"
//!   means `Q(a, x) = Γ(a, x) / Γ(a)`, both *regularised*.
//!
//! # Example
//!
//! ```
//! use nhpp_special::{ln_gamma, gamma_p, gamma_q};
//!
//! // Γ(5) = 24
//! assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
//! // P + Q = 1
//! let (a, x) = (3.5, 2.0);
//! assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-12);
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
mod erf;
mod gamma;
mod incgamma;
mod logsumexp;
mod normal;
mod recurrence;
mod wide;

pub use erf::{erf, erf_inv, erfc, erfc_inv};
pub use gamma::{digamma, ln_beta, ln_binomial, ln_factorial, ln_gamma, trigamma};
pub use incgamma::{
    gamma_p, gamma_p_inv, gamma_pq_pdf_given, gamma_q, gamma_q_inv, ln_gamma_p, ln_gamma_p_given,
    ln_gamma_pq_given, ln_gamma_q, ln_gamma_q_given, EULER_GAMMA,
};
pub use logsumexp::{log_diff_exp, log_sum_exp, log_sum_exp_pair, StreamingLogSumExp};
pub use normal::{norm_cdf, norm_ln_pdf, norm_pdf, norm_ppf, norm_sf};
pub use recurrence::{ln_gamma_p_step, ln_gamma_q_step, LnGammaLadder, REANCHOR_PERIOD};
pub use wide::{active_simd, exp_lane, ln_gamma_q_step_lane, SimdDispatch, SimdPolicy, WIDE_LANES};
