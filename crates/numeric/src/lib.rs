//! Numerical routines for the `nhpp-vb` workspace.
//!
//! Everything a Bayesian NHPP estimator needs and nothing more:
//!
//! * [`roots`] — bisection and bracket expansion for the
//!   one-dimensional root problems that appear in quantile inversion and
//!   reliability-bound computation;
//! * [`fixed_point`] — budgeted successive substitution, Newton and
//!   bisection for the VB2 `(ζ, ξ)` system (Eqs. (24)–(27) of the paper);
//! * [`quadrature`] — Gauss–Legendre rules and composite panels (the
//!   NINT engine);
//! * [`optimize`] — Nelder–Mead for MAP/MLE fits, and finite-difference
//!   derivatives;
//! * [`linalg`] — 2×2 symmetric matrix helpers for Laplace approximation;
//! * [`budget`] — cooperative iteration/deadline budgets threaded through
//!   the solver loops so a supervisor can bound total work per fit;
//! * [`parallel`] — a dependency-free scoped-thread work pool with a
//!   deterministic chunk partition, for embarrassingly parallel solver
//!   fan-out (VB2 mixture components, batch fitting).
//!
//! # Example
//!
//! ```
//! use nhpp_numeric::roots::bisect;
//!
//! # fn main() -> Result<(), nhpp_numeric::NumericError> {
//! let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-13, 100)?;
//! assert!((root - 2.0f64.sqrt()).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod budget;
pub mod fixed_point;
pub mod linalg;
pub mod optimize;
pub mod parallel;
pub mod quadrature;
pub mod roots;

mod error;

pub use budget::{Budget, SharedBudget};
pub use error::NumericError;
