//! Probability distributions for the `nhpp-vb` workspace.
//!
//! Provides the continuous and discrete distributions that NHPP-based
//! software reliability models are built from — Gamma (in the **shape–rate**
//! convention used throughout the workspace), Exponential, Erlang, Normal,
//! Poisson, truncated Gamma — together with exact samplers and the
//! [`GammaProductMixture`] type that represents the VB2 variational
//! posterior `Σ_N Pᵥ(N) · Gamma(ω|N) ⊗ Gamma(β|N)`.
//!
//! # Conventions
//!
//! * `Gamma(shape, rate)` has density `rate^shape x^{shape−1} e^{−rate·x} / Γ(shape)`
//!   and mean `shape/rate`. The DSN 2007 paper writes `Gamma(b, c)` with `c`
//!   an inverse scale; that is this crate's `rate`.
//! * Constructors validate their parameters and return
//!   [`DistError`] on violation instead of panicking.
//!
//! # Example
//!
//! ```
//! use nhpp_dist::{Continuous, Gamma};
//!
//! # fn main() -> Result<(), nhpp_dist::DistError> {
//! let g = Gamma::new(2.0, 4.0)?; // shape 2, rate 4 ⇒ mean 0.5
//! assert!((g.mean() - 0.5).abs() < 1e-15);
//! assert!((g.cdf(g.quantile(0.9)) - 0.9).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
mod erlang;
mod error;
mod exponential;
mod gamma;
mod mixture;
mod normal;
mod poisson;
mod traits;
mod truncated;

pub use erlang::Erlang;
pub use error::DistError;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use mixture::{BetaRow, CellTable, GammaMixture, GammaProductMixture, MixtureComponent};
pub use normal::Normal;
pub use poisson::Poisson;
pub use traits::{Continuous, Discrete, Sample};
pub use truncated::TruncatedGamma;
