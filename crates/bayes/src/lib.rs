//! Conventional Bayesian posterior approximations for gamma-type NHPP
//! software reliability models.
//!
//! The three baselines the DSN 2007 paper compares its variational
//! approach against:
//!
//! * [`nint`] — **direct numerical integration** of the joint posterior
//!   over a rectangle (Yin & Trivedi 1999 style), evaluated in log space;
//!   treated by the paper as the accuracy reference;
//! * [`laplace`] — **Laplace approximation**: bivariate normal centred at
//!   the MAP estimate with the inverse negative Hessian as covariance;
//! * [`mcmc`] — **Markov chain Monte Carlo**: the Kuo–Yang Gibbs sampler
//!   for failure-time data, with within-bin data augmentation for
//!   grouped data.
//!
//! All three produce types implementing
//! [`nhpp_models::Posterior`], so they are interchangeable with the
//! variational posteriors from the `nhpp-vb` crate.
//!
//! # Example
//!
//! ```
//! use nhpp_bayes::laplace::LaplacePosterior;
//! use nhpp_models::{prior::NhppPrior, ModelSpec, Posterior};
//! use nhpp_data::sys17;
//!
//! # fn main() -> Result<(), nhpp_bayes::BayesError> {
//! let data = sys17::failure_times().into();
//! let post = LaplacePosterior::fit(
//!     ModelSpec::goel_okumoto(),
//!     NhppPrior::paper_info_times(),
//!     &data,
//! )?;
//! assert!(post.mean_omega() > 38.0);
//! # Ok(())
//! # }
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
mod error;
pub mod laplace;
pub mod mcmc;
pub mod nint;

pub use error::BayesError;
