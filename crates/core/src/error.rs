//! Error type for the variational estimators.

use nhpp_bayes::BayesError;
use nhpp_dist::DistError;
use nhpp_models::ModelError;
use nhpp_numeric::NumericError;
use std::error::Error;
use std::fmt;

/// Errors arising while fitting a variational posterior.
#[derive(Debug)]
pub enum VbError {
    /// An inner fixed-point solve or the outer loop failed to converge.
    NoConvergence {
        /// Which loop failed.
        context: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
    /// A truncation reached its cap without satisfying its tail
    /// tolerance: the adaptive `N` range grew past the hard cap with
    /// `Pᵥ(n_max) ≥ ε` (or its first range already exceeded the cap),
    /// or a predictive pmf reached its support cap.
    TruncationOverflow {
        /// The cap that was reached.
        cap: u64,
        /// The tail mass still assigned to the cap.
        tail_mass: f64,
    },
    /// An option value violated its precondition.
    InvalidOption {
        /// Explanation.
        message: &'static str,
    },
    /// The variational weights degenerated (all `−∞` or NaN).
    DegenerateWeights {
        /// Explanation.
        message: String,
    },
    /// Every stage of the supervised fitting cascade (VB2 retries,
    /// VB1, Laplace) failed. The message lists each stage's error.
    CascadeExhausted {
        /// Per-stage failure summary.
        message: String,
    },
    /// An underlying model-layer failure.
    Model(ModelError),
    /// An underlying numerical failure.
    Numeric(NumericError),
    /// An underlying distribution failure.
    Dist(DistError),
    /// An underlying conventional-estimator failure (the cascade's
    /// Laplace stage).
    Bayes(BayesError),
}

impl fmt::Display for VbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VbError::NoConvergence {
                context,
                iterations,
            } => {
                write!(
                    f,
                    "{context} did not converge after {iterations} iterations"
                )
            }
            VbError::TruncationOverflow { cap, tail_mass } => write!(
                f,
                "truncation cap n_max={cap} reached with tail mass {tail_mass} above tolerance"
            ),
            VbError::InvalidOption { message } => write!(f, "invalid option: {message}"),
            VbError::DegenerateWeights { message } => {
                write!(f, "degenerate variational weights: {message}")
            }
            VbError::CascadeExhausted { message } => {
                write!(f, "every fitting cascade stage failed: {message}")
            }
            VbError::Model(e) => write!(f, "model error: {e}"),
            VbError::Numeric(e) => write!(f, "numeric error: {e}"),
            VbError::Dist(e) => write!(f, "distribution error: {e}"),
            VbError::Bayes(e) => write!(f, "conventional estimator error: {e}"),
        }
    }
}

impl Error for VbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VbError::Model(e) => Some(e),
            VbError::Numeric(e) => Some(e),
            VbError::Dist(e) => Some(e),
            VbError::Bayes(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for VbError {
    fn from(e: ModelError) -> Self {
        VbError::Model(e)
    }
}

impl From<NumericError> for VbError {
    fn from(e: NumericError) -> Self {
        VbError::Numeric(e)
    }
}

impl From<DistError> for VbError {
    fn from(e: DistError) -> Self {
        VbError::Dist(e)
    }
}

impl From<BayesError> for VbError {
    fn from(e: BayesError) -> Self {
        VbError::Bayes(e)
    }
}
