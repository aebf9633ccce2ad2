//! Error type shared by the numerical routines.

use std::error::Error;
use std::fmt;

/// Failure modes of the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A bracketing method was called with endpoints that do not bracket a
    /// root (`f(a)` and `f(b)` have the same sign).
    NoBracket {
        /// Function value at the left endpoint.
        fa: f64,
        /// Function value at the right endpoint.
        fb: f64,
    },
    /// The iteration budget was exhausted before reaching the requested
    /// tolerance. The payload carries the best iterate found so far.
    MaxIterations {
        /// Best estimate at the point the budget ran out.
        best: f64,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The callable produced a non-finite value where a finite one was
    /// required.
    NonFinite {
        /// Human-readable description of where the non-finite value arose.
        context: &'static str,
    },
    /// An argument was outside the routine's domain.
    InvalidArgument {
        /// Human-readable description of the violated precondition.
        message: &'static str,
    },
    /// A cooperative [`crate::budget::Budget`] ran out of iterations
    /// or wall-clock time.
    BudgetExhausted {
        /// Iterations charged when the budget tripped.
        used: u64,
        /// Which limit tripped (iteration count or deadline).
        reason: &'static str,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::NoBracket { fa, fb } => {
                write!(f, "endpoints do not bracket a root (f(a)={fa}, f(b)={fb})")
            }
            NumericError::MaxIterations { best, iterations } => {
                write!(
                    f,
                    "no convergence after {iterations} iterations (best={best})"
                )
            }
            NumericError::NonFinite { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            NumericError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            NumericError::BudgetExhausted { used, reason } => {
                write!(
                    f,
                    "solve budget exhausted after {used} iterations ({reason})"
                )
            }
        }
    }
}

impl Error for NumericError {}
