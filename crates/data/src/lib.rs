//! Failure data types, canned datasets and NHPP trace simulation.
//!
//! The DSN 2007 paper distinguishes two observation schemes for software
//! failure data, both supported here as first-class validated types:
//!
//! * [`FailureTimeData`] — the ordered failure times `0 < t₁ < … < t_m ≤ t_e`
//!   observed during testing up to time `t_e` (the paper's `D_T`);
//! * [`GroupedData`] — per-interval failure counts `x_i` over a boundary
//!   sequence `0 = s₀ < s₁ < … < s_k` (the paper's `D_G`).
//!
//! The [`sys17`] module ships a deterministic synthetic surrogate for the
//! DACS "System 17" dataset used in the paper's experiments (the original
//! download has been defunct for years); [`simulate`] can generate fresh
//! traces from any finite-failures NHPP, and [`io`] round-trips both data
//! kinds through a simple CSV format.
//!
//! # Example
//!
//! ```
//! use nhpp_data::sys17;
//!
//! let dt = sys17::failure_times();
//! assert_eq!(dt.len(), 38);
//! let dg = sys17::grouped();
//! assert_eq!(dg.total_count(), 38);
//! ```

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod datasets;
mod error;
mod grouped;
pub mod io;
pub mod json;
pub mod simulate;
mod stats;
pub mod sys17;
mod times;

pub use error::DataError;
pub use grouped::GroupedData;
pub use stats::laplace_trend_factor;
pub use times::FailureTimeData;

/// Either kind of observed failure data, for APIs that accept both.
#[derive(Debug, Clone, PartialEq)]
pub enum ObservedData {
    /// Individual failure times (`D_T`).
    Times(FailureTimeData),
    /// Grouped per-interval counts (`D_G`).
    Grouped(GroupedData),
}

impl ObservedData {
    /// Total number of failures observed.
    pub fn total_count(&self) -> usize {
        match self {
            ObservedData::Times(d) => d.len(),
            ObservedData::Grouped(d) => d.total_count() as usize,
        }
    }

    /// End of the observation window (`t_e` or `s_k`).
    pub fn observation_end(&self) -> f64 {
        match self {
            ObservedData::Times(d) => d.observation_end(),
            ObservedData::Grouped(d) => d.observation_end(),
        }
    }
}

impl From<FailureTimeData> for ObservedData {
    fn from(d: FailureTimeData) -> Self {
        ObservedData::Times(d)
    }
}

impl From<GroupedData> for ObservedData {
    fn from(d: GroupedData) -> Self {
        ObservedData::Grouped(d)
    }
}
