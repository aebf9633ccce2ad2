//! Descriptive statistics and trend testing for failure data.

use crate::times::FailureTimeData;

/// Summary statistics of a failure dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Number of observed failures.
    pub count: usize,
    /// End of the observation window.
    pub observation_end: f64,
    /// Mean inter-failure time (observation window divided by count;
    /// NaN when no failures were observed).
    pub mean_interarrival: f64,
    /// Empirical failure intensity over the whole window (count / window).
    pub overall_intensity: f64,
}

impl SummaryStats {
    /// Summarises failure-time data.
    pub fn from_times(data: &FailureTimeData) -> Self {
        let count = data.len();
        let t_end = data.observation_end();
        SummaryStats {
            count,
            observation_end: t_end,
            mean_interarrival: if count > 0 {
                t_end / count as f64
            } else {
                f64::NAN
            },
            overall_intensity: count as f64 / t_end,
        }
    }
}

/// Laplace trend factor for failure-time data.
///
/// `u = (mean(tᵢ) − t_e/2) / (t_e · √(1/(12 m)))`; under a homogeneous
/// Poisson process `u` is approximately standard normal. Strongly negative
/// values indicate reliability *growth* (failures concentrate early),
/// which is the precondition for fitting a finite-failures NHPP at all.
///
/// Returns NaN for an empty dataset.
///
/// # Example
///
/// ```
/// use nhpp_data::{laplace_trend_factor, sys17};
///
/// // The System 17 surrogate exhibits clear reliability growth.
/// let u = laplace_trend_factor(&sys17::failure_times());
/// assert!(u < -1.0, "u = {u}");
/// ```
pub fn laplace_trend_factor(data: &FailureTimeData) -> f64 {
    let m = data.len();
    if m == 0 {
        return f64::NAN;
    }
    let t_end = data.observation_end();
    let mean = data.sum_times() / m as f64;
    (mean - t_end / 2.0) / (t_end * (1.0 / (12.0 * m as f64)).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_times() {
        let d = FailureTimeData::new(vec![1.0, 2.0, 3.0, 4.0], 10.0).unwrap();
        let s = SummaryStats::from_times(&d);
        assert_eq!(s.count, 4);
        assert_eq!(s.observation_end, 10.0);
        assert!((s.mean_interarrival - 2.5).abs() < 1e-14);
        assert!((s.overall_intensity - 0.4).abs() < 1e-14);
    }

    #[test]
    fn empty_dataset_summary() {
        let d = FailureTimeData::new(vec![], 10.0).unwrap();
        let s = SummaryStats::from_times(&d);
        assert_eq!(s.count, 0);
        assert!(s.mean_interarrival.is_nan());
        assert!(laplace_trend_factor(&d).is_nan());
    }

    #[test]
    fn laplace_trend_sign() {
        // Early-concentrated failures ⇒ negative u (growth).
        let growth = FailureTimeData::new(vec![1.0, 2.0, 3.0, 4.0], 100.0).unwrap();
        assert!(laplace_trend_factor(&growth) < -2.0);
        // Late-concentrated failures ⇒ positive u (deterioration).
        let decay = FailureTimeData::new(vec![96.0, 97.0, 98.0, 99.0], 100.0).unwrap();
        assert!(laplace_trend_factor(&decay) > 2.0);
        // Uniformly spread ⇒ near zero.
        let flat = FailureTimeData::new(vec![20.0, 40.0, 60.0, 80.0], 100.0).unwrap();
        assert!(laplace_trend_factor(&flat).abs() < 0.1);
    }
}
