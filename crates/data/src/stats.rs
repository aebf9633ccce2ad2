//! Trend testing for failure data.

use crate::times::FailureTimeData;

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
    fn empty_dataset_summary() {
        let d = FailureTimeData::new(vec![], 10.0).unwrap();
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
