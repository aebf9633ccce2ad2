//! Individual failure-time data (`D_T`).

use crate::error::DataError;
use crate::grouped::GroupedData;

/// Ordered failure times `0 < t₁ <= … <= t_m <= t_e` observed up to the
/// censoring time `t_e`.
///
/// Ties are permitted (two failures logged at the same clock instant), but
/// times must be positive, finite and sorted; the constructor enforces
/// these invariants so every downstream likelihood can rely on them.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureTimeData {
    times: Vec<f64>,
    t_end: f64,
}

impl FailureTimeData {
    /// Creates a failure-time dataset.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidTimes`] if any time is non-positive or
    /// non-finite, the sequence is not sorted, `t_end` is not positive, or
    /// any time exceeds `t_end`. An empty time list is valid (zero
    /// failures observed in `(0, t_end]`).
    ///
    /// # Example
    ///
    /// ```
    /// use nhpp_data::FailureTimeData;
    /// # fn main() -> Result<(), nhpp_data::DataError> {
    /// let data = FailureTimeData::new(vec![3.0, 8.5, 21.0], 30.0)?;
    /// assert_eq!(data.len(), 3);
    /// assert_eq!(data.observation_end(), 30.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(times: Vec<f64>, t_end: f64) -> Result<Self, DataError> {
        FailureTimeData::validate(&times, t_end)?;
        Ok(FailureTimeData { times, t_end })
    }

    /// Checks `times` and `t_end` against the invariants
    /// [`FailureTimeData::new`] enforces, without taking ownership — for
    /// callers that keep the vectors themselves.
    ///
    /// # Errors
    ///
    /// As [`FailureTimeData::new`].
    pub fn validate(times: &[f64], t_end: f64) -> Result<(), DataError> {
        if !(t_end > 0.0 && t_end.is_finite()) {
            return Err(DataError::InvalidTimes {
                message: format!("observation end {t_end} must be positive and finite"),
            });
        }
        for (i, &t) in times.iter().enumerate() {
            if !(t > 0.0 && t.is_finite()) {
                return Err(DataError::InvalidTimes {
                    message: format!("time #{i} = {t} must be positive and finite"),
                });
            }
            if i > 0 && t < times[i - 1] {
                return Err(DataError::InvalidTimes {
                    message: format!("times must be sorted (index {i}: {t} < {})", times[i - 1]),
                });
            }
            if t > t_end {
                return Err(DataError::InvalidTimes {
                    message: format!("time #{i} = {t} exceeds observation end {t_end}"),
                });
            }
        }
        Ok(())
    }

    /// Creates the dataset from unsorted times, sorting them first.
    ///
    /// # Errors
    ///
    /// Same as [`FailureTimeData::new`].
    pub fn from_unsorted(mut times: Vec<f64>, t_end: f64) -> Result<Self, DataError> {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        FailureTimeData::new(times, t_end)
    }

    /// The ordered failure times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of observed failures `m`.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no failures were observed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// End of the observation window `t_e`.
    pub fn observation_end(&self) -> f64 {
        self.t_end
    }

    /// Sum of the observed failure times `Σ tᵢ` (the sufficient statistic
    /// of the exponential likelihood).
    pub fn sum_times(&self) -> f64 {
        self.times.iter().sum()
    }

    /// Sum of log failure times `Σ ln tᵢ` (sufficient statistic of the
    /// gamma likelihood for non-unit shape).
    pub fn sum_ln_times(&self) -> f64 {
        self.times.iter().map(|t| t.ln()).sum()
    }

    /// Restricts the dataset to the failures observed in `(0, t]` — the
    /// view an analyst had at an earlier point of the campaign (used by
    /// sequential-monitoring workflows).
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidTimes`] if `t` is not positive and finite.
    pub fn censor_at(&self, t: f64) -> Result<FailureTimeData, DataError> {
        let times = self.times.iter().copied().filter(|&x| x <= t).collect();
        FailureTimeData::new(times, t)
    }

    /// Groups the failure times into `bins` equal-width intervals covering
    /// `(0, t_e]`, the transformation used to produce the paper's `D_G`
    /// from `D_T`.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidGrouping`] if `bins == 0`.
    pub fn group_equal_width(&self, bins: usize) -> Result<GroupedData, DataError> {
        if bins == 0 {
            return Err(DataError::InvalidGrouping {
                message: "bins must be positive".into(),
            });
        }
        let width = self.t_end / bins as f64;
        let mut counts = vec![0u64; bins];
        for &t in &self.times {
            let mut idx = (t / width).ceil() as usize - 1;
            // t exactly on a boundary belongs to the lower interval (s_{i-1}, s_i].
            if t <= idx as f64 * width {
                idx = idx.saturating_sub(1);
            }
            counts[idx.min(bins - 1)] += 1;
        }
        let boundaries: Vec<f64> = (1..=bins).map(|i| i as f64 * width).collect();
        GroupedData::new(boundaries, counts)
    }

    /// Groups the failure times on an arbitrary increasing boundary
    /// sequence `s₁ < … < s_k` (counts of failures in `(s_{i−1}, s_i]`,
    /// with `s₀ = 0`). Failures beyond `s_k` are dropped.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidGrouping`] on an invalid boundary sequence.
    pub fn group_on(&self, boundaries: Vec<f64>) -> Result<GroupedData, DataError> {
        let mut counts = vec![0u64; boundaries.len()];
        for &t in &self.times {
            if let Some(idx) = boundaries.iter().position(|&s| t <= s) {
                counts[idx] += 1;
            }
        }
        GroupedData::new(boundaries, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(FailureTimeData::new(vec![1.0, 2.0], 5.0).is_ok());
        assert!(FailureTimeData::new(vec![], 5.0).is_ok());
        assert!(FailureTimeData::new(vec![0.0], 5.0).is_err());
        assert!(FailureTimeData::new(vec![-1.0], 5.0).is_err());
        assert!(FailureTimeData::new(vec![2.0, 1.0], 5.0).is_err());
        assert!(FailureTimeData::new(vec![6.0], 5.0).is_err());
        assert!(FailureTimeData::new(vec![1.0], 0.0).is_err());
        assert!(FailureTimeData::new(vec![f64::NAN], 5.0).is_err());
        // Ties allowed.
        assert!(FailureTimeData::new(vec![1.0, 1.0], 5.0).is_ok());
    }

    #[test]
    fn from_unsorted_sorts() {
        let d = FailureTimeData::from_unsorted(vec![3.0, 1.0, 2.0], 5.0).unwrap();
        assert_eq!(d.times(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sufficient_statistics() {
        let d = FailureTimeData::new(vec![1.0, 2.0, 4.0], 5.0).unwrap();
        assert_eq!(d.sum_times(), 7.0);
        assert!((d.sum_ln_times() - (1.0f64.ln() + 2.0f64.ln() + 4.0f64.ln())).abs() < 1e-14);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn censor_at_truncates_history() {
        let d = FailureTimeData::new(vec![1.0, 2.0, 3.0, 4.0], 10.0).unwrap();
        let early = d.censor_at(2.5).unwrap();
        assert_eq!(early.times(), &[1.0, 2.0]);
        assert_eq!(early.observation_end(), 2.5);
        assert!(d.censor_at(0.0).is_err());
        // Censoring beyond the window keeps everything.
        assert_eq!(d.censor_at(100.0).unwrap().len(), 4);
    }

    #[test]
    fn group_equal_width_counts() {
        let d = FailureTimeData::new(vec![0.5, 1.0, 1.5, 3.9], 4.0).unwrap();
        let g = d.group_equal_width(4).unwrap();
        // Intervals (0,1], (1,2], (2,3], (3,4]; 1.0 sits on the boundary → (0,1].
        assert_eq!(g.counts(), &[2, 1, 0, 1]);
        assert_eq!(g.total_count(), 4);
        assert_eq!(g.observation_end(), 4.0);
    }

    #[test]
    fn group_equal_width_rejects_zero_bins() {
        let d = FailureTimeData::new(vec![1.0], 4.0).unwrap();
        assert!(d.group_equal_width(0).is_err());
    }

    #[test]
    fn group_on_arbitrary_boundaries() {
        let d = FailureTimeData::new(vec![0.5, 2.5, 3.5], 4.0).unwrap();
        let g = d.group_on(vec![1.0, 3.0]).unwrap();
        // 3.5 is beyond s_k = 3 and is dropped.
        assert_eq!(g.counts(), &[1, 1]);
    }
}
