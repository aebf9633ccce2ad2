//! Grouped (interval-count) failure data (`D_G`).

use crate::error::DataError;

/// Failure counts per observation interval: `counts[i]` failures occurred
/// in `(s_{i−1}, s_i]`, where `s₀ = 0` implicitly and `boundaries[i] = s_{i+1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedData {
    boundaries: Vec<f64>,
    counts: Vec<u64>,
}

impl GroupedData {
    /// Creates a grouped dataset from interval upper boundaries
    /// `s₁ < s₂ < … < s_k` (with `s₀ = 0` implicit) and per-interval
    /// counts.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidGrouping`] if the sequences are empty or of
    /// mismatched length, the boundaries are not strictly increasing and
    /// positive, any boundary is non-finite, or the counts total more
    /// than `u64::MAX`.
    ///
    /// # Example
    ///
    /// ```
    /// use nhpp_data::GroupedData;
    /// # fn main() -> Result<(), nhpp_data::DataError> {
    /// // Three working days with 2, 0 and 1 failures.
    /// let data = GroupedData::new(vec![1.0, 2.0, 3.0], vec![2, 0, 1])?;
    /// assert_eq!(data.total_count(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(boundaries: Vec<f64>, counts: Vec<u64>) -> Result<Self, DataError> {
        GroupedData::validate(&boundaries, &counts)?;
        Ok(GroupedData { boundaries, counts })
    }

    /// Checks `boundaries` and `counts` against the invariants
    /// [`GroupedData::new`] enforces, without taking ownership — for
    /// callers that keep the vectors themselves.
    ///
    /// # Errors
    ///
    /// As [`GroupedData::new`].
    pub fn validate(boundaries: &[f64], counts: &[u64]) -> Result<(), DataError> {
        if boundaries.is_empty() {
            return Err(DataError::InvalidGrouping {
                message: "at least one interval is required".into(),
            });
        }
        if boundaries.len() != counts.len() {
            return Err(DataError::InvalidGrouping {
                message: format!("{} boundaries vs {} counts", boundaries.len(), counts.len()),
            });
        }
        let mut prev = 0.0;
        for (i, &s) in boundaries.iter().enumerate() {
            if !(s > prev && s.is_finite()) {
                return Err(DataError::InvalidGrouping {
                    message: format!("boundary #{i} = {s} must exceed {prev} and be finite"),
                });
            }
            prev = s;
        }
        if counts
            .iter()
            .try_fold(0u64, |total, &c| total.checked_add(c))
            .is_none()
        {
            return Err(DataError::InvalidGrouping {
                message: "counts total more than u64::MAX failures".into(),
            });
        }
        Ok(())
    }

    /// Creates equally spaced unit-width intervals `(0,1], (1,2], …` from
    /// counts alone — the natural representation of per-day counts such as
    /// the paper's 64-working-day System 17 data.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidGrouping`] if `counts` is empty.
    pub fn from_unit_intervals(counts: Vec<u64>) -> Result<Self, DataError> {
        let boundaries = (1..=counts.len()).map(|i| i as f64).collect();
        GroupedData::new(boundaries, counts)
    }

    /// Interval upper boundaries `s₁ … s_k`.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Per-interval failure counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of intervals `k`.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if there are no intervals (cannot occur after construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total observed failures `Σ xᵢ`.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// End of the observation window `s_k`.
    pub fn observation_end(&self) -> f64 {
        *self.boundaries.last().expect("validated non-empty")
    }

    /// Iterator over `(lower, upper, count)` triples.
    pub fn intervals(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.boundaries.iter().enumerate().map(move |(i, &hi)| {
            let lo = if i == 0 { 0.0 } else { self.boundaries[i - 1] };
            (lo, hi, self.counts[i])
        })
    }

    /// Cumulative failure counts at each boundary (the empirical mean
    /// value function).
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Merges every `factor` consecutive intervals into one — the data
    /// as a coarser reporting cadence would have recorded it (weekly
    /// instead of daily counts, say). A final partial group absorbs any
    /// remainder.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidGrouping`] if `factor` is zero.
    pub fn coarsen(&self, factor: usize) -> Result<GroupedData, DataError> {
        if factor == 0 {
            return Err(DataError::InvalidGrouping {
                message: "coarsening factor must be positive".into(),
            });
        }
        let mut boundaries = Vec::new();
        let mut counts = Vec::new();
        let mut acc = 0u64;
        for (idx, (&boundary, &count)) in self.boundaries.iter().zip(&self.counts).enumerate() {
            acc += count;
            if (idx + 1) % factor == 0 || idx + 1 == self.len() {
                boundaries.push(boundary);
                counts.push(acc);
                acc = 0;
            }
        }
        GroupedData::new(boundaries, counts)
    }

    /// Rescales the time axis by `factor` (e.g. working days → seconds).
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidGrouping`] if `factor` is not positive/finite.
    pub fn rescale_time(&self, factor: f64) -> Result<GroupedData, DataError> {
        if !(factor > 0.0 && factor.is_finite()) {
            return Err(DataError::InvalidGrouping {
                message: format!("scale factor {factor} must be positive and finite"),
            });
        }
        GroupedData::new(
            self.boundaries.iter().map(|&s| s * factor).collect(),
            self.counts.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(GroupedData::new(vec![1.0, 2.0], vec![1, 0]).is_ok());
        assert!(GroupedData::new(vec![], vec![]).is_err());
        assert!(GroupedData::new(vec![1.0], vec![1, 2]).is_err());
        assert!(GroupedData::new(vec![0.0, 1.0], vec![0, 0]).is_err());
        assert!(GroupedData::new(vec![2.0, 1.0], vec![0, 0]).is_err());
        assert!(GroupedData::new(vec![1.0, f64::INFINITY], vec![0, 0]).is_err());
        // A total past u64::MAX would overflow `total_count`.
        assert!(GroupedData::new(vec![1.0, 2.0], vec![u64::MAX, 0]).is_ok());
        assert!(GroupedData::new(vec![1.0, 2.0], vec![u64::MAX, 1]).is_err());
    }

    #[test]
    fn unit_intervals() {
        let g = GroupedData::from_unit_intervals(vec![3, 1, 4]).unwrap();
        assert_eq!(g.boundaries(), &[1.0, 2.0, 3.0]);
        assert_eq!(g.observation_end(), 3.0);
        assert_eq!(g.total_count(), 8);
    }

    #[test]
    fn intervals_iterator() {
        let g = GroupedData::new(vec![1.0, 2.5, 4.0], vec![2, 0, 1]).unwrap();
        let iv: Vec<_> = g.intervals().collect();
        assert_eq!(iv, vec![(0.0, 1.0, 2), (1.0, 2.5, 0), (2.5, 4.0, 1)]);
    }

    #[test]
    fn cumulative() {
        let g = GroupedData::from_unit_intervals(vec![1, 0, 2, 1]).unwrap();
        assert_eq!(g.cumulative_counts(), vec![1, 1, 3, 4]);
    }

    #[test]
    fn coarsen_merges_counts_and_keeps_total() {
        let g = GroupedData::from_unit_intervals(vec![1, 2, 3, 4, 5]).unwrap();
        let c = g.coarsen(2).unwrap();
        assert_eq!(c.boundaries(), &[2.0, 4.0, 5.0]);
        assert_eq!(c.counts(), &[3, 7, 5]);
        assert_eq!(c.total_count(), g.total_count());
        assert_eq!(c.observation_end(), g.observation_end());
        assert!(g.coarsen(0).is_err());
        // Coarsening by more than the length gives a single interval.
        let all = g.coarsen(10).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all.total_count(), 15);
    }

    #[test]
    fn rescale() {
        let g = GroupedData::from_unit_intervals(vec![1, 2]).unwrap();
        let s = g.rescale_time(1800.0).unwrap();
        assert_eq!(s.boundaries(), &[1800.0, 3600.0]);
        assert_eq!(s.counts(), g.counts());
        assert!(g.rescale_time(0.0).is_err());
    }
}
