//! Additional canned datasets beyond the System 17 surrogate.
//!
//! All values are frozen constants generated once from the workspace's
//! own exact NHPP simulator (generation parameters documented per
//! dataset), so tests and examples are bit-reproducible regardless of
//! RNG library versions.

use crate::error::DataError;
use crate::grouped::GroupedData;
use crate::sys17;
use crate::times::FailureTimeData;

/// Observation end of the S-shaped dataset, in seconds.
pub const SSHAPED_T_END: f64 = 60_000.0;

/// A delayed-S-shaped trace: 54 failures observed from a finite-failures
/// NHPP with 2-stage Erlang detection law (`ω = 55`, per-stage rate
/// `β = 8e−5 s⁻¹`, censored at 60 000 s; the full population had 57
/// faults). The early-phase *increase* of the failure intensity makes
/// the Goel–Okumoto model fit poorly — the motivating case for the
/// gamma-type generalisation (paper §5.2).
pub const SSHAPED_FAILURE_TIMES: [f64; 54] = [
    1012.633, 1154.607, 1256.748, 3082.654, 3366.302, 5630.937, 6143.477, 7528.721, 8691.589,
    9063.294, 11515.705, 11599.685, 12023.709, 12301.422, 13770.606, 13821.452, 14259.942,
    15081.641, 15166.829, 15969.281, 16523.906, 17969.593, 19643.232, 19964.759, 20979.097,
    22265.841, 23229.950, 24205.178, 24421.707, 25418.773, 26080.076, 26976.881, 27050.482,
    27471.891, 28284.413, 28579.885, 28722.875, 29010.519, 31307.507, 33066.482, 33774.256,
    34409.220, 35248.735, 35534.753, 37222.149, 40019.671, 40047.012, 41352.721, 44009.435,
    49524.248, 50096.618, 54036.262, 54598.280, 55863.748,
];

/// Per-interval counts of the S-shaped trace over twenty 3 000-second
/// windows.
pub const SSHAPED_COUNTS: [u64; 20] = [3, 3, 3, 3, 5, 5, 3, 2, 5, 6, 1, 5, 1, 3, 1, 0, 2, 0, 3, 0];

/// The S-shaped failure-time dataset.
pub fn sshaped_times() -> FailureTimeData {
    FailureTimeData::new(SSHAPED_FAILURE_TIMES.to_vec(), SSHAPED_T_END)
        .expect("constant dataset is valid")
}

/// An "early-phase" view of the System 17 surrogate: only the first
/// `days` working days of the grouped data. With few failures and no
/// visible saturation of the growth curve, `ω` is barely identified —
/// the regime in which the paper's `D_G`-NoInfo experiment collapses
/// (Table 1's wild `NoInfo` row; see `EXPERIMENTS.md`).
///
/// # Errors
///
/// [`DataError::InvalidGrouping`] if `days` is zero or exceeds the
/// available 64 days.
pub fn sys17_early_phase(days: usize) -> Result<GroupedData, DataError> {
    if days == 0 || days > sys17::WORKING_DAYS {
        return Err(DataError::InvalidGrouping {
            message: format!("days must be in 1..={}, got {days}", sys17::WORKING_DAYS),
        });
    }
    GroupedData::from_unit_intervals(sys17::DAILY_COUNTS[..days].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sshaped_datasets_consistent() {
        let t = sshaped_times();
        assert_eq!(t.len(), 54);
        assert_eq!(t.observation_end(), SSHAPED_T_END);
        // Regrouping the times reproduces the counts.
        let regrouped = t.group_equal_width(20).unwrap();
        assert_eq!(regrouped.counts(), &SSHAPED_COUNTS[..]);
    }

    #[test]
    fn early_phase_prefix() {
        let g = sys17_early_phase(16).unwrap();
        assert_eq!(g.len(), 16);
        assert_eq!(
            g.total_count(),
            sys17::DAILY_COUNTS[..16].iter().sum::<u64>()
        );
        assert!(sys17_early_phase(0).is_err());
        assert!(sys17_early_phase(65).is_err());
    }
}
