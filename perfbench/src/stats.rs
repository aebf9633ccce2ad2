//! Order statistics over latency samples.

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples;
/// `0.0` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The mean of the middle three fifths: robust to stray samples like a
/// median, but smooth where the samples fall into two modes, as cold
/// process starts on a shared host do.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 5;
    mean(&sorted[cut..sorted.len() - cut])
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The standard error of the mean; `0.0` below two samples.
pub fn standard_error(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(samples);
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
    (var / n as f64).sqrt()
}
