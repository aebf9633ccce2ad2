//! A small seeded generator (SplitMix64) and the draws the workloads
//! need. Inputs depend on the seed only, never on the clock.

/// SplitMix64: tiny, fast, and good enough for traffic generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent child stream, so adding draws to one part of the
    /// schedule does not shift every other part.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` draws from `weights` with the counts fixed in advance: each index
/// appears its weight's share of `n` times (largest remainder), and only
/// the order is random. Every seed then does the same work in a
/// different order on different values, so seeds differ in timing
/// noise, not in how much of each operation they ask for.
pub fn quota_order(rng: &mut Rng, weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Zipf weights `1 / (rank + 1)^s` for `n` ranks.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect()
}
