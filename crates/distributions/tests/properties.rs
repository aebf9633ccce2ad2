//! Property-based tests for the distribution layer.

use nhpp_dist::Discrete;
use nhpp_dist::{Continuous, Gamma, GammaMixture, Poisson, TruncatedGamma};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Gamma CDF/quantile round trip over a broad parameter box.
    #[test]
    fn gamma_quantile_roundtrip(shape in 0.1f64..500.0, rate in 1e-6f64..1e6, p in 1e-6f64..1.0f64) {
        prop_assume!(p < 1.0 - 1e-9);
        let g = Gamma::new(shape, rate).unwrap();
        let x = g.quantile(p);
        prop_assert!(x.is_finite() && x >= 0.0);
        prop_assert!((g.cdf(x) - p).abs() < 1e-8, "shape={shape}, rate={rate}, p={p}");
    }

    /// CDF + SF = 1 for the Gamma distribution.
    #[test]
    fn gamma_cdf_sf_complementary(shape in 0.1f64..200.0, rate in 1e-3f64..1e3, frac in 0.01f64..5.0) {
        let g = Gamma::new(shape, rate).unwrap();
        let x = g.mean() * frac;
        prop_assert!((g.cdf(x) + g.sf(x) - 1.0).abs() < 1e-11);
    }

    /// Interval mean always lies inside the interval.
    #[test]
    fn gamma_interval_mean_inside(shape in 0.2f64..50.0, rate in 0.01f64..100.0,
                                  lo_frac in 0.0f64..3.0, width in 0.01f64..5.0) {
        let g = Gamma::new(shape, rate).unwrap();
        let lo = g.mean() * lo_frac;
        let hi = lo + g.mean() * width;
        let m = g.interval_mean(lo, hi);
        if m.is_finite() {
            prop_assert!(m >= lo && m <= hi, "m={m}, lo={lo}, hi={hi}");
        }
    }

    /// Censored-tail mean exceeds the censoring point and the overall mean
    /// of the tail start (stochastic ordering).
    #[test]
    fn gamma_tail_mean_dominates(shape in 0.2f64..50.0, rate in 0.01f64..100.0, t_frac in 0.1f64..4.0) {
        let g = Gamma::new(shape, rate).unwrap();
        let t = g.mean() * t_frac;
        let m = g.interval_mean(t, f64::INFINITY);
        prop_assert!(m > t);
        prop_assert!(m >= g.mean() * 0.999 || t_frac < 1.0 || m > t);
    }

    /// Truncated gamma quantiles stay within the truncation interval.
    #[test]
    fn truncated_quantile_in_support(shape in 0.5f64..20.0, lo_frac in 0.0f64..2.0,
                                     width in 0.05f64..4.0, p in 0.001f64..0.999) {
        let g = Gamma::new(shape, 1.0).unwrap();
        let lo = g.mean() * lo_frac;
        let hi = lo + g.mean() * width;
        if let Ok(t) = TruncatedGamma::new(g, lo, hi) {
            let x = t.quantile(p);
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9, "x={x}, lo={lo}, hi={hi}");
            prop_assert!((t.cdf(x) - p).abs() < 1e-6);
        }
    }

    /// Poisson pmf is a valid probability over a generous support window.
    #[test]
    fn poisson_pmf_valid(mean in 0.0f64..200.0) {
        let p = Poisson::new(mean).unwrap();
        let hi = (mean + 12.0 * (mean + 1.0).sqrt()) as u64;
        let total: f64 = (0..=hi).map(|k| p.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "mean={mean}, total={total}");
    }

    /// Mixture mean equals the weighted component means; variance exceeds
    /// the weighted within-component variance (law of total variance).
    #[test]
    fn mixture_moment_identities(w1 in 0.05f64..1.0, w2 in 0.05f64..1.0,
                                 s1 in 0.5f64..30.0, s2 in 0.5f64..30.0,
                                 r in 0.01f64..10.0) {
        let g1 = Gamma::new(s1, r).unwrap();
        let g2 = Gamma::new(s2, r).unwrap();
        let m = GammaMixture::new(vec![(w1, g1), (w2, g2)]).unwrap();
        let wsum = w1 + w2;
        let expected_mean = (w1 * g1.mean() + w2 * g2.mean()) / wsum;
        prop_assert!((m.mean() - expected_mean).abs() < 1e-9 * expected_mean.max(1.0));
        let within = (w1 * g1.variance() + w2 * g2.variance()) / wsum;
        prop_assert!(m.variance() >= within - 1e-9 * within.max(1.0));
    }

    /// Mixture quantiles over 1–300 components, ω-like (consecutive
    /// integer shapes at a common rate) or β-like (rates near 1e6), with
    /// weights falling to 1e-300: the tail the quantile targets round-trips
    /// to 1e-9 relative from p = 5e-13 to 1 − 5e-13, the quantile is
    /// monotone in p, and one component is its own Gamma quantile, bitwise.
    #[test]
    fn mixture_quantile_wide_roundtrip(n in 1usize..301, beta_like in prop::bool::ANY,
                                       first in 0.5f64..200.0, rate in 0.01f64..10.0,
                                       spread in 0.0f64..1.0, digits in 0.3f64..12.0,
                                       upper in prop::bool::ANY, dp in 1e-6f64..0.5) {
        let parts: Vec<(f64, Gamma)> = (0..n)
            .map(|i| {
                let t = if n == 1 { 0.0 } else { 2.0 * i as f64 / (n - 1) as f64 - 1.0 };
                let shape = first + i as f64;
                let r = if beta_like { 1e6 * (1.0 + 0.01 * i as f64) } else { rate };
                ((-690.0 * spread * t * t).exp(), Gamma::new(shape, r).unwrap())
            })
            .collect();
        let m = GammaMixture::new(parts).unwrap();
        let tail = 0.5 * 10f64.powf(-digits);
        let (p, p_inner) = if upper {
            (1.0 - tail, 1.0 - tail * (1.0 + dp))
        } else {
            (tail, tail * (1.0 + dp))
        };
        let x = m.quantile(p);
        prop_assert!(x.is_finite() && x > 0.0, "p={p}, x={x}");
        let inner = m.quantile(p_inner);
        let monotone = if upper { inner <= x } else { inner >= x };
        prop_assert!(monotone, "p={p}: {x} vs {inner} at {p_inner}");
        if n == 1 {
            prop_assert_eq!(x.to_bits(), m.components()[0].quantile(p).to_bits());
        } else {
            let (got, want) = if upper { (m.sf(x), 1.0 - p) } else { (m.cdf(x), p) };
            prop_assert!((got - want).abs() <= 1e-9 * want, "p={p}: tail {got:e} vs {want:e}");
        }
    }

    /// Mixture CDF is monotone and matches quantile inversion.
    #[test]
    fn mixture_quantile_roundtrip(s1 in 0.5f64..20.0, s2 in 0.5f64..20.0, p in 0.01f64..0.99) {
        let m = GammaMixture::new(vec![
            (0.5, Gamma::new(s1, 1.0).unwrap()),
            (0.5, Gamma::new(s2, 1.0).unwrap()),
        ]).unwrap();
        let x = m.quantile(p);
        prop_assert!((m.cdf(x) - p).abs() < 1e-7);
    }
}
