//! Finite Gamma mixtures.
//!
//! The VB2 variational posterior of the DSN 2007 paper is exactly a finite
//! mixture `Σ_N Pᵥ(N) · Gamma(ω | A_N, r_ω) ⊗ Gamma(β | B_N, r_{β,N})`:
//! per component the two coordinates are independent, but the mixture
//! couples them and produces the ω–β correlation that the fully factorised
//! VB1 posterior cannot represent. [`GammaProductMixture`] implements that
//! object; [`GammaMixture`] is its one-dimensional marginal.
//!
//! Every reliability functional of the product mixture is a sum over
//! components of a one-dimensional β quadrature. The parts of those
//! quadratures that depend only on the posterior — integration bounds and
//! the β log-density constants — are kept in a [`BetaRow`] table that the
//! mixture builds on first use. The [`CellTable`] goes one step further
//! for the integrands that only need a fixed rule: it keeps every node's
//! weighted density, so a pass over it evaluates no density at all.

use crate::error::DistError;
use crate::gamma::Gamma;
use crate::traits::{Continuous, Sample};
use nhpp_numeric::quadrature::GaussLegendre;
use nhpp_special::{gamma_pq_pdf_given, ln_gamma, log_sum_exp, norm_ppf};
use rand::Rng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Pass cap of [`GammaMixture::newton_quantile`]. Newton needs a handful
/// of passes from the moment-matched start, and bisection narrows a
/// bracket to `1e−13` relative in under fifty; the cap only bounds
/// pathological inputs.
const QUANTILE_MAX_PASSES: usize = 200;

/// What [`GammaMixture::newton_quantile`] found: the root, the number of
/// CDF passes it took and the bracket it ended with.
#[derive(Debug, Clone, Copy)]
struct NewtonQuantile {
    x: f64,
    passes: usize,
    lo: f64,
    hi: f64,
}

/// Components lighter than this are left out of the β-table: anything
/// they contribute to an expectation of a bounded function is below it.
const BETA_TABLE_FLOOR: f64 = 1e-13;

/// Gauss–Legendre nodes per β-row in the [`CellTable`]. On the System 17
/// GO and DSS posteriors 48 nodes keep the reliability point within
/// 4.2e-13 relative of the 96-node rule; 32 reached 1.02e-12.
const CELL_NODES: usize = 48;

/// One component of a [`GammaProductMixture`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureComponent {
    /// Mixture weight (non-negative; normalised on construction).
    pub weight: f64,
    /// Gamma distribution of the first coordinate (ω).
    pub omega: Gamma,
    /// Gamma distribution of the second coordinate (β).
    pub beta: Gamma,
}

/// A weighted mixture of univariate Gamma distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaMixture {
    weights: Vec<f64>,
    components: Vec<Gamma>,
}

impl GammaMixture {
    /// Builds a mixture from `(weight, component)` pairs. Weights must be
    /// non-negative with a positive sum; they are normalised internally.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidParameter`] on an empty list, negative weight
    /// or zero total weight.
    pub fn new(parts: Vec<(f64, Gamma)>) -> Result<Self, DistError> {
        if parts.is_empty() {
            return Err(DistError::InvalidParameter {
                name: "components",
                value: 0.0,
                constraint: "mixture needs at least one component",
            });
        }
        let total: f64 = parts.iter().map(|(w, _)| *w).sum();
        if parts.iter().any(|(w, _)| !(*w >= 0.0)) || !(total > 0.0) || !total.is_finite() {
            return Err(DistError::InvalidParameter {
                name: "weights",
                value: total,
                constraint: "must be non-negative with a positive finite sum",
            });
        }
        let (weights, components) = parts.into_iter().map(|(w, g)| (w / total, g)).unzip();
        Ok(GammaMixture {
            weights,
            components,
        })
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if the mixture has no components (cannot occur for values
    /// built through [`GammaMixture::new`]).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Normalised weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component distributions.
    pub fn components(&self) -> &[Gamma] {
        &self.components
    }

    /// Raw moment `E[X^k]` for small integer `k` (closed form per
    /// component: `E[X^k] = ∏_{i<k}(shape + i) / rate^k`).
    pub fn raw_moment(&self, k: u32) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, g)| {
                let mut m = 1.0;
                for i in 0..k {
                    m *= (g.shape() + i as f64) / g.rate();
                }
                w * m
            })
            .sum()
    }

    /// Solves `F(x) = p` for `0 < p < 1` by safeguarded Newton on the
    /// mixture CDF.
    ///
    /// * Start: the Wilson–Hilferty quantile of the Gamma with the
    ///   mixture's mean and variance.
    /// * Each pass takes every component's tail mass and density from one
    ///   series or continued-fraction evaluation, with `ln Γ(shape)`
    ///   computed once per call. Below the median it solves the lower
    ///   tail `T = Σ w·P` for `p`; above it, the upper tail `T = Σ w·Q`
    ///   for `1 − p`, so `T` is always the tail known to full relative
    ///   accuracy. The step is Newton's on `ln T`, which is near linear
    ///   in `x` deep in either tail, where Newton on `T` itself creeps.
    /// * `[lo, hi]` brackets the root by the sign of `F(x) − p`. A step
    ///   that leaves it bisects, or doubles `x` while `hi` is still `∞`.
    /// * It stops once a step moves `x` by at most `1e−13·x`.
    fn newton_quantile(&self, p: f64) -> NewtonQuantile {
        let upper = p > 0.5;
        let target = if upper { 1.0 - p } else { p };
        let ln_gammas: Vec<f64> = self
            .components
            .iter()
            .map(|g| ln_gamma(g.shape()))
            .collect();
        let tail_and_density = |x: f64| {
            let (mut tail, mut density) = (0.0, 0.0);
            for ((w, g), &lg) in self.weights.iter().zip(&self.components).zip(&ln_gammas) {
                let (lower_i, upper_i, pdf_i) = gamma_pq_pdf_given(g.shape(), g.rate() * x, lg);
                tail += w * if upper { upper_i } else { lower_i };
                density += w * g.rate() * pdf_i;
            }
            (tail, density)
        };
        let (mut lo, mut hi) = (0.0, f64::INFINITY);
        let mut x = self.wilson_hilferty(p);
        let mut passes = 0;
        loop {
            passes += 1;
            let (tail, density) = tail_and_density(x);
            // `x` lies past the root when the lower tail is too heavy, or
            // the upper tail too light.
            if (tail > target) != upper {
                hi = x;
            } else {
                lo = x;
            }
            // d(ln T)/dx is `density/T` below the median, `−density/T`
            // above it.
            let log_step = (tail / target).ln() * tail / density;
            let step = if upper { -log_step } else { log_step };
            let mut next = x - step;
            // A step within the stop rule is taken as is: it may round
            // onto a bracket end.
            if !(step.abs() <= 1e-13 * x || (next > lo && next < hi)) {
                next = if hi.is_finite() {
                    0.5 * (lo + hi)
                } else {
                    2.0 * x
                };
            }
            if (next - x).abs() <= 1e-13 * x || passes == QUANTILE_MAX_PASSES {
                return NewtonQuantile {
                    x: next,
                    passes,
                    lo,
                    hi,
                };
            }
            x = next;
        }
    }

    /// The Wilson–Hilferty `p`-quantile of the Gamma with this mixture's
    /// mean and variance. Where its cube is not positive (far lower tail,
    /// small shape), the inverse of the leading series term instead; the
    /// start must be positive, as Newton cannot leave `x = 0`.
    fn wilson_hilferty(&self, p: f64) -> f64 {
        let (mean, var) = (self.mean(), self.variance());
        let shape = mean * mean / var;
        let c = 1.0 / (9.0 * shape);
        let u = 1.0 - c + norm_ppf(p) * c.sqrt();
        let x = mean * u * u * u;
        if x > 0.0 && x.is_finite() {
            return x;
        }
        let x = ((p.ln() + ln_gamma(shape + 1.0)) / shape).exp() * var / mean;
        if x > 0.0 && x.is_finite() {
            x
        } else {
            mean
        }
    }

    /// Central moment `E[(X − E[X])^k]` for `k <= 4`.
    ///
    /// # Panics
    ///
    /// Panics if `k > 4` (higher orders are not implemented).
    pub fn central_moment(&self, k: u32) -> f64 {
        assert!(k <= 4, "central moments implemented up to order 4");
        let m1 = self.raw_moment(1);
        match k {
            0 => 1.0,
            1 => 0.0,
            2 => self.raw_moment(2) - m1 * m1,
            3 => self.raw_moment(3) - 3.0 * m1 * self.raw_moment(2) + 2.0 * m1.powi(3),
            _ => {
                self.raw_moment(4) - 4.0 * m1 * self.raw_moment(3)
                    + 6.0 * m1 * m1 * self.raw_moment(2)
                    - 3.0 * m1.powi(4)
            }
        }
    }
}

impl Continuous for GammaMixture {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let terms: Vec<f64> = self
            .weights
            .iter()
            .zip(&self.components)
            .map(|(w, g)| w.ln() + g.ln_pdf(x))
            .collect();
        log_sum_exp(&terms)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, g)| w * g.cdf(x))
            .sum()
    }

    fn sf(&self, x: f64) -> f64 {
        self.weights
            .iter()
            .zip(&self.components)
            .map(|(w, g)| w * g.sf(x))
            .sum()
    }

    /// Quantile by safeguarded Newton on the mixture CDF (see
    /// [`GammaMixture::newton_quantile`]); a single component returns its
    /// own [`Gamma::quantile`].
    fn quantile(&self, p: f64) -> f64 {
        if !(0.0..=1.0).contains(&p) {
            return f64::NAN;
        }
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        if let [g] = self.components[..] {
            return g.quantile(p);
        }
        let solve = self.newton_quantile(p);
        debug_assert!(
            solve.passes < QUANTILE_MAX_PASSES || solve.hi - solve.lo <= 1e-13 * solve.x,
            "quantile pass cap reached with a loose bracket: {solve:?}"
        );
        solve.x
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1)
    }

    fn variance(&self) -> f64 {
        self.central_moment(2)
    }
}

impl Sample<f64> for GammaMixture {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        let mut acc = 0.0;
        for (w, g) in self.weights.iter().zip(&self.components) {
            acc += w;
            if u <= acc {
                return g.sample(rng);
            }
        }
        self.components[self.components.len() - 1].sample(rng)
    }
}

/// One row of a [`GammaProductMixture`]'s β-table: what a component's
/// β quadrature needs that depends only on the posterior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaRow {
    /// Normalised mixture weight.
    pub weight: f64,
    /// The component's ω distribution.
    pub omega: Gamma,
    /// Lower integration bound: the β quantile at `1e−10`.
    pub lo: f64,
    /// Upper integration bound: the β quantile at `1 − 1e−10`.
    pub hi: f64,
    shape: f64,
    rate: f64,
    /// `shape·ln rate` of the β density.
    shape_ln_rate: f64,
    /// `ln Γ(shape)` of the β density.
    ln_gamma_shape: f64,
}

impl BetaRow {
    fn new(c: &MixtureComponent) -> Self {
        let (shape, rate) = (c.beta.shape(), c.beta.rate());
        BetaRow {
            weight: c.weight,
            omega: c.omega,
            lo: c.beta.quantile(1e-10),
            hi: c.beta.quantile(1.0 - 1e-10),
            shape,
            rate,
            shape_ln_rate: shape * rate.ln(),
            ln_gamma_shape: ln_gamma(shape),
        }
    }

    /// The β density at `b > 0`. Bitwise equal to the component's
    /// [`Gamma::pdf`]: the same terms in the same order, with the two
    /// constants computed once.
    pub fn density(&self, b: f64) -> f64 {
        (self.shape_ln_rate + (self.shape - 1.0) * b.ln() - self.rate * b - self.ln_gamma_shape)
            .exp()
    }

    /// `∫ q(β)·f(β) dβ` over `[lo, hi]` by `rule`, where `q` is the
    /// component's β density.
    pub fn expectation(&self, rule: &GaussLegendre, mut f: impl FnMut(f64) -> f64) -> f64 {
        rule.integrate(self.lo, self.hi, |b| self.density(b) * f(b))
    }
}

/// What a [`CellTable`] keeps once per β-row: the ω distribution and the
/// affine map of the rule onto `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellRow {
    omega: Gamma,
    centre: f64,
    half_width: f64,
}

/// A cell table: one Gauss–Legendre rule placed on every [`BetaRow`]'s
/// `[lo, hi]`, with each node's density already weighted.
///
/// A cell is one node of one row. It stores only
/// `row weight · half-width · node weight · q(β)`, 8 bytes; β is
/// recomputed as `centre + half_width·x`, the expression
/// [`GaussLegendre::integrate`] uses. ω's Gamma and the map are kept once
/// per row (32 bytes), so a row of 48 cells takes 416 bytes.
/// [`GammaProductMixture::cell_table`] caches the 48-node table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTable {
    rule: Arc<GaussLegendre>,
    rows: Vec<CellRow>,
    /// `rule.len()` weighted densities per row, row after row.
    cells: Vec<f64>,
}

impl CellTable {
    /// Places `rule` on every row of `beta_table`.
    pub fn new(beta_table: &[BetaRow], rule: Arc<GaussLegendre>) -> Self {
        let mut rows = Vec::with_capacity(beta_table.len());
        let mut cells = Vec::with_capacity(beta_table.len() * rule.len());
        for row in beta_table {
            let centre = 0.5 * (row.lo + row.hi);
            let half_width = 0.5 * (row.hi - row.lo);
            let scale = row.weight * half_width;
            cells.extend(
                rule.nodes()
                    .iter()
                    .zip(rule.weights())
                    .map(|(&x, &w)| scale * w * row.density(centre + half_width * x)),
            );
            rows.push(CellRow {
                omega: row.omega,
                centre,
                half_width,
            });
        }
        CellTable { rule, rows, cells }
    }

    /// `E[f(ω-distribution, β)]` over the mixture: `Σ_rows Σ_cells
    /// cell · f(ω, β)`, each row summed on its own before it is added.
    pub fn expectation(&self, mut f: impl FnMut(&Gamma, f64) -> f64) -> f64 {
        let nodes = self.rule.nodes();
        let mut acc = 0.0;
        for (row, cells) in self.rows.iter().zip(self.cells.chunks_exact(nodes.len())) {
            let mut inner = 0.0;
            for (&x, &cell) in nodes.iter().zip(cells) {
                inner += cell * f(&row.omega, row.centre + row.half_width * x);
            }
            acc += inner;
        }
        acc
    }

    /// Every cell as `(weighted density, ω distribution, β)`, row after
    /// row: the terms [`CellTable::expectation`] sums, for a functional
    /// that needs the cells themselves rather than one sum over them.
    pub fn cells(&self) -> impl Iterator<Item = (f64, &Gamma, f64)> + '_ {
        let nodes = self.rule.nodes();
        self.rows
            .iter()
            .zip(self.cells.chunks_exact(nodes.len()))
            .flat_map(move |(row, cells)| {
                nodes
                    .iter()
                    .zip(cells)
                    .map(move |(&x, &cell)| (cell, &row.omega, row.centre + row.half_width * x))
            })
    }
}

/// A mixture of *products* of two independent Gamma distributions — the
/// exact form of the VB2 variational posterior over `(ω, β)`.
#[derive(Clone)]
pub struct GammaProductMixture {
    components: Vec<MixtureComponent>,
    /// Built by the first [`GammaProductMixture::beta_table`] call. A
    /// cache of `components`, so equality and `Debug` ignore it.
    beta_table: OnceLock<Vec<BetaRow>>,
    /// Built by the first [`GammaProductMixture::cell_table`] call, from
    /// the β-table; a cache like it.
    cell_table: OnceLock<CellTable>,
}

impl PartialEq for GammaProductMixture {
    fn eq(&self, other: &Self) -> bool {
        self.components == other.components
    }
}

impl fmt::Debug for GammaProductMixture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GammaProductMixture")
            .field("components", &self.components)
            .finish()
    }
}

impl GammaProductMixture {
    /// Builds the mixture; weights are normalised.
    ///
    /// # Errors
    ///
    /// [`DistError::InvalidParameter`] on an empty component list,
    /// negative weight or zero total weight.
    pub fn new(mut components: Vec<MixtureComponent>) -> Result<Self, DistError> {
        if components.is_empty() {
            return Err(DistError::InvalidParameter {
                name: "components",
                value: 0.0,
                constraint: "mixture needs at least one component",
            });
        }
        let total: f64 = components.iter().map(|c| c.weight).sum();
        if components.iter().any(|c| !(c.weight >= 0.0)) || !(total > 0.0) || !total.is_finite() {
            return Err(DistError::InvalidParameter {
                name: "weights",
                value: total,
                constraint: "must be non-negative with a positive finite sum",
            });
        }
        for c in &mut components {
            c.weight /= total;
        }
        Ok(GammaProductMixture {
            components,
            beta_table: OnceLock::new(),
            cell_table: OnceLock::new(),
        })
    }

    /// Component list (weights normalised).
    pub fn components(&self) -> &[MixtureComponent] {
        &self.components
    }

    /// The β-table: one [`BetaRow`] per component of weight at least
    /// `1e−13`, in component order. Built on the first call, so a fit
    /// never pays for it; concurrent first calls build it once.
    pub fn beta_table(&self) -> &[BetaRow] {
        self.beta_table.get_or_init(|| {
            self.components
                .iter()
                .filter(|c| c.weight >= BETA_TABLE_FLOOR)
                .map(BetaRow::new)
                .collect()
        })
    }

    /// The cell table: 48 weighted β densities per β-table row. Built on
    /// the first call, like the β-table; concurrent first calls build it
    /// once.
    pub fn cell_table(&self) -> &CellTable {
        self.cell_table
            .get_or_init(|| CellTable::new(self.beta_table(), GaussLegendre::shared(CELL_NODES)))
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if there are no components (cannot occur after `new`).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Marginal distribution of the first coordinate (ω).
    pub fn marginal_omega(&self) -> GammaMixture {
        GammaMixture::new(
            self.components
                .iter()
                .map(|c| (c.weight, c.omega))
                .collect(),
        )
        .expect("weights already validated")
    }

    /// Marginal distribution of the second coordinate (β).
    pub fn marginal_beta(&self) -> GammaMixture {
        GammaMixture::new(self.components.iter().map(|c| (c.weight, c.beta)).collect())
            .expect("weights already validated")
    }

    /// `E[ω]`.
    pub fn mean_omega(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.omega.mean())
            .sum()
    }

    /// `E[β]`.
    pub fn mean_beta(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.beta.mean())
            .sum()
    }

    /// `Var(ω)` (law of total variance across components).
    pub fn var_omega(&self) -> f64 {
        let m = self.mean_omega();
        self.components
            .iter()
            .map(|c| c.weight * (c.omega.variance() + c.omega.mean().powi(2)))
            .sum::<f64>()
            - m * m
    }

    /// `Var(β)`.
    pub fn var_beta(&self) -> f64 {
        let m = self.mean_beta();
        self.components
            .iter()
            .map(|c| c.weight * (c.beta.variance() + c.beta.mean().powi(2)))
            .sum::<f64>()
            - m * m
    }

    /// `Cov(ω, β)`. Within each component the coordinates are independent,
    /// so the covariance is carried entirely by the mixing distribution:
    /// `Σ w_N E[ω|N]E[β|N] − E[ω]E[β]`.
    pub fn covariance(&self) -> f64 {
        let cross: f64 = self
            .components
            .iter()
            .map(|c| c.weight * c.omega.mean() * c.beta.mean())
            .sum();
        cross - self.mean_omega() * self.mean_beta()
    }

    /// Joint log-density `ln p(ω, β)`.
    pub fn ln_pdf(&self, omega: f64, beta: f64) -> f64 {
        let terms: Vec<f64> = self
            .components
            .iter()
            .map(|c| c.weight.ln() + c.omega.ln_pdf(omega) + c.beta.ln_pdf(beta))
            .collect();
        log_sum_exp(&terms)
    }
}

impl Sample<(f64, f64)> for GammaProductMixture {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let u: f64 = rng.random();
        let mut acc = 0.0;
        for c in &self.components {
            acc += c.weight;
            if u <= acc {
                return (c.omega.sample(rng), c.beta.sample(rng));
            }
        }
        let c = &self.components[self.components.len() - 1];
        (c.omega.sample(rng), c.beta.sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_component() -> GammaMixture {
        GammaMixture::new(vec![
            (0.3, Gamma::new(2.0, 1.0).unwrap()),
            (0.7, Gamma::new(10.0, 2.0).unwrap()),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(GammaMixture::new(vec![]).is_err());
        assert!(GammaMixture::new(vec![(-1.0, Gamma::new(1.0, 1.0).unwrap())]).is_err());
        assert!(GammaMixture::new(vec![(0.0, Gamma::new(1.0, 1.0).unwrap())]).is_err());
        assert!(GammaProductMixture::new(vec![]).is_err());
    }

    #[test]
    fn weights_are_normalised() {
        let m = GammaMixture::new(vec![
            (2.0, Gamma::new(1.0, 1.0).unwrap()),
            (6.0, Gamma::new(2.0, 1.0).unwrap()),
        ])
        .unwrap();
        assert!((m.weights()[0] - 0.25).abs() < 1e-14);
        assert!((m.weights()[1] - 0.75).abs() < 1e-14);
    }

    #[test]
    fn single_component_degenerates_to_gamma() {
        let g = Gamma::new(3.0, 0.5).unwrap();
        let m = GammaMixture::new(vec![(1.0, g)]).unwrap();
        assert!((m.mean() - g.mean()).abs() < 1e-12);
        assert!((m.variance() - g.variance()).abs() < 1e-10);
        for &p in &[0.01, 0.5, 0.99] {
            assert_eq!(m.quantile(p).to_bits(), g.quantile(p).to_bits());
        }
    }

    /// `n` components with weights `exp(−690·t²)` for `t` evenly spaced
    /// over `[−1, 1]`, so the end weights are about `1e−300`.
    fn bump_weights(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = if n == 1 {
                    0.0
                } else {
                    2.0 * i as f64 / (n - 1) as f64 - 1.0
                };
                (-690.0 * t * t).exp()
            })
            .collect()
    }

    /// ω-like: consecutive integer shapes from `first` at a common rate.
    fn omega_like(n: usize, first: f64, rate: f64) -> GammaMixture {
        let parts = bump_weights(n)
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, Gamma::new(first + i as f64, rate).unwrap()))
            .collect();
        GammaMixture::new(parts).unwrap()
    }

    /// β-like: shapes from `first` with rates near `1e6` that grow with
    /// the shape, as the VB2 β components' do.
    fn beta_like(n: usize, first: f64) -> GammaMixture {
        let parts = bump_weights(n)
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let shape = first + i as f64;
                (w, Gamma::new(shape, 1e6 * (1.0 + 0.01 * i as f64)).unwrap())
            })
            .collect();
        GammaMixture::new(parts).unwrap()
    }

    /// The tail mass the solver targets at `x`: the lower tail below the
    /// median, the upper one above it.
    fn tail_at(m: &GammaMixture, p: f64, x: f64) -> (f64, f64) {
        if p > 0.5 {
            (m.sf(x), 1.0 - p)
        } else {
            (m.cdf(x), p)
        }
    }

    #[test]
    fn mixture_mean_is_weighted_mean() {
        let m = two_component();
        let expected = 0.3 * 2.0 + 0.7 * 5.0;
        assert!((m.mean() - expected).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_quantile_round_trip() {
        let m = two_component();
        for &p in &[0.005, 0.1, 0.5, 0.9, 0.995] {
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-9, "p={p}, x={x}");
        }
        let ps = [
            1e-12,
            1e-6,
            0.005,
            0.025,
            0.3,
            0.5,
            0.7,
            0.975,
            0.995,
            1.0 - 1e-12,
        ];
        for n in [1, 2, 7, 40, 150, 300] {
            for (kind, m) in [
                ("omega", omega_like(n, 30.0, 1.2)),
                ("small-shape", omega_like(n, 0.5, 3.0)),
                ("beta", beta_like(n, 48.0)),
            ] {
                let mut prev = 0.0;
                for &p in &ps {
                    let x = m.quantile(p);
                    assert!(x > prev, "{kind} n={n}: not increasing at p={p}");
                    prev = x;
                    if n == 1 {
                        // One component is its own Gamma quantile, bitwise.
                        let g = m.components()[0];
                        assert_eq!(x.to_bits(), g.quantile(p).to_bits(), "{kind} p={p}");
                        continue;
                    }
                    let (tail, target) = tail_at(&m, p, x);
                    assert!(
                        (tail - target).abs() <= 1e-9 * target,
                        "{kind} n={n} p={p}: x={x:e}, tail {tail:e} vs {target:e}"
                    );
                    let solve = m.newton_quantile(p);
                    assert!(
                        solve.passes < QUANTILE_MAX_PASSES
                            || solve.hi - solve.lo <= 1e-13 * solve.x,
                        "{kind} n={n} p={p}: cap reached at {solve:?}"
                    );
                }
                assert_eq!(m.quantile(0.0), 0.0);
                assert_eq!(m.quantile(1.0), f64::INFINITY);
                for p in [-0.1, 1.1, f64::NAN] {
                    assert!(m.quantile(p).is_nan(), "{kind} n={n} p={p}");
                }
            }
        }
    }

    #[test]
    fn newton_quantile_takes_a_few_passes() {
        for m in [omega_like(150, 30.0, 1.2), beta_like(150, 48.0)] {
            for p in [1e-12, 0.005, 0.5, 0.995, 1.0 - 1e-12] {
                let solve = m.newton_quantile(p);
                assert!(solve.passes <= 8, "p={p}: {solve:?}");
                assert!(
                    solve.lo <= solve.x && solve.x <= solve.hi,
                    "p={p}: {solve:?}"
                );
            }
        }
    }

    #[test]
    fn central_moments_match_monte_carlo() {
        let m = two_component();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 400_000;
        let s = m.sample_n(&mut rng, n);
        let mean = s.iter().sum::<f64>() / n as f64;
        let var = s.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let m3 = s.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64;
        assert!((mean - m.mean()).abs() < 0.02);
        assert!((var - m.variance()).abs() < 0.05);
        assert!(
            (m3 - m.central_moment(3)).abs() < 0.3,
            "mc={m3}, exact={}",
            m.central_moment(3)
        );
    }

    #[test]
    fn product_mixture_covariance_from_mixing() {
        // Two components whose ω and β means move together ⇒ positive cov.
        let m = GammaProductMixture::new(vec![
            MixtureComponent {
                weight: 0.5,
                omega: Gamma::new(10.0, 1.0).unwrap(),
                beta: Gamma::new(10.0, 10.0).unwrap(),
            },
            MixtureComponent {
                weight: 0.5,
                omega: Gamma::new(20.0, 1.0).unwrap(),
                beta: Gamma::new(20.0, 10.0).unwrap(),
            },
        ])
        .unwrap();
        // Cov = E[mω·mβ] − E[mω]E[mβ] = (10·1 + 20·2)/2 − 15·1.5 = 25 − 22.5.
        assert!((m.covariance() - 2.5).abs() < 1e-10);
        assert!((m.mean_omega() - 15.0).abs() < 1e-12);
        assert!((m.mean_beta() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn product_mixture_single_component_has_zero_covariance() {
        let m = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(5.0, 1.0).unwrap(),
            beta: Gamma::new(2.0, 3.0).unwrap(),
        }])
        .unwrap();
        assert_eq!(m.covariance(), 0.0);
    }

    #[test]
    fn product_marginals_are_consistent() {
        let m = GammaProductMixture::new(vec![
            MixtureComponent {
                weight: 1.0,
                omega: Gamma::new(4.0, 2.0).unwrap(),
                beta: Gamma::new(3.0, 5.0).unwrap(),
            },
            MixtureComponent {
                weight: 3.0,
                omega: Gamma::new(8.0, 2.0).unwrap(),
                beta: Gamma::new(6.0, 5.0).unwrap(),
            },
        ])
        .unwrap();
        assert!((m.marginal_omega().mean() - m.mean_omega()).abs() < 1e-12);
        assert!((m.marginal_beta().variance() - m.var_beta()).abs() < 1e-12);
    }

    #[test]
    fn product_sampling_matches_moments() {
        let m = GammaProductMixture::new(vec![
            MixtureComponent {
                weight: 0.4,
                omega: Gamma::new(10.0, 1.0).unwrap(),
                beta: Gamma::new(5.0, 50.0).unwrap(),
            },
            MixtureComponent {
                weight: 0.6,
                omega: Gamma::new(30.0, 1.0).unwrap(),
                beta: Gamma::new(15.0, 50.0).unwrap(),
            },
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let n = 300_000;
        let samples: Vec<(f64, f64)> = (0..n).map(|_| m.sample(&mut rng)).collect();
        let mw = samples.iter().map(|s| s.0).sum::<f64>() / n as f64;
        let mb = samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
        let cov = samples.iter().map(|s| (s.0 - mw) * (s.1 - mb)).sum::<f64>() / n as f64;
        assert!((mw - m.mean_omega()).abs() < 0.1);
        assert!((mb - m.mean_beta()).abs() < 0.01);
        assert!(
            (cov - m.covariance()).abs() < 0.05,
            "mc={cov}, exact={}",
            m.covariance()
        );
    }

    #[test]
    fn beta_table_reproduces_the_gamma_density_bitwise() {
        let heavy = Gamma::new(10.0 + 38.0, 1e6 + 4.1e6).unwrap();
        let m = GammaProductMixture::new(vec![
            MixtureComponent {
                weight: 1.0,
                omega: Gamma::new(48.0, 1.2).unwrap(),
                beta: heavy,
            },
            MixtureComponent {
                weight: 1e-14,
                omega: Gamma::new(49.0, 1.2).unwrap(),
                beta: Gamma::new(49.0, 5.2e6).unwrap(),
            },
        ])
        .unwrap();
        let table = m.beta_table();
        assert_eq!(table.len(), 1, "the light component is left out");
        let row = &table[0];
        assert_eq!(row.omega, m.components()[0].omega);
        assert_eq!(row.lo, heavy.quantile(1e-10));
        assert_eq!(row.hi, heavy.quantile(1.0 - 1e-10));
        for (b, _) in GaussLegendre::new(96).scaled(row.lo, row.hi) {
            assert_eq!(row.density(b).to_bits(), heavy.pdf(b).to_bits(), "b={b}");
        }
        let rule = GaussLegendre::new(64);
        let mass = row.expectation(&rule, |_| 1.0);
        assert!((mass - 1.0).abs() < 1e-9, "mass={mass}");
    }

    #[test]
    fn equality_and_debug_ignore_the_beta_table() {
        let m = GammaProductMixture::new(vec![MixtureComponent {
            weight: 1.0,
            omega: Gamma::new(5.0, 1.0).unwrap(),
            beta: Gamma::new(2.0, 3.0).unwrap(),
        }])
        .unwrap();
        let queried = m.clone();
        assert_eq!(queried.beta_table().len(), 1);
        assert_eq!(queried, m);
        assert_eq!(format!("{queried:?}"), format!("{m:?}"));
        assert!(format!("{m:?}").starts_with("GammaProductMixture { components: ["));
    }

    #[test]
    fn cell_table_integrates_against_the_mixture() {
        let m = GammaProductMixture::new(vec![
            MixtureComponent {
                weight: 0.4,
                omega: Gamma::new(48.0, 1.2).unwrap(),
                beta: Gamma::new(48.0, 5.1e6).unwrap(),
            },
            MixtureComponent {
                weight: 0.6,
                omega: Gamma::new(49.0, 1.2).unwrap(),
                beta: Gamma::new(49.0, 5.2e6).unwrap(),
            },
            MixtureComponent {
                weight: 1e-14,
                omega: Gamma::new(50.0, 1.2).unwrap(),
                beta: Gamma::new(50.0, 5.3e6).unwrap(),
            },
        ])
        .unwrap();
        let cells = m.cell_table();
        assert_eq!(cells.rows.len(), m.beta_table().len());
        assert_eq!(cells.rows.len(), 2, "the light component is left out");
        assert_eq!(cells.cells.len(), 2 * CELL_NODES);
        let bytes_per_cell =
            (std::mem::size_of::<CellRow>() + CELL_NODES * std::mem::size_of::<f64>()) / CELL_NODES;
        assert!(bytes_per_cell <= 16, "{bytes_per_cell} B per cell");
        let mass = cells.expectation(|_, _| 1.0);
        assert!((mass - 1.0).abs() < 1e-9, "mass={mass}");
        let mean_beta = cells.expectation(|_, b| b);
        assert!((mean_beta / m.mean_beta() - 1.0).abs() < 1e-9);
        let mean_omega = cells.expectation(|omega, _| omega.mean());
        assert!((mean_omega / m.mean_omega() - 1.0).abs() < 1e-9);
        // `cells` lists the terms `expectation` sums, in its order.
        let mut summed = Vec::new();
        cells.expectation(|omega, b| {
            summed.push((*omega, b));
            0.0
        });
        let listed: Vec<(Gamma, f64)> = cells.cells().map(|(_, omega, b)| (*omega, b)).collect();
        assert_eq!(listed, summed);
        let listed_mass: f64 = cells.cells().map(|(w, _, _)| w).sum();
        assert!((listed_mass - mass).abs() < 1e-15);
        // The table is a cache: equality and `Debug` ignore it, and a
        // clone carries it.
        let fresh = GammaProductMixture::new(m.components().to_vec()).unwrap();
        assert_eq!(fresh, m);
        assert_eq!(format!("{fresh:?}"), format!("{m:?}"));
        assert_eq!(m.clone().cell_table(), cells);
    }

    #[test]
    fn ln_pdf_is_log_of_weighted_density() {
        let g1 = Gamma::new(2.0, 1.0).unwrap();
        let g2 = Gamma::new(5.0, 1.0).unwrap();
        let m = GammaMixture::new(vec![(0.5, g1), (0.5, g2)]).unwrap();
        let x = 2.3;
        let expected = (0.5 * g1.pdf(x) + 0.5 * g2.pdf(x)).ln();
        assert!((m.ln_pdf(x) - expected).abs() < 1e-12);
    }
}
