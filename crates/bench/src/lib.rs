//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each table binary in `src/bin/` reproduces one table or figure of the
//! DSN 2007 paper on the System 17 surrogate dataset, including the
//! timing experiments (Tables 6–7). `bench_report` times the kernels
//! (VB2 sweeps and the solver ablation, NINT, the posterior functionals,
//! the registry) into a `BENCH_*.json` record, and `bench_serve` load-tests
//! the service. This library holds the experiment definitions shared by
//! all of them.

// `!(x > 0.0)`-style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly the validation the
// numerical code needs.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub use nhpp_data::json;
pub mod perf;
pub mod reports;

use nhpp_bayes::laplace::LaplacePosterior;
use nhpp_bayes::mcmc::{McmcOptions, McmcPosterior};
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_data::{sys17, ObservedData};
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_vb::{Truncation, Vb1Options, Vb1Posterior, Vb2Options, Vb2Posterior};

/// One experimental scenario of the paper's §6: a dataset × prior pair.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Paper-style label (`"DT-Info"`, …).
    pub name: &'static str,
    /// The observed data.
    pub data: ObservedData,
    /// The prior for this scenario.
    pub prior: NhppPrior,
    /// Mission lengths `u` probed by the reliability tables.
    pub missions: [f64; 2],
}

impl Scenario {
    /// `D_T`-Info: failure times with the paper's informative prior.
    pub fn dt_info() -> Self {
        Scenario {
            name: "DT-Info",
            data: sys17::failure_times().into(),
            prior: NhppPrior::paper_info_times(),
            missions: [1_000.0, 10_000.0],
        }
    }

    /// `D_T`-NoInfo: failure times with flat priors.
    pub fn dt_noinfo() -> Self {
        Scenario {
            name: "DT-NoInfo",
            data: sys17::failure_times().into(),
            prior: NhppPrior::flat(),
            missions: [1_000.0, 10_000.0],
        }
    }

    /// `D_G`-Info: grouped (per-working-day) data, informative prior.
    pub fn dg_info() -> Self {
        Scenario {
            name: "DG-Info",
            data: sys17::grouped().into(),
            prior: NhppPrior::paper_info_grouped(),
            missions: [1.0, 5.0],
        }
    }

    /// `D_G`-NoInfo: grouped data with flat priors (the ill-posed case).
    pub fn dg_noinfo() -> Self {
        Scenario {
            name: "DG-NoInfo",
            data: sys17::grouped().into(),
            prior: NhppPrior::flat(),
            missions: [1.0, 5.0],
        }
    }

    /// All four scenarios in the paper's Table 1 order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Self::dt_info(),
            Self::dg_info(),
            Self::dt_noinfo(),
            Self::dg_noinfo(),
        ]
    }

    /// The Info scenarios (used by Tables 4–7, per the paper's §6 note
    /// that NoInfo results are unreliable).
    pub fn info_only() -> Vec<Scenario> {
        vec![Self::dt_info(), Self::dg_info()]
    }

    /// The VB2 options for this scenario: the truncation its prior calls
    /// for ([`Truncation::for_prior`]). Under a flat prior the truncation
    /// point is a genuine modelling choice; the 5·m cap keeps the VB2
    /// view of the improper posterior comparable to the box-truncated
    /// NINT view (see `EXPERIMENTS.md` for the cap-sensitivity sweep).
    pub fn vb2_options(&self) -> Vb2Options {
        Vb2Options {
            truncation: Truncation::for_prior(&self.prior, self.data.total_count() as u64),
            ..Vb2Options::default()
        }
    }
}

/// All five fitted methods for one scenario.
pub struct MethodSet {
    /// Numerical integration (the accuracy reference).
    pub nint: NintPosterior,
    /// Laplace approximation.
    pub lapl: LaplacePosterior,
    /// Gibbs-sampling MCMC.
    pub mcmc: McmcPosterior,
    /// Fully factorised variational Bayes.
    pub vb1: Vb1Posterior,
    /// The paper's structured variational Bayes.
    pub vb2: Vb2Posterior,
}

impl MethodSet {
    /// Fits all five methods exactly as §6 prescribes: VB2 first, NINT's
    /// integration box from VB2's marginal quantiles, MCMC with the
    /// paper's sampling settings.
    ///
    /// # Panics
    ///
    /// Panics if any fit fails — the scenarios are fixed and known-good,
    /// so a failure indicates a bug worth crashing a bench run over.
    pub fn fit(scenario: &Scenario) -> Self {
        let spec = ModelSpec::goel_okumoto();
        let vb2 = Vb2Posterior::fit(spec, scenario.prior, &scenario.data, scenario.vb2_options())
            .expect("VB2 fit");
        let vb1 = Vb1Posterior::fit(spec, scenario.prior, &scenario.data, Vb1Options::default())
            .expect("VB1 fit");
        let lapl =
            LaplacePosterior::fit(spec, scenario.prior, &scenario.data).expect("Laplace fit");
        let nint = NintPosterior::fit(
            spec,
            scenario.prior,
            &scenario.data,
            bounds_from_posterior(&vb2),
            NintOptions::default(),
        )
        .expect("NINT fit");
        let mcmc =
            McmcPosterior::fit_gibbs(spec, scenario.prior, &scenario.data, McmcOptions::default())
                .expect("MCMC fit");
        MethodSet {
            nint,
            lapl,
            mcmc,
            vb1,
            vb2,
        }
    }

    /// The methods as trait objects in the paper's row order.
    pub fn in_paper_order(&self) -> [(&'static str, &dyn Posterior); 5] {
        [
            ("NINT", &self.nint),
            ("LAPL", &self.lapl),
            ("MCMC", &self.mcmc),
            ("VB1", &self.vb1),
            ("VB2", &self.vb2),
        ]
    }
}

/// Formats a value in the paper's mixed decimal/scientific style.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let a = x.abs();
    if (1e-2..1e4).contains(&a) {
        format!("{x:.4}")
    } else {
        format!("{x:.4e}")
    }
}

/// Formats a relative deviation as a percentage, the paper's comparison
/// style (`-2.6%`).
pub fn fmt_pct(x: f64) -> String {
    if x.is_infinite() {
        return if x > 0.0 {
            "+inf%".into()
        } else {
            "-inf%".into()
        };
    }
    format!("{:+.1}%", 100.0 * x)
}

/// Marks an estimate that violates its natural domain the way the paper
/// does (angle brackets, e.g. `<1.0024>` or a negative lower bound).
pub fn fmt_bounded(x: f64, lo: f64, hi: f64) -> String {
    if x < lo || x > hi {
        format!("<{}>", fmt(x))
    } else {
        fmt(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_well_formed() {
        let all = Scenario::all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].name, "DT-Info");
        assert!(all[2..].iter().all(|s| s.prior == NhppPrior::flat()));
        assert_eq!(Scenario::info_only().len(), 2);
    }

    #[test]
    fn formatting_styles() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(41.78), "41.7800");
        assert!(fmt(1.11e-5).contains('e'));
        assert_eq!(fmt_pct(-0.026), "-2.6%");
        assert_eq!(fmt_bounded(1.0024, 0.0, 1.0), "<1.0024>");
        assert_eq!(fmt_bounded(0.98, 0.0, 1.0), "0.9800");
    }

    #[test]
    fn method_set_fits_dt_info() {
        let set = MethodSet::fit(&Scenario::dt_info());
        let rows = set.in_paper_order();
        assert_eq!(rows[0].0, "NINT");
        for (name, p) in rows {
            assert!(p.mean_omega() > 0.0, "{name}");
        }
    }
}
