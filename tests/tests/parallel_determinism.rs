//! Parallel-vs-serial bitwise identity of the VB2 work pool.
//!
//! The design guarantee (DESIGN.md §9) is that `Vb2Options::threads`
//! changes only wall-clock cost, never a single bit of the posterior:
//! the component sweep is partitioned into fixed-width chunks whose
//! boundaries depend only on the candidate range, each chunk head is
//! re-seeded by the same deterministic coarse Newton solve regardless
//! of which worker picks it up, and results are folded in chunk order.
//! These tests pin that guarantee on randomly simulated datasets.
//!
//! CI runs the whole suite under `NHPP_TEST_THREADS=1` and `=4`; when
//! the variable is set, its value joins the compared thread counts so
//! the matrix actually exercises distinct pool widths.

use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_bench::Scenario;
use nhpp_conformance::golden;
use nhpp_data::simulate::NhppSimulator;
use nhpp_data::ObservedData;
use nhpp_models::prior::NhppPrior;
use nhpp_models::{ModelSpec, Posterior};
use nhpp_vb::{
    fit_many_supervised, RobustOptions, RobustPosterior, RobustTask, SimdPolicy, SolverKind,
    Truncation, Vb2Options, Vb2Posterior, Vb2Task, WIDE_LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts whose fits must agree bitwise: serial, a small pool, an
/// oversubscribed pool, plus whatever the CI matrix pins via
/// `NHPP_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Some(n) = std::env::var("NHPP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Every float the posterior exposes, as raw bits — exact comparison,
/// no tolerances.
fn fingerprint(post: &Vb2Posterior) -> Vec<u64> {
    let mut bits = vec![
        post.elbo().to_bits(),
        post.mean_omega().to_bits(),
        post.var_omega().to_bits(),
        post.mean_beta().to_bits(),
        post.var_beta().to_bits(),
        post.covariance().to_bits(),
    ];
    for &(n, w) in post.pv_n() {
        bits.push(n);
        bits.push(w.to_bits());
    }
    bits
}

/// A random censored failure trace simulated from known parameters.
fn simulated_times(seed: u64, omega: f64, beta: f64) -> ObservedData {
    let spec = ModelSpec::goel_okumoto();
    let law = spec.failure_law(beta).expect("valid beta");
    let sim = NhppSimulator::new(omega, law).expect("valid omega");
    let mut rng = StdRng::seed_from_u64(seed);
    sim.simulate_censored(&mut rng, 2e5)
        .expect("simulation")
        .into()
}

/// A random grouped trace over unit-width bins.
fn simulated_grouped(seed: u64, omega: f64, beta: f64, bins: usize) -> ObservedData {
    let spec = ModelSpec::goel_okumoto();
    let law = spec.failure_law(beta).expect("valid beta");
    let sim = NhppSimulator::new(omega, law).expect("valid omega");
    let mut rng = StdRng::seed_from_u64(seed);
    let width = 2e5 / bins as f64;
    let boundaries = (1..=bins).map(|i| i as f64 * width).collect();
    sim.simulate_grouped(&mut rng, boundaries)
        .expect("simulation")
        .into()
}

fn solver_options(solver: SolverKind, threads: usize) -> Vb2Options {
    Vb2Options {
        solver,
        truncation: Truncation::AdaptiveCapped {
            epsilon: 5e-15,
            cap: 20_000,
        },
        threads,
        ..Vb2Options::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Failure-time fits are bitwise identical across thread counts for
    /// both the closed-form (Auto) and iterative inner solvers.
    #[test]
    fn parallel_times_fit_is_bitwise_deterministic(
        seed in 0u64..1000,
        omega in 20.0f64..60.0,
        beta in 5e-6f64..2e-5,
    ) {
        let data = simulated_times(seed, omega, beta);
        prop_assume!(data.total_count() >= 3);
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_times();
        for solver in [SolverKind::Auto, SolverKind::SuccessiveSubstitution] {
            let serial = Vb2Posterior::fit(spec, prior, &data, solver_options(solver, 1)).unwrap();
            let reference = fingerprint(&serial);
            for threads in thread_counts() {
                let fit =
                    Vb2Posterior::fit(spec, prior, &data, solver_options(solver, threads)).unwrap();
                prop_assert!(
                    fingerprint(&fit) == reference,
                    "solver {:?} diverged at threads={}",
                    solver,
                    threads
                );
            }
        }
    }

    /// Grouped-data fits (the always-iterative path) are bitwise
    /// identical across thread counts.
    #[test]
    fn parallel_grouped_fit_is_bitwise_deterministic(
        seed in 0u64..1000,
        omega in 20.0f64..60.0,
        beta in 5e-6f64..2e-5,
        bins in 5usize..15,
    ) {
        let data = simulated_grouped(seed, omega, beta, bins);
        prop_assume!(data.total_count() >= 3);
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_grouped();
        let serial = Vb2Posterior::fit(
            spec, prior, &data, solver_options(SolverKind::Auto, 1),
        ).unwrap();
        let reference = fingerprint(&serial);
        for threads in thread_counts() {
            let fit = Vb2Posterior::fit(
                spec, prior, &data, solver_options(SolverKind::Auto, threads),
            ).unwrap();
            prop_assert!(fingerprint(&fit) == reference, "diverged at threads={}", threads);
        }
    }

    /// The batch APIs preserve per-task results exactly: `fit_many` and
    /// `fit_many_supervised` at any pool width match fitting each task
    /// alone, bit for bit.
    #[test]
    fn batch_fits_match_individual_fits_bitwise(
        seeds in proptest::collection::vec(0u64..1000, 3..6),
    ) {
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_times();
        let datasets: Vec<ObservedData> = seeds
            .iter()
            .map(|&s| simulated_times(s, 40.0, 1e-5))
            .collect();
        prop_assume!(datasets.iter().all(|d| d.total_count() >= 3));
        let options = solver_options(SolverKind::Auto, 1);
        let reference: Vec<Vec<u64>> = datasets
            .iter()
            .map(|data| fingerprint(&Vb2Posterior::fit(spec, prior, data, options).unwrap()))
            .collect();

        for threads in thread_counts() {
            let tasks: Vec<Vb2Task<'_>> = datasets
                .iter()
                .map(|data| Vb2Task { spec, prior, data, options })
                .collect();
            let fits = Vb2Posterior::fit_many(&tasks, threads);
            let got: Vec<Vec<u64>> =
                fits.iter().map(|f| fingerprint(f.as_ref().unwrap())).collect();
            prop_assert!(got == reference, "fit_many diverged at threads={}", threads);

            let robust_tasks: Vec<RobustTask<'_>> = datasets
                .iter()
                .map(|data| RobustTask {
                    spec,
                    prior,
                    data,
                    options: RobustOptions { base: options, ..RobustOptions::default() },
                })
                .collect();
            let fits = fit_many_supervised(&robust_tasks, threads);
            let got: Vec<Vec<u64>> = fits
                .iter()
                .map(|f| match &f.as_ref().unwrap().posterior {
                    RobustPosterior::Vb2(p) => fingerprint(p),
                    other => panic!("cascade degraded to {:?} on a known-good fit", other),
                })
                .collect();
            prop_assert!(
                got == reference,
                "fit_many_supervised diverged at threads={}",
                threads
            );
        }
    }
}

// ---------------------------------------------------------------------
// Warm-started refits (the `nhpp-serve` scheduler path): a fit of data
// version v+k seeded by version v's ξ table. The guarantee mirrors the
// cold-fit one — the warm table and the thread count may change cost,
// never correctness: warm fits are bitwise identical across pool
// widths, the closed-form path is bitwise identical to cold, and the
// iterative path lands on the cold optimum within solver tolerance in
// no more inner iterations.
// ---------------------------------------------------------------------

/// A simulated trace split `drop_last` events before its end: the
/// prefix is "data version v" (censored at its own last failure), the
/// full trace is "version v+k" — the streaming shape the service
/// scheduler sees. Per-`N` fixed points shift with the data, so the
/// solver races each stale table entry against the in-chunk chain by
/// fixed-point residual and seeds from whichever is closer; that is
/// what makes the iteration-count assertions below hold even though
/// the table was converged on different data.
fn split_times(seed: u64, drop_last: usize) -> Option<(ObservedData, ObservedData)> {
    let ObservedData::Times(full) = simulated_times(seed, 40.0, 1e-5) else {
        unreachable!("simulated_times builds a Times dataset");
    };
    let times = full.times();
    if times.len() < drop_last + 5 {
        return None;
    }
    let keep = times.len() - drop_last;
    let prefix = nhpp_data::FailureTimeData::new(times[..keep].to_vec(), times[keep - 1])
        .expect("prefix of a valid trace is valid");
    Some((prefix.into(), full.into()))
}

#[test]
fn warm_refit_closed_form_is_bitwise_cold_across_threads() {
    // GO + failure times solves each component in closed form, so the
    // warm table cannot steer the answer: a warm refit on v+k must be
    // bitwise identical to the cold fit at every pool width.
    let (prefix, full) = split_times(7, 2).expect("seed 7 yields enough events");
    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_times();
    let warm = Vb2Posterior::fit(spec, prior, &prefix, solver_options(SolverKind::Auto, 1))
        .unwrap()
        .warm_start();
    let cold = Vb2Posterior::fit(spec, prior, &full, solver_options(SolverKind::Auto, 1)).unwrap();
    let reference = fingerprint(&cold);
    for threads in thread_counts() {
        let refit = Vb2Posterior::fit_warm(
            spec,
            prior,
            &full,
            solver_options(SolverKind::Auto, threads),
            Some(&warm),
        )
        .unwrap();
        assert!(
            fingerprint(&refit) == reference,
            "warm refit diverged from cold at threads={threads}"
        );
    }
}

#[test]
fn warm_refit_iterative_is_deterministic_and_converges_to_cold() {
    // The successive-substitution path genuinely uses the seed, so
    // warm == cold only to solver tolerance — but the warm fit itself
    // is bitwise identical across thread counts, and never needs more
    // inner iterations than the cold fit.
    let (prefix, full) = split_times(11, 2).expect("seed 11 yields enough events");
    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_times();
    let options = |threads| solver_options(SolverKind::SuccessiveSubstitution, threads);
    let warm = Vb2Posterior::fit(spec, prior, &prefix, options(1))
        .unwrap()
        .warm_start();
    let cold = Vb2Posterior::fit(spec, prior, &full, options(1)).unwrap();

    let serial = Vb2Posterior::fit_warm(spec, prior, &full, options(1), Some(&warm)).unwrap();
    let reference = fingerprint(&serial);
    for threads in thread_counts() {
        let refit =
            Vb2Posterior::fit_warm(spec, prior, &full, options(threads), Some(&warm)).unwrap();
        assert!(
            fingerprint(&refit) == reference,
            "warm refit not thread-deterministic at threads={threads}"
        );
    }
    assert!(
        (serial.mean_omega() - cold.mean_omega()).abs() < 1e-9 * cold.mean_omega(),
        "warm ω {} vs cold {}",
        serial.mean_omega(),
        cold.mean_omega()
    );
    assert!((serial.mean_beta() - cold.mean_beta()).abs() < 1e-9 * cold.mean_beta());
    assert!((serial.elbo() - cold.elbo()).abs() < 1e-8);
    assert!(
        serial.inner_iterations() <= cold.inner_iterations(),
        "warm start cost more iterations ({} > {})",
        serial.inner_iterations(),
        cold.inner_iterations()
    );
}

#[test]
fn warm_refit_grouped_is_deterministic_and_cheaper() {
    // Grouped data always iterates. Version v = all but the last bin,
    // v+k = all bins: the streaming shape a service project sees when
    // daily counts arrive.
    let ObservedData::Grouped(full) = simulated_grouped(3, 40.0, 1e-5, 12) else {
        unreachable!("simulated_grouped builds a Grouped dataset");
    };
    let cut = full.len() - 1;
    let prefix = nhpp_data::GroupedData::new(
        full.boundaries()[..cut].to_vec(),
        full.counts()[..cut].to_vec(),
    )
    .expect("prefix of a valid grouping is valid");
    let (prefix, full): (ObservedData, ObservedData) = (prefix.into(), full.into());
    assert!(prefix.total_count() >= 3, "simulated counts too sparse");

    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_grouped();
    let options = |threads| solver_options(SolverKind::Auto, threads);
    let warm = Vb2Posterior::fit(spec, prior, &prefix, options(1))
        .unwrap()
        .warm_start();
    let cold = Vb2Posterior::fit(spec, prior, &full, options(1)).unwrap();

    let serial = Vb2Posterior::fit_warm(spec, prior, &full, options(1), Some(&warm)).unwrap();
    let reference = fingerprint(&serial);
    for threads in thread_counts() {
        let refit =
            Vb2Posterior::fit_warm(spec, prior, &full, options(threads), Some(&warm)).unwrap();
        assert!(
            fingerprint(&refit) == reference,
            "grouped warm refit not thread-deterministic at threads={threads}"
        );
    }
    assert!((serial.mean_omega() - cold.mean_omega()).abs() < 1e-9 * cold.mean_omega());
    assert!((serial.mean_beta() - cold.mean_beta()).abs() < 1e-9 * cold.mean_beta());
    assert!((serial.elbo() - cold.elbo()).abs() < 1e-8);
    assert!(
        serial.inner_iterations() < cold.inner_iterations(),
        "warm start did not cut iterations ({} vs {})",
        serial.inner_iterations(),
        cold.inner_iterations()
    );
}

// ---------------------------------------------------------------------
// Lane-width determinism (DESIGN.md §14): the SIMD dispatch of the VB2
// N-sweep is a third axis next to thread count and warm start. The
// contract has two halves: within a dispatch, thread count never
// changes a bit; across dispatches, scalar and wide agree as numeric
// oracles, and the lane width a fit actually used is pinned into the
// posterior so forcing it reproduces the run bitwise on any machine.
// ---------------------------------------------------------------------

/// Iterative-solver options with an explicit lane policy; successive
/// substitution is the solver whose sweep the wide kernels batch.
fn lane_options(policy: SimdPolicy, threads: usize) -> Vb2Options {
    Vb2Options {
        lanes: policy,
        ..solver_options(SolverKind::SuccessiveSubstitution, threads)
    }
}

/// The PR-8 lane-gate fixtures: every data/model shape the widened
/// `wide_sweep_eligible` accepts — failure times at `α₀ = 1`
/// (Goel–Okumoto), grouped counts at `α₀ = 1`, and failure times at
/// integer `α₀ = 2` (delayed S-shaped).
fn lane_gate_fixtures() -> Vec<(&'static str, ModelSpec, NhppPrior, ObservedData)> {
    vec![
        (
            "times-exp",
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_times(),
            simulated_times(23, 40.0, 1e-5),
        ),
        (
            "grouped-exp",
            ModelSpec::goel_okumoto(),
            NhppPrior::paper_info_grouped(),
            simulated_grouped(23, 40.0, 1e-5, 12),
        ),
        (
            "times-dss",
            ModelSpec::delayed_s_shaped(),
            NhppPrior::paper_info_times(),
            simulated_times(23, 40.0, 1e-5),
        ),
    ]
}

#[test]
fn forced_dispatch_fits_are_thread_invariant_and_pin_their_width() {
    for (label, spec, prior, data) in lane_gate_fixtures() {
        assert!(data.total_count() >= 3, "{label}: too few events");
        let mut by_policy = Vec::new();
        for (policy, width) in [
            (SimdPolicy::ForceScalar, 1),
            (SimdPolicy::ForceWide, WIDE_LANES),
        ] {
            let serial = Vb2Posterior::fit(spec, prior, &data, lane_options(policy, 1)).unwrap();
            assert_eq!(
                serial.lane_width(),
                width,
                "{label}: {policy:?} pinned wrong width"
            );
            let reference = fingerprint(&serial);
            for threads in thread_counts() {
                let fit =
                    Vb2Posterior::fit(spec, prior, &data, lane_options(policy, threads)).unwrap();
                assert_eq!(fit.lane_width(), width);
                assert!(
                    fingerprint(&fit) == reference,
                    "{label}: {policy:?} diverged at threads={threads}"
                );
            }
            by_policy.push(serial);
        }
        // Across dispatches the sweeps agree as oracles, not bitwise:
        // the wide path reassociates the mixture reductions and takes
        // closed-form lane maps for ζ.
        let scalar = &by_policy[0];
        for wide in &by_policy[1..] {
            assert!(
                (scalar.mean_omega() - wide.mean_omega()).abs() <= 1e-8 * scalar.mean_omega(),
                "{label} ω: scalar {} vs wide {}",
                scalar.mean_omega(),
                wide.mean_omega()
            );
            assert!(
                (scalar.mean_beta() - wide.mean_beta()).abs() <= 1e-8 * scalar.mean_beta(),
                "{label} β"
            );
            assert!(
                (scalar.elbo() - wide.elbo()).abs() <= 1e-6 * scalar.elbo().abs(),
                "{label} elbo"
            );
        }
    }
}

#[test]
fn recorded_lane_width_reproduces_the_run_bitwise() {
    // The reproducibility half of the contract: whatever `Auto`
    // resolved to in this environment (the CI matrix flips it with
    // `NHPP_SIMD`), the width recorded in the posterior — forced
    // explicitly, as a second machine replaying a logged fit would —
    // reproduces the posterior bit for bit at every pool width.
    let data = simulated_times(41, 40.0, 1e-5);
    assert!(data.total_count() >= 3, "seed 41 yields enough events");
    let spec = ModelSpec::goel_okumoto();
    let prior = NhppPrior::paper_info_times();
    let auto = Vb2Posterior::fit(spec, prior, &data, lane_options(SimdPolicy::Auto, 2)).unwrap();
    let forced = match auto.lane_width() {
        1 => SimdPolicy::ForceScalar,
        WIDE_LANES => SimdPolicy::ForceWide,
        w => panic!("unknown recorded lane width {w}"),
    };
    let reference = fingerprint(&auto);
    for threads in thread_counts() {
        let replay = Vb2Posterior::fit(spec, prior, &data, lane_options(forced, threads)).unwrap();
        assert_eq!(replay.lane_width(), auto.lane_width());
        assert!(
            fingerprint(&replay) == reference,
            "forced-width replay diverged at threads={threads}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lane seams of the grouped ΔG kernel: each chunk's N-range splits
    /// into whole lane blocks plus a scalar ragged tail, and that split
    /// is chunk-local — so for every forced dispatch the fit is bitwise
    /// invariant in the thread count, on random bin layouts whose
    /// truncation range deliberately straddles block boundaries. Across
    /// dispatches (different seam placement, different ζ evaluation
    /// order) the sweeps agree as numeric oracles.
    #[test]
    fn grouped_lane_seams_are_bitwise_thread_invariant(
        seed in 0u64..1000,
        omega in 20.0f64..60.0,
        beta in 5e-6f64..2e-5,
        bins in 5usize..15,
    ) {
        let data = simulated_grouped(seed, omega, beta, bins);
        prop_assume!(data.total_count() >= 3);
        let spec = ModelSpec::goel_okumoto();
        let prior = NhppPrior::paper_info_grouped();
        let mut by_policy = Vec::new();
        for (policy, width) in [
            (SimdPolicy::ForceScalar, 1),
            (SimdPolicy::ForceWide, WIDE_LANES),
        ] {
            let serial =
                Vb2Posterior::fit(spec, prior, &data, lane_options(policy, 1)).unwrap();
            prop_assert_eq!(serial.lane_width(), width);
            let reference = fingerprint(&serial);
            for threads in thread_counts() {
                let fit =
                    Vb2Posterior::fit(spec, prior, &data, lane_options(policy, threads))
                        .unwrap();
                prop_assert!(
                    fingerprint(&fit) == reference,
                    "{:?} diverged at threads={}",
                    policy,
                    threads
                );
            }
            by_policy.push(serial);
        }
        let scalar = &by_policy[0];
        for wide in &by_policy[1..] {
            prop_assert!(
                (scalar.mean_omega() - wide.mean_omega()).abs()
                    <= 1e-8 * scalar.mean_omega()
            );
            prop_assert!((scalar.elbo() - wide.elbo()).abs() <= 1e-6 * scalar.elbo().abs());
        }
    }

    /// The α₀ ≠ 1 lane map (delayed S-shaped failure times) under the
    /// same seam property: bitwise thread invariance per dispatch,
    /// oracle agreement across dispatches.
    #[test]
    fn dss_lane_seams_are_bitwise_thread_invariant(
        seed in 0u64..1000,
        omega in 20.0f64..60.0,
        beta in 5e-6f64..2e-5,
    ) {
        let data = simulated_times(seed, omega, beta);
        prop_assume!(data.total_count() >= 3);
        let spec = ModelSpec::delayed_s_shaped();
        let prior = NhppPrior::paper_info_times();
        let mut by_policy = Vec::new();
        for (policy, width) in [
            (SimdPolicy::ForceScalar, 1),
            (SimdPolicy::ForceWide, WIDE_LANES),
        ] {
            let serial =
                Vb2Posterior::fit(spec, prior, &data, lane_options(policy, 1)).unwrap();
            prop_assert_eq!(serial.lane_width(), width);
            let reference = fingerprint(&serial);
            for threads in thread_counts() {
                let fit =
                    Vb2Posterior::fit(spec, prior, &data, lane_options(policy, threads))
                        .unwrap();
                prop_assert!(
                    fingerprint(&fit) == reference,
                    "{:?} diverged at threads={}",
                    policy,
                    threads
                );
            }
            by_policy.push(serial);
        }
        let scalar = &by_policy[0];
        for wide in &by_policy[1..] {
            prop_assert!(
                (scalar.mean_omega() - wide.mean_omega()).abs()
                    <= 1e-8 * scalar.mean_omega()
            );
            prop_assert!((scalar.elbo() - wide.elbo()).abs() <= 1e-6 * scalar.elbo().abs());
        }
    }
}

/// The golden quantities `push_method_entries` derives, recomputed for
/// one posterior: Tables 1–5 moments/intervals plus Tables 6–7
/// reliability at the scenario's missions.
fn golden_quantities(scenario: &Scenario, posterior: &dyn Posterior) -> Vec<(String, f64)> {
    let mut out = vec![
        ("mean_omega".to_string(), posterior.mean_omega()),
        ("sd_omega".to_string(), posterior.var_omega().sqrt()),
        ("mean_beta".to_string(), posterior.mean_beta()),
        ("sd_beta".to_string(), posterior.var_beta().sqrt()),
    ];
    let (lo, hi) = posterior.credible_interval_omega(0.99);
    out.push(("ci99_omega_lo".to_string(), lo));
    out.push(("ci99_omega_hi".to_string(), hi));
    let (lo, hi) = posterior.credible_interval_beta(0.99);
    out.push(("ci99_beta_lo".to_string(), lo));
    out.push(("ci99_beta_hi".to_string(), hi));
    let t = scenario.data.observation_end();
    for &u in &scenario.missions {
        let (rlo, rhi) = posterior.reliability_interval(t, u, 0.99);
        out.push((format!("rel_point_u{u}"), posterior.reliability_point(t, u)));
        out.push((format!("rel_lo_u{u}"), rlo));
        out.push((format!("rel_hi_u{u}"), rhi));
    }
    out
}

#[test]
fn golden_smoke_holds_under_all_forced_dispatches() {
    // The checked-in golden fixture is dispatch-neutral: the
    // forced-scalar and forced-4-lane sweeps both land every pinned
    // `DT-Info` VB2 and NINT quantity inside its tolerance band, so a
    // machine that falls back to scalar still reproduces the paper.
    let fixture = golden::parse(include_str!("../golden/smoke.txt")).expect("fixture parses");
    let scenario = Scenario::dt_info();
    let spec = ModelSpec::goel_okumoto();
    for policy in [SimdPolicy::ForceScalar, SimdPolicy::ForceWide] {
        let vb2 = Vb2Posterior::fit(
            spec,
            scenario.prior,
            &scenario.data,
            Vb2Options {
                solver: SolverKind::SuccessiveSubstitution,
                lanes: policy,
                ..scenario.vb2_options()
            },
        )
        .unwrap();
        let nint = NintPosterior::fit(
            spec,
            scenario.prior,
            &scenario.data,
            bounds_from_posterior(&vb2),
            NintOptions::default(),
        )
        .unwrap();
        for (label, posterior) in [
            ("VB2", &vb2 as &dyn Posterior),
            ("NINT", &nint as &dyn Posterior),
        ] {
            let derived = golden_quantities(&scenario, posterior);
            let prefix = format!("{}/{label}/", scenario.name);
            let mut compared = 0usize;
            for entry in fixture.iter().filter(|e| e.key.starts_with(&prefix)) {
                let quantity = &entry.key[prefix.len()..];
                let (_, value) = derived
                    .iter()
                    .find(|(k, _)| k == quantity)
                    .unwrap_or_else(|| panic!("no derived value for {}", entry.key));
                let rel_err =
                    (value - entry.value).abs() / entry.value.abs().max(f64::MIN_POSITIVE);
                assert!(
                    rel_err <= entry.rel_tol,
                    "{policy:?} {}: {value} vs golden {} (rel {rel_err:.2e} > {:e})",
                    entry.key,
                    entry.value,
                    entry.rel_tol
                );
                compared += 1;
            }
            assert!(compared >= 14, "only {compared} {label} entries compared");
        }
    }
}
