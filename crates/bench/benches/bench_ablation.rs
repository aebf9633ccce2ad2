//! Ablation benches for the design choices called out in `DESIGN.md` §7:
//!
//! * inner fixed-point solver — successive substitution (the paper's
//!   choice) vs. Newton (the paper's conjectured speedup) vs. the
//!   Goel–Okumoto closed form;
//! * adaptive vs. fixed truncation of the `N`-mixture;
//! * NINT grid resolution (accuracy/cost knob of the reference method).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nhpp_bayes::nint::{bounds_from_posterior, NintOptions, NintPosterior};
use nhpp_bench::Scenario;
use nhpp_models::ModelSpec;
use nhpp_vb::{SolverKind, Truncation, Vb2Options, Vb2Posterior};
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let spec = ModelSpec::goel_okumoto();
    // Grouped data exercises the genuine fixed-point iteration (no
    // closed form); times data exposes the closed-form advantage.
    for scenario in Scenario::info_only() {
        let mut group = c.benchmark_group(format!("ablation-solver/{}", scenario.name));
        group.sample_size(10);
        for (label, solver) in [
            ("auto", SolverKind::Auto),
            ("substitution", SolverKind::SuccessiveSubstitution),
            ("newton", SolverKind::Newton),
        ] {
            let options = Vb2Options {
                solver,
                truncation: Truncation::Fixed { n_max: 500 },
                ..Vb2Options::default()
            };
            group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
                b.iter(|| {
                    black_box(
                        Vb2Posterior::fit(spec, scenario.prior, &scenario.data, options).unwrap(),
                    )
                })
            });
        }
        group.finish();
    }
}

fn bench_truncation(c: &mut Criterion) {
    let spec = ModelSpec::goel_okumoto();
    let scenario = Scenario::dt_info();
    let mut group = c.benchmark_group("ablation-truncation/DT-Info");
    group.sample_size(10);
    for (label, truncation) in [
        ("adaptive-5e15", Truncation::Adaptive { epsilon: 5e-15 }),
        ("adaptive-1e8", Truncation::Adaptive { epsilon: 1e-8 }),
        ("fixed-1000", Truncation::Fixed { n_max: 1000 }),
    ] {
        let options = Vb2Options {
            truncation,
            ..Vb2Options::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                black_box(Vb2Posterior::fit(spec, scenario.prior, &scenario.data, options).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_nint_grid(c: &mut Criterion) {
    let spec = ModelSpec::goel_okumoto();
    let scenario = Scenario::dt_info();
    let vb2 =
        Vb2Posterior::fit(spec, scenario.prior, &scenario.data, scenario.vb2_options()).unwrap();
    let bounds = bounds_from_posterior(&vb2);
    let mut group = c.benchmark_group("ablation-nint-grid/DT-Info");
    group.sample_size(10);
    for n in [80usize, 200, 320] {
        let options = NintOptions {
            n_omega: n,
            n_beta: n,
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    NintPosterior::fit(spec, scenario.prior, &scenario.data, bounds, options)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_truncation, bench_nint_grid);
criterion_main!(benches);
