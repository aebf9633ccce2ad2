//! Regression pin of the conformance grid's RNG stream layout.
//!
//! The coverage validator, the SBC sweep and the calibration learner
//! all derive their per-campaign RNG as
//! `StdRng::seed_from_u64(base_seed ^ fnv1a(cell.name()).wrapping_add(rep))`.
//! Every checked-in artefact — the golden conformance report and the
//! blessed `calibration_v1.json` dictionary — is a function of that
//! layout, so any drift (a renamed cell, a reordered grid, a changed
//! hash) must fail loudly here rather than silently invalidate the
//! fixtures. On an intentional change, update the constants below *and*
//! re-bless the dictionary and report.

use nhpp_conformance::coverage::CoverageConfig;
use nhpp_conformance::{CalibrateConfig, GridCell};

/// FNV-1a over each cell name, in grid order — the per-cell stream
/// separator. These values are the layout; do not regenerate casually.
const SEED_COMPONENTS: [(&str, u64); 16] = [
    ("go-dt-info-small", 0xaed38a30c2d5fe57),
    ("go-dt-info-medium", 0x6e2dbb413e45ee5f),
    ("go-dt-noinfo-small", 0x1bc1633a36583d6c),
    ("go-dt-noinfo-medium", 0x8d3faf14d1b92916),
    ("go-dg-info-small", 0x85dc1da2f8cfc308),
    ("go-dg-info-medium", 0xe3e0a5639f4f110a),
    ("go-dg-noinfo-small", 0xfcfdaa9be1d7d80f),
    ("go-dg-noinfo-medium", 0xc42c61236ac616a7),
    ("dss-dt-info-small", 0x73f4c3ce4fd09e05),
    ("dss-dt-info-medium", 0xaff4f7137c719d4d),
    ("dss-dt-noinfo-small", 0x5b1757d8f9029df2),
    ("dss-dt-noinfo-medium", 0xffeb6cda3baf23ec),
    ("dss-dg-info-small", 0x559a171282a4cbc2),
    ("dss-dg-info-medium", 0x3b0b0bd65e61e11c),
    ("dss-dg-noinfo-small", 0x14ff856fe8219561),
    ("dss-dg-noinfo-medium", 0xfa94e97d58fdb501),
];

#[test]
fn grid_order_names_and_seed_components_are_pinned() {
    let grid = GridCell::grid();
    assert_eq!(grid.len(), SEED_COMPONENTS.len());
    for (cell, (name, component)) in grid.iter().zip(SEED_COMPONENTS) {
        assert_eq!(cell.name(), name, "grid order or a cell name drifted");
        assert_eq!(
            cell.seed_component(),
            component,
            "{name}: FNV seed component drifted — every fixture derived \
             from this cell's RNG stream is now stale"
        );
    }
}

#[test]
fn seed_components_never_collide() {
    // Distinct cells must own disjoint streams under any base seed:
    // the XOR separator only guarantees that when the components are
    // distinct, and `wrapping_add(rep)` shifts within a component's
    // neighbourhood, so also keep the components pairwise far apart
    // over the replication range actually swept.
    let reps = 1000u64;
    let mut derived: Vec<(String, u64)> = Vec::new();
    for cell in GridCell::grid() {
        for rep in [0, 1, reps - 1] {
            derived.push((
                format!("{}#{rep}", cell.name()),
                cell.seed_component().wrapping_add(rep),
            ));
        }
    }
    for (i, (name_a, a)) in derived.iter().enumerate() {
        for (name_b, b) in &derived[i + 1..] {
            assert_ne!(a, b, "stream collision between {name_a} and {name_b}");
        }
    }
}

#[test]
fn smoke_grid_is_a_prefix_selection_of_the_full_grid() {
    // The smoke tier must sample the same streams the full grid owns —
    // same names, same components — or smoke results would not be
    // comparable to (a subset of) full results.
    let full: Vec<String> = GridCell::grid().iter().map(GridCell::name).collect();
    for cell in GridCell::smoke_grid() {
        assert!(
            full.contains(&cell.name()),
            "smoke cell {} is not a full-grid cell",
            cell.name()
        );
    }
}

#[test]
fn learner_and_validator_base_seeds_are_disjoint() {
    // The calibrated gate's held-out guarantee: the dictionary is
    // learned on one family of streams and judged on another. Equal
    // base seeds would silently turn validation into resubstitution.
    let learn = CalibrateConfig::default().seed;
    let validate = CoverageConfig::default().seed;
    assert_ne!(learn, validate);
    // And the XOR'd per-cell seeds stay distinct too.
    for cell in GridCell::grid() {
        assert_ne!(
            learn ^ cell.seed_component(),
            validate ^ cell.seed_component()
        );
    }
}
