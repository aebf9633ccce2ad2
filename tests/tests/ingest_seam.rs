//! Streaming ingest validates each batch only at its seam with the
//! stored history (DESIGN §12). These tests pin that seam validation
//! equals full revalidation of the merged dataset:
//!
//! * a differential property: random batch sequences, valid and
//!   mutated, go both to a durable in-memory registry and to a
//!   reference that merges every batch and revalidates the whole
//!   dataset through the canonical constructors; decisions, data and
//!   event counts must agree, and reopening the storage must restore
//!   the same state;
//! * regressions for grouped counts whose total overflows `u64`.

use nhpp_data::io::{read_failure_times, read_grouped};
use nhpp_data::{FailureTimeData, GroupedData, ObservedData};
use nhpp_serve::registry::{Project, RegistryError};
use nhpp_serve::storage::frame_record;
use nhpp_serve::{DurabilityPolicy, MemStorage, ProjectConfig, Registry};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Snapshots every third version, so a reopen replays a snapshot plus
/// the records after it.
const POLICY: DurabilityPolicy = DurabilityPolicy {
    snapshot_every: 3,
    compact_at_bytes: 0,
};

/// Values a mutated batch substitutes for a time or boundary.
const HOSTILE: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.5];

/// One generated batch: a mutation code plus the random draws that
/// shape it, rendered against the reference history when it is fed.
type Step = (u64, f64, f64, usize);

/// The merged history, revalidated whole on every batch.
enum Reference {
    Times {
        times: Vec<f64>,
        t_end: Option<f64>,
    },
    Grouped {
        boundaries: Vec<f64>,
        counts: Vec<u64>,
    },
}

impl Reference {
    /// Merges a batch into the history and revalidates the merged
    /// dataset from scratch; `false` (history untouched) on rejection.
    fn ingest(&mut self, text: &str) -> bool {
        match self {
            Reference::Times { times, t_end } => {
                let Ok(batch) = read_failure_times(text.as_bytes()) else {
                    return false;
                };
                // The one append rule a dataset cannot express: the
                // observation end never moves back.
                if t_end.is_some_and(|end| batch.observation_end() < end) {
                    return false;
                }
                let merged = [times.as_slice(), batch.times()].concat();
                if FailureTimeData::new(merged.clone(), batch.observation_end()).is_err() {
                    return false;
                }
                *times = merged;
                *t_end = Some(batch.observation_end());
            }
            Reference::Grouped { boundaries, counts } => {
                let Ok(batch) = read_grouped(text.as_bytes()) else {
                    return false;
                };
                let merged_bounds = [boundaries.as_slice(), batch.boundaries()].concat();
                let merged_counts = [counts.as_slice(), batch.counts()].concat();
                if GroupedData::new(merged_bounds.clone(), merged_counts.clone()).is_err() {
                    return false;
                }
                *boundaries = merged_bounds;
                *counts = merged_counts;
            }
        }
        true
    }

    /// The merged dataset, `None` before the first accepted batch.
    fn data(&self) -> Option<ObservedData> {
        match self {
            Reference::Times { times, t_end } => t_end.map(|end| {
                FailureTimeData::new(times.clone(), end)
                    .expect("accepted history is valid")
                    .into()
            }),
            Reference::Grouped { boundaries, counts } => (!boundaries.is_empty()).then(|| {
                GroupedData::new(boundaries.clone(), counts.clone())
                    .expect("accepted history is valid")
                    .into()
            }),
        }
    }

    fn event_count(&self) -> u64 {
        match self {
            Reference::Times { times, .. } => times.len() as u64,
            Reference::Grouped { counts, .. } => counts.iter().sum(),
        }
    }

    /// Renders a step as batch text against the current history: codes
    /// 0–5 are valid extensions, the rest mutate them.
    fn render(&self, (code, a, b, n): Step) -> String {
        let hostile = HOSTILE[(b * HOSTILE.len() as f64) as usize];
        match self {
            Reference::Times { times, t_end } => {
                let newest = times.last().copied().unwrap_or(0.0);
                let end = t_end.unwrap_or(0.0);
                let mut batch: Vec<f64> = (1..=n).map(|i| newest + i as f64 * (0.5 + a)).collect();
                let mut new_end = batch.last().copied().unwrap_or(newest).max(end) + 5.0 * b;
                match code {
                    6 => batch.insert(0, newest),           // a tie with the newest
                    7 => batch.insert(0, newest - 0.5 - a), // before the newest
                    8 => {
                        batch.clear(); // the observation end moves back
                        new_end = end - 0.5 - b;
                    }
                    9 => batch.push(hostile),
                    10 => new_end = hostile,
                    11 => batch.clear(), // an empty batch
                    12 => {
                        batch.clear(); // an empty batch at the same end
                        new_end = end;
                    }
                    13 => new_end = batch.last().copied().unwrap_or(newest) - 0.25,
                    14 => batch.reverse(),
                    15 => return format!("{newest}\n"), // no t_end header
                    _ => {}
                }
                let mut text = format!("# t_end={new_end}\n");
                for t in batch {
                    text.push_str(&format!("{t}\n"));
                }
                text
            }
            Reference::Grouped { boundaries, .. } => {
                let last = boundaries.last().copied().unwrap_or(0.0);
                let mut bounds: Vec<f64> =
                    (1..=n + 1).map(|i| last + i as f64 * (0.5 + a)).collect();
                let mut counts: Vec<u64> = (0..=n).map(|i| (7.0 * b) as u64 + i as u64).collect();
                match code {
                    6 => bounds[0] = last, // a boundary equal to the last
                    7 => bounds[0] = last - 0.5 - a,
                    8 => counts[0] = u64::MAX - (4.0 * b) as u64, // near overflow
                    9 => counts[0] = u64::MAX / 2 + (3.0 * b) as u64,
                    10 => bounds[n] = hostile,
                    11 => return String::new(), // no intervals
                    12 => return format!("{}\n", last + 1.0), // no count
                    13 => {
                        counts[0] = u64::MAX; // overflow within the batch
                        counts.push(1);
                        bounds.push(bounds[n] + 1.0);
                    }
                    14 => bounds.reverse(),
                    _ => {}
                }
                bounds
                    .iter()
                    .zip(&counts)
                    .map(|(s, c)| format!("{s},{c}\n"))
                    .collect()
            }
        }
    }
}

fn config(grouped: bool) -> ProjectConfig {
    let (kind, prior) = if grouped {
        ("grouped", "paper-info-grouped")
    } else {
        ("times", "paper-info-times")
    };
    ProjectConfig::from_labels(kind, "go", prior).expect("valid config")
}

/// `(version, data, event count)` of a project, data `None` before its
/// first batch.
fn state_of(project: &Project) -> (u64, Option<ObservedData>, u64) {
    let data = project.snapshot().ok().map(|(_, data, _, _)| data);
    (project.version(), data, project.summary().event_count)
}

fn reopen(storage: &MemStorage) -> Registry {
    Registry::open_with(Arc::new(MemStorage::from_map(storage.dump())), POLICY)
        .expect("clean reopen")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn seam_validation_matches_full_revalidation(
        grouped in prop::bool::ANY,
        steps in prop::collection::vec((0u64..16, 0.0f64..1.0, 0.0f64..1.0, 0usize..4), 1..12),
    ) {
        let storage = Arc::new(MemStorage::new());
        let registry = Registry::open_with(storage.clone(), POLICY).expect("open");
        registry.create("p", config(grouped)).expect("create");
        let project = registry.get("p").expect("created above");
        let mut reference = if grouped {
            Reference::Grouped { boundaries: Vec::new(), counts: Vec::new() }
        } else {
            Reference::Times { times: Vec::new(), t_end: None }
        };
        let mut version = 0;
        for step in steps {
            let text = reference.render(step);
            let outcome = project.ingest(&text);
            let accepted = reference.ingest(&text);
            prop_assert!(
                outcome.is_ok() == accepted,
                "batch {text:?}: registry {outcome:?}, reference accepted {accepted}"
            );
            if let Err(e) = &outcome {
                prop_assert!(matches!(e, RegistryError::Data(_)), "untyped rejection {e:?}");
            }
            version += u64::from(accepted);
            let expected = (version, reference.data(), reference.event_count());
            prop_assert_eq!(state_of(&project), expected);
        }
        let reopened = reopen(&storage);
        let recovered = reopened.get("p").expect("project survives");
        prop_assert_eq!(state_of(&recovered), state_of(&project));
        prop_assert_eq!(recovered.summary(), project.summary());
    }
}

#[test]
fn grouped_batch_whose_counts_overflow_is_rejected() {
    let registry = Registry::open(None).expect("in-memory registry");
    registry.create("g", config(true)).expect("create");
    let project = registry.get("g").expect("created above");
    let err = project
        .ingest("1,18446744073709551615\n2,1\n")
        .expect_err("the counts total past u64::MAX");
    assert!(matches!(err, RegistryError::Data(_)), "{err:?}");
    // Nothing panicked under the project lock: the project keeps serving.
    assert_eq!(project.ingest("1,3\n").expect("a sane batch"), 3);
    assert_eq!(project.summary().event_count, 3);
}

#[test]
fn grouped_batch_overflowing_the_event_count_is_rejected_before_the_log() {
    let storage = Arc::new(MemStorage::new());
    let registry = Registry::open_with(storage.clone(), POLICY).expect("open");
    registry.create("g", config(true)).expect("create");
    let project = registry.get("g").expect("created above");
    project
        .ingest("1,18446744073709551615\n")
        .expect("u64::MAX events fit");
    let err = project
        .ingest("2,1\n")
        .expect_err("one more event overflows the project");
    assert!(matches!(err, RegistryError::Data(_)), "{err:?}");
    assert_eq!(project.ingest("2,0\n").expect("zero more events fit"), 0);
    assert_eq!(project.version(), 2);
    // The rejected batch never reached the log, so replay stays clean.
    let reopened = reopen(&storage);
    assert_eq!(
        reopened.get("g").expect("project").summary(),
        project.summary()
    );
}

#[test]
fn snapshots_breaking_the_history_invariants_fall_back_to_the_log() {
    // Both are CRC-valid. The first's counts wrap to its claimed event
    // count 0 in unchecked release arithmetic; the second carries data
    // at version 0, which the seam checks would build on unvalidated.
    let cases = [
        (
            "grouped go paper-info-grouped",
            "version 1\nevents 0\nconfig grouped go paper-info-grouped\n\
             bounds 1 2\ncounts 18446744073709551615 1\n",
            "1\n1,2\n",
        ),
        (
            "times go paper-info-times",
            "version 0\nevents 1\nconfig times go paper-info-times\nt_end 9\ntimes 9\n",
            "1\n# t_end=5\n1\n2\n",
        ),
    ];
    for (config, snapshot, batch) in cases {
        let log = [
            frame_record(b'C', config.as_bytes()),
            frame_record(b'B', batch.as_bytes()),
        ]
        .concat();
        let files = BTreeMap::from([
            ("p.log".to_string(), log),
            (
                "p.snap".to_string(),
                frame_record(b'S', snapshot.as_bytes()),
            ),
        ]);
        let registry =
            Registry::open_with(Arc::new(MemStorage::from_map(files)), POLICY).expect(config);
        assert_eq!(
            registry.stats().snapshot_fallbacks.load(Ordering::Relaxed),
            1,
            "{config}"
        );
        let project = registry.get("p").expect("project");
        assert_eq!(project.version(), 1, "{config}");
        assert_eq!(project.summary().event_count, 2, "{config}");
    }
}
