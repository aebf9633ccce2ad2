//! The four workloads: which projects exist, how set-up warms them, and
//! the seeded open-loop schedule each of the two streams follows.
//!
//! Every input is generated here from the seed. Each project is
//! appended to by one stream only, so the data version every append
//! must acknowledge is known when the schedule is built, and the checks
//! can hold the service to it.

use crate::rng::{quota_order, zipf_weights, Rng};
use nhpp_data::json::{self, Value};
use nhpp_data::sys17;

/// One HTTP request, as the service sees it.
#[derive(Debug, Clone)]
pub struct Req {
    pub method: &'static str,
    pub target: String,
    pub body: String,
}

impl Req {
    pub fn get(target: String) -> Req {
        Req {
            method: "GET",
            target,
            body: String::new(),
        }
    }

    /// The raw bytes a client sends for this request.
    pub fn wire(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.method,
            self.target,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// Which user-visible operation a request belongs to; the routes the
/// traced replay re-enacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Append,
    Interval,
    Spc,
    FitSummary,
    ProjectSummary,
    Reliability,
    Predict,
    Band,
}

/// What a correct answer must satisfy, beyond a 2xx status and a body
/// that parses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// An append acknowledging exactly this data version.
    Ack {
        version: u64,
        alert: bool,
    },
    /// An interval with `lo < hi`, at this data version when given.
    Interval {
        version: Option<u64>,
        calibrated: bool,
    },
    Spc,
    FitSummary,
    ProjectSummary,
    Reliability,
    Predict,
    Band {
        points: usize,
    },
}

#[derive(Debug, Clone)]
pub struct Step {
    pub project: usize,
    pub route: Route,
    pub req: Req,
    pub expect: Expect,
}

/// Which end-to-end figure an operation counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The workload's headline operation (`p50_ms`, `p99_ms`).
    Main,
    /// The slow operations the workload also sends; they count in
    /// `slow_p50_ms` and, where they are the same user action as the
    /// main class, in the main figures too.
    MainSlow,
    /// Slow operations of a different kind (query functionals).
    Slow,
    /// Background traffic that is checked but not reported.
    Other,
}

impl Class {
    pub fn main(self) -> bool {
        matches!(self, Class::Main | Class::MainSlow)
    }

    pub fn slow(self) -> bool {
        matches!(self, Class::MainSlow | Class::Slow)
    }
}

/// One scheduled operation: due at `due` seconds into the window, made
/// of one request or, for a time-to-fresh-interval, two in sequence.
#[derive(Debug, Clone)]
pub struct Op {
    pub due: f64,
    pub class: Class,
    pub steps: Vec<Step>,
}

/// How set-up warms a project after loading its history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warm {
    Nothing,
    /// `GET /fit`: the first fit.
    Fit,
    /// `GET /monitor`: the first fit plus scoring the whole history.
    Prime,
}

#[derive(Debug, Clone)]
pub struct Project {
    pub id: String,
    pub create: Req,
    pub batches: Vec<Req>,
    pub warm: Warm,
    /// Data version after set-up (one per loaded batch).
    pub version: u64,
}

impl Project {
    /// The set-up requests, in order.
    pub fn setup_requests(&self) -> Vec<Req> {
        let mut reqs = vec![self.create.clone()];
        reqs.extend(self.batches.iter().cloned());
        match self.warm {
            Warm::Nothing => {}
            Warm::Fit => reqs.push(Req::get(format!("/projects/{}/fit", self.id))),
            Warm::Prime => reqs.push(Req::get(format!("/projects/{}/monitor", self.id))),
        }
        reqs
    }
}

/// A fully generated workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub name: &'static str,
    pub projects: Vec<Project>,
    pub streams: [Vec<Op>; 2],
    pub monitor: bool,
    pub calibration: bool,
    /// What the main and slow figures measure on this workload: the
    /// name of the figure in the service's own terms, and a description.
    pub main: (&'static str, &'static str),
    pub slow: (&'static str, &'static str),
}

pub const WORKLOADS: [&str; 4] = ["ingest", "history", "query", "refit"];

pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Plan> {
    let mut rng = Rng::new(seed);
    match name {
        "ingest" => Some(ingest(&mut rng, seconds)),
        "history" => Some(history(&mut rng, seconds)),
        "query" => Some(query(&mut rng, seconds)),
        "refit" => Some(refit(&mut rng, seconds)),
        _ => None,
    }
}

/// Due times of stream `stream` at `rate` per second: evenly spaced
/// slots, each jittered by up to ±30 % of the spacing. The second
/// stream's slots sit half a spacing after the first's, so two streams
/// at one rate do not send together by construction: on a shared
/// two-core host, two operations run at once slow each other by however
/// the host places the cores.
fn due_times(rng: &mut Rng, stream: usize, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let spacing = 1.0 / rate;
    // Slots start 0.3 spacings in, so no jittered time is negative.
    let phase = 0.3 + 0.5 * stream as f64;
    let mut due: Vec<f64> = (0..n)
        .map(|k| ((k as f64 + phase) + 0.6 * (rng.uniform() - 0.5)) * spacing)
        .collect();
    due.sort_by(f64::total_cmp);
    due
}

fn create(id: &str, kind: &str, model: &str, prior: &str) -> Req {
    Req {
        method: "PUT",
        target: format!("/projects/{id}?kind={kind}&model={model}&prior={prior}"),
        body: String::new(),
    }
}

fn post(id: &str, body: String) -> Req {
    Req {
        method: "POST",
        target: format!("/projects/{id}/events"),
        body,
    }
}

fn times_batch(times: &[f64], t_end: f64) -> String {
    let mut text = format!("# t_end={t_end}\n");
    for t in times {
        text.push_str(&format!("{t}\n"));
    }
    text
}

fn grouped_batch(first_bin: usize, counts: &[u64]) -> String {
    let mut text = String::new();
    for (i, c) in counts.iter().enumerate() {
        text.push_str(&format!("{},{c}\n", first_bin + i));
    }
    text
}

/// A failure-time project's growing tail: single events appended past
/// the current observation end, at gaps drawn uniformly within half the
/// mean either side of it. The gaps stay inside the control limits of a
/// System 17 fit, so only injected bursts alarm, and the sum of a run's
/// gaps barely depends on the seed.
#[derive(Debug, Clone)]
struct TimesTail {
    end: f64,
    mean_gap: f64,
}

impl TimesTail {
    fn sys17(mean_gap: f64) -> TimesTail {
        TimesTail {
            end: sys17::T_END,
            mean_gap,
        }
    }

    fn gap(&self, rng: &mut Rng) -> f64 {
        self.mean_gap * (0.5 + rng.uniform())
    }

    fn next_event(&mut self, rng: &mut Rng) -> String {
        let t = self.end + self.gap(rng);
        self.end = t;
        times_batch(&[t], t)
    }

    /// Five failures 0.01 s apart: four near-zero gaps in a row, far
    /// below the lower control limit, so the run-length alarm trips.
    fn burst(&mut self, rng: &mut Rng) -> String {
        let start = self.end + self.gap(rng);
        let times: Vec<f64> = (0..5).map(|i| start + 0.01 * i as f64).collect();
        self.end = start + 1.0;
        times_batch(&times, self.end)
    }
}

fn sys17_times_batch() -> String {
    times_batch(&sys17::FAILURE_TIMES, sys17::T_END)
}

fn sys17_grouped_batch() -> String {
    grouped_batch(1, &sys17::DAILY_COUNTS)
}

fn ack(version: u64, alert: bool) -> Expect {
    Expect::Ack { version, alert }
}

// ---------------------------------------------------------------------
// ingest: the monitored write path.
// ---------------------------------------------------------------------

const INGEST_PROJECTS: usize = 16;
const INGEST_RATE: f64 = 15.0;
const INGEST_BURST_EVERY: usize = 15;
/// Mean gap of appended failures, seconds: well inside the control
/// limits of a System 17 fit, so only the injected bursts alarm.
const INGEST_MEAN_GAP: f64 = 8000.0;

fn ingest(rng: &mut Rng, seconds: f64) -> Plan {
    let projects: Vec<Project> = (0..INGEST_PROJECTS)
        .map(|i| {
            let id = format!("mon{i:02}");
            Project {
                create: create(&id, "times", "go", "paper-info-times"),
                batches: vec![post(&id, sys17_times_batch())],
                warm: Warm::Prime,
                version: 1,
                id,
            }
        })
        .collect();
    let mut versions: Vec<u64> = projects.iter().map(|p| p.version).collect();
    let mut tails: Vec<TimesTail> = (0..INGEST_PROJECTS)
        .map(|_| TimesTail::sys17(INGEST_MEAN_GAP))
        .collect();
    let is_burst = |k: usize| k % INGEST_BURST_EVERY == INGEST_BURST_EVERY / 2;
    let streams = [0usize, 1].map(|s| {
        let mut srng = rng.fork(s as u64);
        let owned: Vec<usize> = (s..INGEST_PROJECTS).step_by(2).collect();
        let due = due_times(&mut srng, s, INGEST_RATE, seconds);
        let singles = (0..due.len()).filter(|&k| !is_burst(k)).count();
        let mut picks =
            quota_order(&mut srng, &zipf_weights(owned.len(), 1.1), singles).into_iter();
        let mut bursts = 0usize;
        due.into_iter()
            .enumerate()
            .map(|(k, due)| {
                let burst = is_burst(k);
                let p = if burst {
                    bursts += 1;
                    owned[(bursts - 1) % owned.len()]
                } else {
                    owned[picks.next().expect("one pick per single append")]
                };
                let body = if burst {
                    tails[p].burst(&mut srng)
                } else {
                    tails[p].next_event(&mut srng)
                };
                versions[p] += 1;
                Op {
                    due,
                    class: if burst { Class::MainSlow } else { Class::Main },
                    steps: vec![Step {
                        project: p,
                        route: Route::Append,
                        req: post(&projects[p].id, body),
                        expect: ack(versions[p], burst),
                    }],
                }
            })
            .collect()
    });
    Plan {
        name: "ingest",
        projects,
        streams,
        monitor: true,
        calibration: false,
        main: ("append", "monitored append ack"),
        slow: ("burst_append", "burst append (alert + refit)"),
    }
}

// ---------------------------------------------------------------------
// history: long histories, no scoring, no fits.
// ---------------------------------------------------------------------

const HISTORY_SIZES: [usize; 2] = [100_000, 10_000];
const HISTORY_WEIGHTS: [f64; 2] = [0.85, 0.15];
const HISTORY_RATE: f64 = 100.0;
/// Events per set-up batch: keeps each body under the 1 MiB limit.
const HISTORY_CHUNK: usize = 25_000;

fn history(rng: &mut Rng, seconds: f64) -> Plan {
    let mut projects = Vec::new();
    let mut tails = Vec::new();
    let mut data_rng = rng.fork(99);
    for s in 0..2 {
        for (j, &size) in HISTORY_SIZES.iter().enumerate() {
            let id = format!("hist{s}{j}");
            let mut t = 0.0;
            let times: Vec<f64> = (0..size)
                .map(|_| {
                    t += 10.0 * (0.5 + data_rng.uniform());
                    (t * 1000.0).round() / 1000.0
                })
                .collect();
            let mut batches = Vec::new();
            for (c, chunk) in times.chunks(HISTORY_CHUNK).enumerate() {
                let last = c + 1 == size.div_ceil(HISTORY_CHUNK);
                let end = if last {
                    chunk[chunk.len() - 1] + 5.0
                } else {
                    chunk[chunk.len() - 1]
                };
                batches.push(post(&id, times_batch(chunk, end)));
            }
            tails.push(TimesTail {
                end: times[size - 1] + 5.0,
                mean_gap: 10.0,
            });
            projects.push(Project {
                create: create(&id, "times", "go", "flat"),
                version: batches.len() as u64,
                batches,
                warm: Warm::Nothing,
                id,
            });
        }
    }
    let mut versions: Vec<u64> = projects.iter().map(|p| p.version).collect();
    let streams = [0usize, 1].map(|s| {
        let mut srng = rng.fork(s as u64);
        let due = due_times(&mut srng, s, HISTORY_RATE, seconds);
        let picks = quota_order(&mut srng, &HISTORY_WEIGHTS, due.len());
        due.into_iter()
            .zip(picks)
            .map(|(due, j)| {
                let p = 2 * s + j;
                let body = tails[p].next_event(&mut srng);
                versions[p] += 1;
                // Every 64th version lands the periodic O(history)
                // snapshot inside the append.
                let class = if versions[p].is_multiple_of(64) && j == 0 {
                    Class::MainSlow
                } else {
                    Class::Main
                };
                Op {
                    due,
                    class,
                    steps: vec![Step {
                        project: p,
                        route: Route::Append,
                        req: post(&projects[p].id, body),
                        expect: ack(versions[p], false),
                    }],
                }
            })
            .collect()
    });
    Plan {
        name: "history",
        projects,
        streams,
        monitor: false,
        calibration: false,
        main: ("append", "append ack on a 10^4-10^5-event history"),
        slow: (
            "snapshot_append",
            "append that lands the periodic snapshot (10^5 events)",
        ),
    }
}

// ---------------------------------------------------------------------
// query: dashboard reads against warm posteriors.
// ---------------------------------------------------------------------

const QUERY_RATE: f64 = 80.0;
const FUNCTIONAL_RATE: f64 = 0.8;

/// The light-query mix of stream A: (route, weight, param, calibrated).
const QUERY_MIX: [(Route, f64, &str, bool); 8] = [
    (Route::Interval, 0.20, "omega", false),
    (Route::Interval, 0.10, "omega", true),
    (Route::Interval, 0.10, "beta", false),
    (Route::Interval, 0.05, "beta", true),
    (Route::Spc, 0.15, "", false),
    (Route::FitSummary, 0.15, "", false),
    (Route::ProjectSummary, 0.20, "", false),
    (Route::Append, 0.05, "", false),
];

fn query(rng: &mut Rng, seconds: f64) -> Plan {
    let mut projects = Vec::new();
    for kind in ["times", "grouped"] {
        for model in ["go", "dss"] {
            for info in [true, false] {
                let prior = match (kind, info) {
                    ("times", true) => "paper-info-times",
                    ("grouped", true) => "paper-info-grouped",
                    _ => "flat",
                };
                let id = format!("{kind}-{model}-{}", if info { "info" } else { "flat" });
                let batch = if kind == "times" {
                    sys17_times_batch()
                } else {
                    sys17_grouped_batch()
                };
                projects.push(Project {
                    create: create(&id, kind, model, prior),
                    batches: vec![post(&id, batch)],
                    warm: Warm::Fit,
                    version: 1,
                    id,
                });
            }
        }
    }
    let times_projects: Vec<usize> = (0..4).collect();
    let mut versions: Vec<u64> = projects.iter().map(|p| p.version).collect();
    let mut tails: Vec<TimesTail> = (0..4).map(|_| TimesTail::sys17(8000.0)).collect();

    // Each mix entry's weight is shared evenly among the projects it
    // can address: SPC and appends go to times projects only.
    let mut choices = Vec::new();
    for (m, &(route, weight, _, _)) in QUERY_MIX.iter().enumerate() {
        let targets: Vec<usize> = match route {
            Route::Spc | Route::Append => times_projects.clone(),
            _ => (0..projects.len()).collect(),
        };
        for &p in &targets {
            choices.push((m, p, weight / targets.len() as f64));
        }
    }
    let mut arng = rng.fork(0);
    let due = due_times(&mut arng, 0, QUERY_RATE, seconds);
    let weights: Vec<f64> = choices.iter().map(|c| c.2).collect();
    let picks = quota_order(&mut arng, &weights, due.len());
    let stream_a: Vec<Op> = due
        .into_iter()
        .zip(picks)
        .map(|(due, pick)| {
            let (m, p, _) = choices[pick];
            let (route, _, param, calibrated) = QUERY_MIX[m];
            let id = &projects[p].id;
            let (req, expect, class) = match route {
                Route::Append => {
                    versions[p] += 1;
                    let body = tails[p].next_event(&mut arng);
                    (post(id, body), ack(versions[p], false), Class::Other)
                }
                Route::Interval => (
                    Req::get(format!(
                        "/projects/{id}/interval?param={param}&level=0.95{}",
                        if calibrated { "&calibrated=true" } else { "" }
                    )),
                    Expect::Interval {
                        version: None,
                        calibrated,
                    },
                    Class::Main,
                ),
                Route::Spc => (
                    Req::get(format!("/projects/{id}/spc")),
                    Expect::Spc,
                    Class::Main,
                ),
                Route::FitSummary => (
                    Req::get(format!("/projects/{id}/fit")),
                    Expect::FitSummary,
                    Class::Main,
                ),
                _ => (
                    Req::get(format!("/projects/{id}")),
                    Expect::ProjectSummary,
                    Class::Main,
                ),
            };
            Op {
                due,
                class,
                steps: vec![Step {
                    project: p,
                    route,
                    req,
                    expect,
                }],
            }
        })
        .collect();

    // Stream B cycles one fixed list of functionals, so every run of a
    // given length asks for the same multiset whatever the seed.
    let by_id = |id: &str| {
        projects
            .iter()
            .position(|p| p.id == id)
            .expect("project exists")
    };
    let cycle = [
        (Route::Reliability, by_id("times-dss-flat")),
        (Route::Band, by_id("grouped-dss-flat")),
        (Route::Predict, by_id("times-dss-flat")),
        (Route::Reliability, by_id("grouped-dss-info")),
        (Route::Band, by_id("times-dss-info")),
    ];
    let mut brng = rng.fork(1);
    let stream_b: Vec<Op> = due_times(&mut brng, 1, FUNCTIONAL_RATE, seconds)
        .into_iter()
        .enumerate()
        .map(|(k, due)| {
            let (route, p) = cycle[k % cycle.len()];
            let id = &projects[p].id;
            // The window scales with the project's time unit: a hundredth
            // of its observation span (seconds or working days).
            let window = if p < 4 { sys17::T_END / 100.0 } else { 0.64 };
            let (req, expect) = match route {
                Route::Reliability => (
                    Req::get(format!(
                        "/projects/{id}/reliability?window={window}&level=0.9"
                    )),
                    Expect::Reliability,
                ),
                Route::Predict => (
                    Req::get(format!("/projects/{id}/predict?window={window}&level=0.9")),
                    Expect::Predict,
                ),
                _ => (
                    Req::get(format!("/projects/{id}/band?points=2&level=0.9")),
                    Expect::Band { points: 2 },
                ),
            };
            Op {
                due,
                class: Class::Slow,
                steps: vec![Step {
                    project: p,
                    route,
                    req,
                    expect,
                }],
            }
        })
        .collect();
    Plan {
        name: "query",
        projects,
        streams: [stream_a, stream_b],
        monitor: false,
        calibration: true,
        main: (
            "query",
            "light query (interval, spc, fit and project summaries)",
        ),
        slow: ("functional", "functional (reliability, predict, band)"),
    }
}

// ---------------------------------------------------------------------
// refit: every operation is an append, then the interval it changed.
// ---------------------------------------------------------------------

const REFIT_RATE: f64 = 25.0;

/// (kind, model, bins or 0 for System 17 times, informative, weight).
const REFIT_PROJECTS: [(&str, &str, usize, bool, f64); 8] = [
    ("times", "go", 0, false, 0.19),
    ("times", "dss", 0, false, 0.19),
    ("grouped", "go", 64, true, 0.14),
    ("grouped", "go", 64, false, 0.14),
    ("grouped", "go", 256, true, 0.12),
    ("grouped", "go", 256, false, 0.12),
    ("grouped", "go", 1000, true, 0.05),
    ("grouped", "go", 1000, false, 0.05),
];

/// A synthetic Goel–Okumoto count history of `bins` unit intervals,
/// drawn by systematic sampling: the running count is the mean-value
/// function plus a seeded phase, rounded down. The seed moves failures
/// between neighbouring bins but keeps the total within one of the mean,
/// so every seed asks the fits for about the same work.
struct GroupedTail {
    omega: f64,
    beta: f64,
    phase: f64,
    next_bin: usize,
    counted: u64,
}

impl GroupedTail {
    fn new(bins: usize, rng: &mut Rng) -> GroupedTail {
        GroupedTail {
            omega: 0.3 * bins as f64 + 20.0,
            beta: 2.5 / bins as f64,
            phase: rng.uniform(),
            next_bin: 1,
            counted: 0,
        }
    }

    fn next_count(&mut self) -> u64 {
        let mean = self.omega * -(-self.beta * self.next_bin as f64).exp_m1();
        let total = (mean + self.phase).floor() as u64;
        let count = total - self.counted;
        self.counted = total;
        self.next_bin += 1;
        count
    }

    /// The informative prior centred on the generating parameters.
    fn prior(&self) -> String {
        format!(
            "{},{},{},{}",
            self.omega,
            self.omega / 3.0,
            self.beta,
            self.beta / 3.0
        )
    }
}

/// The growing end of a `refit` project.
enum Tail {
    Times(TimesTail),
    Grouped(GroupedTail),
}

fn refit(rng: &mut Rng, seconds: f64) -> Plan {
    let mut data_rng = rng.fork(99);
    let mut projects = Vec::new();
    let mut tails = Vec::new();
    for s in 0..2 {
        for (j, &(kind, model, bins, info, _)) in REFIT_PROJECTS.iter().enumerate() {
            let id = format!("fresh{s}{j}");
            let (prior, batch) = if bins == 0 {
                tails.push(Tail::Times(TimesTail::sys17(8000.0)));
                ("flat".to_string(), sys17_times_batch())
            } else {
                let mut tail = GroupedTail::new(bins, &mut data_rng);
                let counts: Vec<u64> = (0..bins).map(|_| tail.next_count()).collect();
                let prior = if info {
                    tail.prior()
                } else {
                    "flat".to_string()
                };
                tails.push(Tail::Grouped(tail));
                (prior, grouped_batch(1, &counts))
            };
            projects.push(Project {
                create: create(&id, kind, model, &prior),
                batches: vec![post(&id, batch)],
                warm: Warm::Fit,
                version: 1,
                id,
            });
        }
    }
    let mut versions: Vec<u64> = projects.iter().map(|p| p.version).collect();
    let weights: Vec<f64> = REFIT_PROJECTS.iter().map(|r| r.4).collect();
    let streams = [0usize, 1].map(|s| {
        let mut srng = rng.fork(s as u64);
        let due = due_times(&mut srng, s, REFIT_RATE, seconds);
        let picks = quota_order(&mut srng, &weights, due.len());
        due.into_iter()
            .zip(picks)
            .map(|(due, j)| {
                let p = s * REFIT_PROJECTS.len() + j;
                let id = projects[p].id.clone();
                let body = match &mut tails[p] {
                    Tail::Times(tail) => tail.next_event(&mut srng),
                    Tail::Grouped(tail) => {
                        let bin = tail.next_bin;
                        grouped_batch(bin, &[tail.next_count()])
                    }
                };
                versions[p] += 1;
                let version = versions[p];
                Op {
                    due,
                    class: if REFIT_PROJECTS[j].2 == 1000 {
                        Class::MainSlow
                    } else {
                        Class::Main
                    },
                    steps: vec![
                        Step {
                            project: p,
                            route: Route::Append,
                            req: post(&id, body),
                            expect: ack(version, false),
                        },
                        Step {
                            project: p,
                            route: Route::Interval,
                            req: Req::get(format!(
                                "/projects/{id}/interval?param=omega&level=0.95"
                            )),
                            expect: Expect::Interval {
                                version: Some(version),
                                calibrated: false,
                            },
                        },
                    ],
                }
            })
            .collect()
    });
    Plan {
        name: "refit",
        projects,
        streams,
        monitor: false,
        calibration: false,
        main: (
            "fresh",
            "append then the interval it changed (time to a fresh interval)",
        ),
        slow: (
            "fresh_1000bin",
            "fresh interval on a 1000-bin grouped history",
        ),
    }
}

// ---------------------------------------------------------------------
// Answer checks.
// ---------------------------------------------------------------------

/// A field of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.get(key)
}

fn finite(v: &Value, key: &str) -> Result<f64, String> {
    match field(v, key).and_then(Value::as_f64) {
        Some(x) if x.is_finite() => Ok(x),
        _ => Err(format!("field '{key}' missing or not finite")),
    }
}

fn ordered(lo: f64, hi: f64, what: &str) -> Result<(), String> {
    if lo < hi {
        Ok(())
    } else {
        Err(format!("{what}: lo {lo} is not below hi {hi}"))
    }
}

/// Checks one answer. `Ok` carries the parsed body.
pub fn check(expect: &Expect, status: u16, body: &str) -> Result<Value, String> {
    if !(200..300).contains(&status) {
        return Err(format!("HTTP {status}: {body}"));
    }
    let v = json::parse(body).map_err(|e| format!("body does not parse ({e}): {body}"))?;
    match *expect {
        Expect::Ack { version, alert } => {
            let got = finite(&v, "version")? as u64;
            if got != version {
                return Err(format!("acknowledged version {got}, expected {version}"));
            }
            if alert && finite(&v, "alerts")? < 1.0 {
                return Err(format!("injected burst raised no alert: {body}"));
            }
        }
        Expect::Interval {
            version,
            calibrated,
        } => {
            ordered(finite(&v, "lo")?, finite(&v, "hi")?, "interval")?;
            if let Some(want) = version {
                let got = finite(&v, "data_version")? as u64;
                if got != want {
                    return Err(format!(
                        "interval at data_version {got}, the append acknowledged {want}"
                    ));
                }
            }
            if field(&v, "calibrated").and_then(Value::as_bool) != Some(calibrated) {
                return Err(format!("calibrated flag wrong: {body}"));
            }
        }
        Expect::Spc => {
            let p = finite(&v, "p")?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("spc statistic {p} outside [0, 1]"));
            }
            ordered(finite(&v, "lcl")?, finite(&v, "ucl")?, "control limits")?;
        }
        Expect::FitSummary => {
            if finite(&v, "mean_omega")? <= 0.0
                || field(&v, "provenance").and_then(Value::as_str).is_none()
            {
                return Err(format!("bad fit summary: {body}"));
            }
        }
        Expect::ProjectSummary => {
            if finite(&v, "version")? < 1.0 || finite(&v, "event_count")? < 1.0 {
                return Err(format!("bad project summary: {body}"));
            }
        }
        Expect::Reliability => {
            let (lo, hi) = (finite(&v, "lo")?, finite(&v, "hi")?);
            ordered(lo, hi, "reliability")?;
            let point = finite(&v, "point")?;
            if !(lo <= point && point <= hi) {
                return Err(format!("reliability point {point} outside [{lo}, {hi}]"));
            }
        }
        Expect::Predict => {
            let interval = field(&v, "interval")
                .and_then(Value::as_array)
                .ok_or("predict interval missing")?;
            match interval {
                [Value::Number(lo), Value::Number(hi)] if lo <= hi => {}
                _ => return Err(format!("bad predictive interval: {body}")),
            }
            if finite(&v, "mean")? < 0.0 {
                return Err(format!("negative predictive mean: {body}"));
            }
        }
        Expect::Band { points } => {
            let band = field(&v, "band")
                .and_then(Value::as_array)
                .ok_or("band missing")?;
            if band.len() != points {
                return Err(format!(
                    "band has {} points, asked for {points}",
                    band.len()
                ));
            }
            for point in band {
                ordered(finite(point, "lower")?, finite(point, "upper")?, "band")?;
            }
        }
    }
    Ok(v)
}
