//! The open-loop load generator: two streams, each on its own thread
//! with at most one request in flight, following its seeded schedule.
//! Each operation is timed from its due time, so waiting behind a slow
//! predecessor counts against the operation that waited.

use crate::workload::{check, field, Class, Plan, Req, Route, Step};
use nhpp_data::json::Value;
use nhpp_serve::http::client_request;
use std::time::{Duration, Instant};

/// A response's status and body, or why there was none.
pub type Answer = Result<(u16, String), String>;

/// Where requests go: a live server over TCP, or an in-process replay.
pub trait Exec: Sync {
    /// Sends one request of operation `op` of `stream` and returns the
    /// status and body.
    fn call(&self, stream: usize, op: usize, step: &Step) -> Answer;
}

/// One request over a fresh connection, as the service speaks it
/// (`Connection: close`).
pub fn tcp_call(addr: &str, req: &Req) -> Answer {
    client_request(addr, req.method, &req.target, Some(&req.body)).map_err(|e| e.to_string())
}

pub struct Tcp {
    pub addr: String,
}

impl Exec for Tcp {
    fn call(&self, _stream: usize, _op: usize, step: &Step) -> Answer {
        tcp_call(&self.addr, &step.req)
    }
}

/// What happened to one scheduled operation. Times are seconds from
/// the start of the window.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub class: Class,
    pub due: f64,
    pub start: f64,
    pub end: f64,
    /// How late the generator itself sent the operation: the send time
    /// minus the later of its due time and the stream's previous reply.
    pub lag: f64,
    /// Acknowledged data version of an append step, with its project.
    pub acked: Option<(usize, u64)>,
    /// The answers that must not depend on timing, in step order (see
    /// [`fixed_part`]): the passes of a traced run must agree on them.
    pub fixed: Vec<String>,
    pub error: Option<String>,
}

impl OpRecord {
    /// Latency from due time to the last reply, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }

    /// Time spent waiting before the send (behind the stream's previous
    /// operation, plus generator lag), milliseconds.
    pub fn wait_ms(&self) -> f64 {
        (self.start - self.due).max(0.0) * 1e3
    }

    /// Time from send to the last reply, milliseconds.
    pub fn service_ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// Runs both streams of `plan` against `exec`, checking every answer.
/// Returns one record list per stream, in schedule order.
pub fn run_streams(plan: &Plan, exec: &dyn Exec) -> [Vec<OpRecord>; 2] {
    // A short lead-in so both threads are parked before the first op.
    let epoch = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles = [0usize, 1].map(|s| {
            let ops = &plan.streams[s];
            scope.spawn(move || {
                let mut records = Vec::with_capacity(ops.len());
                let mut prev_end = 0.0f64;
                for (k, op) in ops.iter().enumerate() {
                    let target = epoch + Duration::from_secs_f64(op.due);
                    let now = Instant::now();
                    if now < target {
                        std::thread::sleep(target - now);
                    }
                    let start = secs_since(epoch);
                    let mut error = None;
                    let mut acked = None;
                    let mut fixed = Vec::new();
                    for step in &op.steps {
                        let outcome = exec.call(s, k, step).and_then(|(status, body)| {
                            Ok((check(&step.expect, status, &body)?, body))
                        });
                        match outcome {
                            Ok((v, body)) => {
                                if step.route == Route::Append {
                                    acked = field(&v, "version")
                                        .and_then(Value::as_f64)
                                        .map(|x| (step.project, x as u64));
                                }
                                fixed.extend(fixed_part(step.route, &body));
                            }
                            Err(e) => {
                                error =
                                    Some(format!("{} {}: {e}", step.req.method, step.req.target));
                                break;
                            }
                        }
                    }
                    let end = secs_since(epoch);
                    records.push(OpRecord {
                        class: op.class,
                        due: op.due,
                        start,
                        end,
                        lag: (start - op.due.max(prev_end)).max(0.0),
                        acked,
                        fixed,
                        error,
                    });
                    prev_end = end;
                }
                records
            })
        });
        handles.map(|h| h.join().expect("stream thread panicked"))
    })
}

/// The part of an answer that the same schedule must reproduce on any
/// run: an append's acknowledgement (events taken, version, alerts
/// raised) and a project summary less its fitted version, which says
/// whether some fit has caught up with the data yet.
pub fn fixed_part(route: Route, body: &str) -> Option<String> {
    match route {
        Route::Append => Some(body.to_string()),
        Route::ProjectSummary => body
            .split_once(", \"fitted_version\"")
            .map(|(head, _)| head.to_string()),
        _ => None,
    }
}

fn secs_since(epoch: Instant) -> f64 {
    let now = Instant::now();
    if now >= epoch {
        (now - epoch).as_secs_f64()
    } else {
        -(epoch - now).as_secs_f64()
    }
}

/// How the generator kept up with its schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    /// 99th percentile of generator lag, milliseconds.
    pub late_p99_ms: f64,
    /// Operations still waiting to be sent when the window closed.
    pub backlog: usize,
    /// The most `backlog` may be: a share of the window's operations,
    /// so a workload at hundreds per second is not held to the bound of
    /// one at a few per second.
    pub backlog_limit: usize,
}

/// Lag bound: a run whose generator sent 1 % of its operations later
/// than this did not follow its schedule and is rejected. The generator
/// does no work between sends, so its lag is the host's wake-up delay.
pub const LATE_LIMIT_MS: f64 = 25.0;
/// Backlog bound: operations due inside the window but not yet sent
/// when it closed, as a share of the window's operations, and never
/// below `BACKLOG_MIN`. More means the service fell behind the offered
/// load.
const BACKLOG_SHARE: f64 = 0.01;
const BACKLOG_MIN: usize = 10;

pub fn pacing(records: &[Vec<OpRecord>; 2], seconds: f64) -> Pacing {
    let lags: Vec<f64> = records.iter().flatten().map(|r| r.lag * 1e3).collect();
    let backlog = records
        .iter()
        .flatten()
        .filter(|r| r.due < seconds && r.start > seconds)
        .count();
    Pacing {
        late_p99_ms: crate::stats::percentile(&lags, 0.99),
        backlog,
        backlog_limit: BACKLOG_MIN.max((lags.len() as f64 * BACKLOG_SHARE) as usize),
    }
}
