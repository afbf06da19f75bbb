//! The measured phase: load from this process against the fleet's HTTP
//! edge, at most two client threads with one connection each.

use std::net::SocketAddr;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::client::{Client, ConnMode, Response};
use crate::fleet::Fleet;
use crate::inputs::{Inputs, Workload, LIVE_READS_PER_UPDATE};
use crate::json::Answer;
use crate::stats::{open_loop_timing, report_failure, Outcome, Sample, Tally};

/// One served route: which input it was and what came back.
#[derive(Clone, Copy, Debug)]
pub struct Served {
    pub route: usize,
    pub answer: Answer,
}

#[derive(Default)]
pub struct Measured {
    /// Successful routes, stamped with their completion time.
    pub route_latency: Vec<Sample>,
    pub served: Vec<Served>,
    /// Wall time of the route phase, for the completion rate.
    pub route_window: Duration,
    pub update_latency: Vec<Sample>,
    /// Wall time of the update phase, for the publish rate.
    pub update_window: Duration,
    /// Updates sent, in publish order (a prefix of the inputs).
    pub published: usize,
    /// Open loop: how late each request was sent.
    pub lag: Vec<Duration>,
    /// The closed-loop unique stream ran out before the time was up.
    pub exhausted: bool,
    /// Non-empty subscription polls, `(session index, body)`, in order.
    pub polls: Vec<(usize, Vec<u8>)>,
    pub tally: Tally,
}

/// The outcome of a response to `what`; a non-2xx one is named on
/// stderr with the request and the error body.
pub fn outcome_of(what: &str, r: &Response) -> Outcome {
    let outcome = Outcome::of_status(r.status);
    if outcome.failed() {
        report_failure(format_args!(
            "{what} -> {}: {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ));
    }
    outcome
}

/// The body of one route response, or how the request failed.
fn route_call(client: &mut Client, body: &str) -> Result<Vec<u8>, Outcome> {
    match client.call("POST", "/v1/route", Some(body.as_bytes())) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(outcome_of(&format!("POST /v1/route {body}"), &r)),
        Err(e) => {
            report_failure(format_args!("POST /v1/route {body}: {e}"));
            Err(Outcome::Transport)
        }
    }
}

/// The answer a route response carries; read after its latency is taken.
fn answer_of(reply: Result<Vec<u8>, Outcome>) -> Result<Answer, Outcome> {
    reply.and_then(|body| Answer::of_route_body(&body).ok_or(Outcome::Mismatch))
}

#[derive(Default)]
struct Part {
    latency: Vec<Sample>,
    served: Vec<Served>,
    lag: Vec<Duration>,
    tally: Tally,
}

impl Part {
    fn record(&mut self, route: usize, latency: Sample, answer: Result<Answer, Outcome>) {
        match answer {
            Ok(answer) => {
                self.tally.add(&Outcome::Ok);
                self.latency.push(latency);
                self.served.push(Served { route, answer });
            }
            Err(failure) => self.tally.add(&failure),
        }
    }
}

fn absorb(m: &mut Measured, parts: Vec<Part>) {
    for p in parts {
        m.route_latency.extend(p.latency);
        m.served.extend(p.served);
        m.lag.extend(p.lag);
        m.tally.merge(p.tally);
    }
}

/// Routes completed so far, for a writer that paces itself on the reader.
#[derive(Default)]
struct Progress {
    done: Mutex<usize>,
    tick: Condvar,
}

impl Progress {
    fn add(&self) {
        *self.done.lock().expect("progress lock") += 1;
        self.tick.notify_all();
    }

    /// Waits until `n` routes are done; `false` when `end` comes first.
    fn wait_for(&self, n: usize, end: Instant) -> bool {
        let mut done = self.done.lock().expect("progress lock");
        while *done < n {
            let now = Instant::now();
            if now >= end {
                return false;
            }
            done = self
                .tick
                .wait_timeout(done, end - now)
                .expect("progress lock")
                .0;
        }
        true
    }
}

/// Closed loop: one client on the calling thread sends its next request
/// when the previous one is answered, until `window` passes. With `cycle`
/// the stream repeats; otherwise it ends the phase when it runs out.
/// Every completed route counts in `progress`.
///
/// One request in flight, not two: with two, their four shard tasks
/// oversubscribe a 2-vCPU host, and on such a host the route metrics of
/// interleaved runs spread about four times wider than with one.
fn closed_loop(
    addr: SocketAddr,
    mode: ConnMode,
    bodies: &[String],
    window: Duration,
    cycle: bool,
    progress: Option<&Progress>,
) -> (Part, Duration, bool) {
    let started = Instant::now();
    let end = started + window;
    let mut client = Client::new(addr, mode);
    let mut part = Part::default();
    let mut sent = 0;
    while Instant::now() < end && (cycle || sent < bodies.len()) {
        let route = sent % bodies.len();
        sent += 1;
        let t = Instant::now();
        let reply = route_call(&mut client, &bodies[route]);
        let sample = Sample::since(started, t);
        part.record(route, sample, answer_of(reply));
        if let Some(p) = progress {
            p.add();
        }
    }
    let exhausted = !cycle && sent >= bodies.len();
    (part, started.elapsed(), exhausted)
}

/// Open loop: each sender follows its own seeded schedule, one request
/// at a time; latency counts from the due time.
fn open_loop(addr: SocketAddr, mode: ConnMode, inputs: &Inputs) -> (Vec<Part>, Duration) {
    let started = Instant::now();
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .arrivals
            .iter()
            .map(|schedule| {
                s.spawn(move || {
                    let mut client = Client::new(addr, mode);
                    let mut part = Part::default();
                    for a in schedule {
                        let now = started.elapsed();
                        if now < a.due {
                            std::thread::sleep(a.due - now);
                        }
                        let sent = started.elapsed();
                        let reply = route_call(&mut client, &inputs.route_bodies[a.route]);
                        let done = started.elapsed();
                        let timed = open_loop_timing(a.due, sent, done);
                        part.lag.push(timed.lag);
                        let sample = Sample {
                            at: done.as_secs_f64(),
                            ms: timed.latency.as_secs_f64() * 1e3,
                        };
                        part.record(a.route, sample, answer_of(reply));
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread"))
            .collect::<Vec<_>>()
    });
    (parts, started.elapsed())
}

fn update_call(client: &mut Client, body: &str) -> Outcome {
    match client.call("POST", "/v1/update", Some(body.as_bytes())) {
        Ok(r) => outcome_of(&format!("POST /v1/update {body}"), &r),
        Err(e) => {
            report_failure(format_args!("POST /v1/update {body}: {e}"));
            Outcome::Transport
        }
    }
}

/// Publishes updates serially, each after the previous ack, on one
/// kept-alive connection as a writer client would, until `window` passes.
fn write_tail(addr: SocketAddr, inputs: &Inputs, window: Duration, m: &mut Measured) {
    let mut client = Client::new(addr, ConnMode::KeepAlive);
    let started = Instant::now();
    let mut bodies = inputs.update_bodies.iter();
    while started.elapsed() < window {
        let Some(body) = bodies.next() else {
            m.exhausted = true;
            break;
        };
        let t = Instant::now();
        let outcome = update_call(&mut client, body);
        m.tally.add(&outcome);
        if outcome == Outcome::Ok {
            m.update_latency.push(Sample::since(started, t));
        }
        m.published += 1;
    }
    m.update_window = started.elapsed();
}

/// Drains every session with a non-blocking poll; keeps the bodies that
/// carry deltas or a resync.
pub fn drain_sessions(
    client: &mut Client,
    fleet: &Fleet,
    polls: &mut Vec<(usize, Vec<u8>)>,
    tally: &mut Tally,
) {
    const EMPTY: &[u8] = br#"{"resync":false,"deltas":[]}"#;
    for (i, s) in fleet.sessions.iter().enumerate() {
        let path = format!("/v1/subscribe/{}/poll?wait_ms=0", s.id);
        match client.call("GET", &path, None) {
            Ok(r) if r.status == 200 => {
                tally.add(&Outcome::Ok);
                if r.body != EMPTY {
                    polls.push((i, r.body));
                }
            }
            Ok(r) => tally.add(&outcome_of(&format!("GET {path}"), &r)),
            Err(e) => {
                report_failure(format_args!("GET {path}: {e}"));
                tally.add(&Outcome::Transport)
            }
        }
    }
}

/// A reader streams routes while a writer publishes one update per
/// [`LIVE_READS_PER_UPDATE`] routes the reader completed and drains every
/// session after each ack. Pacing on the reader, not the clock, keeps the
/// mix of reads and writes the same on a slow or a fast host.
fn live(addr: SocketAddr, fleet: &Fleet, inputs: &Inputs, window: Duration, m: &mut Measured) {
    let progress = Progress::default();
    let end = Instant::now() + window;
    let ((part, elapsed, _), writer) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut client = Client::new(addr, ConnMode::KeepAlive);
            let mut w = Measured::default();
            let started = Instant::now();
            w.exhausted = true;
            for (j, body) in inputs.update_bodies.iter().enumerate() {
                if !progress.wait_for((j + 1) * LIVE_READS_PER_UPDATE, end) {
                    w.exhausted = false;
                    break;
                }
                let t = Instant::now();
                let outcome = update_call(&mut client, body);
                w.tally.add(&outcome);
                if outcome == Outcome::Ok {
                    w.update_latency.push(Sample::since(started, t));
                }
                w.published += 1;
                drain_sessions(&mut client, fleet, &mut w.polls, &mut w.tally);
            }
            w.update_window = started.elapsed();
            w
        });
        let reader = closed_loop(
            addr,
            ConnMode::KeepAlive,
            &inputs.route_bodies,
            window,
            true,
            Some(&progress),
        );
        (reader, writer.join().expect("writer thread"))
    });
    absorb(m, vec![part]);
    m.route_window = elapsed;
    m.update_latency = writer.update_latency;
    m.update_window = writer.update_window;
    m.polls = writer.polls;
    m.tally.merge(writer.tally);
    m.published = writer.published;
    m.exhausted = writer.exhausted;
}

pub fn run(workload: Workload, fleet: &Fleet, inputs: &Inputs, seconds: u64) -> Measured {
    let addr = fleet.gateway.addr();
    let mode = workload.conn_mode();
    let (window, tail) = workload.windows(seconds);
    let mut m = Measured::default();
    match workload {
        Workload::RouteCold => {
            let (part, elapsed, exhausted) =
                closed_loop(addr, mode, &inputs.route_bodies, window, false, None);
            absorb(&mut m, vec![part]);
            m.route_window = elapsed;
            m.exhausted = exhausted;
            write_tail(addr, inputs, tail, &mut m);
        }
        Workload::RouteHot => {
            let (parts, elapsed) = open_loop(addr, mode, inputs);
            absorb(&mut m, parts);
            m.route_window = elapsed;
            write_tail(addr, inputs, tail, &mut m);
        }
        Workload::LiveUpdates => live(addr, fleet, inputs, window, &mut m),
    }
    m
}
