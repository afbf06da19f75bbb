//! The traced run: the workload's own inputs replayed serially, one
//! request in flight, through each layer's public entry point, bottom up.
//! Every call is wrapped in a span recorded by this file; a layer's added
//! time is its rung's time minus the rung beneath it, request by request.

use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use kosr_core::IndexedGraph;
use kosr_gateway::http::{read_request, HttpLimits};
use kosr_graph::Graph;
use kosr_hoplabel::HubOrder;
use kosr_service::{run_sequential, KosrService, QueryPlanner, ServiceConfig, Update};
use kosr_shard::{InProcTransport, ShardTransport, TcpServer, TcpTransport};
use kosr_transport::protocol::{encode_request, encode_response, Request, Response};

use crate::client::Client;
use crate::drive::Measured;
use crate::fleet::{self, Fleet, SHARDS};
use crate::inputs::{Inputs, TransportKind, Workload};
use crate::json::{self, Answer};
use crate::stats::{ladder_gap, median, rung_added, Outcome, Samples, Tally};

/// Routes replayed per rung: enough for ten samples beyond p99.
const LADDER_ROUTES: usize = 1200;
/// Updates replayed per rung.
const LADDER_UPDATES: usize = 200;

const RUNGS: [&str; 5] = ["core", "service", "transport", "shard", "gateway"];

#[derive(Clone, Copy, Debug)]
enum Op {
    Route(usize),
    Update(usize),
}

/// One recorded call: name, start and end since the run began, the span
/// that caused it, and the request id shared across rungs.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    request: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: String, parent: Option<u64>) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            request: None,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Times `f`, recording a span when tracing is on; returns the result
    /// and its duration in ms.
    fn call<T>(
        &mut self,
        name: &str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if self.on {
            let end_ns = self.now_ns();
            let start_ns = end_ns.saturating_sub((ms * 1e6) as u64);
            self.spans.push(Span {
                id: self.spans.len() as u64 + 1,
                parent: Some(parent),
                name: name.to_string(),
                request: Some(request),
                start_ns,
                end_ns,
            });
        }
        (out, ms)
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                json::quote(&s.name),
                s.request.map_or("null".into(), |r| r.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One rung's replay: route and update times by request id, and answers
/// for the cross-rung check.
#[derive(Default)]
struct Pass {
    routes: Vec<(u64, f64)>,
    updates: Vec<(u64, f64)>,
    answers: Vec<(u64, Option<Answer>)>,
    update_failures: u64,
}

/// What a rung's call returned for one op: a route reply, reduced to an
/// [`Answer`] after the timed span closes, or whether an update applied.
enum Call<R> {
    Route(Option<R>),
    Update(bool),
}

/// Replays `ops` through one rung: `call` is timed inside a span,
/// `answer` reads a route reply afterwards, outside the timing.
fn replay<R>(
    rec: &mut Recorder,
    rung: &str,
    ops: &[Op],
    call: impl FnMut(Op) -> Call<R>,
    answer: impl FnMut(R) -> Option<Answer>,
) -> Pass {
    let mut pass = Pass::default();
    replay_into(&mut pass, rec, rung, ops, 0, call, answer);
    pass
}

/// [`replay`] of a segment of the op stream whose first op has id
/// `first`, appended to `pass`.
fn replay_into<R>(
    pass: &mut Pass,
    rec: &mut Recorder,
    rung: &str,
    ops: &[Op],
    first: u64,
    mut call: impl FnMut(Op) -> Call<R>,
    mut answer: impl FnMut(R) -> Option<Answer>,
) {
    let pass_span = rec.open(format!("{rung}.pass"), None);
    let route_name = format!("{rung}.route");
    let update_name = format!("{rung}.update");
    for (i, &op) in ops.iter().enumerate() {
        let id = first + i as u64;
        let name = match op {
            Op::Route(_) => &route_name,
            Op::Update(_) => &update_name,
        };
        let (out, ms) = rec.call(name, pass_span, id, || call(op));
        match out {
            Call::Route(reply) => {
                pass.routes.push((id, ms));
                pass.answers.push((id, reply.and_then(&mut answer)));
            }
            Call::Update(ok) => {
                pass.updates.push((id, ms));
                pass.update_failures += !ok as u64;
            }
        }
    }
    rec.close(pass_span);
}

/// The ladder's op stream: routes then updates for the read workloads;
/// updates spread evenly among the routes for `live_updates`.
fn ops(workload: Workload, inputs: &Inputs) -> Vec<Op> {
    let routes = LADDER_ROUTES.min(inputs.routes.len());
    let updates = LADDER_UPDATES.min(inputs.updates.len());
    match workload {
        Workload::LiveUpdates => {
            let every = (routes / updates.max(1)).max(1);
            let mut out = Vec::new();
            let mut u = 0;
            for r in 0..routes {
                out.push(Op::Route(r));
                if (r + 1) % every == 0 && u < updates {
                    out.push(Op::Update(u));
                    u += 1;
                }
            }
            out
        }
        _ => (0..routes)
            .map(Op::Route)
            .chain((0..updates).map(Op::Update))
            .collect(),
    }
}

fn apply_core(ig: &mut IndexedGraph, u: &Update) -> bool {
    match *u {
        Update::InsertMembership { vertex, category } => {
            ig.insert_membership(vertex, category);
            true
        }
        Update::RemoveMembership { vertex, category } => {
            ig.remove_membership(vertex, category);
            true
        }
        Update::InsertEdge { from, to, weight } => ig.insert_edge(from, to, weight).is_ok(),
    }
}

/// The per-layer metrics, in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Public counters of the measured fleet, read after the measured phase.
pub fn fleet_metrics(fleet: &Fleet, m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    let sum = |f: &dyn Fn(&KosrService) -> u64| -> f64 {
        fleet.services.iter().map(|s| f(s)).sum::<u64>() as f64
    };
    let hits = sum(&|s| s.cache_stats().hits);
    let misses = sum(&|s| s.cache_stats().misses);
    out.add("service.cache_hit_ratio", ratio(hits, hits + misses), "1");
    out.add(
        "service.prefix_hits",
        sum(&|s| s.cache_stats().prefix_hits),
        "count",
    );
    out.add(
        "service.evictions",
        sum(&|s| s.cache_stats().evictions),
        "count",
    );
    let visits = sum(&|s| s.cache_stats().invalidation_visits);
    out.add(
        "service.invalidation_visits_per_update",
        ratio(visits, m.published as f64),
        "count",
    );
    out.add(
        "service.witness_reuses",
        sum(&|s| s.stats().witness_reuses),
        "count",
    );
    let rejected = sum(&|s| {
        let st = s.stats();
        st.rejected_queue_full + st.deadline_exceeded + st.budget_exhausted + st.rejected_invalid
    });
    out.add("service.rejected", rejected, "count");
    let failovers: u64 = (0..SHARDS)
        .map(|j| fleet.router.replica_set(j).health_snapshot().failovers)
        .sum();
    out.add("transport.failovers", failovers as f64, "count");
    let gw = fleet.gateway.stats();
    let (_, c4, c5) = gw.responses_by_class();
    out.add("gateway.status_4xx", c4 as f64, "count");
    out.add("gateway.status_5xx", c5 as f64, "count");
    out.add(
        "gateway.conn_rejected",
        gw.connections_rejected() as f64,
        "count",
    );
    let hub = fleet.gateway.subscriptions().stats();
    out.add("subscribe.wakeups", hub.wakeups_total() as f64, "count");
    out.add("subscribe.skipped", hub.skipped_total() as f64, "count");
    out.add("subscribe.recomputes", hub.recomputes as f64, "count");
    out.add("subscribe.deltas_pushed", hub.deltas_pushed as f64, "count");
    out.add(
        "subscribe.useful_ratio",
        ratio(hub.deltas_pushed as f64, hub.recomputes as f64),
        "1",
    );
    out.add(
        "subscribe.resyncs",
        (hub.resyncs_served + hub.overflows) as f64,
        "count",
    );
    let lag = Samples::new(m.lag.iter().map(|d| d.as_secs_f64() * 1e3).collect());
    out.add("bench.gen_lag_p99_ms", lag.tail().0, "ms");
    out
}

/// Mean microseconds to parse one of the workload's own requests: HTTP
/// head and body, then the JSON body.
fn parse_us(inputs: &Inputs) -> f64 {
    let raws: Vec<Vec<u8>> = inputs
        .route_bodies
        .iter()
        .take(LADDER_ROUTES)
        .map(|b| {
            format!(
                "POST /v1/route HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )
            .into_bytes()
        })
        .collect();
    let limits = HttpLimits::default();
    let mut per_pass = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        for raw in &raws {
            let req = read_request(&mut &raw[..], &limits).expect("the workload's requests parse");
            std::hint::black_box(
                kosr_gateway::json::parse(&req.body).expect("the workload's bodies parse"),
            );
        }
        per_pass.push(t.elapsed().as_secs_f64() * 1e6 / raws.len() as f64);
    }
    median(&per_pass)
}

/// A single-service transport of the workload's kind.
fn transport(
    kind: TransportKind,
    svc: Arc<KosrService>,
) -> std::io::Result<(Arc<dyn ShardTransport>, Option<TcpServer>)> {
    Ok(match kind {
        TransportKind::InProc => (Arc::new(InProcTransport::new(svc)), None),
        TransportKind::Tcp => {
            let server = TcpServer::spawn(svc)?;
            (Arc::new(TcpTransport::connect(server.addr())), Some(server))
        }
    })
}

fn http_step(client: &mut Client, path: &str, body: &str) -> Option<Vec<u8>> {
    client
        .call("POST", path, Some(body.as_bytes()))
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| r.body)
}

/// Ops per segment of the two gateway replays.
const GATEWAY_SEGMENT: usize = 100;

/// Rung 5 twice, on two fleets: with spans kept and without. The replays
/// take turns segment by segment, in alternating order, so both see the
/// same host conditions and their difference is the tracing overhead.
fn gateway_passes(
    rec: &mut Recorder,
    workload: Workload,
    inputs: &Inputs,
    ops: &[Op],
) -> Result<(Pass, Pass), String> {
    let setup = || fleet::setup(workload, &inputs.subscriptions).map_err(|e| e.to_string());
    let (traced_fleet, _) = setup()?;
    let (plain_fleet, _) = setup()?;
    let mode = workload.conn_mode();
    let mut clients = [
        Client::new(traced_fleet.gateway.addr(), mode),
        Client::new(plain_fleet.gateway.addr(), mode),
    ];
    let mut passes = [Pass::default(), Pass::default()];
    for (s, segment) in ops.chunks(GATEWAY_SEGMENT).enumerate() {
        let first = (s * GATEWAY_SEGMENT) as u64;
        for turn in 0..2 {
            let side = (turn + s) % 2;
            let was_on = rec.on;
            rec.on = was_on && side == 0;
            let client = &mut clients[side];
            replay_into(
                &mut passes[side],
                rec,
                ["gateway", "gateway_untraced"][side],
                segment,
                first,
                |op| match op {
                    Op::Route(i) => {
                        Call::Route(http_step(client, "/v1/route", &inputs.route_bodies[i]))
                    }
                    Op::Update(j) => Call::Update(
                        http_step(client, "/v1/update", &inputs.update_bodies[j]).is_some(),
                    ),
                },
                |body| Answer::of_route_body(&body),
            );
            rec.on = was_on;
        }
    }
    let [traced, plain] = passes;
    Ok((traced, plain))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Pass {
    fn route_ms(&self) -> Vec<f64> {
        self.routes.iter().map(|&(_, ms)| ms).collect()
    }
}

/// The ladder's result: per-layer metrics, the per-layer table, and the
/// tally of every rung's answers checked against the core rung's.
pub struct Ladder {
    pub metrics: Metrics,
    pub table: Vec<String>,
    pub tally: Tally,
}

/// The label build on the workload's world, timed from outside.
fn hoplabel(world: &Graph, m: &mut Metrics) {
    let t = Instant::now();
    let ch = kosr_ch::build(world);
    let labels = kosr_hoplabel::build(world, &HubOrder::from_ch(&ch));
    m.add("hoplabel.build_s", t.elapsed().as_secs_f64(), "s");
    m.add(
        "hoplabel.label_entries",
        labels.num_entries() as f64,
        "count",
    );
}

/// Rung 1: the engine on the unsharded graph, with its search counters.
fn core_rung(
    rec: &mut Recorder,
    ops: &[Op],
    inputs: &Inputs,
    pristine: &IndexedGraph,
    m: &mut Metrics,
) -> Pass {
    let planner = QueryPlanner::new(ServiceConfig::default().planner);
    let mut ig = pristine.clone();
    let mut sums = [0u64; 6];
    let pass = replay(
        rec,
        "core",
        ops,
        |op| match op {
            Op::Route(i) => Call::Route(
                run_sequential(&ig, &planner, std::slice::from_ref(&inputs.routes[i])).pop(),
            ),
            Op::Update(j) => Call::Update(apply_core(&mut ig, &inputs.updates[j])),
        },
        |o| {
            let s = &o.stats;
            for (sum, x) in sums.iter_mut().zip([
                s.examined_routes,
                s.nn_queries,
                s.dominated_routes,
                s.bound_pruned,
                s.heap_peak as u64,
                o.witnesses.len() as u64,
            ]) {
                *sum += x;
            }
            Some(Answer::of_witnesses(&o.witnesses))
        },
    );
    let n = pass.routes.len() as f64;
    let [examined, nn, dominated, pruned, heap, returned] = sums.map(|x| x as f64);
    m.add("core.examined_routes", ratio(examined, n), "count");
    m.add("core.nn_queries", ratio(nn, n), "count");
    m.add("core.dominated_routes", ratio(dominated, n), "count");
    m.add("core.bound_pruned", ratio(pruned, n), "count");
    m.add("core.heap_peak", ratio(heap, n), "count");
    m.add("core.useful_ratio", ratio(returned, examined), "1");
    pass
}

/// Rung 2: the worker pool, queue and cache over the unsharded graph.
fn service_rung(
    rec: &mut Recorder,
    ops: &[Op],
    inputs: &Inputs,
    pristine: &IndexedGraph,
    m: &mut Metrics,
) -> Pass {
    let svc = KosrService::new(Arc::new(pristine.clone()), ServiceConfig::default());
    let pass = replay(
        rec,
        "service",
        ops,
        |op| match op {
            Op::Route(i) => Call::Route(
                svc.submit(inputs.routes[i].clone())
                    .and_then(|t| t.wait())
                    .ok(),
            ),
            Op::Update(j) => Call::Update(svc.apply_update(&inputs.updates[j]).is_ok()),
        },
        |r| Some(Answer::of_witnesses(&r.outcome.witnesses)),
    );
    let st = svc.stats();
    let waited = pass.route_ms().iter().sum::<f64>() - st.busy.as_secs_f64() * 1e3;
    m.add(
        "service.wait_ms_mean",
        ratio(waited, st.completed as f64),
        "ms",
    );
    pass
}

/// Rung 3: a service behind the workload's transport, plus a snapshot
/// pull and install through it.
fn transport_rung(
    kind: TransportKind,
    rec: &mut Recorder,
    ops: &[Op],
    inputs: &Inputs,
    pristine: &IndexedGraph,
    m: &mut Metrics,
) -> Result<Pass, String> {
    let svc = Arc::new(KosrService::new(
        Arc::new(pristine.clone()),
        ServiceConfig::default(),
    ));
    let (tp, _server) = transport(kind, svc).map_err(|e| e.to_string())?;
    let blob = tp.snapshot().map_err(|e| format!("snapshot pull: {e:?}"))?;
    let t = Instant::now();
    tp.install_snapshot(&blob)
        .map_err(|e| format!("snapshot install: {e:?}"))?;
    m.add(
        "index.snapshot_install_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    m.add("index.snapshot_bytes", blob.bytes.len() as f64, "bytes");
    let mut wire_bytes = 0usize;
    let pass = replay(
        rec,
        "transport",
        ops,
        |op| match op {
            Op::Route(i) => Call::Route(
                tp.submit(inputs.routes[i].clone())
                    .wait()
                    .ok()
                    .map(|r| (i, r)),
            ),
            Op::Update(j) => Call::Update(tp.apply_update(&inputs.updates[j]).is_ok()),
        },
        |(i, r)| {
            let answer = Answer::of_witnesses(&r.outcome.witnesses);
            // Two frames, each behind a 4-byte length prefix.
            wire_bytes += encode_request(0, &Request::Query(inputs.routes[i].clone())).len() + 4;
            wire_bytes += encode_response(0, &Response::Query(Ok(r))).len() + 4;
            Some(answer)
        },
    );
    m.add(
        "transport.bytes_per_query",
        ratio(wire_bytes as f64, pass.routes.len() as f64),
        "bytes",
    );
    Ok(pass)
}

/// Rung 4: the router over 2 shards on the workload's transport, with
/// updates published through its bus.
fn shard_rung(
    kind: TransportKind,
    rec: &mut Recorder,
    ops: &[Op],
    inputs: &Inputs,
    pristine: &IndexedGraph,
    m: &mut Metrics,
) -> Result<Pass, String> {
    let replicas =
        fleet::start_replicas(fleet::shard_set(pristine), kind).map_err(|e| e.to_string())?;
    let bus = replicas.router.update_bus();
    let (mut fanout, mut skipped, mut cached, mut touched, mut deferred) = (0, 0, 0, 0, 0);
    let mut publish_ms = Vec::new();
    let pass = replay(
        rec,
        "shard",
        ops,
        |op| match op {
            Op::Route(i) => Call::Route(
                replicas
                    .router
                    .submit(inputs.routes[i].clone())
                    .and_then(|t| t.wait())
                    .ok(),
            ),
            Op::Update(j) => {
                let t = Instant::now();
                let receipt = bus.publish(&inputs.updates[j]);
                publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if let Ok(r) = &receipt {
                    touched += r.replicas_touched;
                    deferred += r.deferred_replicas;
                }
                Call::Update(receipt.is_ok())
            }
        },
        |r| {
            fanout += r.shards.len();
            skipped += r.skipped_shards.len();
            cached += r.cached_shards;
            Some(Answer::of_witnesses(&r.outcome.witnesses))
        },
    );
    let routes = pass.routes.len() as f64;
    let publish = Samples::new(publish_ms);
    m.add("shard.fanout_mean", ratio(fanout as f64, routes), "count");
    m.add(
        "shard.bound_skip_ratio",
        ratio(skipped as f64, (fanout + skipped) as f64),
        "1",
    );
    m.add(
        "shard.cached_shard_ratio",
        ratio(cached as f64, fanout as f64),
        "1",
    );
    m.add("shard.publish_ms_p50", publish.p50(), "ms");
    m.add("shard.publish_ms_p99", publish.tail().0, "ms");
    m.add(
        "shard.replicas_touched_mean",
        ratio(touched as f64, pass.updates.len() as f64),
        "count",
    );
    m.add("shard.deferred_replicas", deferred as f64, "count");
    Ok(pass)
}

pub fn run(workload: Workload, inputs: &Inputs, rec: &mut Recorder) -> Result<Ladder, String> {
    let kind = workload.transport();
    let ops = ops(workload, inputs);
    let mut m = Metrics::default();
    hoplabel(&inputs.world, &mut m);
    let pristine = IndexedGraph::build_default(inputs.world.clone());
    let core = core_rung(rec, &ops, inputs, &pristine, &mut m);
    let service = service_rung(rec, &ops, inputs, &pristine, &mut m);
    let transport = transport_rung(kind, rec, &ops, inputs, &pristine, &mut m)?;
    let shard = shard_rung(kind, rec, &ops, inputs, &pristine, &mut m)?;
    drop(pristine);

    // Rung 5: HTTP in the workload's connection mode against the full
    // fleet, traced and untraced.
    let (gateway, untraced) = gateway_passes(rec, workload, inputs, &ops)?;
    m.add("gateway.parse_us", parse_us(inputs), "us");

    // Added time per layer, request by request.
    let passes = [&core, &service, &transport, &shard, &gateway];
    let mut table = vec![format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "layer", "rung_p50_ms", "rung_p99_ms", "added_p50", "added_p99"
    )];
    let mut added_p50 = Vec::new();
    for (r, pass) in passes.iter().enumerate() {
        let rung = Samples::new(pass.route_ms());
        let added = match r {
            0 => rung.clone(),
            _ => Samples::new(rung_added(&passes[r - 1].routes, &pass.routes)),
        };
        m.add(&format!("{}.added_ms_p50", RUNGS[r]), added.p50(), "ms");
        m.add(&format!("{}.added_ms_p99", RUNGS[r]), added.tail().0, "ms");
        table.push(format!(
            "{:<10} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            RUNGS[r],
            rung.p50(),
            rung.tail().0,
            added.p50(),
            added.tail().0
        ));
        added_p50.push(added.p50());
    }
    let top = Samples::new(gateway.route_ms()).p50();
    let plain = Samples::new(untraced.route_ms()).p50();
    m.add("bench.rung_gateway_ms_p50", top, "ms");
    m.add("bench.ladder_gap_ratio", ladder_gap(&added_p50, top), "1");
    m.add("bench.trace_overhead_ratio", ratio(top, plain) - 1.0, "1");

    // Every rung must apply every update and give the core rung's answers.
    let mut tally = Tally::default();
    for pass in passes.iter().chain([&&untraced]) {
        tally.merge(Tally {
            attempted: pass.updates.len() as u64,
            failed: pass.update_failures,
        });
    }
    for pass in passes[1..].iter().chain([&&untraced]) {
        for (&(id, got), &(core_id, want)) in pass.answers.iter().zip(&core.answers) {
            let right = id == core_id && got.is_some() && got == want;
            tally.add(if right {
                &Outcome::Ok
            } else {
                &Outcome::Mismatch
            });
        }
    }
    Ok(Ladder {
        metrics: m,
        table,
        tally,
    })
}
