//! The fleet under test: 2 region shards, one replica each with the
//! default service config, a supervisor and the HTTP gateway, all with
//! their default configs.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kosr_core::IndexedGraph;
use kosr_gateway::{Gateway, GatewayConfig};
use kosr_graph::{PartitionConfig, Partitioner};
use kosr_service::{KosrService, ServiceConfig};
use kosr_shard::{
    ShardRouter, ShardSet, ShardTransport, SupervisorConfig, SupervisorHandle, TcpServer,
    TcpTransport,
};
use kosr_workloads::road_grid_directed;

use crate::client::{Client, ConnMode};
use crate::inputs::{TransportKind, Workload};
use crate::json::{self, Value};

pub const SHARDS: usize = 2;

/// A standing query registered at set-up.
pub struct Session {
    pub id: u64,
    pub query: usize,
    pub routes: Value,
}

pub struct Fleet {
    // Declaration order is drop order: the edge first, the replicas last.
    pub gateway: Gateway,
    _supervisor: Arc<SupervisorHandle>,
    pub router: Arc<ShardRouter>,
    /// Every replica's service, shard by shard.
    pub services: Vec<Arc<KosrService>>,
    _servers: Vec<TcpServer>,
    pub sessions: Vec<Session>,
}

/// The resolved configuration the fleet runs with, for the run stamp.
pub fn resolved_config() -> Vec<(String, String)> {
    let svc = ServiceConfig::default();
    let workers = if svc.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        svc.workers
    };
    let gw = GatewayConfig::default();
    let sup = SupervisorConfig::default();
    vec![
        ("shards".into(), SHARDS.to_string()),
        ("replicas_per_shard".into(), "1".into()),
        ("service_workers".into(), workers.to_string()),
        (
            "service_queue_capacity".into(),
            svc.queue_capacity.to_string(),
        ),
        (
            "service_cache_capacity".into(),
            svc.cache_capacity.to_string(),
        ),
        (
            "planner_use_bounds".into(),
            svc.planner.use_bounds.to_string(),
        ),
        (
            "gateway_max_connections".into(),
            gw.max_connections.to_string(),
        ),
        (
            "gateway_trace_sample_ratio".into(),
            json::num(gw.trace_sample_ratio),
        ),
        (
            "gateway_subscribe_queue".into(),
            gw.subscribe_queue.to_string(),
        ),
        (
            "supervisor_tick_ms".into(),
            sup.tick_every.as_millis().to_string(),
        ),
        (
            "supervisor_compact_watermark".into(),
            sup.compact_watermark.to_string(),
        ),
    ]
}

fn other(e: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("{e:?}"))
}

/// Partitions `ig` into the benchmark's shard set.
pub fn shard_set(ig: &IndexedGraph) -> ShardSet {
    let partition = Partitioner::new(PartitionConfig {
        num_shards: SHARDS,
        ..Default::default()
    })
    .partition(&ig.graph);
    ShardSet::build(ig, partition)
}

/// A router over running replicas.
pub struct Replicas {
    pub router: Arc<ShardRouter>,
    /// Every replica's service, shard by shard.
    pub services: Vec<Arc<KosrService>>,
    /// The TCP servers to keep alive (none in-process).
    pub servers: Vec<TcpServer>,
}

/// Starts one replica per shard of `set` behind `kind`.
pub fn start_replicas(set: ShardSet, kind: TransportKind) -> io::Result<Replicas> {
    match kind {
        TransportKind::InProc => {
            let router = ShardRouter::new(set, ServiceConfig::default());
            let services = (0..SHARDS)
                .flat_map(|j| router.local_replica_services(j).to_vec())
                .collect();
            Ok(Replicas {
                router: Arc::new(router),
                services,
                servers: Vec::new(),
            })
        }
        TransportKind::Tcp => {
            // Cold join over the wire, as a restarted replica process
            // takes it: pull the shard's snapshot from a seed replica,
            // push it into a fresh one, retire the seed.
            let placeholder = Arc::new(IndexedGraph::build_default(road_grid_directed(2, 2, 0)));
            let mut transports: Vec<Vec<Arc<dyn ShardTransport>>> = Vec::new();
            let mut services = Vec::new();
            let mut servers = Vec::new();
            for j in 0..SHARDS {
                let seed = Arc::new(KosrService::new(
                    Arc::new(set.shard(j).clone()),
                    ServiceConfig::default(),
                ));
                let seed_server = TcpServer::spawn(seed)?;
                let blob = TcpTransport::connect(seed_server.addr())
                    .snapshot()
                    .map_err(other)?;
                drop(seed_server);
                let svc = Arc::new(KosrService::new(
                    Arc::clone(&placeholder),
                    ServiceConfig::default(),
                ));
                let server = TcpServer::spawn(Arc::clone(&svc))?;
                let transport = TcpTransport::connect(server.addr());
                transport.install_snapshot(&blob).map_err(other)?;
                transports.push(vec![Arc::new(transport)]);
                services.push(svc);
                servers.push(server);
            }
            let router = ShardRouter::from_transports(
                transports,
                set.partition().clone(),
                set.base_categories(),
                set.partition_stats().clone(),
            );
            Ok(Replicas {
                router: Arc::new(router),
                services,
                servers,
            })
        }
    }
}

/// Builds the whole fleet for `workload`; returns it with the seconds it
/// took from world generation to the first `200` on `/healthz`.
pub fn setup(workload: Workload, subscriptions: &[String]) -> io::Result<(Fleet, f64)> {
    let started = Instant::now();
    let world = workload.world();
    let ig = IndexedGraph::build_default(world);
    let set = shard_set(&ig);
    drop(ig);
    let Replicas {
        router,
        services,
        servers,
    } = start_replicas(set, workload.transport())?;
    let supervisor = Arc::new(router.supervisor(SupervisorConfig::default()).start());
    let gateway = Gateway::spawn(
        Arc::clone(&router),
        Some(Arc::clone(&supervisor)),
        GatewayConfig::default(),
    )?;
    let mut client = Client::new(gateway.addr(), ConnMode::KeepAlive);
    let mut sessions = Vec::with_capacity(subscriptions.len());
    for (i, body) in subscriptions.iter().enumerate() {
        let resp = client.call("POST", "/v1/subscribe", Some(body.as_bytes()))?;
        let v = json::parse(&resp.body).filter(|_| resp.status == 200);
        let v = v.ok_or_else(|| other(format!("subscribe answered {}", resp.status)))?;
        let field = |k: &str| v.get(k).and_then(Value::num).map(|n| n as u64);
        sessions.push(Session {
            id: field("session").ok_or_else(|| other("subscribe without session"))?,
            query: i,
            routes: v.get("routes").cloned().unwrap_or(Value::Arr(Vec::new())),
        });
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.call("GET", "/healthz", None) {
            Ok(r) if r.status == 200 => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Ok(r) => return Err(other(format!("/healthz stuck at {}", r.status))),
            Err(e) => return Err(e),
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    Ok((
        Fleet {
            gateway,
            _supervisor: supervisor,
            router,
            services,
            _servers: servers,
            sessions,
        },
        seconds,
    ))
}

/// Resident set size of this process, MiB.
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
