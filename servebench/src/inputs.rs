//! The three workloads and the inputs each generates from its seed. The
//! fleet under test receives only these inputs.

use std::collections::HashSet;
use std::time::Duration;

use kosr_core::Query;
use kosr_graph::{CategoryId, Graph, VertexId};
use kosr_service::Update;
use kosr_workloads::{
    assign_clustered, assign_uniform, gen_membership_flips, gen_mixed_traffic, road_grid_directed,
    route_body, QuerySpec, TrafficMix,
};

use crate::client::ConnMode;
use crate::json::quote;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RouteCold,
    RouteHot,
    LiveUpdates,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    InProc,
    Tcp,
}

/// Offered rate of the `route_hot` open loop, requests per second.
pub const HOT_RATE: f64 = 200.0;
/// Routes the `live_updates` reader completes per update the writer
/// publishes.
pub const LIVE_READS_PER_UPDATE: usize = 20;
/// Standing queries `live_updates` registers at setup.
pub const LIVE_SUBSCRIPTIONS: usize = 64;
/// Seed of the standing-query set, part of the fleet like the world.
const STANDING_SEED: u64 = 64;
/// Seed of the `route_hot` arrival times. A tail under an open loop is
/// set by a few clumps of arrivals; one fixed schedule keeps the seed's
/// effect on the tail to which requests arrive, not when.
const SCHEDULE_SEED: u64 = 300;
/// `(|C|, k)` shapes of the standing queries: two-stop trips watched for
/// their best three routes.
const STANDING_SHAPES: [(usize, usize); 1] = [(2, 3)];
/// Ceiling on the rate of the write tail the read-only workloads publish
/// after their read phase (so update latency is measured on every world)
/// that the update stream is sized for, updates per second.
pub const TAIL_STREAM_RATE: f64 = 2000.0;
/// Ceiling on the `route_cold` closed-loop rate the unique stream is
/// sized for, requests per second; the stamp records an exhausted stream.
pub const COLD_STREAM_RATE: f64 = 2000.0;
/// Requests drawn per `route_cold` generator chunk.
const COLD_CHUNK: usize = 1500;
/// Requests per chunk of default-mix traffic: `route_hot` keeps a hot set
/// long enough for the cache to serve it; the `live_updates` reader
/// averages its heavy-tailed query costs over many template pools.
const HOT_CHUNK: usize = 500;
const LIVE_CHUNK: usize = 20;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RouteCold,
        Workload::RouteHot,
        Workload::LiveUpdates,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteCold => "route_cold",
            Workload::RouteHot => "route_hot",
            Workload::LiveUpdates => "live_updates",
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Workload::RouteHot => TransportKind::Tcp,
            _ => TransportKind::InProc,
        }
    }

    pub fn conn_mode(self) -> ConnMode {
        match self {
            Workload::RouteHot => ConnMode::Close,
            _ => ConnMode::KeepAlive,
        }
    }

    /// The read phase and the write tail of a run of `seconds`: the
    /// read-only workloads read for two thirds of it and publish for the
    /// rest; `live_updates` reads and writes together throughout.
    pub fn windows(self, seconds: u64) -> (Duration, Duration) {
        let run = Duration::from_secs(seconds);
        match self {
            Workload::LiveUpdates => (run, Duration::ZERO),
            _ => (run * 2 / 3, run - run * 2 / 3),
        }
    }

    /// Fleet set-ups per run; `setup_s` is their median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::RouteCold => 5,
            Workload::RouteHot => 7,
            Workload::LiveUpdates => 9,
        }
    }

    /// The world: road grid plus category layout. Fixed, like the
    /// standing queries: the seed varies the traffic a fleet sees, not
    /// the fleet, so seeds measure the same system.
    pub fn world(self) -> Graph {
        match self {
            Workload::RouteCold => {
                let mut g = road_grid_directed(64, 64, 17);
                assign_uniform(&mut g, 6, 100, 5);
                g
            }
            Workload::RouteHot => {
                let mut g = road_grid_directed(16, 16, 13);
                assign_uniform(&mut g, 6, 20, 5);
                g
            }
            Workload::LiveUpdates => {
                let mut g = road_grid_directed(32, 32, 42);
                assign_clustered(&mut g, 6, 40, 0.06, 7);
                g
            }
        }
    }
}

/// splitmix64 of `seed` and a stream tag: independent per-purpose seeds.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn query_of(s: &QuerySpec) -> Query {
    Query::new(s.source, s.target, s.categories.clone(), s.k)
}

pub fn update_body(u: &Update) -> String {
    match *u {
        Update::InsertMembership { vertex, category } => format!(
            "{{\"op\":\"insert_membership\",\"vertex\":{},\"category\":{}}}",
            vertex.0, category.0
        ),
        Update::RemoveMembership { vertex, category } => format!(
            "{{\"op\":\"remove_membership\",\"vertex\":{},\"category\":{}}}",
            vertex.0, category.0
        ),
        Update::InsertEdge { from, to, weight } => format!(
            "{{\"op\":\"insert_edge\",\"from\":{},\"to\":{},\"weight\":{}}}",
            from.0, to.0, weight
        ),
    }
}

/// One open-loop request: when it is due and which route it sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due: Duration,
    pub route: usize,
}

pub struct Inputs {
    pub workload: Workload,
    pub world: Graph,
    pub routes: Vec<Query>,
    pub route_bodies: Vec<String>,
    /// `route_hot` only: each sender's seeded arrival schedule.
    pub arrivals: Vec<Vec<Arrival>>,
    pub updates: Vec<Update>,
    pub update_bodies: Vec<String>,
    pub subscriptions: Vec<String>,
    pub subscription_queries: Vec<Query>,
    /// Routes in the first generator chunk (what the determinism check
    /// regenerates).
    first_chunk: usize,
}

fn deep_mix(requests: usize) -> TrafficMix {
    let classes = vec![(2, 5), (3, 10), (4, 20)];
    TrafficMix {
        // More unique templates than requests in every chunk.
        uniques_per_class: requests / classes.len() + 1,
        classes,
        hot_set: 8,
        hot_fraction: 0.0,
    }
}

/// `TrafficMix::default()` traffic drawn in independent chunks, each with
/// its own template pool and hot set: a run averages over many draws.
fn default_mix_chunks(world: &Graph, total: usize, chunk: usize, seed: u64) -> Vec<QuerySpec> {
    (0..total.div_ceil(chunk))
        .flat_map(|c| {
            let n = chunk.min(total - c * chunk);
            gen_mixed_traffic(
                world,
                n,
                &TrafficMix::default(),
                sub_seed(seed, 200 + c as u64),
            )
        })
        .collect()
}

/// Routes drawn for a `live_updates` run: more than its reader gets
/// through, so the writer's updates last the run too.
fn live_routes(seconds: u64) -> usize {
    1000 * seconds as usize
}

/// Raw flips per block of [`stationary_flips`].
const FLIP_BLOCK: usize = 16;

/// `count` updates from `gen_membership_flips`, in blocks: a block's raw
/// flips, then the inverses of those that changed a membership, newest
/// first. Every block ends on the world's own layout, so category sizes,
/// and with them query costs, do not drift over a run.
fn stationary_flips(world: &Graph, count: usize, seed: u64) -> Vec<Update> {
    let cats = world.categories();
    let mut out = Vec::with_capacity(count);
    let mut block = 0u64;
    while out.len() < count {
        let mut changed: HashSet<(VertexId, CategoryId)> = HashSet::new();
        let mut undo = Vec::new();
        for f in gen_membership_flips(world, FLIP_BLOCK, sub_seed(seed, block)) {
            let key = (f.vertex, f.category);
            let member = cats.has_category(f.vertex, f.category) != changed.contains(&key);
            let (vertex, category) = key;
            out.push(if f.insert {
                Update::InsertMembership { vertex, category }
            } else {
                Update::RemoveMembership { vertex, category }
            });
            if f.insert != member {
                if !changed.remove(&key) {
                    changed.insert(key);
                }
                undo.push(if f.insert {
                    Update::RemoveMembership { vertex, category }
                } else {
                    Update::InsertMembership { vertex, category }
                });
            }
        }
        out.extend(undo.into_iter().rev());
        block += 1;
    }
    out.truncate(count);
    out
}

/// Exponential inter-arrivals at `rate` until `horizon`.
fn poisson(rate: f64, horizon: Duration, seed: u64) -> Vec<Duration> {
    let mut state = seed | 1;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // xorshift64*: a uniform in (0, 1].
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let u =
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= horizon.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        Inputs::build(workload, seed, seconds, usize::MAX)
    }

    fn build(workload: Workload, seed: u64, seconds: u64, max_chunks: usize) -> Inputs {
        let world = workload.world();
        let (horizon, tail) = workload.windows(seconds);
        let mut arrivals = Vec::new();
        let mut first_chunk = 0;
        let specs: Vec<QuerySpec> = match workload {
            Workload::RouteCold => {
                let want = (COLD_STREAM_RATE * horizon.as_secs_f64()) as usize;
                // Drawing as many requests as there are templates leaves
                // about 1 - 1/e of them distinct.
                let chunks = want.div_ceil(COLD_CHUNK * 3 / 5).max(1).min(max_chunks);
                let generated: Vec<Vec<QuerySpec>> = std::thread::scope(|s| {
                    let world = &world;
                    let handles: Vec<_> = (0..2)
                        .map(|t| {
                            s.spawn(move || {
                                (t..chunks)
                                    .step_by(2)
                                    .map(|c| {
                                        let seed = sub_seed(seed, 100 + c as u64);
                                        (
                                            c,
                                            gen_mixed_traffic(
                                                world,
                                                COLD_CHUNK,
                                                &deep_mix(COLD_CHUNK),
                                                seed,
                                            ),
                                        )
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    let mut all: Vec<(usize, Vec<QuerySpec>)> = handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("generator thread"))
                        .collect();
                    all.sort_by_key(|(c, _)| *c);
                    all.into_iter().map(|(_, v)| v).collect()
                });
                // No request repeats: the result cache can never answer.
                let mut seen = HashSet::new();
                let mut out = Vec::new();
                for (c, chunk) in generated.into_iter().enumerate() {
                    for q in chunk {
                        if seen.insert((q.source, q.target, q.categories.clone())) {
                            out.push(q);
                        }
                    }
                    if c == 0 {
                        first_chunk = out.len();
                    }
                }
                out
            }
            Workload::RouteHot => {
                let mut total = 0;
                for t in 0..2u64 {
                    let due = poisson(HOT_RATE / 2.0, horizon, SCHEDULE_SEED + t);
                    arrivals.push(
                        due.into_iter()
                            .map(|due| {
                                total += 1;
                                Arrival {
                                    due,
                                    route: total - 1,
                                }
                            })
                            .collect::<Vec<_>>(),
                    );
                }
                first_chunk = HOT_CHUNK.min(total);
                default_mix_chunks(&world, total, HOT_CHUNK, seed)
            }
            Workload::LiveUpdates => {
                let n = live_routes(seconds);
                first_chunk = LIVE_CHUNK;
                default_mix_chunks(&world, n.min(LIVE_CHUNK * max_chunks), LIVE_CHUNK, seed)
            }
        };
        let update_count = match workload {
            Workload::LiveUpdates => live_routes(seconds) / LIVE_READS_PER_UPDATE + 1,
            _ => (TAIL_STREAM_RATE * tail.as_secs_f64()) as usize + 1,
        };
        let updates = stationary_flips(&world, update_count, sub_seed(seed, 4));
        let standing = if workload == Workload::LiveUpdates {
            let mix = TrafficMix {
                classes: STANDING_SHAPES.to_vec(),
                hot_fraction: 0.0,
                uniques_per_class: LIVE_SUBSCRIPTIONS,
                ..TrafficMix::default()
            };
            gen_mixed_traffic(&world, LIVE_SUBSCRIPTIONS, &mix, STANDING_SEED)
        } else {
            Vec::new()
        };
        Inputs {
            workload,
            routes: specs.iter().map(query_of).collect(),
            route_bodies: specs.iter().map(|s| route_body(s, None)).collect(),
            arrivals,
            update_bodies: updates.iter().map(update_body).collect(),
            updates,
            subscriptions: standing.iter().map(|s| route_body(s, None)).collect(),
            subscription_queries: standing.iter().map(query_of).collect(),
            world,
            first_chunk,
        }
    }

    /// A digest of the world, the first generator chunk of routes, the
    /// schedule, the updates and the standing queries: everything the
    /// determinism check regenerates.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        kosr_graph::io::write_native(&self.world, &mut bytes).expect("write to memory");
        for b in self.route_bodies.iter().take(self.first_chunk) {
            bytes.extend_from_slice(b.as_bytes());
        }
        for a in self.arrivals.iter().flatten() {
            bytes.extend_from_slice(&(a.due.as_nanos() as u64).to_le_bytes());
            bytes.extend_from_slice(&(a.route as u64).to_le_bytes());
        }
        for b in self.update_bodies.iter().chain(&self.subscriptions) {
            bytes.extend_from_slice(b.as_bytes());
        }
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Regenerates the inputs' first chunk with the same seed and with the
    /// next seed: the same seed must give byte-identical inputs, another
    /// seed different ones.
    pub fn determinism_check(&self, seed: u64, seconds: u64) -> Result<(), String> {
        let again = Inputs::build(self.workload, seed, seconds, 1).digest();
        if again != self.digest() {
            return Err(format!("seed {seed} regenerated different inputs"));
        }
        let other = Inputs::build(self.workload, seed.wrapping_add(1), seconds, 1).digest();
        if other == again {
            return Err(format!(
                "seeds {seed} and {} generated the same inputs",
                seed.wrapping_add(1)
            ));
        }
        Ok(())
    }

    /// The resolved description of the inputs for the run stamp.
    pub fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("vertices".into(), self.world.num_vertices().to_string()),
            ("edges".into(), self.world.num_edges().to_string()),
            ("routes_generated".into(), self.routes.len().to_string()),
            ("updates_generated".into(), self.updates.len().to_string()),
            (
                "standing_queries".into(),
                self.subscriptions.len().to_string(),
            ),
            (
                "transport".into(),
                quote(&format!("{:?}", self.workload.transport())),
            ),
            (
                "connection".into(),
                quote(&format!("{:?}", self.workload.conn_mode())),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_follow_the_rate() {
        let due = poisson(100.0, Duration::from_secs(20), 7);
        // 2000 expected; the count of a Poisson(2000) is within 5 sigma.
        assert!((1775..2225).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(due, poisson(100.0, Duration::from_secs(20), 7));
        assert_ne!(due, poisson(100.0, Duration::from_secs(20), 8));
    }

    #[test]
    fn update_blocks_return_to_the_world_layout() {
        let world = Workload::LiveUpdates.world();
        let updates = stationary_flips(&world, 400, 9);
        assert_eq!(updates.len(), 400);
        let mut g = world.clone();
        let mut at_block_end = 0;
        for (i, u) in updates.iter().enumerate() {
            match *u {
                Update::InsertMembership { vertex, category } => {
                    g.categories_mut().insert(vertex, category);
                }
                Update::RemoveMembership { vertex, category } => {
                    g.categories_mut().remove(vertex, category);
                }
                Update::InsertEdge { .. } => unreachable!("flips only"),
            }
            let same = (0..6u32).all(|c| {
                g.categories().vertices_of(CategoryId(c))
                    == world.categories().vertices_of(CategoryId(c))
            });
            if same {
                at_block_end = i;
            }
        }
        // The layout comes back again and again, not only at the start.
        assert!(at_block_end > 300, "{at_block_end}");
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
