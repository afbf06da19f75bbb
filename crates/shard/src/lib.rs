//! # kosr-shard
//!
//! Partitioned multi-replica serving for KOSR — the step past one box the
//! ROADMAP calls for. One `kosr-service` replica per **region/category
//! shard**, a router that fans queries out and merges per-shard top-k
//! streams bit-identically to an unsharded run, and a live update bus that
//! routes §IV-C dynamic updates to the replicas that own them.
//!
//! ## The sharding model
//!
//! A [`Partitioner`](kosr_graph::Partitioner) assigns every vertex to one
//! region shard. From that assignment, [`ShardSet::build`] derives one
//! [`IndexedGraph`] per shard:
//!
//! * the **routing skeleton** (CSR graph + 2-hop labels) is replicated per
//!   replica — legs of a sequenced route cross regions freely, so exact
//!   distances need full connectivity (the partitioner's boundary/cut
//!   statistics price what a transport-level extraction would replicate);
//! * the **category data is partitioned**: each base category `C` gains a
//!   per-shard *shadow category* `C@j` holding exactly the members owned
//!   by shard `j`, with its own inverted label index built over just that
//!   slice.
//!
//! ## Why the merge is exact
//!
//! Every feasible route has a unique *first stop* `v₁ ∈ C₁`, and every
//! vertex has a unique owner — so the route space decomposes into disjoint
//! per-shard subspaces. The [`ShardRouter`] rewrites a query's first
//! category to each touched shard's shadow (`C₁ → C₁@j`), which makes
//! shard `j` enumerate exactly its subspace, exactly (all later stops use
//! the replicated full categories). Per-shard answers use the canonical
//! top-k semantics of `IndexedGraph::run_canonical`, so merging the ≤ k
//! streams with a bounded heap under the same deterministic tie-break
//! (cost, then lexicographic witness) reproduces the unsharded canonical
//! top-k **bit for bit** — the cross-shard property test enforces it.
//!
//! ## Transport, replication and failover
//!
//! Replicas live behind [`ShardTransport`]s (`kosr-transport`): the
//! loopback [`InProcTransport`] or a [`TcpTransport`] client for replicas
//! behind [`TcpServer`]s — both speak the same length-prefixed wire
//! protocol. Each shard is a [`ReplicaSet`] of N replicas with health
//! state: queries go to the lowest healthy replica and transparently fail
//! over on connection faults, which preserves the bit-identical merge
//! because every consistent replica answers with the same canonical
//! stream. Fan-out planning reads per-shard member counts through the
//! transport **once per membership epoch** (cached, invalidated by the
//! bus).
//!
//! ## Live updates
//!
//! The [`LiveUpdateBus`] finishes the dynamic-update path: membership
//! updates go to every replica's copy of the base category and
//! additionally to the owning shard's shadow; edge updates broadcast.
//! Each application drives the owning replica's cache-invalidation hooks
//! through `KosrService::apply_update`, so no replica ever serves a stale
//! answer. The bus also keeps an **update log**: a replica that misses an
//! update (fault, kill, cold snapshot join via
//! [`ShardRouter::snapshot_shard`]) is marked down and re-enters service
//! only after [`LiveUpdateBus::recover`] replays the missed suffix.
//!
//! ```
//! use std::sync::Arc;
//! use kosr_core::{figure1, IndexedGraph, Query};
//! use kosr_graph::{PartitionConfig, Partitioner};
//! use kosr_service::ServiceConfig;
//! use kosr_shard::{ShardRouter, ShardSet};
//!
//! let fx = figure1::figure1();
//! let ig = IndexedGraph::build_default(fx.graph.clone());
//! let partition = Partitioner::new(PartitionConfig { num_shards: 2, ..Default::default() })
//!     .partition(&ig.graph);
//! let set = ShardSet::build(&ig, partition);
//! let router = ShardRouter::new(set, ServiceConfig::default());
//!
//! let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
//! let resp = router.submit(q).unwrap().wait().unwrap();
//! assert_eq!(resp.outcome.costs(), vec![20, 21, 22]); // Example 1, sharded
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod bus;
mod error;
mod merge;
mod metrics;
mod observe;
mod router;
mod state;
mod supervisor;

/// The single definition of the shadow-category layout: shard replicas
/// store `B` base categories at ids `0..B` and the per-shard owned slices
/// at ids `B..2B`, so base `c` shadows to `B + c`. Every component
/// (builder, router, bus) derives shadow ids through here.
pub(crate) fn shadow_of(
    base_categories: usize,
    c: kosr_graph::CategoryId,
) -> kosr_graph::CategoryId {
    kosr_graph::CategoryId((base_categories + c.index()) as u32)
}

pub use build::ShardSet;
pub use bus::{BusReceipt, LiveUpdateBus};
pub use error::ShardError;
pub use merge::merge_topk_bounded;
pub use observe::{ObserverRegistry, UpdateObserver};
pub use router::{ShardRouter, ShardTicket, ShardedResponse};
pub use supervisor::{FleetSupervisor, SupervisorConfig, SupervisorHandle, SupervisorReport};

// Re-exported so shard users don't need direct sibling dependencies for
// the common types.
pub use kosr_core::{IndexedGraph, KosrOutcome, Query};
pub use kosr_graph::{Partition, PartitionConfig, PartitionStats, Partitioner};
pub use kosr_service::{
    MetricsRegistry, MetricsSource, ServiceConfig, ServiceError, Update, UpdateError,
};
pub use kosr_transport::{
    InProcTransport, KillSwitch, ReplicaHealth, ReplicaSet, ReplicaSetSnapshot, ShardTransport,
    TcpServer, TcpTransport, TransportError, TransportTicket,
};
