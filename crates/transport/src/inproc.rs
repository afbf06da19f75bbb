//! The loopback transport: a replica in the same process, reached through
//! the **full** encode/decode path — every operation serializes its request
//! frame (stamped with a fresh frame id, mirroring the TCP mux), decodes
//! it server-side, dispatches, serializes the response and decodes it
//! client-side verifying the echoed id, so in-process deployments (and the
//! fault-injection test suites built on them) exercise byte-for-byte the
//! same protocol as TCP ones.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use kosr_service::KosrService;

use crate::client::{FrameExchange, Pending};
use crate::host::{dispatch, Answer};
use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, ProtocolError, Request,
    Response,
};
use crate::TransportError;

fn killed_error() -> TransportError {
    TransportError::Connection("replica killed".into())
}

/// A handle that severs (and restores) an [`InProcTransport`]'s virtual
/// connection — the test suites' replica kill/restart lever.
#[derive(Clone, Debug)]
pub struct KillSwitch {
    flag: Arc<AtomicBool>,
}

impl KillSwitch {
    /// Severs the connection: every in-flight and future operation on the
    /// transport reports a connection fault.
    pub fn kill(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Restores the connection. The replica's *service* kept running (only
    /// the channel was cut), so its state is whatever updates reached it —
    /// recovery replay is the caller's responsibility.
    pub fn revive(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// `true` while severed.
    pub fn is_killed(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A replica in this process, behind the wire codec.
pub struct InProcTransport {
    service: Arc<KosrService>,
    killed: Arc<AtomicBool>,
    next_id: AtomicU64,
}

impl InProcTransport {
    /// Wraps `service` as a loopback replica.
    pub fn new(service: Arc<KosrService>) -> InProcTransport {
        InProcTransport {
            service,
            killed: Arc::new(AtomicBool::new(false)),
            next_id: AtomicU64::new(1),
        }
    }

    /// The wrapped service (introspection and tests).
    pub fn service(&self) -> &Arc<KosrService> {
        &self.service
    }

    /// A handle that can sever/restore this transport's connection.
    pub fn kill_switch(&self) -> KillSwitch {
        KillSwitch {
            flag: Arc::clone(&self.killed),
        }
    }
}

impl FrameExchange for InProcTransport {
    /// Encode → decode → dispatch now; wait → encode → decode when the
    /// caller redeems. Queries keep the service's own asynchrony (enqueued
    /// here, waited on in [`Pending::wait`]). The frame id must survive
    /// the full loop — the same invariant the TCP demux relies on to route
    /// responses.
    fn exchange(&self, req: Request) -> Pending {
        if self.killed.load(Ordering::Acquire) {
            return Pending::ready(Err(killed_error()));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Server side: an undecodable frame is answered with a typed
        // Fault — the same contract the TCP server keeps.
        let answer = match decode_request(&encode_request(id, &req)) {
            Ok((_, req)) => dispatch(&self.service, req),
            Err(e) => Answer::Ready(Response::Fault(e)),
        };
        let killed = Arc::clone(&self.killed);
        Pending::new(move || {
            let resp = answer.wait();
            if killed.load(Ordering::Acquire) {
                // The connection died before the response frame arrived.
                return Err(killed_error());
            }
            let (echoed_id, resp) = decode_response(&encode_response(id, &resp))?;
            if echoed_id != id {
                return Err(TransportError::Protocol(ProtocolError::Corrupt(
                    "response frame id does not match the request",
                )));
            }
            Ok(resp)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SnapshotBlob;
    use crate::ShardTransport;
    use kosr_core::figure1::figure1;
    use kosr_core::{IndexedGraph, Query};
    use kosr_service::{ServiceConfig, ServiceError, TraceContext, Update};

    fn transport() -> (InProcTransport, kosr_core::figure1::Figure1) {
        let fx = figure1();
        let ig = Arc::new(IndexedGraph::build_default(fx.graph.clone()));
        let svc = Arc::new(KosrService::new(
            ig,
            ServiceConfig {
                workers: 2,
                ..Default::default()
            },
        ));
        (InProcTransport::new(svc), fx)
    }

    #[test]
    fn queries_flow_through_the_codec() {
        let (t, fx) = transport();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = t.submit(q.clone()).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        assert!(!resp.cached);
        let again = t.submit(q).wait().unwrap();
        assert!(again.cached, "cache flag survives the wire");
    }

    #[test]
    fn rejections_come_back_typed() {
        let (t, fx) = transport();
        let err = t
            .submit(Query::new(fx.s, fx.t, vec![fx.ma], 0))
            .wait()
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Service(ServiceError::InvalidQuery(kosr_core::QueryError::ZeroK))
        );
        assert!(
            !err.is_fault(),
            "deterministic rejections must not fail over"
        );
    }

    #[test]
    fn updates_heartbeats_counts_and_snapshots_work() {
        let (t, fx) = transport();
        assert_eq!(t.ping().unwrap().epoch, 0);
        let mc = t.member_counts().unwrap();
        assert_eq!(mc.num_vertices as usize, fx.graph.num_vertices());
        assert_eq!(mc.counts.len(), 3);

        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        let receipt = t
            .apply_update(&Update::RemoveMembership {
                vertex: gone,
                category: fx.re,
            })
            .unwrap();
        assert!(receipt.applied);
        assert_eq!(t.ping().unwrap().epoch, 1);
        let mc2 = t.member_counts().unwrap();
        assert_eq!(mc2.epoch, 1);
        assert_eq!(mc2.counts[fx.re.index()], mc.counts[fx.re.index()] - 1);

        let blob = t.snapshot().unwrap();
        assert_eq!(blob.epoch, 1);
        let replica = IndexedGraph::decode_snapshot(&blob.bytes).unwrap();
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        assert_eq!(
            replica
                .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
                .witnesses,
            t.service()
                .indexed_graph()
                .run_canonical(&q, kosr_core::Method::Sk, u64::MAX)
                .witnesses
        );
    }

    #[test]
    fn kill_switch_severs_and_restores() {
        let (t, fx) = transport();
        let switch = t.kill_switch();
        switch.kill();
        assert!(switch.is_killed());
        let q = Query::new(fx.s, fx.t, vec![fx.ma], 1);
        assert!(t.submit(q.clone()).wait().unwrap_err().is_fault());
        assert!(t.ping().unwrap_err().is_fault());
        assert!(t
            .apply_update(&Update::InsertMembership {
                vertex: fx.s,
                category: fx.ma,
            })
            .unwrap_err()
            .is_fault());
        switch.revive();
        assert!(t.submit(q).wait().is_ok());
        assert_eq!(t.ping().unwrap().epoch, 0, "service state survived the cut");
    }

    #[test]
    fn traced_submission_returns_replica_spans() {
        let (t, fx) = transport();
        let ctx = TraceContext::root(kosr_service::TraceId(7), true);
        let q = Query::new(fx.s, fx.t, vec![fx.ma, fx.re, fx.ci], 3);
        let resp = t.submit_traced(q.clone(), Some(ctx)).wait().unwrap();
        assert_eq!(resp.outcome.costs(), vec![20, 21, 22]);
        let root = resp
            .spans
            .iter()
            .find(|s| s.name == "replica")
            .expect("replica root span");
        assert_eq!(root.parent, Some(ctx.parent_span));
        assert!(resp.spans.iter().any(|s| s.name == "execute"));
        // Unsampled contexts cost nothing: the plain query exchange.
        let unsampled = TraceContext::root(kosr_service::TraceId(8), false);
        let resp = t.submit_traced(q, Some(unsampled)).wait().unwrap();
        assert!(resp.spans.is_empty());
    }

    #[test]
    fn ping_events_drains_the_replica_journal_with_a_cursor() {
        let (t, fx) = transport();
        let (hb, next, events) = t.ping_events(0).unwrap();
        assert_eq!(hb.epoch, 0);
        assert_eq!(next, 0);
        assert!(events.is_empty(), "nothing journaled yet");

        // An applied update journals an epoch swap replica-side.
        let gone = fx.graph.categories().vertices_of(fx.re)[0];
        t.apply_update(&Update::RemoveMembership {
            vertex: gone,
            category: fx.re,
        })
        .unwrap();
        let (hb, next, events) = t.ping_events(0).unwrap();
        assert_eq!(hb.epoch, 1);
        assert_eq!(next, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, kosr_service::EventKind::EpochSwap);
        // The cursor advances: a second probe from `next` drains nothing.
        let (_, _, rest) = t.ping_events(next).unwrap();
        assert!(rest.is_empty(), "cursor excludes already-forwarded events");
    }

    #[test]
    fn v1_snapshot_blob_is_refused_typed_on_install() {
        let (t, _) = transport();
        // A complete blob in the retired v1 format (an empty world): magic,
        // version 1, zero vertices/edges/categories, then its label blob.
        let mut bytes = b"KOSRSNP\0".to_vec();
        bytes.push(1);
        bytes.extend_from_slice(&[0; 12]);
        bytes.extend_from_slice(&12u64.to_le_bytes());
        bytes.extend_from_slice(b"KOSRHL1\0");
        bytes.extend_from_slice(&[0; 4]);
        let err = t
            .install_snapshot(&SnapshotBlob { epoch: 0, bytes })
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Snapshot(kosr_index::arena::SnapshotError::UnsupportedVersion {
                found: 1
            })
        );
        assert!(!err.is_fault(), "a refused blob is a deterministic no");
        assert_eq!(t.ping().unwrap().epoch, 0, "the old index keeps serving");
    }

    #[test]
    fn kill_mid_flight_faults_the_ticket() {
        let (t, fx) = transport();
        let switch = t.kill_switch();
        let ticket = t.submit(Query::new(fx.s, fx.t, vec![fx.ma], 1));
        switch.kill();
        assert!(ticket.wait().unwrap_err().is_fault());
    }
}
