//! Server-side dispatch: one function mapping a decoded [`Request`] onto a
//! [`KosrService`], shared by the TCP server and the in-process loopback so
//! both speak byte-for-byte the same protocol.

use std::sync::Arc;

use kosr_core::IndexedGraph;
use kosr_service::{KosrService, ServiceError, Ticket};

use crate::protocol::{Heartbeat, MemberCounts, RemoteResponse, Request, Response, SnapshotBlob};

/// A request the replica has started answering: queries are already
/// enqueued on the service, everything else is already answered.
pub(crate) enum Answer {
    /// A query waiting on the service's worker pool.
    Query(Result<Ticket, ServiceError>),
    /// Any other request's response.
    Ready(Response),
}

impl Answer {
    /// Blocks until the response exists.
    pub(crate) fn wait(self) -> Response {
        match self {
            Answer::Query(ticket) => {
                Response::Query(ticket.and_then(|t| t.wait()).map(|resp| RemoteResponse {
                    outcome: resp.outcome,
                    cached: resp.cached,
                    spans: resp.spans,
                }))
            }
            Answer::Ready(resp) => resp,
        }
    }
}

/// Starts answering `req` against `service` without blocking on a query —
/// the in-process loopback keeps the service's own ticket asynchrony.
pub(crate) fn dispatch(service: &Arc<KosrService>, req: Request) -> Answer {
    let resp = match req {
        Request::Query(q) => return Answer::Query(service.submit(q)),
        Request::QueryTraced(q, ctx) => return Answer::Query(service.submit_traced(q, Some(ctx))),
        Request::Update(u) => Response::Update(service.apply_update(&u)),
        Request::Ping { since_seq } => {
            let journal = service.events();
            let next_seq = journal.next_seq();
            Response::Pong {
                heartbeat: Heartbeat {
                    epoch: service.index_epoch(),
                },
                next_seq,
                // A liveness-only probe (cursor at or past the journal
                // head) skips the ring walk.
                events: if since_seq < next_seq {
                    journal.events_since(since_seq, None, None)
                } else {
                    Vec::new()
                },
            }
        }
        Request::MemberCounts => Response::MemberCounts(member_counts(service)),
        Request::Snapshot => {
            let (epoch, ig) = service.epoch_and_index();
            Response::Snapshot(SnapshotBlob {
                epoch,
                bytes: ig.encode_snapshot(),
            })
        }
        Request::Compact { through } => match service.advance_log_head(through) {
            Ok(head) => Response::Compacted { head },
            Err(head) => Response::CursorTooOld {
                cursor: through,
                head,
            },
        },
        Request::InstallSnapshot(blob) => match IndexedGraph::decode_snapshot(&blob.bytes) {
            Ok(ig) => {
                service.install_index(Arc::new(ig));
                Response::Install(Ok(Heartbeat {
                    epoch: service.index_epoch(),
                }))
            }
            // A refused blob leaves the replica serving its old index; the
            // typed rejection travels back so the supervisor can tell a
            // codec mismatch from channel trouble.
            Err(e) => Response::Install(Err(e)),
        },
    };
    Answer::Ready(resp)
}

/// Answers one request against `service`. Query requests block until the
/// service responds (the caller decides how to overlap requests — the TCP
/// server runs one handler thread per in-flight request).
pub fn handle_request(service: &Arc<KosrService>, req: Request) -> Response {
    dispatch(service, req).wait()
}

/// The member-count report fan-out planning consumes: epoch-stamped member
/// counts for every category the replica's inverted indexes know.
pub fn member_counts(service: &Arc<KosrService>) -> MemberCounts {
    let (epoch, ig) = service.epoch_and_index();
    let counts = (0..ig.inverted.num_categories())
        .map(|c| ig.inverted.members_of(kosr_graph::CategoryId(c as u32)) as u32)
        .collect();
    MemberCounts {
        epoch,
        num_vertices: ig.graph.num_vertices() as u32,
        counts,
    }
}
