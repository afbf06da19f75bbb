//! The one wire client. Every [`ShardTransport`] operation is "send a
//! request frame, wait for its response frame, map the response", and the
//! only part that differs between the in-process loopback and the TCP mux
//! is how a request becomes a response: that is [`FrameExchange`]. The
//! trait methods and the response mappers are written once, here, for
//! every exchange.

use kosr_core::Query;
use kosr_service::{Event, TraceContext, Update, UpdateReceipt};

use crate::protocol::{Heartbeat, MemberCounts, ProtocolError, Request, Response, SnapshotBlob};
use crate::{ShardTransport, TransportError, TransportTicket};

/// A response still on its way back: redeem with [`Pending::wait`].
pub struct Pending(Box<dyn FnOnce() -> Result<Response, TransportError> + Send>);

impl Pending {
    /// Wraps the blocking tail of an exchange.
    pub(crate) fn new(
        wait: impl FnOnce() -> Result<Response, TransportError> + Send + 'static,
    ) -> Pending {
        Pending(Box::new(wait))
    }

    /// An exchange already resolved (e.g. the connection could not be
    /// reached).
    pub(crate) fn ready(result: Result<Response, TransportError>) -> Pending {
        Pending(Box::new(move || result))
    }

    /// Blocks until the response frame arrives (or the channel faults).
    pub(crate) fn wait(self) -> Result<Response, TransportError> {
        (self.0)()
    }
}

/// How a transport turns one request into its decoded response — the
/// single point where the in-process and TCP clients differ. Implementors
/// must route through the [`crate::protocol`] codec, stamp a fresh frame
/// id per request and verify the echoed id, so in-process and remote
/// deployments exercise identical bytes. Sending must not block on the
/// answer: queries fan out before any of them is waited on.
///
/// Every `FrameExchange` is a [`ShardTransport`].
pub trait FrameExchange: Send + Sync {
    /// Sends `req`; the returned [`Pending`] blocks for the response.
    fn exchange(&self, req: Request) -> Pending;
}

/// A response of the wrong kind for its request: the replica's typed
/// fault, or a protocol violation.
fn unexpected(resp: Response) -> TransportError {
    match resp {
        Response::Fault(e) => TransportError::Protocol(e),
        _ => TransportError::Protocol(ProtocolError::Corrupt("unexpected response kind")),
    }
}

impl<T: FrameExchange> ShardTransport for T {
    fn submit_traced(&self, query: Query, ctx: Option<TraceContext>) -> TransportTicket {
        // Only sampled contexts are worth a traced frame.
        let req = match ctx.filter(|c| c.sampled) {
            Some(c) => Request::QueryTraced(query, c),
            None => Request::Query(query),
        };
        let pending = self.exchange(req);
        TransportTicket::new(move || match pending.wait()? {
            Response::Query(result) => result.map_err(TransportError::Service),
            other => Err(unexpected(other)),
        })
    }

    fn apply_update(&self, update: &Update) -> Result<UpdateReceipt, TransportError> {
        match self.exchange(Request::Update(*update)).wait()? {
            Response::Update(result) => result.map_err(TransportError::Update),
            other => Err(unexpected(other)),
        }
    }

    fn ping_events(&self, since_seq: u64) -> Result<(Heartbeat, u64, Vec<Event>), TransportError> {
        match self.exchange(Request::Ping { since_seq }).wait()? {
            Response::Pong {
                heartbeat,
                next_seq,
                events,
            } => Ok((heartbeat, next_seq, events)),
            other => Err(unexpected(other)),
        }
    }

    fn member_counts(&self) -> Result<MemberCounts, TransportError> {
        match self.exchange(Request::MemberCounts).wait()? {
            Response::MemberCounts(mc) => Ok(mc),
            other => Err(unexpected(other)),
        }
    }

    fn snapshot(&self) -> Result<SnapshotBlob, TransportError> {
        match self.exchange(Request::Snapshot).wait()? {
            Response::Snapshot(blob) => Ok(blob),
            other => Err(unexpected(other)),
        }
    }

    fn install_snapshot(&self, blob: &SnapshotBlob) -> Result<Heartbeat, TransportError> {
        match self
            .exchange(Request::InstallSnapshot(blob.clone()))
            .wait()?
        {
            Response::Install(result) => result.map_err(TransportError::Snapshot),
            other => Err(unexpected(other)),
        }
    }

    fn compact(&self, through: u64) -> Result<u64, TransportError> {
        match self.exchange(Request::Compact { through }).wait()? {
            Response::Compacted { head } => Ok(head),
            Response::CursorTooOld { cursor, head } => {
                Err(TransportError::CursorTooOld { cursor, head })
            }
            other => Err(unexpected(other)),
        }
    }
}
