//! The transport error surface, split along the line that drives failover:
//! **faults** (connection/protocol trouble — retry on another replica) vs
//! **deterministic rejections** (the remote service said no — every
//! consistent replica would say the same, so failover must not retry).

use kosr_service::{ServiceError, UpdateError};

use crate::protocol::ProtocolError;

/// Why a transport operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// A frame could not be encoded/decoded (version mismatch, corrupt
    /// bytes). A fault: the replica may be healthy, the channel is not.
    Protocol(ProtocolError),
    /// The connection died, the replica is killed, or a frame was lost.
    Connection(String),
    /// Every replica of the shard is down or was tried and faulted.
    AllReplicasDown {
        /// How many replicas were available to try.
        replicas: usize,
    },
    /// The remote service rejected the query (typed admission error).
    /// Deterministic: not retried on other replicas.
    Service(ServiceError),
    /// The remote service rejected the update. Deterministic.
    Update(UpdateError),
    /// The remote snapshot blob failed to decode.
    Snapshot(kosr_index::arena::SnapshotError),
    /// A compaction notice named a log head behind what the replica has
    /// already recorded — the sender's view of the update log is stale.
    /// Deterministic: retrying on another replica would not help the
    /// sender's log view.
    CursorTooOld {
        /// The stale head the sender proposed.
        cursor: u64,
        /// The head the replica has recorded.
        head: u64,
    },
}

impl TransportError {
    /// `true` for channel-level trouble that failover should hide by
    /// retrying on the next replica; `false` for deterministic rejections
    /// that every consistent replica would repeat.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            TransportError::Protocol(_)
                | TransportError::Connection(_)
                | TransportError::AllReplicasDown { .. }
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
            TransportError::Connection(what) => write!(f, "connection failed: {what}"),
            TransportError::AllReplicasDown { replicas } => {
                write!(f, "all {replicas} replicas down")
            }
            TransportError::Service(e) => write!(f, "remote service rejection: {e}"),
            TransportError::Update(e) => write!(f, "remote update rejection: {e}"),
            TransportError::Snapshot(e) => write!(f, "snapshot decode failed: {e}"),
            TransportError::CursorTooOld { cursor, head } => {
                write!(f, "cursor {cursor} predates compacted log head {head}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtocolError> for TransportError {
    fn from(e: ProtocolError) -> TransportError {
        TransportError::Protocol(e)
    }
}

impl From<ServiceError> for TransportError {
    fn from(e: ServiceError) -> TransportError {
        TransportError::Service(e)
    }
}

impl From<UpdateError> for TransportError {
    fn from(e: UpdateError) -> TransportError {
        TransportError::Update(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_classification_drives_failover() {
        assert!(TransportError::Connection("x".into()).is_fault());
        assert!(TransportError::Protocol(ProtocolError::Truncated).is_fault());
        assert!(TransportError::AllReplicasDown { replicas: 2 }.is_fault());
        assert!(!TransportError::Service(ServiceError::ShuttingDown).is_fault());
        assert!(
            !TransportError::Update(UpdateError::UnknownCategory(kosr_graph::CategoryId(3)))
                .is_fault()
        );
        assert!(!TransportError::CursorTooOld { cursor: 1, head: 4 }.is_fault());
    }

    #[test]
    fn display_renders_every_variant() {
        for e in [
            TransportError::Protocol(ProtocolError::Truncated),
            TransportError::Connection("refused".into()),
            TransportError::AllReplicasDown { replicas: 3 },
            TransportError::Service(ServiceError::ShuttingDown),
            TransportError::Update(UpdateError::VertexOutOfRange(kosr_graph::VertexId(1))),
            TransportError::CursorTooOld { cursor: 1, head: 4 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
