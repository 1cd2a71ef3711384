//! Error types.
//!
//! MPI reports both *failures* (process death, resource exhaustion) and
//! *usage errors* through return codes, and so does this crate: both
//! are [`MpiError`] values, which the binding layer passes on as rich
//! results. A usage error that depends on runtime input — a missing
//! `destination`, counts that do not describe the buffer, a missing
//! root buffer, a message longer than `recv_count` — is a typed error
//! on the rank that made it, reported after the operation's internal
//! tags are taken, so that its peers still complete (§III-G catches the
//! rest at compile time). A panic is meant for a broken internal
//! invariant only; the ones input can still reach are documented where
//! they remain (e.g. a zero-capacity request pool, or a typed decode
//! of a message that is not a whole number of elements).

use crate::Rank;

/// Errors reported by substrate operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpiError {
    /// A process taking part in the operation has failed
    /// (ULFM `MPI_ERR_PROC_FAILED`).
    ProcessFailed {
        /// World rank of a failed process involved in the operation.
        world_rank: Rank,
    },
    /// The communicator has been revoked (ULFM `MPI_ERR_REVOKED`).
    Revoked,
    /// A receive was posted with a buffer too small for the matched
    /// message (`MPI_ERR_TRUNCATE`).
    Truncated {
        /// Bytes in the matched message.
        message_bytes: usize,
        /// Bytes available in the receive buffer.
        buffer_bytes: usize,
    },
    /// An invalid rank was named (out of range for the communicator).
    InvalidRank { rank: Rank, comm_size: usize },
    /// An invalid (negative) tag was supplied by user code.
    InvalidTag { tag: i32 },
    /// Counts/displacements describe a layout outside the buffer.
    InvalidLayout(String),
    /// Deserialization of an incoming message failed.
    Deserialize(String),
    /// Serialization of outgoing data failed.
    Serialize(String),
    /// A persistent request was started while a previous cycle was
    /// still active (MPI requires the prior `start` to complete first).
    RequestActive,
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::ProcessFailed { world_rank } => {
                write!(f, "process failure detected (world rank {world_rank})")
            }
            MpiError::Revoked => write!(f, "communicator has been revoked"),
            MpiError::Truncated {
                message_bytes,
                buffer_bytes,
            } => write!(
                f,
                "message truncated: {message_bytes} bytes arrived, buffer holds {buffer_bytes}"
            ),
            MpiError::InvalidRank { rank, comm_size } => {
                write!(
                    f,
                    "invalid rank {rank} for communicator of size {comm_size}"
                )
            }
            MpiError::InvalidTag { tag } => {
                write!(f, "invalid tag {tag}: user tags must be non-negative")
            }
            MpiError::InvalidLayout(msg) => write!(f, "invalid counts/displacements: {msg}"),
            MpiError::Deserialize(msg) => write!(f, "deserialization failed: {msg}"),
            MpiError::Serialize(msg) => write!(f, "serialization failed: {msg}"),
            MpiError::RequestActive => write!(
                f,
                "persistent request started while still active: complete the \
                 previous cycle with wait() first"
            ),
        }
    }
}

impl std::error::Error for MpiError {}

/// Result alias used throughout the substrate.
pub type Result<T> = std::result::Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_human_readable() {
        let e = MpiError::ProcessFailed { world_rank: 3 };
        assert!(e.to_string().contains("world rank 3"));
        let e = MpiError::Truncated {
            message_bytes: 100,
            buffer_bytes: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
        let e = MpiError::InvalidRank {
            rank: 9,
            comm_size: 4,
        };
        assert!(e.to_string().contains("size 4"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MpiError::Revoked, MpiError::Revoked);
        assert_ne!(MpiError::Revoked, MpiError::ProcessFailed { world_rank: 0 });
    }
}
