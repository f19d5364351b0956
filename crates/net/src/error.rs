//! Typed errors for the distributed backend.
//!
//! Everything the network can do to us — truncation, corruption, stalls,
//! peers dying mid-sentence — surfaces as a [`NetError`] variant, never a
//! panic. The framing layer leans on `hqr_tile::io`'s checksummed
//! container, so wire corruption arrives pre-classified as a
//! [`BinFormatError`].

use hqr_tile::io::BinFormatError;
use std::fmt;
use std::time::Duration;

/// Any failure of the distributed transport or protocol.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect refused, reset, broken pipe, ...).
    Io(String),
    /// A deadline elapsed waiting for a peer.
    Timeout {
        /// What we were waiting for.
        what: String,
        /// The deadline that elapsed.
        after: Duration,
    },
    /// The frame arrived but its payload failed container validation
    /// (bad magic/version, truncated section, checksum mismatch, ...).
    Frame(BinFormatError),
    /// A frame declared a length beyond the protocol cap — rejected
    /// before any allocation.
    FrameTooLarge {
        /// Length the peer declared.
        declared: u64,
        /// The cap it exceeded.
        cap: u64,
    },
    /// The peer spoke valid containers but violated the protocol
    /// (unknown kind word, wrong reply for the request, missing field).
    Proto(String),
    /// The peer reported an application-level error.
    Remote(String),
    /// A worker was condemned (an exchange with it failed through the
    /// retry ladder) and the operation cannot proceed on it.
    WorkerDead {
        /// Index of the condemned worker.
        worker: usize,
        /// Why it was condemned.
        reason: String,
    },
    /// Worker-loss recovery itself failed (no survivors, lineage error).
    Recovery(String),
    /// The run was misconfigured (a grid that does not fit the fleet, a
    /// fault kind the coordinator cannot inject); nothing was sent.
    Config(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network I/O error: {e}"),
            NetError::Timeout { what, after } => {
                write!(f, "timed out after {after:?} waiting for {what}")
            }
            NetError::Frame(e) => write!(f, "malformed frame: {e}"),
            NetError::FrameTooLarge { declared, cap } => {
                write!(f, "frame declares {declared} bytes, protocol cap is {cap}")
            }
            NetError::Proto(e) => write!(f, "protocol violation: {e}"),
            NetError::Remote(e) => write!(f, "peer reported error: {e}"),
            NetError::WorkerDead { worker, reason } => {
                write!(f, "worker {worker} condemned: {reason}")
            }
            NetError::Recovery(e) => write!(f, "recovery failed: {e}"),
            NetError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<BinFormatError> for NetError {
    fn from(e: BinFormatError) -> Self {
        NetError::Frame(e)
    }
}

impl NetError {
    /// Classify an `io::Error` from a socket read/write under a deadline.
    pub fn from_io(e: std::io::Error, what: &str, deadline: Duration) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                NetError::Timeout { what: what.to_string(), after: deadline }
            }
            _ => NetError::Io(format!("{what}: {e}")),
        }
    }

    /// True for failures worth retrying on a fresh connection (timeouts
    /// and socket errors); protocol violations and malformed frames are
    /// not — the peer is confused, not slow.
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Io(_) | NetError::Timeout { .. })
    }
}
