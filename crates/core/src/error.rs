//! The crate-wide error type.

use qserv_engine::exec::ExecError;
use qserv_sqlparse::parser::ParseError;
use qserv_xrd::cluster::XrdError;
use std::fmt;

/// Everything that can go wrong answering a user query.
#[derive(Clone, Debug, PartialEq)]
pub enum QservError {
    /// The SQL failed to parse.
    Parse(ParseError),
    /// Query analysis rejected the statement (message explains).
    Analysis(String),
    /// A worker-side execution failure, tagged with the chunk.
    Worker {
        /// Chunk whose physical query failed.
        chunk: i32,
        /// Worker error text.
        message: String,
    },
    /// A fabric (dispatch/result transfer) failure.
    Fabric(String),
    /// The query's wall-clock deadline expired before every chunk was
    /// dispatched and collected (see
    /// [`crate::master::RetryPolicy::deadline`]).
    Timeout {
        /// Chunk being dispatched when the deadline expired.
        chunk: i32,
        /// Milliseconds elapsed since the query started.
        elapsed_ms: u64,
    },
    /// Result merging or final aggregation failed.
    Merge(String),
    /// The query was cancelled (a `KILL`, or its service handle was
    /// dropped) before it completed. Cooperative: dispatch stops at the
    /// next bundle boundary and in-flight result files are consumed.
    Cancelled,
    /// The service's admission queue for the query's class is full.
    /// Backpressure, not failure: retry after the advertised delay.
    Busy {
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
}

impl fmt::Display for QservError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QservError::Parse(e) => write!(f, "parse: {e}"),
            QservError::Analysis(m) => write!(f, "analysis: {m}"),
            QservError::Worker { chunk, message } => {
                write!(f, "worker (chunk {chunk}): {message}")
            }
            QservError::Fabric(m) => write!(f, "fabric: {m}"),
            QservError::Timeout { chunk, elapsed_ms } => {
                write!(f, "timeout: query deadline expired after {elapsed_ms} ms (dispatching chunk {chunk})")
            }
            QservError::Merge(m) => write!(f, "merge: {m}"),
            QservError::Cancelled => write!(f, "cancelled"),
            QservError::Busy { retry_after_ms } => {
                write!(
                    f,
                    "busy: admission queue full, retry after {retry_after_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for QservError {}

impl From<ParseError> for QservError {
    fn from(e: ParseError) -> QservError {
        QservError::Parse(e)
    }
}

impl From<XrdError> for QservError {
    fn from(e: XrdError) -> QservError {
        QservError::Fabric(e.to_string())
    }
}

impl From<ExecError> for QservError {
    fn from(e: ExecError) -> QservError {
        QservError::Merge(e.to_string())
    }
}
