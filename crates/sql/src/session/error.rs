//! The structured error of the session boundary.

use std::fmt;

use maybms_relational::Error;

/// Structured errors of the session boundary: what failed, and at which
/// stage of the statement lifecycle.
#[derive(Debug, Clone)]
pub enum SessionError {
    /// The SQL text failed to lex or parse.
    Parse {
        /// The offending statement text.
        sql: String,
        /// The underlying lex/parse error.
        source: Error,
    },
    /// The statement parsed but could not be planned (lowering, logical
    /// optimization or physical compilation failed — e.g. an unknown
    /// relation or column in a SELECT).
    Plan {
        /// The underlying planning error.
        source: Error,
    },
    /// The statement failed while executing against the decomposition
    /// (type errors, arity mismatches, unsatisfiable repairs, …).
    Execute {
        /// The underlying engine error.
        source: Error,
    },
    /// The durable backing store failed (I/O, corruption, WAL append).
    Storage {
        /// The underlying storage error.
        source: Error,
    },
    /// The session is **degraded to read-only**: a checkpoint failed
    /// before publishing anything (typically `ENOSPC` while writing the
    /// temp snapshot), so the on-disk state is intact but stale. Queries
    /// still work; mutations are refused until a `CHECKPOINT` succeeds
    /// (after freeing space) or the database is reopened.
    Degraded {
        /// Why the session degraded (the failed checkpoint's error).
        reason: String,
    },
    /// Transaction-control misuse: nested `BEGIN`, `COMMIT`/`ROLLBACK`
    /// without a transaction, `CHECKPOINT` or `attach` inside one.
    Transaction {
        /// What was misused, in words.
        context: String,
    },
    /// The session is a **read-only replica** (it applies the primary's
    /// shipped log and must not diverge from it): mutations, transaction
    /// control and `CHECKPOINT` are refused.
    ReadOnlyReplica {
        /// What the refused statement was, for the error message.
        statement: String,
    },
}

impl SessionError {
    pub(super) fn plan(source: Error) -> SessionError {
        SessionError::Plan { source }
    }
    pub(super) fn exec(source: Error) -> SessionError {
        SessionError::Execute { source }
    }
    pub(crate) fn storage(source: Error) -> SessionError {
        SessionError::Storage { source }
    }
    pub(crate) fn txn(context: impl Into<String>) -> SessionError {
        SessionError::Transaction { context: context.into() }
    }

    /// The underlying engine error, when there is one.
    pub fn source_error(&self) -> Option<&Error> {
        match self {
            SessionError::Parse { source, .. }
            | SessionError::Plan { source }
            | SessionError::Execute { source }
            | SessionError::Storage { source } => Some(source),
            SessionError::Degraded { .. }
            | SessionError::Transaction { .. }
            | SessionError::ReadOnlyReplica { .. } => None,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse { sql, source } => {
                write!(f, "parse error in \"{sql}\": {source}")
            }
            SessionError::Plan { source } => write!(f, "planning failed: {source}"),
            // execution/storage messages are shown verbatim so callers
            // (and long-standing tests) can grep for the engine's wording
            SessionError::Execute { source } => write!(f, "{source}"),
            SessionError::Storage { source } => write!(f, "{source}"),
            SessionError::Degraded { reason } => write!(
                f,
                "session degraded to read-only: {reason} (free space and retry \
                 CHECKPOINT, or reopen the database)"
            ),
            SessionError::Transaction { context } => write!(f, "transaction error: {context}"),
            SessionError::ReadOnlyReplica { statement } => write!(
                f,
                "read-only replica: {statement} is refused (replicas apply the \
                 primary's log and accept queries only)"
            ),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source_error().map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// Result alias of the session boundary.
pub type SessionResult<T> = std::result::Result<T, SessionError>;
