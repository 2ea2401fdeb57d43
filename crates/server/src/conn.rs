//! Per-connection session logic: snapshot-isolated reads, transactions
//! that commit through the shared [`CommitHandle`].
//!
//! Every connection owns one detached in-memory [`Session`] whose
//! decomposition is an `Arc` share of a published [`WsdSnapshot`],
//! refreshed from the group committer before each statement outside a
//! transaction. Reads never take a lock the writer holds and never see
//! a commit group's effects partially applied: a snapshot is published
//! only after its batch's shared fsync. Mutations outside a transaction
//! never touch that session — each is submitted to the group committer
//! as a one-statement commit group.
//!
//! `BEGIN` opens a transaction on the connection's session, pinned at
//! the snapshot current at that moment. Mutations execute there first
//! (so the transaction reads its own writes) and the session's own
//! transaction state records them, savepoints included; `COMMIT` takes
//! the surviving statements ([`Session::take_transaction`]) and submits
//! them to the group committer, which re-executes them serially against
//! the durable state — the commit order, not the `BEGIN` order, is the
//! serial order. A NACK (conflict with the durable state, storage
//! failure, poison) reaches the client as an error and the transaction
//! is gone. Every transaction-control rule (nested `BEGIN`, stray
//! `COMMIT`, unknown savepoint, …) is the session's admission gate's,
//! not this module's.

use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use maybms_obs::{counter, gauge, Counter, Gauge};
use maybms_sql::{
    parse, CommitAck, CommitHandle, QueryResult, Session, SessionError, SessionResult, Statement,
    WsdSnapshot,
};

use crate::proto::{self, ErrKind, Request, Response};

/// Rows shown before a tabular result is truncated with an ellipsis.
const RENDER_ROW_LIMIT: usize = 1000;

struct ConnMetrics {
    connections: Arc<Gauge>,
    requests: Arc<Counter>,
}

fn metrics() -> &'static ConnMetrics {
    static METRICS: OnceLock<ConnMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ConnMetrics {
        connections: gauge("server.connections"),
        requests: counter("server.requests"),
    })
}

/// Decrements `server.connections` even when the handler errors out.
struct ConnGauge;

impl ConnGauge {
    fn new() -> ConnGauge {
        metrics().connections.add(1);
        ConnGauge
    }
}

impl Drop for ConnGauge {
    fn drop(&mut self) {
        metrics().connections.add(-1);
    }
}

/// The read side of a socket whose 100 ms read timeout exists only to
/// poll the stop flag. A timeout is a poll tick, never an error to
/// surface while the server runs: surfacing one from inside a frame
/// would drop the bytes `read_exact` already consumed and desynchronise
/// the stream, so between frames and mid-frame alike the read simply
/// continues — a client pausing inside a frame is waited for. Only once
/// `stop` is raised does the timeout reach the caller.
struct UntilStop<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for UntilStop<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if timed_out(&e) && !self.stop.load(Ordering::SeqCst) => {}
                result => return result,
            }
        }
    }
}

/// Serves one SQL connection until EOF, protocol error, or server stop.
/// The caller has already consumed the 4-byte magic.
pub(crate) fn handle_conn(
    mut stream: TcpStream,
    handle: CommitHandle,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let _gauge = ConnGauge::new();
    stream.set_nodelay(true)?;
    // poll the stop flag instead of blocking forever (see `UntilStop`)
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;

    let first = handle.snapshot();
    let mut sess = Session::writable_at(&first);
    let mut lsn = first.lsn();
    proto::send_response(&mut stream, &Response::Hello { lsn })?;

    loop {
        let req = match proto::recv_request(&mut UntilStop { stream: &stream, stop: &stop }) {
            Ok(req) => req,
            // a timeout only gets here once the server is stopping
            Err(e) if timed_out(&e) || e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        metrics().requests.inc();
        let Request::Query { sql } = req;
        let resp = dispatch(&sql, &handle, &mut sess, &mut lsn);
        proto::send_response(&mut stream, &resp)?;
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Executes one statement in the connection's current mode and builds
/// the wire response. `lsn` is the LSN of the snapshot `sess` is pinned
/// at — what replies to reads and in-transaction statements report.
fn dispatch(sql: &str, handle: &CommitHandle, sess: &mut Session, lsn: &mut u64) -> Response {
    let stmt = match parse(sql) {
        Ok(stmt) => stmt,
        Err(source) => {
            return err_response(&SessionError::Parse { sql: sql.to_string(), source });
        }
    };
    if matches!(stmt, Statement::Checkpoint { .. }) {
        return Response::Err {
            kind: ErrKind::Unsupported as u8,
            message: "CHECKPOINT is not available over the server protocol \
                      (it compacts the shared database; run it on the server process)"
                .into(),
        };
    }
    if matches!(stmt, Statement::Commit) {
        // a stray COMMIT (no transaction to take) falls through to the
        // session, whose admission gate refuses it
        if let Some(stmts) = sess.take_transaction() {
            if stmts.is_empty() {
                // nothing to make durable; the empty group is not submitted
                return Response::Ok { lsn: *lsn, text: "COMMIT".into() };
            }
            return submit(handle, stmts, sess, lsn, |_| "COMMIT".into());
        }
    }
    if !sess.in_transaction() {
        if maybms_sql::wire::is_mutation(&stmt) {
            // auto-commit: a one-statement commit group
            return submit(handle, vec![stmt], sess, lsn, |ack| {
                ack.results.first().map(|r| r.render(RENDER_ROW_LIMIT)).unwrap_or_default()
            });
        }
        // reads (and BEGIN) run on the freshest published snapshot
        install(sess, lsn, &handle.snapshot());
    }
    // inside a transaction everything previews on the private session:
    // reads see its writes, mutations and savepoints are recorded there
    reply(sess.run(&stmt), *lsn)
}

/// Submits one commit group and, once it is durable, moves the
/// connection's session to the snapshot that includes it (so the
/// connection reads its own write next).
fn submit(
    handle: &CommitHandle,
    stmts: Vec<Statement>,
    sess: &mut Session,
    lsn: &mut u64,
    text: impl FnOnce(&CommitAck) -> String,
) -> Response {
    match handle.commit(stmts) {
        Ok(ack) => {
            install(sess, lsn, &ack.snapshot);
            Response::Ok { lsn: ack.lsn, text: text(&ack) }
        }
        Err(e) => err_response(&e),
    }
}

fn install(sess: &mut Session, lsn: &mut u64, snap: &WsdSnapshot) {
    // only called outside a transaction, so this cannot fail; fall back
    // to a fresh session if it somehow does
    if sess.install_snapshot(snap).is_err() {
        *sess = Session::writable_at(snap);
    }
    *lsn = snap.lsn();
}

fn reply(result: SessionResult<QueryResult>, lsn: u64) -> Response {
    match result {
        Ok(r) => Response::Ok { lsn, text: r.render(RENDER_ROW_LIMIT) },
        Err(e) => err_response(&e),
    }
}

fn err_response(e: &SessionError) -> Response {
    Response::Err { kind: err_kind(e) as u8, message: e.to_string() }
}

fn err_kind(e: &SessionError) -> ErrKind {
    match e {
        SessionError::Parse { .. } => ErrKind::Parse,
        SessionError::Plan { .. } => ErrKind::Plan,
        SessionError::Execute { .. } => ErrKind::Execute,
        SessionError::Storage { .. } => ErrKind::Storage,
        SessionError::Degraded { .. } => ErrKind::Degraded,
        SessionError::Transaction { .. } => ErrKind::Transaction,
        SessionError::ReadOnlyReplica { .. } => ErrKind::Unsupported,
    }
}
