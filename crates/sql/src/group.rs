//! The group-commit writer: one thread owns the durable [`Session`],
//! concurrent submitters hand it whole commit groups, and it coalesces
//! everything queued into **one WAL batch append + one fsync**
//! ([`maybms_storage::Database::append_many`]).
//!
//! This is the write half of the server's concurrency model (the read
//! half is [`Session::snapshot`] / [`Session::view_at`]):
//!
//! * **Serial execution.** The writer applies submitted groups strictly
//!   in the order it dequeues them, each admitted and applied
//!   all-or-nothing in memory (`Session::apply_group`). The committed
//!   history is therefore *a* serial order by construction — the
//!   serializability argument is not a lock-ordering proof but the
//!   absence of interleaving.
//! * **Amortized durability.** All groups that succeeded in memory are
//!   appended as consecutive WAL records under a single shared fsync.
//!   With W concurrent writers the per-commit fsync cost tends toward
//!   1/W; `server.group_commit.stmts_per_fsync` records the achieved
//!   batch sizes.
//! * **Ack after the shared fsync, never before.** A submitter's
//!   [`CommitHandle::commit`] returns only once the fsync covering its
//!   group returned. The batch goes through the session's one durable
//!   write path (`Session::append_records`, the same call an embedded
//!   auto-commit or `COMMIT` makes with a batch of one): if the append
//!   fails, the database is poisoned, in-memory state rolls back to the
//!   pre-batch state (memory again equals the durable prefix), and
//!   **every** waiter in the batch is NACKed — the fsync vouched for
//!   none of them, so none may be acknowledged.
//! * **Snapshot publication.** After every durable batch the writer
//!   publishes an LSN-stamped [`WsdSnapshot`]; readers pick it up in
//!   O(1) and never block the writer.
//!
//! The committer also serves in-process replication for free: the batch
//! append signals `maybms_storage::wal::commit_notify_in`, so a
//! [`crate::replication::Primary`] tailing the same WAL in this process
//! wakes immediately instead of riding its polling fallback.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maybms_obs::registry::SIZE_BOUNDS;
use maybms_obs::{Counter, Histogram};
use maybms_relational::Error;

use crate::ast::Statement;
use crate::session::{QueryResult, Session, SessionError, WsdSnapshot};
use crate::wire;

/// Handles of the group-commit metrics, resolved once.
struct GroupMetrics {
    /// Commit groups durably committed (`server.group_commit.groups`).
    groups: Arc<Counter>,
    /// Statements covered by each fsync — the batching win
    /// (`server.group_commit.stmts_per_fsync`).
    stmts_per_fsync: Arc<Histogram>,
    /// Waiters NACKed by the admission gate or a failed batch append
    /// (`server.group_commit.nacks`).
    nacks: Arc<Counter>,
}

fn metrics() -> &'static GroupMetrics {
    static M: OnceLock<GroupMetrics> = OnceLock::new();
    M.get_or_init(|| GroupMetrics {
        groups: maybms_obs::counter("server.group_commit.groups"),
        stmts_per_fsync: maybms_obs::histogram("server.group_commit.stmts_per_fsync", SIZE_BOUNDS),
        nacks: maybms_obs::counter("server.group_commit.nacks"),
    })
}

/// Tuning knobs for the group-commit writer.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Most commit groups coalesced under one fsync (default 64).
    pub max_batch: usize,
    /// After dequeuing the first pending group, wait up to this long
    /// for more to arrive before fsyncing (default zero: take whatever
    /// is already queued and go). A small window trades commit latency
    /// for larger batches — tests use it to make batching deterministic.
    pub group_window: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> GroupCommitConfig {
        GroupCommitConfig { max_batch: 64, group_window: Duration::ZERO }
    }
}

/// A durable, acknowledged commit: everything a connection needs to
/// answer its client and refresh its read view.
#[derive(Debug)]
pub struct CommitAck {
    /// Per-statement results, in statement order.
    pub results: Vec<QueryResult>,
    /// The LSN the group's WAL record was assigned.
    pub lsn: u64,
    /// The state as of this batch — at least as fresh as `lsn`, so the
    /// committer reads its own write in its next query.
    pub snapshot: WsdSnapshot,
}

/// One queued commit group plus the channel its verdict goes back on.
struct Submission {
    stmts: Vec<Statement>,
    reply: Sender<Result<CommitAck, SessionError>>,
}

/// What flows to the writer thread: commit work, or the stop order.
/// An explicit message (rather than sender disconnect) ends the loop
/// because [`CommitHandle`] is cloneable — any number of outstanding
/// clones may keep the channel alive past shutdown.
enum Msg {
    Submit(Submission),
    Shutdown,
}

/// A cloneable submitter: any thread may [`CommitHandle::commit`] a
/// group or grab the latest published [`CommitHandle::snapshot`].
#[derive(Debug, Clone)]
pub struct CommitHandle {
    tx: Sender<Msg>,
    published: Arc<Mutex<WsdSnapshot>>,
}

impl CommitHandle {
    /// Submits `stmts` as one commit group and blocks until the shared
    /// fsync covering it returned (the ack) or failed (the NACK —
    /// nothing of the group is durable and memory holds none of it).
    /// Every statement must be a mutation; queries belong on snapshots.
    pub fn commit(&self, stmts: Vec<Statement>) -> Result<CommitAck, SessionError> {
        if stmts.is_empty() {
            return Err(SessionError::txn("empty commit group"));
        }
        if let Some(s) = stmts.iter().find(|s| !wire::is_mutation(s)) {
            return Err(SessionError::txn(format!(
                "only mutations can be group-committed (got {s:?}); run queries \
                 against a snapshot view"
            )));
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Msg::Submit(Submission { stmts, reply: reply_tx }))
            .map_err(|_| writer_gone())?;
        reply_rx.recv().map_err(|_| writer_gone())?
    }

    /// The latest published snapshot (the state as of the last durable
    /// batch). O(1).
    pub fn snapshot(&self) -> WsdSnapshot {
        self.published.lock().expect("published snapshot lock").clone() // maybms-lint: allow(no-panic-in-prod) -- the writer only assigns a fresh snapshot under this lock; a poisoned lock means the writer panicked mid-assign, so fail-stop
    }
}

fn writer_gone() -> SessionError {
    SessionError::storage(Error::Storage(
        "group-commit writer is gone (server shutting down); the commit was not acknowledged"
            .into(),
    ))
}

/// The group-commit engine: owns the durable session on a writer
/// thread; see the module docs for the protocol.
#[derive(Debug)]
pub struct GroupCommitter {
    handle: CommitHandle,
    /// `Some` until [`GroupCommitter::shutdown`], which stops the loop
    /// with an explicit [`Msg::Shutdown`] and joins it.
    writer: Option<JoinHandle<Session>>,
}

impl GroupCommitter {
    /// Spawns the writer thread over `session` (which should be durable
    /// — an in-memory session group-commits with no durability, which
    /// only tests want) with default tuning.
    pub fn spawn(session: Session) -> GroupCommitter {
        GroupCommitter::spawn_with(session, GroupCommitConfig::default())
    }

    /// [`GroupCommitter::spawn`] with explicit tuning.
    pub fn spawn_with(session: Session, cfg: GroupCommitConfig) -> GroupCommitter {
        let published = Arc::new(Mutex::new(session.snapshot()));
        let (tx, rx) = mpsc::channel();
        let thread_published = Arc::clone(&published);
        let writer = std::thread::spawn(move || writer_loop(session, rx, thread_published, cfg));
        GroupCommitter { handle: CommitHandle { tx, published }, writer: Some(writer) }
    }

    /// A cloneable submitter for connection threads.
    pub fn handle(&self) -> CommitHandle {
        self.handle.clone()
    }

    /// Submits one group from this thread — see [`CommitHandle::commit`].
    pub fn commit(&self, stmts: Vec<Statement>) -> Result<CommitAck, SessionError> {
        self.handle.commit(stmts)
    }

    /// The latest published snapshot — see [`CommitHandle::snapshot`].
    pub fn snapshot(&self) -> WsdSnapshot {
        self.handle.snapshot()
    }

    /// Stops the writer (pending submissions are still drained and
    /// committed) and returns the session it owned.
    pub fn shutdown(mut self) -> Session {
        self.take_session().expect("shutdown consumes self, so the writer is still present") // maybms-lint: allow(no-panic-in-prod) -- `writer` is Some from construction until shutdown/Drop, and shutdown takes `self` by value, so it cannot run twice
    }

    fn take_session(&mut self) -> Option<Session> {
        let writer = self.writer.take()?;
        // an explicit stop message, not sender disconnect: cloned
        // handles may outlive this committer and would otherwise keep
        // the writer's recv() alive forever. FIFO ordering guarantees
        // every group submitted before this point is still committed.
        let _ = self.handle.tx.send(Msg::Shutdown);
        match writer.join() {
            Ok(session) => Some(session),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        if self.writer.is_some() {
            drop(self.take_session());
        }
    }
}

/// Dequeues, batches, executes, appends, acks. Returns the session on
/// [`Msg::Shutdown`] or channel disconnect; groups queued before the
/// stop message are still committed (the channel is FIFO).
fn writer_loop(
    mut session: Session,
    rx: Receiver<Msg>,
    published: Arc<Mutex<WsdSnapshot>>,
    cfg: GroupCommitConfig,
) -> Session {
    let mut stopping = false;
    while !stopping {
        let first = match rx.recv() {
            Ok(Msg::Submit(s)) => s,
            Ok(Msg::Shutdown) | Err(_) => return session,
        };
        let mut batch = vec![first];
        // hold the door open for `group_window` so concurrent submitters
        // join this fsync instead of paying their own; past the deadline
        // (at once, with the default zero window) the timeout is zero
        // and this only drains what is already queued
        let deadline = Instant::now() + cfg.group_window;
        while !stopping && batch.len() < cfg.max_batch {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Msg::Submit(s)) => batch.push(s),
                Ok(Msg::Shutdown) => stopping = true,
                Err(_) => break,
            }
        }
        run_batch(&mut session, batch, &published);
    }
    session
}

/// Executes one batch: every group admitted and applied all-or-nothing
/// in memory, all surviving groups under one fsync, acks strictly after
/// it.
fn run_batch(session: &mut Session, batch: Vec<Submission>, published: &Arc<Mutex<WsdSnapshot>>) {
    // The rollback point of the batch's append. The decomposition is
    // structurally shared, so dropping the pre-batch state frees only what
    // the batch replaced — cheap on any thread — and it is dropped as
    // soon as the append has returned.
    let pre_batch = session.mark();
    // Apply each group in dequeue order. `survivors[i]` pairs the
    // submission with its results; groups the admission gate refuses (a
    // poisoned store, a degraded session) or that fail in memory are
    // answered immediately (they rolled back alone, the batch goes on).
    let mut survivors: Vec<(Submission, Vec<QueryResult>)> = Vec::with_capacity(batch.len());
    let mut records: Vec<Vec<u8>> = Vec::with_capacity(batch.len());
    let mut stmt_count = 0usize;
    for sub in batch {
        let applied = wire::encode_group(&sub.stmts)
            .map_err(SessionError::storage)
            .and_then(|record| Ok((record, session.apply_group(&sub.stmts)?)));
        match applied {
            Ok((record, results)) => {
                stmt_count += sub.stmts.len();
                records.push(record);
                survivors.push((sub, results));
            }
            Err(e) => nack(&sub, e),
        }
    }
    if records.is_empty() {
        return;
    }

    let appended = session.append_records(&records, Some(&pre_batch));
    drop(pre_batch);
    match appended {
        Ok(last_lsn) => {
            // one fsync covered `records.len()` groups; publish, then ack
            metrics().groups.add(records.len() as u64);
            metrics().stmts_per_fsync.observe(stmt_count as u64);
            let snapshot = session.snapshot();
            *published.lock().expect("published snapshot lock") = snapshot.clone(); // maybms-lint: allow(no-panic-in-prod) -- only this writer thread and O(1) readers touch the lock; poison means a reader panicked holding it, so fail-stop
            let first_lsn = (last_lsn + 1).saturating_sub(records.len() as u64);
            for (i, (sub, results)) in survivors.into_iter().enumerate() {
                let ack =
                    CommitAck { results, lsn: first_lsn + i as u64, snapshot: snapshot.clone() };
                let _ = sub.reply.send(Ok(ack));
            }
        }
        // The shared fsync vouched for nobody: memory is back at the
        // durable prefix (`append_records` rewound it) and every waiter
        // in the batch is NACKed. The store is poisoned, so the
        // admission gate refuses later groups.
        Err(e) => survivors.iter().for_each(|(sub, _)| nack(sub, e.clone())),
    }
}

/// Answers a submission with its failure. Storage-level refusals (the
/// poisoned / degraded gate, a failed batch append) count as NACKs;
/// a group that merely failed to execute is the client's own error.
fn nack(sub: &Submission, e: SessionError) {
    if matches!(e, SessionError::Storage { .. } | SessionError::Degraded { .. }) {
        metrics().nacks.inc();
    }
    let _ = sub.reply.send(Err(e));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn stmts(sql: &str) -> Vec<Statement> {
        sql.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse(s).expect("parse"))
            .collect()
    }

    #[test]
    fn commits_apply_in_submission_order() {
        let committer = GroupCommitter::spawn(Session::new());
        committer
            .commit(stmts("CREATE TABLE t (x INT)"))
            .expect("create");
        for i in 0..10 {
            committer
                .commit(stmts(&format!("INSERT INTO t VALUES ({i})")))
                .expect("insert");
        }
        let snap = committer.snapshot();
        let mut view = Session::view_at(&snap);
        let rows = view.execute("SELECT CERTAIN x FROM t").expect("select");
        assert_eq!(rows.rows().len(), 10);
        let session = committer.shutdown();
        assert_eq!(session.wsd().relation("t").expect("t").tuples.len(), 10);
    }

    #[test]
    fn failed_group_rolls_back_alone() {
        let committer = GroupCommitter::spawn(Session::new());
        committer.commit(stmts("CREATE TABLE t (x INT)")).expect("create");
        let err = committer
            .commit(stmts("INSERT INTO t VALUES (1); INSERT INTO nosuch VALUES (2)"))
            .expect_err("second statement must fail the group");
        assert!(err.to_string().contains("nosuch"), "unexpected error: {err}");
        // the failed group left nothing behind
        let mut view = Session::view_at(&committer.snapshot());
        let rows = view.execute("SELECT CERTAIN x FROM t").expect("select");
        assert_eq!(rows.rows().len(), 0);
        committer.commit(stmts("INSERT INTO t VALUES (3)")).expect("later commit fine");
        drop(committer);
    }

    #[test]
    fn queries_are_refused() {
        let committer = GroupCommitter::spawn(Session::new());
        let err = committer
            .commit(stmts("SHOW TABLES"))
            .expect_err("queries must not be group-committed");
        assert!(err.to_string().contains("only mutations"), "unexpected error: {err}");
        drop(committer);
    }
}
