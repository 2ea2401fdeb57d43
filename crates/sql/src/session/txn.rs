//! Transaction state and the admission gate.
//!
//! [`Session::admit`] is the one place that decides whether a statement
//! may run in the session's current condition (read-only replica,
//! open transaction, poisoned store, degraded session, idle); every
//! entry point — [`Session::run`], and through `Session::apply_group`
//! the server's group committer — goes through it before touching
//! memory. [`TxnState`] is the one transaction recorder: it keeps the
//! undo point of `BEGIN` and of every `SAVEPOINT`, and the mutations
//! still in effect, which `COMMIT` logs as one commit group (durable
//! session) or hands to the caller ([`Session::take_transaction`], how
//! a server connection resubmits its private transaction to the group
//! committer).

use std::sync::Arc;

use maybms_core::wsd::Wsd;
use maybms_relational::{Error, Value};

use super::{Prepared, QueryResult, Session, SessionError, SessionResult};
use crate::ast::Statement;
use crate::wire;

/// A point the session can rewind to: the decomposition (an O(1) `Arc`
/// share, not a deep copy — the first mutation after the mark
/// copies-on-write) and the `cleaning_log` length at that moment.
#[derive(Debug, Clone)]
pub(crate) struct Undo {
    wsd: Arc<Wsd>,
    cleaning: usize,
}

/// State of an open transaction.
#[derive(Debug, Clone)]
pub(super) struct TxnState {
    /// The state as of `BEGIN` — what `ROLLBACK` restores.
    begin: Undo,
    /// Mutations applied so far and still in effect, in order — recorded
    /// whether or not the session is durable.
    stmts: Vec<Statement>,
    /// Active savepoints, oldest first. `ROLLBACK TO` rewinds the
    /// session and truncates `stmts` back to a mark; re-using a name
    /// shadows the earlier mark (latest wins), as in PostgreSQL.
    savepoints: Vec<SavepointMark>,
}

/// One `SAVEPOINT`: everything needed to rewind the open transaction to
/// the moment it was established without closing the transaction.
#[derive(Debug, Clone)]
struct SavepointMark {
    /// The savepoint's name (matched exactly, latest mark wins).
    name: String,
    /// The state as of `SAVEPOINT`.
    undo: Undo,
    /// `TxnState::stmts` length as of `SAVEPOINT`, so a later `COMMIT`
    /// logs exactly the statements still in effect.
    stmts: usize,
}

/// What a statement asks of the session, as far as admission goes.
enum Kind {
    Query,
    Mutation,
    Begin,
    /// `COMMIT`, `ROLLBACK`, `SAVEPOINT`, `ROLLBACK TO`: meaningful only
    /// inside a transaction.
    InTxnOnly,
    Checkpoint,
}

/// The session's condition, as far as admission goes. The first that
/// applies wins: an open transaction outranks a poisoned or degraded
/// store because it must stay resolvable (and neither can arise while
/// one is open — appends happen outside transactions or after `COMMIT`
/// closed it, and `CHECKPOINT` is refused inside).
enum Condition<'a> {
    Replica,
    InTxn,
    Poisoned(&'a str),
    Degraded(&'a str),
    Idle,
}

impl Session {
    /// The admission gate: may `stmt` run in this session's current
    /// condition? Called before the statement touches memory, so a
    /// refusal never leaves memory diverged from what disk can hold.
    pub(super) fn admit(&self, stmt: &Statement) -> SessionResult<()> {
        let kind = match stmt {
            s if wire::is_mutation(s) => Kind::Mutation,
            Statement::Begin => Kind::Begin,
            Statement::Commit
            | Statement::Rollback
            | Statement::Savepoint { .. }
            | Statement::RollbackTo { .. } => Kind::InTxnOnly,
            Statement::Checkpoint { .. } => Kind::Checkpoint,
            _ => Kind::Query,
        };
        let condition = if self.read_only {
            Condition::Replica
        } else if self.txn.is_some() {
            Condition::InTxn
        } else if let Some(reason) = self.poison_reason() {
            Condition::Poisoned(reason)
        } else if let Some(reason) = self.degraded_reason() {
            Condition::Degraded(reason)
        } else {
            Condition::Idle
        };
        match (kind, condition) {
            (Kind::Query, _) => Ok(()),
            // replicas apply the primary's log and answer queries only
            (_, Condition::Replica) => {
                Err(SessionError::ReadOnlyReplica { statement: statement_kind(stmt) })
            }
            (Kind::Mutation | Kind::InTxnOnly, Condition::InTxn) => Ok(()),
            (Kind::Begin, Condition::InTxn) => Err(SessionError::txn(
                "BEGIN inside a transaction (nested transactions are not supported)",
            )),
            (Kind::Checkpoint, Condition::InTxn) => Err(SessionError::txn(
                "CHECKPOINT inside a transaction (commit or roll back first; \
                 a snapshot must not capture uncommitted state)",
            )),
            (Kind::InTxnOnly, _) => Err(no_open_txn(&statement_kind(stmt))),
            // CHECKPOINT is the retry path that clears degradation; a
            // poisoned store refuses it itself
            (Kind::Checkpoint, _) => Ok(()),
            (Kind::Mutation | Kind::Begin, Condition::Poisoned(reason)) => {
                Err(SessionError::storage(Error::Storage(format!(
                    "database is poisoned ({reason}); writes are refused until \
                     the database is reopened"
                ))))
            }
            (Kind::Mutation | Kind::Begin, Condition::Degraded(reason)) => {
                Err(SessionError::Degraded { reason: reason.to_string() })
            }
            (Kind::Mutation | Kind::Begin, Condition::Idle) => Ok(()),
        }
    }

    /// The current state as a point to rewind to.
    pub(crate) fn mark(&self) -> Undo {
        Undo { wsd: Arc::clone(&self.wsd), cleaning: self.cleaning_log.len() }
    }

    /// Rewinds memory to `undo`.
    pub(super) fn rewind(&mut self, undo: Undo) {
        self.wsd = undo.wsd;
        self.cleaning_log.truncate(undo.cleaning);
    }

    /// Runs an admitted mutation: inside a transaction it is applied and
    /// recorded for `COMMIT`; outside one, on a durable session, it
    /// auto-commits as a batch of one bare statement record.
    pub(super) fn run_mutation(&mut self, stmt: &Statement) -> SessionResult<QueryResult> {
        // encoded before it is applied, so an encoding failure
        // (unreachable: mutation encoding is total) cannot leave memory
        // ahead of the log
        let record = match (&self.txn, &self.storage) {
            (None, Some(_)) => Some(wire::encode_statement(stmt).map_err(SessionError::storage)?),
            _ => None,
        };
        let result = self.apply(stmt)?;
        if let Some(txn) = &mut self.txn {
            txn.stmts.push(stmt.clone());
        }
        if let Some(record) = record {
            // no undo point: taking one would force a deep copy of the
            // decomposition per statement instead of the in-place
            // mutation a sole owner gets (see `append_records`)
            self.append_records(&[record], None)?;
        }
        Ok(result)
    }

    pub(super) fn begin_txn(&mut self) -> QueryResult {
        self.txn =
            Some(TxnState { begin: self.mark(), stmts: Vec::new(), savepoints: Vec::new() });
        QueryResult::Text("BEGIN".into())
    }

    /// `COMMIT`: the surviving mutations become one commit-group record
    /// — a batch of one on the durable write path. If the append fails
    /// the transaction rolls back cleanly (the pre-`BEGIN` state is
    /// still at hand), so memory returns to exactly what disk holds.
    pub(super) fn commit_txn(&mut self) -> SessionResult<QueryResult> {
        let txn = self.txn.take().ok_or_else(|| no_open_txn("COMMIT"))?;
        if self.is_durable() && !txn.stmts.is_empty() {
            match wire::encode_group(&txn.stmts) {
                Ok(group) => self.append_records(&[group], Some(&txn.begin))?,
                Err(e) => {
                    self.rewind(txn.begin);
                    return Err(SessionError::storage(e));
                }
            };
        }
        Ok(QueryResult::Text(format!("COMMIT ({} statement(s))", txn.stmts.len())))
    }

    pub(super) fn rollback_txn(&mut self) -> SessionResult<QueryResult> {
        let undone = self.take_transaction().ok_or_else(|| no_open_txn("ROLLBACK"))?;
        Ok(QueryResult::Text(format!("ROLLBACK ({} statement(s) undone)", undone.len())))
    }

    /// Ends the open transaction **without committing it here**: memory
    /// rewinds to the state as of `BEGIN` and the mutations that were
    /// still in effect (savepoint rollbacks already trimmed) are
    /// returned, in order. `None` when no transaction is open.
    ///
    /// This is how a server connection commits: its private
    /// [`Session::writable_at`] session previews the transaction, and at
    /// `COMMIT` the surviving statements are resubmitted to the group
    /// committer, which re-executes them against the durable state.
    pub fn take_transaction(&mut self) -> Option<Vec<Statement>> {
        let txn = self.txn.take()?;
        self.rewind(txn.begin);
        Some(txn.stmts)
    }

    pub(super) fn savepoint_txn(&mut self, name: &str) -> SessionResult<QueryResult> {
        let undo = self.mark();
        let txn = self.txn.as_mut().ok_or_else(|| no_open_txn("SAVEPOINT"))?;
        txn.savepoints.push(SavepointMark {
            name: name.to_string(),
            undo,
            stmts: txn.stmts.len(),
        });
        Ok(QueryResult::Text(format!("SAVEPOINT {name}")))
    }

    pub(super) fn rollback_to_savepoint(&mut self, name: &str) -> SessionResult<QueryResult> {
        let txn = self.txn.as_mut().ok_or_else(|| no_open_txn("ROLLBACK TO"))?;
        let Some(i) = txn.savepoints.iter().rposition(|m| m.name == name) else {
            return Err(SessionError::txn(format!("no savepoint named {name}")));
        };
        let mark = &txn.savepoints[i];
        let undone = txn.stmts.len() - mark.stmts;
        let undo = mark.undo.clone();
        txn.stmts.truncate(mark.stmts);
        // later savepoints die; `name` itself stays valid for re-use
        txn.savepoints.truncate(i + 1);
        self.rewind(undo);
        Ok(QueryResult::Text(format!(
            "ROLLBACK TO {name} ({undone} statement(s) undone)"
        )))
    }

    /// Admits and applies `stmts` in order, all-or-nothing, **without**
    /// logging anything: on the first refusal or failure memory rewinds
    /// to the state before the group and the error is returned. The
    /// group committer executes each submitted commit group through
    /// this and appends the batch's records itself
    /// ([`Session::append_records`]).
    pub(crate) fn apply_group(&mut self, stmts: &[Statement]) -> SessionResult<Vec<QueryResult>> {
        let undo = self.mark();
        let results = stmts
            .iter()
            .map(|stmt| self.admit(stmt).and_then(|()| self.apply(stmt)))
            .collect::<SessionResult<Vec<_>>>();
        if results.is_err() {
            self.rewind(undo);
        }
        results
    }

    /// Opens a transaction and returns a guard that rolls back on drop
    /// unless [`Transaction::commit`] is called — the typed equivalent of
    /// `BEGIN` … `COMMIT`/`ROLLBACK`. On a durable session the whole
    /// transaction commits as one WAL record under one fsync.
    ///
    /// ```
    /// use maybms_sql::Session;
    ///
    /// let mut s = Session::new();
    /// s.execute("CREATE TABLE t (x INT)").unwrap();
    /// {
    ///     let mut txn = s.transaction().unwrap();
    ///     txn.execute("INSERT INTO t VALUES (1)").unwrap();
    ///     // dropped without commit: rolled back
    /// }
    /// assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 0);
    /// let mut txn = s.transaction().unwrap();
    /// txn.execute("INSERT INTO t VALUES (2)").unwrap();
    /// txn.commit().unwrap();
    /// assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
    /// ```
    pub fn transaction(&mut self) -> SessionResult<Transaction<'_>> {
        self.run(&Statement::Begin)?;
        Ok(Transaction { session: self, open: true })
    }
}

/// An open transaction on a [`Session`]: `BEGIN` already ran; dropping
/// the guard without [`Transaction::commit`] rolls back.
#[derive(Debug)]
pub struct Transaction<'a> {
    session: &'a mut Session,
    open: bool,
}

impl Transaction<'_> {
    /// Parses and executes one statement inside the transaction.
    pub fn execute(&mut self, sql: &str) -> SessionResult<QueryResult> {
        self.session.execute(sql)
    }

    /// Executes a parsed statement inside the transaction.
    pub fn run(&mut self, stmt: &Statement) -> SessionResult<QueryResult> {
        self.session.run(stmt)
    }

    /// Binds and executes a prepared statement inside the transaction.
    pub fn execute_prepared(
        &mut self,
        prepared: &Prepared,
        params: &[Value],
    ) -> SessionResult<QueryResult> {
        self.session.execute_prepared(prepared, params)
    }

    /// Commits: appends the recorded mutations as one commit group
    /// (single fsync on a durable session) and closes the transaction.
    pub fn commit(mut self) -> SessionResult<()> {
        self.open = false;
        self.session.run(&Statement::Commit).map(|_| ())
    }

    /// Rolls back explicitly (dropping the guard does the same).
    pub fn rollback(mut self) -> SessionResult<()> {
        self.open = false;
        self.session.run(&Statement::Rollback).map(|_| ())
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if self.open {
            // the transaction may already be closed if the user executed
            // COMMIT/ROLLBACK as SQL through the guard; ignore that error
            // maybms-lint: allow(poison-discipline) -- Drop cannot propagate; a failed rollback here means the transaction already ended
            let _ = self.session.run(&Statement::Rollback);
        }
    }
}

fn no_open_txn(statement: &str) -> SessionError {
    SessionError::txn(format!("{statement} without an open transaction"))
}

/// A short human name for a statement, for error messages.
fn statement_kind(stmt: &Statement) -> String {
    match stmt {
        Statement::CreateTable { .. } => "CREATE TABLE".into(),
        Statement::DropTable { .. } => "DROP TABLE".into(),
        Statement::RenameTable { .. } => "ALTER TABLE".into(),
        Statement::Insert { .. } => "INSERT".into(),
        Statement::Delete { .. } => "DELETE".into(),
        Statement::Update { .. } => "UPDATE".into(),
        Statement::Repair(_) => "REPAIR".into(),
        Statement::Checkpoint { .. } => "CHECKPOINT".into(),
        Statement::Begin => "BEGIN".into(),
        Statement::Commit => "COMMIT".into(),
        Statement::Rollback => "ROLLBACK".into(),
        Statement::Savepoint { .. } => "SAVEPOINT".into(),
        Statement::RollbackTo { .. } => "ROLLBACK TO".into(),
        other => format!("{other:?}"),
    }
}
