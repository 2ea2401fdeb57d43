//! The session: a stateful database holding one decomposition, executing
//! SQL statements against it.
//!
//! Statements run through the full stack: parse → lower → logical
//! optimize → [`maybms_core::exec::compile`] → execute with the
//! session's [`WorkerPool`]. The pool defaults to the shared
//! process-wide pool (sized by `MAYBMS_WORKERS` or the machine's
//! parallelism); [`Session::with_worker_pool`] overrides it.
//!
//! Errors at the session boundary are the structured [`SessionError`]
//! (parse / plan / execute / storage / transaction variants, each carrying
//! its context and implementing `std::error::Error`).
//!
//! # Transactions and durability
//!
//! A session opened with [`Session::open`] (or made durable with
//! [`Session::attach`]) is backed by a `maybms-storage` [`Database`].
//! Outside a transaction, **autocommit** holds: every mutation (`CREATE` /
//! `DROP` / `ALTER` / `INSERT` / `DELETE` / `UPDATE` / `REPAIR`) that
//! succeeded in memory is appended to the write-ahead log and fsynced
//! before `run` returns.
//!
//! `BEGIN` opens an explicit transaction: mutations still apply to the
//! live decomposition immediately (queries inside the transaction see
//! them), and the transaction **records** them. `COMMIT` appends the
//! recorded statements as one CRC-framed **commit group** — a single WAL
//! record, a single fsync, however many statements the transaction held
//! (a transaction of N `INSERT`s costs one fsync instead of N).
//! `ROLLBACK` restores the decomposition as of `BEGIN` and discards the
//! record. The typed guard API ([`Session::transaction`]) rolls back
//! automatically when dropped without a commit.
//!
//! Every durable write — auto-commit, `COMMIT`, and the server's group
//! committer — is a batch of encoded records on one path (see
//! `durable.rs`), and every refusal for the session's condition
//! (read-only replica, open transaction, poisoned store, degraded) comes
//! from one admission gate (see `txn.rs`).
//!
//! **Recovery guarantees** ([`Session::open`]): the latest snapshot is
//! decoded and validated, then the WAL's committed prefix is replayed.
//! Because a commit group is one record under one CRC, recovery replays a
//! transaction *all or not at all*: a crash mid-`COMMIT` (torn group) or
//! mid-transaction (nothing appended yet) rolls the whole transaction
//! back, never a prefix of it. The engine is deterministic, so replay
//! reproduces the exact pre-crash committed state at any worker count.
//! `CHECKPOINT` compacts the log into a fresh snapshot (atomic write-new +
//! rename) and is refused inside a transaction.
//!
//! # Prepared statements
//!
//! [`Session::prepare`] parses a statement with `?` placeholders once;
//! [`Session::execute_prepared`] binds values and runs it — parse once,
//! bind many (the bulk loaders and benches use this):
//!
//! ```
//! use maybms_sql::Session;
//! use maybms_relational::Value;
//!
//! let mut s = Session::new();
//! s.execute("CREATE TABLE person (ssn INT, name TEXT)").unwrap();
//! // parse once, bind many
//! let ins = s.prepare("INSERT INTO person VALUES (?, ?)").unwrap();
//! for (ssn, name) in [(1i64, "ann"), (2, "bob")] {
//!     s.execute_prepared(&ins, &[Value::Int(ssn), Value::str(name)]).unwrap();
//! }
//! // explicit transaction: recorded statements, single group-commit fsync
//! let mut txn = s.transaction().unwrap();
//! txn.execute("UPDATE person SET name = 'anna' WHERE ssn = 1").unwrap();
//! txn.execute("DELETE FROM person WHERE ssn = 2").unwrap();
//! txn.commit().unwrap();
//! let r = s.execute("SELECT POSSIBLE name FROM person").unwrap();
//! assert_eq!(r.rows().len(), 1);
//! ```
//!
//! # Layout
//!
//! `error` (the structured error) · `prepare` (parse once, bind many) ·
//! `txn` (transaction state, savepoints, the admission gate) · `durable`
//! (open/recover, the one durable write path, `CHECKPOINT`) · `show`
//! (`EXPLAIN`, `SHOW …`) · `select` (query execution). This file holds
//! the `Session` itself, statement dispatch and the DDL/DML appliers.

mod durable;
mod error;
mod prepare;
mod select;
mod show;
mod txn;

use std::sync::Arc;
use std::time::{Duration, Instant};

use maybms_core::algebra::{delete_op, update_op};
use maybms_core::chase::{clean, CleaningReport, Constraint};
use maybms_core::exec::{global_pool, WorkerPool};
use maybms_core::stats::WsdStats;
use maybms_core::wsd::Wsd;
use maybms_obs::{QueryTrace, SlowLog, SlowQuery};
use maybms_relational::{pretty, Column, Error, Relation, Result, Schema, Tuple};
use maybms_storage::Database;
use maybms_worldset::OrSetCell;

use crate::ast::{InsertValue, RepairStmt, Statement};
use crate::parser::parse_script;
use crate::replication::ReplStatus;
use crate::wire;

pub use error::{SessionError, SessionResult};
pub use prepare::Prepared;
pub use txn::Transaction;
use txn::TxnState;

/// How many entries the session's slow-query ring holds.
const SLOW_LOG_CAPACITY: usize = 32;

/// The default slow-query threshold: `MAYBMS_SLOW_QUERY_MS` when set (an
/// unparsable value disables the log), otherwise 100 ms.
fn default_slow_threshold() -> Option<Duration> {
    match std::env::var("MAYBMS_SLOW_QUERY_MS") {
        Ok(v) => v.trim().parse::<u64>().ok().map(Duration::from_millis),
        Err(_) => Some(Duration::from_millis(100)),
    }
}

/// The outcome of executing one statement.
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// A plain (all-worlds) SELECT: the answer is a world-set, returned as
    /// a decomposition whose single relation is `result`.
    WorldSet(Wsd),
    /// POSSIBLE / CERTAIN / PROB() queries return an ordinary relation.
    Table(Relation),
    /// DDL / DML / REPAIR acknowledgement or EXPLAIN text.
    Text(String),
}

impl QueryResult {
    /// The relation, when the result is one.
    pub fn table(&self) -> Option<&Relation> {
        match self {
            QueryResult::Table(r) => Some(r),
            _ => None,
        }
    }

    /// The decomposition, when the result is one.
    pub fn world_set(&self) -> Option<&Wsd> {
        match self {
            QueryResult::WorldSet(w) => Some(w),
            _ => None,
        }
    }

    /// The answer rows of a tabular result; empty for world-set and text
    /// results — `for row in r.rows()` instead of pattern-matching.
    pub fn rows(&self) -> &[Tuple] {
        match self {
            QueryResult::Table(r) => r.rows(),
            _ => &[],
        }
    }

    /// The acknowledgement text of a DDL / DML / transaction-control
    /// result; empty for tabular and world-set results.
    pub fn ack(&self) -> &str {
        match self {
            QueryResult::Text(t) => t,
            _ => "",
        }
    }

    /// The text a client sees: a table as `pretty` renders it (at most
    /// `row_limit` rows), a world-set as its shape, world count and the
    /// confidence of each answer tuple, an acknowledgement as itself.
    pub fn render(&self, row_limit: usize) -> String {
        match self {
            QueryResult::Table(t) => pretty::render(t, row_limit),
            QueryResult::WorldSet(w) => {
                let stats = w.stats();
                let mut out = format!(
                    "answer world-set: {} tuple template(s), {} component(s), {} worlds\n",
                    stats.template_tuples,
                    stats.components,
                    w.world_count()
                );
                match w.tuple_confidence("result") {
                    Ok(conf) => {
                        for (t, p) in conf {
                            out.push_str(&format!("  {t}  p={p:.4}\n"));
                        }
                    }
                    Err(e) => out.push_str(&format!("  (confidence unavailable: {e})\n")),
                }
                out
            }
            QueryResult::Text(t) => t.clone(),
        }
    }
}

/// An immutable snapshot of a session's decomposition, stamped with the
/// WAL position (LSN) it reflects.
///
/// Cloning and holding a snapshot is O(1) — it shares the state by
/// `Arc`; the owning session copies-on-write at its next mutation, so
/// the snapshot never changes underneath its holder. That copy is a
/// shared clone of the decomposition (see `maybms_core::wsd`, "Sharing"):
/// the writer copies only the relations and components it touches, and
/// the snapshot keeps sharing everything else, so dropping the last
/// holder frees only what no later state still shares. `lsn` is `0` for
/// sessions with no backing store (no log to have a position in).
///
/// Snapshots are the unit of the server's snapshot isolation: the group
/// committer publishes one after every committed batch, and read
/// connections run against [`Session::view_at`] of the latest published
/// one.
#[derive(Debug, Clone)]
pub struct WsdSnapshot {
    wsd: Arc<Wsd>,
    lsn: u64,
}

impl WsdSnapshot {
    /// The WAL position this snapshot reflects: every commit group with
    /// LSN ≤ this is included, nothing later is.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The decomposition at [`WsdSnapshot::lsn`].
    pub fn wsd(&self) -> &Wsd {
        &self.wsd
    }
}

/// A MayBMS session: the incomplete database plus execution settings.
#[derive(Debug)]
pub struct Session {
    /// The live decomposition, behind an `Arc` so transactions,
    /// savepoints and [`Session::snapshot`] share it in O(1); mutations
    /// go through `Arc::make_mut` (copy-on-write when a snapshot is
    /// outstanding, in-place when the session holds the only reference).
    wsd: Arc<Wsd>,
    /// Disable to execute unoptimized plans (used by the E3 ablation).
    pub optimize_plans: bool,
    /// Reports from REPAIR statements, latest last.
    pub cleaning_log: Vec<CleaningReport>,
    /// The worker pool compiled plans and confidence computation run on.
    pool: Arc<WorkerPool>,
    /// The durable backing store, when this session was opened on (or
    /// attached to) a database file.
    storage: Option<Database>,
    /// The open transaction, if `BEGIN` ran without a `COMMIT`/`ROLLBACK`.
    txn: Option<TxnState>,
    /// A replication follower: mutations are refused at the boundary
    /// (`run`), while the replication layer applies shipped records
    /// through the internal path.
    read_only: bool,
    /// Set when a checkpoint failed before publishing anything (e.g.
    /// `ENOSPC` writing the temp snapshot): the session refuses further
    /// mutations with [`SessionError::Degraded`] until a `CHECKPOINT`
    /// succeeds, which clears it. Unlike storage poisoning this is
    /// recoverable in place — nothing on disk was damaged.
    degraded: Option<String>,
    /// Cardinality statistics over the session's decomposition, reused
    /// across queries: an entry is reused only while the shared parts of
    /// the decomposition it read are still the same allocations.
    stats: WsdStats,
    /// The trace of the statement currently inside [`Session::execute`]:
    /// `run_select_inner` pushes its optimize/compile/execute spans here.
    trace: Option<QueryTrace>,
    /// Ring of statements whose wall-clock time crossed the threshold —
    /// `SHOW SLOW QUERIES` reads it back out.
    slow_log: Arc<SlowLog>,
    /// Statements at least this slow are logged; `None` disables the log.
    slow_threshold: Option<Duration>,
    /// Live replication position, installed by the replication layer on
    /// follower sessions — `SHOW REPLICATION STATUS` reads it.
    repl_status: Option<Arc<ReplStatus>>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Clone for Session {
    /// Clones the in-memory state only: the clone is **detached** from any
    /// database file (two sessions appending to one write-ahead log would
    /// interleave corruptly). Use [`Session::attach`] to give the clone
    /// its own file.
    ///
    /// A transaction open at clone time is **carried over**: the clone
    /// holds the same pre-`BEGIN` snapshot and buffered records, so it can
    /// keep executing, `ROLLBACK`, or `COMMIT` (a commit on the detached
    /// clone applies in memory only — nothing reaches the original's log).
    fn clone(&self) -> Session {
        Session {
            // an O(1) Arc share: the two sessions copy-on-write away
            // from each other at their first respective mutations
            wsd: Arc::clone(&self.wsd),
            optimize_plans: self.optimize_plans,
            cleaning_log: self.cleaning_log.clone(),
            pool: self.pool.clone(),
            storage: None,
            txn: self.txn.clone(),
            read_only: self.read_only,
            degraded: None,
            stats: WsdStats::new(),
            trace: None,
            slow_log: Arc::new(SlowLog::new(SLOW_LOG_CAPACITY)),
            slow_threshold: self.slow_threshold,
            repl_status: None,
        }
    }
}

impl Session {
    /// A fresh in-memory session over an empty database. Use
    /// [`Session::open`] for a durable one, or [`Session::attach`] to add
    /// durability later.
    pub fn new() -> Session {
        Session {
            wsd: Arc::new(Wsd::new()),
            optimize_plans: true,
            cleaning_log: Vec::new(),
            pool: global_pool(),
            storage: None,
            txn: None,
            read_only: false,
            degraded: None,
            stats: WsdStats::new(),
            trace: None,
            slow_log: Arc::new(SlowLog::new(SLOW_LOG_CAPACITY)),
            slow_threshold: default_slow_threshold(),
            repl_status: None,
        }
    }

    /// Whether a transaction is open (`BEGIN` without `COMMIT`/`ROLLBACK`).
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Marks this session as a read-only replica: every mutation,
    /// transaction-control statement and `CHECKPOINT` through
    /// [`Session::run`] fails with [`SessionError::ReadOnlyReplica`].
    /// The replication layer applies shipped records through an internal
    /// path that bypasses this check (they were already committed on the
    /// primary).
    pub(crate) fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// A session over an existing decomposition.
    pub fn with_wsd(wsd: Wsd) -> Session {
        Session { wsd: Arc::new(wsd), ..Session::new() }
    }

    /// Replaces the worker pool (e.g. `WorkerPool::new(1)` for forced
    /// sequential execution, or a sized pool for scaling sweeps).
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Session {
        self.pool = pool;
        self
    }

    /// The live decomposition this session queries and mutates. Queries
    /// run on a shared clone of it, so a statement costs what it touches.
    pub fn wsd(&self) -> &Wsd {
        &self.wsd
    }

    /// Mutable access to the decomposition (bypasses SQL and the WAL —
    /// durable sessions should mutate through statements instead).
    /// Copies-on-write when a snapshot, open transaction or savepoint
    /// still shares the decomposition; that copy is a shared clone, and
    /// each later write copies only the relation or component it
    /// touches.
    pub fn wsd_mut(&mut self) -> &mut Wsd {
        Arc::make_mut(&mut self.wsd)
    }

    /// An immutable, LSN-stamped snapshot of the session's current state.
    ///
    /// O(1): the snapshot shares the live decomposition by `Arc`; the
    /// session's next mutation copies-on-write away from it — copying
    /// only what that mutation touches, the rest stays shared — so the
    /// snapshot stays frozen at exactly the state (and WAL position) it
    /// was taken at, however long it is held and however far writers
    /// advance. This is the read side of the server's snapshot
    /// isolation: every reader gets a consistent view for free and
    /// never blocks the writer.
    pub fn snapshot(&self) -> WsdSnapshot {
        WsdSnapshot {
            wsd: Arc::clone(&self.wsd),
            lsn: self.last_lsn().unwrap_or(0),
        }
    }

    /// A detached **read-only** session over [`Session::snapshot`] of
    /// this session. O(1) to create; mutations and transaction control
    /// are refused at the boundary, queries execute normally.
    pub fn read_view(&self) -> Session {
        let mut view = Session::view_at(&self.snapshot());
        view.pool = Arc::clone(&self.pool);
        view
    }

    /// A detached read-only session frozen at `snapshot`. See
    /// [`Session::read_view`]; this form lets one published snapshot be
    /// handed to many readers.
    pub fn view_at(snapshot: &WsdSnapshot) -> Session {
        Session {
            wsd: Arc::clone(&snapshot.wsd),
            read_only: true,
            ..Session::new()
        }
    }

    /// A detached **writable** in-memory session frozen at `snapshot` —
    /// what a server connection runs on: queries against the snapshot,
    /// and an open transaction's read-your-writes preview (nothing
    /// reaches any log until [`Session::take_transaction`] hands the
    /// statements over for group commit).
    pub fn writable_at(snapshot: &WsdSnapshot) -> Session {
        Session { wsd: Arc::clone(&snapshot.wsd), ..Session::new() }
    }

    /// Replaces this session's state with `snapshot` (an O(1) pointer
    /// swap) — how a long-lived detached session refreshes to the latest
    /// published commit. Refused while a transaction is open: the
    /// transaction's rollback state refers to the old timeline.
    pub fn install_snapshot(&mut self, snapshot: &WsdSnapshot) -> SessionResult<()> {
        if self.txn.is_some() {
            return Err(SessionError::txn(
                "cannot install a snapshot while a transaction is open",
            ));
        }
        self.wsd = Arc::clone(&snapshot.wsd);
        Ok(())
    }

    /// Parses and executes one statement.
    ///
    /// The statement is traced through the pipeline phases (parse →
    /// optimize → compile → execute); when its total wall-clock time
    /// reaches the slow-query threshold (see
    /// [`Session::set_slow_query_threshold`]) the trace lands in the
    /// session's slow-query ring, which `SHOW SLOW QUERIES` reads.
    pub fn execute(&mut self, sql: &str) -> SessionResult<QueryResult> {
        let mut trace = QueryTrace::start();
        let begin = Instant::now();
        let stmt = self.prepare_unparameterized(sql)?;
        trace.push("parse", begin);
        self.trace = Some(trace);
        let result = self.run(&stmt.stmt);
        let trace = self.trace.take().expect("trace installed above"); // maybms-lint: allow(no-panic-in-prod) -- the trace sink was installed unconditionally at the top of this block
        if let Some(threshold) = self.slow_threshold {
            let total = trace.total();
            if total >= threshold {
                self.slow_log.record(SlowQuery {
                    sql: sql.to_string(),
                    total,
                    phases: trace.render(),
                    at: Instant::now(),
                });
            }
        }
        result
    }

    /// Sets the slow-query threshold: statements whose total wall-clock
    /// time through [`Session::execute`] reaches it are recorded in the
    /// slow-query ring (`SHOW SLOW QUERIES`). `None` disables the log.
    /// The initial value comes from `MAYBMS_SLOW_QUERY_MS` (default
    /// 100 ms; `0` logs every statement).
    pub fn set_slow_query_threshold(&mut self, threshold: Option<Duration>) {
        self.slow_threshold = threshold;
    }

    /// The session's slow-query ring — shareable, so a monitoring thread
    /// can read it while the session executes.
    pub fn slow_log(&self) -> &Arc<SlowLog> {
        &self.slow_log
    }

    /// Installs the live replication position `SHOW REPLICATION STATUS`
    /// reports — the replication layer calls this on follower sessions.
    pub(crate) fn set_repl_status(&mut self, status: Arc<ReplStatus>) {
        self.repl_status = Some(status);
    }

    /// Executes a `;`-separated script, returning the last statement's
    /// result.
    ///
    /// A multi-statement script containing mutations runs as an
    /// **implicit transaction**: if any statement fails, everything the
    /// script already applied is rolled back — a script is all-or-nothing,
    /// in memory and (on a durable session) on disk, where it commits as
    /// one group under one fsync. Scripts that manage transactions
    /// themselves (`BEGIN`/`COMMIT`/`ROLLBACK`/`CHECKPOINT` statements),
    /// single-statement scripts, pure-query scripts, and scripts run
    /// inside an already-open transaction execute statement-by-statement
    /// exactly as before.
    pub fn execute_script(&mut self, sql: &str) -> SessionResult<QueryResult> {
        let stmts = parse_script(sql)
            .map_err(|source| SessionError::Parse { sql: sql.to_string(), source })?;
        let implicit_txn = !self.in_transaction()
            && !self.read_only
            && stmts.len() >= 2
            && stmts.iter().any(wire::is_mutation)
            && !stmts.iter().any(|s| {
                matches!(
                    s,
                    Statement::Begin
                        | Statement::Commit
                        | Statement::Rollback
                        | Statement::Checkpoint { .. }
                )
            });
        let mut last = QueryResult::Text("OK".into());
        if implicit_txn {
            // the guard rolls the whole script back if a statement fails;
            // the script's observable result stays the last statement's,
            // not the COMMIT acknowledgement
            let mut txn = self.transaction()?;
            for s in &stmts {
                last = txn.run(s)?;
            }
            txn.commit()?;
        } else {
            for s in &stmts {
                last = self.run(s)?;
            }
        }
        Ok(last)
    }

    /// Executes a parsed statement: the admission gate first
    /// (`Session::admit` — the one place a statement is refused for the
    /// session's condition), then the statement itself. Outside a
    /// transaction, a mutation that succeeded in memory is appended to
    /// the write-ahead log (and fsynced) before this returns — once you
    /// have the `Ok`, the statement survives a crash. Inside a
    /// transaction it is recorded until `COMMIT` (which appends the
    /// whole group under a single fsync).
    pub fn run(&mut self, stmt: &Statement) -> SessionResult<QueryResult> {
        self.admit(stmt)?;
        match stmt {
            Statement::Begin => Ok(self.begin_txn()),
            Statement::Commit => self.commit_txn(),
            Statement::Rollback => self.rollback_txn(),
            Statement::Savepoint { name } => self.savepoint_txn(name),
            Statement::RollbackTo { name } => self.rollback_to_savepoint(name),
            s if wire::is_mutation(s) => self.run_mutation(s),
            _ => self.apply(stmt),
        }
    }

    /// Statement dispatch without admission or WAL logging (recovery
    /// replays through this, and so does the replication follower — the
    /// records were committed and logged on the primary; [`Session::run`]
    /// adds the admission gate, transaction control and the logging).
    pub(crate) fn apply(&mut self, stmt: &Statement) -> SessionResult<QueryResult> {
        match stmt {
            Statement::Select(sel) => self.run_select(sel),
            Statement::CreateTable { name, columns } => {
                let schema = Schema::from_columns(
                    columns
                        .iter()
                        .map(|(n, t)| Column::new(n.clone(), *t))
                        .collect(),
                );
                Arc::make_mut(&mut self.wsd)
                    .add_relation(name.clone(), schema)
                    .map_err(SessionError::exec)?;
                Ok(QueryResult::Text(format!("created table {name}")))
            }
            Statement::DropTable { name } => {
                let wsd = Arc::make_mut(&mut self.wsd);
                wsd.remove_relation(name).map_err(SessionError::exec)?;
                maybms_core::normalize::normalize(wsd);
                Ok(QueryResult::Text(format!("dropped table {name}")))
            }
            Statement::RenameTable { from, to } => {
                // `rename_relation` restores the source relation when the
                // target name is taken (PR 1 regression), so a failed
                // rename must leave `from` queryable.
                Arc::make_mut(&mut self.wsd)
                    .rename_relation(from, to.clone())
                    .map_err(SessionError::exec)?;
                Ok(QueryResult::Text(format!("renamed table {from} to {to}")))
            }
            Statement::Insert { table, rows } => {
                self.apply_insert(table, rows).map_err(SessionError::exec)
            }
            Statement::Delete { table, pred } => {
                // DML on a scratch copy: a failing statement (bad predicate,
                // arithmetic error) must not leak partial edits — memory has
                // to be all-or-nothing, like the WAL.
                let mut scratch = (*self.wsd).clone();
                let report =
                    delete_op(&mut scratch, table, pred.as_ref()).map_err(SessionError::exec)?;
                self.wsd = Arc::new(scratch);
                Ok(QueryResult::Text(format!(
                    "deleted {} tuple(s) from {table} ({} in every world, {} conditionally)",
                    report.total(),
                    report.certain,
                    report.conditioned
                )))
            }
            Statement::Update { table, set, pred } => {
                let assignments = set
                    .iter()
                    .map(|(col, v)| match v {
                        InsertValue::Certain(v) => Ok((col.clone(), v.clone())),
                        InsertValue::Param(i) => Err(Error::InvalidExpr(format!(
                            "unbound parameter ?{} in UPDATE (bind prepared-statement \
                             parameters first)",
                            i + 1
                        ))),
                        InsertValue::Uniform(_) | InsertValue::Weighted(_) => {
                            Err(Error::InvalidExpr(
                                "or-set values are not supported in UPDATE SET \
                                 (INSERT introduces uncertainty)"
                                    .into(),
                            ))
                        }
                    })
                    .collect::<Result<Vec<_>>>()
                    .map_err(SessionError::exec)?;
                let mut scratch = (*self.wsd).clone();
                let report = update_op(&mut scratch, table, &assignments, pred.as_ref())
                    .map_err(SessionError::exec)?;
                self.wsd = Arc::new(scratch);
                Ok(QueryResult::Text(format!(
                    "updated {} tuple(s) in {table} ({} in every world, {} conditionally)",
                    report.total(),
                    report.certain,
                    report.conditioned
                )))
            }
            Statement::Repair(r) => {
                let constraint = match r {
                    RepairStmt::Key { table, columns } => Constraint::Key {
                        rel: table.clone(),
                        cols: columns.clone(),
                    },
                    RepairStmt::Fd { table, lhs, rhs } => Constraint::Fd {
                        rel: table.clone(),
                        lhs: lhs.clone(),
                        rhs: rhs.clone(),
                    },
                    RepairStmt::Check { table, pred } => Constraint::TupleCheck {
                        rel: table.clone(),
                        pred: pred.clone(),
                    },
                };
                // Chase on a scratch copy: a failing REPAIR (no consistent
                // world) may abort mid-chase, and partial deletions must
                // not leak into session state — the WAL only records
                // statements that fully succeeded, so memory has to be
                // all-or-nothing too.
                let mut cleaned = (*self.wsd).clone();
                let report =
                    clean(&mut cleaned, &[constraint]).map_err(SessionError::exec)?;
                self.wsd = Arc::new(cleaned);
                let msg = format!(
                    "repaired: {} violating row group(s) removed, {:.4} probability mass discarded",
                    report.deleted_rows, report.removed_probability
                );
                self.cleaning_log.push(report);
                Ok(QueryResult::Text(msg))
            }
            Statement::Explain { stmt, analyze } => match stmt.as_ref() {
                Statement::Select(sel) => self.explain_select(sel, *analyze),
                other => Ok(QueryResult::Text(format!("{other:?}"))),
            },
            Statement::ShowTables => {
                let names: Vec<&str> = self.wsd.relation_names().collect();
                Ok(QueryResult::Text(names.join("\n")))
            }
            Statement::ShowMetrics { like } => Ok(self.show_metrics(like.as_deref())),
            Statement::ShowSlowQueries => Ok(self.show_slow_queries()),
            Statement::ShowReplicationStatus => Ok(self.show_replication_status()),
            Statement::Checkpoint { full } => self.checkpoint(*full),
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Savepoint { .. }
            | Statement::RollbackTo { .. } => {
                // transaction control never reaches the WAL, so replay
                // (which drives apply directly) cannot hit this arm
                Err(SessionError::txn(
                    "transaction control must go through Session::run",
                ))
            }
        }
    }

    fn apply_insert(&mut self, table: &str, rows: &[Vec<InsertValue>]) -> Result<QueryResult> {
        // Build and type-check every row before pushing any: an
        // INSERT either applies fully or not at all. (The WAL only
        // records statements that succeeded; a partially applied
        // failure would make replay diverge from memory.)
        let schema = self.wsd.relation(table)?.schema.clone();
        let mut staged = Vec::with_capacity(rows.len());
        for row in rows {
            let cells = row
                .iter()
                .map(|v| match v {
                    InsertValue::Certain(v) => Ok(OrSetCell::certain(v.clone())),
                    InsertValue::Uniform(vs) => OrSetCell::uniform(vs.clone()),
                    InsertValue::Weighted(ws) => OrSetCell::weighted(ws.clone()),
                    InsertValue::Param(i) => Err(Error::InvalidExpr(format!(
                        "unbound parameter ?{} in INSERT (bind prepared-statement \
                         parameters first)",
                        i + 1
                    ))),
                })
                .collect::<Result<Vec<_>>>()?;
            if cells.len() != schema.len() {
                return Err(Error::TypeError(format!(
                    "tuple arity {} vs schema {}",
                    cells.len(),
                    schema.len()
                )));
            }
            for (i, c) in cells.iter().enumerate() {
                for (v, _) in c.alternatives() {
                    if !v.matches_type(schema.column(i).ty) {
                        return Err(Error::TypeError(format!(
                            "value {v} not valid for column {}",
                            schema.column(i).name
                        )));
                    }
                }
            }
            staged.push(cells);
        }
        let n = staged.len();
        let wsd = Arc::make_mut(&mut self.wsd);
        let slots = wsd.num_component_slots();
        for cells in staged {
            wsd.push_orset(table, cells)?;
        }
        // Each uncertain cell added a component, marked dirty; its
        // alternatives may repeat (`{1: 0.5, 1: 0.5}`), so it is not
        // normal yet. Certain rows add none and skip the pass.
        if wsd.num_component_slots() > slots {
            maybms_core::normalize::normalize(wsd);
        }
        Ok(QueryResult::Text(format!("inserted {n} tuple(s) into {table}")))
    }

}

impl From<Wsd> for Session {
    fn from(wsd: Wsd) -> Session {
        Session::with_wsd(wsd)
    }
}


/// Builds a session preloaded with the paper's medical example, used by
/// docs, examples and tests.
pub fn medical_session() -> Session {
    Session::with_wsd(maybms_core::examples::medical_wsd())
}

#[cfg(test)]
mod tests;
