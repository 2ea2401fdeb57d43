//! Durability: opening and recovering a database file, the one durable
//! write path ([`Session::append_records`]), `CHECKPOINT`, and the
//! accessors onto the backing store.
//!
//! ```text
//! apply in memory ─► encode wire record(s) ─► Database::append_many ─► publish / ack
//!                                              (one write, one fsync)
//! ```
//!
//! Every durable write is a **batch** of already-applied, already-encoded
//! WAL records handed to [`Session::append_records`]: an embedded
//! auto-commit statement is a batch of one bare statement record, an
//! embedded `COMMIT` a batch of one commit-group record, and the
//! server's group committer a batch of one commit-group record per
//! coalesced submission.

use std::path::Path;
use std::sync::Arc;

use maybms_core::codec::{decode_wsd, encode_wsd};
use maybms_core::wsd::Wsd;
use maybms_relational::Error;
use maybms_storage::{CheckpointKind, Database, Recovered, Vfs, DEFAULT_PAGE_SIZE};

use super::txn::Undo;
use super::{QueryResult, Session, SessionError, SessionResult};
use crate::wire;

impl Session {
    /// Opens (or creates) a durable session on the database at `path`
    /// (conventionally `*.maybms`; the write-ahead log lives next to it
    /// at `<path>.wal`, an incremental-checkpoint overlay at
    /// `<path>.inc`). Recovery runs here: the latest snapshot (base +
    /// overlay) is decoded and validated, then the WAL's committed prefix
    /// is replayed — single statements and whole commit groups alike — so
    /// the returned session holds exactly the state as of the last
    /// committed statement or transaction, even after a crash.
    ///
    /// ```
    /// use maybms_sql::Session;
    ///
    /// let path = std::env::temp_dir().join(format!("doc-open-{}.maybms", std::process::id()));
    /// # let _ = std::fs::remove_file(&path);
    /// # let _ = std::fs::remove_file(maybms_storage::wal_path_for(&path));
    /// {
    ///     let mut s = Session::open(&path).unwrap();
    ///     s.execute("CREATE TABLE t (x INT)").unwrap();
    ///     s.execute("INSERT INTO t VALUES ({1: 0.5, 2: 0.5})").unwrap();
    ///     // dropped without CHECKPOINT: the log alone carries the state
    /// }
    /// let mut recovered = Session::open(&path).unwrap();
    /// assert_eq!(recovered.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 2);
    /// # let _ = std::fs::remove_file(&path);
    /// # let _ = std::fs::remove_file(maybms_storage::wal_path_for(&path));
    /// ```
    pub fn open(path: impl AsRef<Path>) -> SessionResult<Session> {
        let recovered = Database::open(path).map_err(SessionError::storage)?;
        Session::from_recovered(recovered)
    }

    /// As [`Session::open`], with all file I/O routed through an explicit
    /// [`Vfs`] — the entry point fault-injection tests use to open a
    /// session over a [`maybms_storage::FaultVfs`].
    pub fn open_with_vfs(path: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> SessionResult<Session> {
        let recovered = Database::open_with_vfs(path, DEFAULT_PAGE_SIZE, vfs)
            .map_err(SessionError::storage)?;
        Session::from_recovered(recovered)
    }

    /// Recovery tail shared by [`Session::open`] and
    /// [`Session::open_with_vfs`]: decode the snapshot, replay the WAL's
    /// committed prefix, attach the database handle.
    fn from_recovered(recovered: Recovered) -> SessionResult<Session> {
        let wsd = match &recovered.snapshot {
            Some(payload) => decode_wsd(payload).map_err(SessionError::storage)?,
            None => Wsd::new(),
        };
        let mut session = Session::with_wsd(wsd);
        for record in &recovered.records {
            // Replay bypasses run(): already-logged statements must not be
            // logged again. Replay failure means a corrupt log (every
            // logged statement succeeded once and the engine is
            // deterministic), so it surfaces as an error.
            let stmts = wire::decode_wal_record(record).map_err(SessionError::storage)?;
            for stmt in &stmts {
                session.apply(stmt).map_err(|e| {
                    SessionError::storage(Error::Storage(format!(
                        "WAL replay failed on {stmt:?}: {e}"
                    )))
                })?;
            }
        }
        session.storage = Some(recovered.db);
        Ok(session)
    }

    /// Attaches durability to an in-memory session: creates the database
    /// files at `path` and immediately checkpoints the current state.
    /// Refuses to clobber an existing database, and refuses inside a
    /// transaction (the snapshot would capture uncommitted state).
    pub fn attach(&mut self, path: impl AsRef<Path>) -> SessionResult<()> {
        if self.txn.is_some() {
            return Err(SessionError::txn(
                "cannot attach a database file inside a transaction",
            ));
        }
        if self.storage.is_some() {
            return Err(SessionError::storage(Error::Storage(
                "session is already attached to a database file".into(),
            )));
        }
        let recovered = Database::open(path.as_ref()).map_err(SessionError::storage)?;
        if recovered.snapshot.is_some()
            || !recovered.records.is_empty()
            || recovered.db.generation() != 0
        {
            return Err(SessionError::storage(Error::Storage(format!(
                "refusing to attach: {} already holds a database",
                path.as_ref().display()
            ))));
        }
        let mut db = recovered.db;
        db.checkpoint(&encode_wsd(&self.wsd)).map_err(SessionError::storage)?;
        self.storage = Some(db);
        Ok(())
    }

    /// Whether this session writes through to a database file.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// Whether the backing store is **poisoned**: an append or checkpoint
    /// publish step failed after the point of no return, so durability of
    /// in-memory state is unknown. Mutations are refused; reopen the path
    /// to recover the last durable state. `false` when not attached.
    pub fn is_poisoned(&self) -> bool {
        self.storage.as_ref().is_some_and(Database::is_poisoned)
    }

    /// Why the backing store is poisoned, if it is.
    pub fn poison_reason(&self) -> Option<&str> {
        self.storage.as_ref().and_then(Database::poison_reason)
    }

    /// Whether the session is **degraded to read-only** after a checkpoint
    /// failed before publishing anything (see [`SessionError::Degraded`]).
    /// A successful `CHECKPOINT` clears it in place.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Why the session is degraded, if it is.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The snapshot generation of the backing store, if attached.
    pub fn storage_generation(&self) -> Option<u64> {
        self.storage.as_ref().map(Database::generation)
    }

    /// LSN of the last committed (durable) record, if attached. Monotone
    /// across the database's life — checkpoints never reset it — so it
    /// names the exact log position a replica must reach to be in sync.
    pub fn last_lsn(&self) -> Option<u64> {
        self.storage.as_ref().map(Database::last_lsn)
    }

    /// The backing store, if attached — the replication primary reads
    /// its files, `Vfs` and durable horizon.
    pub(crate) fn database(&self) -> Option<&Database> {
        self.storage.as_ref()
    }

    /// Committed WAL bytes (header included), if attached — tests use
    /// this to observe checkpoint compaction.
    pub fn wal_len(&self) -> Option<u64> {
        self.storage.as_ref().map(Database::wal_len)
    }

    /// fsyncs issued by WAL appends since open (or the last checkpoint),
    /// if attached — tests use this to assert the group-commit contract
    /// (one fsync per committed transaction).
    pub fn wal_sync_count(&self) -> Option<u64> {
        self.storage.as_ref().map(Database::wal_sync_count)
    }

    /// Disables (or re-enables) the per-statement WAL fsync — see
    /// `maybms_storage::Wal::set_sync`. Benches only; with sync off a
    /// power failure may lose acknowledged statements.
    pub fn set_wal_sync(&mut self, sync: bool) {
        if let Some(db) = &mut self.storage {
            db.set_sync(sync);
        }
    }

    /// **The only durable write path.** Appends `records` — encoded WAL
    /// records whose effects memory already holds — as one batch under a
    /// **single fsync** ([`Database::append_many`]) and returns the LSN
    /// of the last one (`0` on a session with no backing store, where a
    /// commit is memory-only and has no LSN).
    ///
    /// A failed append poisons the store (durability of the batch is
    /// unknown; the admission gate refuses every later write until the
    /// database is reopened). With an `undo` point — a transaction's
    /// `BEGIN` state, the group committer's pre-batch state — memory
    /// rewinds to it, so memory again equals the durable prefix and
    /// every query stays truthful. Auto-commit passes `None`: holding an
    /// undo point would share the decomposition's `Arc` and turn every
    /// in-place `INSERT` into a deep copy, so there memory keeps the
    /// statement and the error says it is not durable; reopening the
    /// path recovers the last durable state. The store stays attached
    /// either way so callers can inspect `poison_reason`.
    pub(crate) fn append_records(
        &mut self,
        records: &[Vec<u8>],
        undo: Option<&Undo>,
    ) -> SessionResult<u64> {
        let Some(db) = &mut self.storage else { return Ok(0) };
        let e = match db.append_many(records) {
            Ok(lsn) => return Ok(lsn),
            Err(e) => e,
        };
        let outcome = match undo {
            Some(undo) => {
                self.rewind(undo.clone());
                "commit failed and rolled back in memory"
            }
            None => "statement applied in memory but is NOT durable",
        };
        Err(SessionError::storage(Error::Storage(format!(
            "{outcome} (the WAL append failed and poisoned the database; writes are \
             refused until it is reopened): {e}"
        ))))
    }

    /// `CHECKPOINT [FULL]`: compacts the log into a fresh snapshot.
    pub(super) fn checkpoint(&mut self, full: bool) -> SessionResult<QueryResult> {
        let Some(db) = self.storage.as_mut() else {
            return Err(SessionError::storage(Error::Storage(
                "CHECKPOINT requires a session opened on a database file \
                 (use Session::open or Session::attach)"
                    .into(),
            )));
        };
        let payload = encode_wsd(&self.wsd);
        let result = if full {
            db.checkpoint_full(&payload)
        } else {
            db.checkpoint(&payload)
        };
        let generation = db.generation();
        let poisoned = db.is_poisoned();
        match result {
            Ok(kind) => {
                // A published snapshot proves the disk holds the
                // full current state again — degradation is over.
                self.degraded = None;
                Ok(QueryResult::Text(match kind {
                    CheckpointKind::Full { pages } => format!(
                        "checkpointed generation {generation} (full: {} bytes over \
                         {pages} page(s), WAL reset)",
                        payload.len()
                    ),
                    CheckpointKind::Incremental { changed_pages, total_pages } => {
                        format!(
                            "checkpointed generation {generation} (incremental: \
                             {changed_pages} of {total_pages} page(s) rewritten, \
                             WAL reset)"
                        )
                    }
                    CheckpointKind::Unchanged => format!(
                        "checkpoint skipped: nothing committed since generation \
                         {generation}"
                    ),
                }))
            }
            // Failure after the point of no return (snapshot
            // published, WAL swap failed): the handle poisoned
            // itself, nothing to soften here.
            Err(e) => {
                if poisoned {
                    return Err(SessionError::storage(e));
                }
                // Failure *before* publishing (typically ENOSPC on
                // the temp file): the old snapshot + WAL are intact
                // and cover every committed statement, so degrade
                // gracefully — queries keep working, mutations are
                // refused until a retried CHECKPOINT succeeds.
                let reason = format!("checkpoint failed before publishing: {e}");
                self.degraded = Some(reason.clone());
                Err(SessionError::Degraded { reason })
            }
        }
    }
}
