//! One durable database: a snapshot pair plus its write-ahead log.
//!
//! For a database at `db.maybms` the engine keeps up to three files:
//!
//! * `db.maybms` — the latest **full** (base) snapshot (see
//!   [`crate::snapshot`]); absent until the first checkpoint;
//! * `db.maybms.inc` — the optional **incremental** overlay: only the
//!   pages that changed since the base, plus a page map (see
//!   [`crate::delta`]);
//! * `db.maybms.wal` — the log of committed mutations since the last
//!   checkpoint (see [`crate::wal`]), with monotone LSNs.
//!
//! **Recovery** ([`Database::open`]): load the base snapshot, patch in
//! the overlay when a valid one is present (an overlay whose generation
//! is not newer than the base's, or that names a different base
//! generation, is the footprint of a crash mid-full-checkpoint — it is
//! discarded, never applied), then replay the WAL — but only when the
//! WAL's generation matches the effective snapshot's. A mismatched WAL is
//! the footprint of a crash between the two steps of a checkpoint (its
//! records are already inside the newer snapshot), so it is discarded and
//! replaced with a fresh log rather than replayed twice.
//!
//! **Checkpoint** ([`Database::checkpoint`]): write the full state with
//! generation *g+1*, then atomically swap in an empty WAL of generation
//! *g+1* whose `base_lsn` continues the numbering. The write is
//! **incremental** when a base snapshot exists and less than half its
//! pages changed (per-page CRC diff): only the changed pages go to the
//! overlay file, the base is untouched. Otherwise — first checkpoint,
//! widespread changes, or [`Database::checkpoint_full`] — the full state
//! is rewritten as a fresh base and the overlay is removed. Both paths
//! publish atomically (write-new `.tmp` + rename), so every crash window
//! leaves a recoverable pair:
//!
//! * before the snapshot/overlay rename — old state *g* + old WAL *g*:
//!   replay;
//! * after the rename, before the WAL swap — state *g+1* + stale WAL *g*:
//!   WAL discarded, nothing lost, nothing doubled;
//! * after both — state *g+1* + empty WAL *g+1*;
//! * full checkpoint only: after the base rename but before the stale
//!   overlay is deleted — base *g+1* + overlay *≤ g*: the overlay is
//!   ignored (and removed) on the next open.
//!
//! **Durable horizon** ([`DurableHorizon`]): the LSN of the last record
//! whose append returned `Ok`. It is the only commit signal: the
//! replication primary waits on it and ships no record past it, so a
//! frame that is on disk but whose fsync has not returned (or failed and
//! poisoned the handle) never leaves the process.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use maybms_obs::registry::DURATION_US_BOUNDS;
use maybms_obs::{Counter, Histogram};
use maybms_relational::{Error, Result};

use crate::delta::{
    chunk_crcs, delta_path_for, overlay, payload_chunks, read_delta, write_delta, DeltaMeta,
};
use crate::pager::{page_crc, DEFAULT_PAGE_SIZE};
use crate::snapshot::{read_snapshot, write_snapshot};
use crate::crc::crc32;
use crate::vfs::{std_vfs, Vfs};
use crate::wal::Wal;

/// The WAL path for a snapshot path: `<path>.wal`.
pub fn wal_path_for(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

/// Process-wide database counters, resolved once.
struct DbMetrics {
    ckpt_full: Arc<Counter>,
    ckpt_incremental: Arc<Counter>,
    ckpt_unchanged: Arc<Counter>,
    ckpt_pages: Arc<Counter>,
    ckpt_duration_us: Arc<Histogram>,
    poison_events: Arc<Counter>,
}

fn metrics() -> &'static DbMetrics {
    static M: OnceLock<DbMetrics> = OnceLock::new();
    M.get_or_init(|| DbMetrics {
        ckpt_full: maybms_obs::counter("db.checkpoints.full"),
        ckpt_incremental: maybms_obs::counter("db.checkpoints.incremental"),
        ckpt_unchanged: maybms_obs::counter("db.checkpoints.unchanged"),
        ckpt_pages: maybms_obs::counter("db.checkpoint_pages"),
        ckpt_duration_us: maybms_obs::histogram("db.checkpoint_us", DURATION_US_BOUNDS),
        poison_events: maybms_obs::counter("db.poison_events"),
    })
}

/// What kind of snapshot a checkpoint wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// The whole state was rewritten as a fresh base snapshot.
    Full {
        /// Pages the new base holds.
        pages: u32,
    },
    /// Only the pages differing from the base went to the overlay file.
    Incremental {
        /// Pages whose checksum differed from the base's.
        changed_pages: u32,
        /// Pages the combined payload spans.
        total_pages: u32,
    },
    /// Nothing was committed since the last checkpoint (empty WAL, same
    /// state): no page was rewritten, no file was touched, and the
    /// generation did not advance.
    Unchanged,
}

/// The base snapshot a [`Database`] diffs incremental checkpoints against.
#[derive(Debug)]
struct BaseInfo {
    generation: u64,
    page_size: usize,
    /// Per-page checksums of the base payload, in page order.
    page_crcs: Vec<u32>,
}

/// A database's **durable horizon**: the LSN of the last record whose
/// append returned `Ok`, paired with a condvar that wakes waiters when
/// it moves. It starts at the recovered `last_lsn`, moves only inside
/// [`Database::append_many`] after the WAL append (and its fsync)
/// returned, and is untouched by a checkpoint — LSNs continue across the
/// log swap. Clones share the value.
#[derive(Debug, Clone)]
pub struct DurableHorizon(Arc<(Mutex<u64>, Condvar)>);

impl DurableHorizon {
    fn new(lsn: u64) -> DurableHorizon {
        DurableHorizon(Arc::new((Mutex::new(lsn), Condvar::new())))
    }

    fn lock(&self) -> MutexGuard<'_, u64> {
        let (lsn, _) = &*self.0;
        lsn.lock().expect("durable horizon lock") // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
    }

    fn advance(&self, lsn: u64) {
        *self.lock() = lsn;
        self.0 .1.notify_all();
    }

    /// The current horizon: every record up to this LSN is durable.
    pub fn lsn(&self) -> u64 {
        *self.lock()
    }

    /// Blocks until the horizon passes `seen`, `stop` is raised, or
    /// `timeout` elapses, and returns the horizon. Returns at once when
    /// it is already past `seen`, so a caller that read the log up to
    /// `seen` can never miss a commit that landed before it blocked.
    pub fn wait_past(&self, seen: u64, timeout: Duration, stop: &AtomicBool) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut lsn = self.lock();
        while *lsn <= seen && !stop.load(Ordering::Relaxed) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let moved = &self.0 .1;
            // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
            lsn = moved.wait_timeout(lsn, left).expect("durable horizon lock").0;
        }
        *lsn
    }

    /// Wakes every [`DurableHorizon::wait_past`] waiter without moving
    /// the horizon. Raise the waiters' stop flag first: each re-checks
    /// it under the lock, so none can miss this wake-up.
    pub fn wake_all(&self) {
        let _held = self.lock();
        self.0 .1.notify_all();
    }
}

/// An open durable database (snapshot + WAL handles).
#[derive(Debug)]
pub struct Database {
    snapshot_path: PathBuf,
    wal: Wal,
    /// The effective snapshot generation (overlay's when one is live).
    generation: u64,
    /// Page size for new *base* snapshots (incremental overlays always
    /// reuse the base's).
    page_size: usize,
    base: Option<BaseInfo>,
    /// CRC-32 of the effective payload of the last checkpoint (base +
    /// overlay), for the zero-mutation no-op check.
    state_crc: Option<u32>,
    /// The filesystem all I/O goes through.
    vfs: Arc<dyn Vfs>,
    /// Set (with the reason) when the durable state of this handle is no
    /// longer trustworthy: a WAL append failed (the write or its fsync —
    /// an fsync error must never be retried and reported as success), or
    /// a checkpoint failed between its snapshot rename and its WAL swap.
    /// All writes refuse until reopen; reopening recovers the last
    /// consistent durable state.
    poisoned: Option<String>,
    /// The LSN of the last record whose append returned `Ok`.
    horizon: DurableHorizon,
}

/// What [`Database::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The open database, positioned to accept appends.
    pub db: Database,
    /// The latest effective snapshot payload (base + overlay), if one was
    /// ever checkpointed.
    pub snapshot: Option<Vec<u8>>,
    /// Committed WAL records to replay on top of the snapshot.
    pub records: Vec<Vec<u8>>,
}

/// The effective on-disk snapshot of the database at `path`, read through
/// a fresh handle: `(generation, last_lsn, payload)`, or `None` when no
/// checkpoint ever ran. This is the read side of a **snapshot transfer**
/// (a replication follower too far behind the log); it performs the same
/// overlay validation as recovery.
pub fn read_snapshot_state(vfs: &dyn Vfs, path: &Path) -> Result<Option<(u64, u64, Vec<u8>)>> {
    Ok(load_snapshot_pair(vfs, path)?.map(|s| (s.generation, s.last_lsn, s.payload)))
}

struct SnapshotPair {
    /// Effective generation (the overlay's when one is live).
    generation: u64,
    /// LSN the effective state covers.
    last_lsn: u64,
    /// Effective payload (base + overlay).
    payload: Vec<u8>,
    base_generation: u64,
    base_page_size: usize,
    /// Per-page checksums of the *base* payload.
    base_page_crcs: Vec<u32>,
    /// An overlay file existed but was a checkpoint artifact to discard.
    stale_delta: bool,
}

fn load_snapshot_pair(vfs: &dyn Vfs, path: &Path) -> Result<Option<SnapshotPair>> {
    let delta_path = delta_path_for(path);
    if !vfs.exists(path) {
        if vfs.exists(&delta_path) {
            // an overlay can only ever be written next to an existing
            // base; patching nothing would fabricate state
            return Err(Error::Storage(format!(
                "incremental snapshot {} exists without its base snapshot {}",
                delta_path.display(),
                path.display()
            )));
        }
        return Ok(None);
    }
    let (meta, base_payload) = read_snapshot(vfs, path)?;
    let base_page_crcs = chunk_crcs(&base_payload, meta.page_size);
    if vfs.exists(&delta_path) {
        // An unreadable overlay is genuine corruption (overlays are
        // published atomically, so a crash never leaves a torn one) —
        // fail loudly rather than quietly dropping a checkpoint.
        let (dmeta, pages) = read_delta(vfs, &delta_path)?;
        if dmeta.generation > meta.generation && dmeta.base_generation == meta.generation {
            if dmeta.page_size != meta.page_size {
                return Err(Error::Storage(format!(
                    "incremental snapshot page size {} does not match its base's {}",
                    dmeta.page_size, meta.page_size
                )));
            }
            let payload = overlay(&base_payload, &dmeta, &pages)?;
            return Ok(Some(SnapshotPair {
                generation: dmeta.generation,
                last_lsn: dmeta.last_lsn,
                payload,
                base_generation: meta.generation,
                base_page_size: meta.page_size,
                base_page_crcs,
                stale_delta: false,
            }));
        }
        // stale overlay: a full checkpoint replaced the base after this
        // overlay was written (crash before the cleanup step) — its
        // contents are inside the newer base already
    }
    Ok(Some(SnapshotPair {
        generation: meta.generation,
        last_lsn: meta.last_lsn,
        payload: base_payload,
        base_generation: meta.generation,
        base_page_size: meta.page_size,
        base_page_crcs,
        stale_delta: vfs.exists(&delta_path),
    }))
}

impl Database {
    /// Opens (or creates) the database at `path` and returns everything
    /// needed to rebuild its state: the snapshot payload and the WAL
    /// records committed after it.
    pub fn open(path: impl AsRef<Path>) -> Result<Recovered> {
        Self::open_with_vfs(path, DEFAULT_PAGE_SIZE, std_vfs())
    }

    /// As [`Database::open`] with an explicit snapshot page size for new
    /// base snapshots (an existing snapshot's own page size is read from
    /// its header, and incremental overlays always reuse it), and with all
    /// I/O routed through an explicit [`Vfs`] — the entry point
    /// fault-injection tests use.
    pub fn open_with_vfs(
        path: impl AsRef<Path>,
        page_size: usize,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Recovered> {
        let path = path.as_ref();
        let pair = load_snapshot_pair(&*vfs, path)?;
        let state_crc = pair.as_ref().map(|p| crc32(&p.payload));
        let (snapshot, generation, covered_lsn, base) = match pair {
            Some(p) => {
                if p.stale_delta {
                    // checkpoint artifact (see module docs) — clean it up
                    // maybms-lint: allow(poison-discipline) -- removes an overlay recovery already proved stale and ignores; failure leaves garbage, never wrong state
                    let _ = vfs.remove_file(&delta_path_for(path));
                }
                (
                    Some(p.payload),
                    p.generation,
                    p.last_lsn,
                    Some(BaseInfo {
                        generation: p.base_generation,
                        page_size: p.base_page_size,
                        page_crcs: p.base_page_crcs,
                    }),
                )
            }
            None => (None, 0, 0, None),
        };

        let wal_path = wal_path_for(path);
        let (wal, records) = if vfs.exists(&wal_path) {
            // An unreadable WAL header is genuine corruption, never a
            // checkpoint artifact (log resets go through write-temp +
            // rename, so the file on disk is always a complete old or new
            // log) — fail loudly rather than silently discard commits.
            let (wal, records) = Wal::open(Arc::clone(&vfs), &wal_path)?;
            if wal.generation() == generation {
                if wal.base_lsn() != covered_lsn {
                    return Err(Error::Storage(format!(
                        "WAL base LSN {} does not match the LSN {} its snapshot covers \
                         (files from different databases?)",
                        wal.base_lsn(),
                        covered_lsn
                    )));
                }
                (wal, records)
            } else {
                // Stale pre-checkpoint log (crash between the snapshot
                // rename and the WAL swap): its records are already
                // inside the newer snapshot — start a fresh one at the
                // LSN the snapshot covers.
                (
                    Wal::create(Arc::clone(&vfs), &wal_path, generation, covered_lsn)?,
                    Vec::new(),
                )
            }
        } else {
            (
                Wal::create(Arc::clone(&vfs), &wal_path, generation, covered_lsn)?,
                Vec::new(),
            )
        };

        Ok(Recovered {
            db: Database {
                snapshot_path: path.to_path_buf(),
                horizon: DurableHorizon::new(wal.last_lsn()),
                wal,
                generation,
                page_size,
                base,
                state_crc,
                vfs,
                poisoned: None,
            },
            snapshot,
            records,
        })
    }

    /// The snapshot generation this database is at (the overlay's when an
    /// incremental checkpoint is live).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The base snapshot path (`*.maybms`).
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// The write-ahead-log path (`*.maybms.wal`).
    pub fn wal_path(&self) -> PathBuf {
        wal_path_for(&self.snapshot_path)
    }

    /// The filesystem this database's files live on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The durable horizon — see [`DurableHorizon`].
    pub fn durable_horizon(&self) -> &DurableHorizon {
        &self.horizon
    }

    /// LSN of the last committed record (monotone across the database's
    /// whole life; checkpoints do not reset it).
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// LSN of the last record already captured by the snapshot — records
    /// with LSNs at or below this are no longer in the log. A follower
    /// positioned before this needs a snapshot transfer.
    pub fn wal_base_lsn(&self) -> u64 {
        self.wal.base_lsn()
    }

    /// The committed records with LSN strictly greater than `after` — see
    /// [`Wal::records_from`].
    pub fn records_from(&self, after: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.wal.records_from(after)
    }

    /// Bytes of committed WAL (header included) — tests use this to
    /// assert a checkpoint emptied the log.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Whether the WAL holds no records since the last checkpoint.
    pub fn wal_is_empty(&self) -> bool {
        self.wal.is_empty()
    }

    /// Whether any state was ever checkpointed or logged.
    pub fn is_fresh(&self) -> bool {
        self.generation == 0 && self.wal.is_empty() && !self.vfs.exists(&self.snapshot_path)
    }

    /// See [`Wal::set_sync`].
    pub fn set_sync(&mut self, sync: bool) {
        self.wal.set_sync(sync);
    }

    /// See [`Wal::sync_count`]. Resets when a checkpoint swaps in a fresh
    /// log handle.
    pub fn wal_sync_count(&self) -> u64 {
        self.wal.sync_count()
    }

    fn check_poisoned(&self) -> Result<()> {
        if let Some(reason) = &self.poisoned {
            return Err(Error::Storage(format!(
                "database is poisoned ({reason}); reopen it to recover"
            )));
        }
        Ok(())
    }

    /// Whether this handle is poisoned (all writes refuse until reopen).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Why this handle is poisoned, if it is.
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Commits one logical mutation record, returning its LSN —
    /// [`Database::append_many`] with a batch of one.
    pub fn append(&mut self, record: &[u8]) -> Result<u64> {
        self.append_many(&[record])
    }

    /// Commits a **batch** of logical mutation records under a single
    /// fsync ([`Wal::append_many`]), returning the LSN of the last one
    /// — the only durable write path. On return every record is
    /// durable; whoever waits on any record in the batch may be
    /// acknowledged.
    ///
    /// A failed append **poisons** the handle: a frame may be partially
    /// on disk, and if the fsync failed the kernel may have dropped the
    /// dirty pages while keeping them visible in the page cache — so
    /// retrying the fsync and reporting success would be a lie (the
    /// fsyncgate failure mode). Every later write refuses until the
    /// database is reopened; reopening truncates any torn frame and
    /// recovers the last durable prefix. The ack discipline inverts:
    /// **no** record in the batch may be acknowledged, because the
    /// shared fsync vouched for none of them. (After a crash, recovery
    /// keeps whatever torn-tail-clean prefix of the batch reached disk
    /// — all of it unacknowledged, so no client was promised anything
    /// recovery drops.) The [`DurableHorizon`] moves only on success.
    pub fn append_many<P: AsRef<[u8]>>(&mut self, records: &[P]) -> Result<u64> {
        self.check_poisoned()?;
        match self.wal.append_many(records) {
            Ok(lsn) => {
                self.horizon.advance(lsn);
                Ok(lsn)
            }
            Err(e) => {
                let reason = format!("a WAL append failed and durability is unknown: {e}");
                self.poisoned = Some(reason);
                metrics().poison_events.inc();
                Err(e)
            }
        }
    }

    /// Checkpoints `state` as generation *g+1* and swaps in a fresh WAL
    /// of that generation. Writes **incrementally** (changed pages only,
    /// to the overlay file — see [`crate::delta`]) when a base snapshot
    /// exists and fewer than half its pages changed; otherwise rewrites
    /// the full base. Returns which kind ran.
    pub fn checkpoint(&mut self, state: &[u8]) -> Result<CheckpointKind> {
        self.checkpoint_inner(state, false)
    }

    /// As [`Database::checkpoint`], but always rewrites the full base
    /// snapshot (and drops any overlay) — the fallback path and the
    /// correctness oracle the incremental path is tested against.
    pub fn checkpoint_full(&mut self, state: &[u8]) -> Result<CheckpointKind> {
        self.checkpoint_inner(state, true)
    }

    fn checkpoint_inner(&mut self, state: &[u8], force_full: bool) -> Result<CheckpointKind> {
        self.check_poisoned()?;
        let began = Instant::now();
        let state_crc = crc32(state);
        // Zero mutations since the last checkpoint: nothing to write.
        // (A forced full checkpoint still runs — it is the fallback that
        // collapses an overlay into a fresh base on demand.)
        if !force_full && self.wal.is_empty() && self.state_crc == Some(state_crc) {
            metrics().ckpt_unchanged.inc();
            return Ok(CheckpointKind::Unchanged);
        }
        let next = self.generation.checked_add(1).ok_or_else(|| {
            Error::Storage("generation counter overflow".into())
        })?;
        let last_lsn = self.wal.last_lsn();

        // Diff against the base snapshot (when there is one) to decide
        // between an overlay write and a full rewrite.
        let changed: Option<Vec<(u32, &[u8])>> = match (&self.base, force_full) {
            (Some(base), false) => {
                let chunks = payload_chunks(state, base.page_size);
                let changed: Vec<(u32, &[u8])> = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, c)| base.page_crcs.get(*i) != Some(&page_crc(*i as u32, c)))
                    .map(|(i, c)| (i as u32, *c))
                    .collect();
                // more than half the pages changed: the overlay would be
                // most of a full snapshot — collapse to a fresh base
                if changed.len() * 2 < chunks.len().max(1) {
                    Some(changed)
                } else {
                    None
                }
            }
            _ => None,
        };

        let kind = match changed {
            Some(changed) => {
                let base = self.base.as_ref().expect("incremental requires a base"); // maybms-lint: allow(no-panic-in-prod) -- callers request an incremental checkpoint only when a base snapshot exists
                let total_pages = payload_chunks(state, base.page_size).len() as u32;
                let meta = DeltaMeta {
                    generation: next,
                    base_generation: base.generation,
                    last_lsn,
                    page_size: base.page_size,
                    payload_len: state.len() as u64,
                    payload_crc: crc32(state),
                    pages: changed.len() as u32,
                };
                write_delta(&*self.vfs, &delta_path_for(&self.snapshot_path), &meta, &changed)?;
                CheckpointKind::Incremental {
                    changed_pages: changed.len() as u32,
                    total_pages,
                }
            }
            None => {
                write_snapshot(
                    &*self.vfs,
                    &self.snapshot_path,
                    next,
                    last_lsn,
                    state,
                    self.page_size,
                )?;
                // the overlay (if any) is now stale: its pages are inside
                // the new base; remove it (recovery would ignore it too)
                // maybms-lint: allow(poison-discipline) -- the new full base supersedes the overlay and open() ignores generation-mismatched deltas; failed cleanup is re-attempted at next open
                let _ = self.vfs.remove_file(&delta_path_for(&self.snapshot_path));
                let page_crcs = chunk_crcs(state, self.page_size);
                let pages = page_crcs.len() as u32;
                self.base = Some(BaseInfo {
                    generation: next,
                    page_size: self.page_size,
                    page_crcs,
                });
                CheckpointKind::Full { pages }
            }
        };

        // The snapshot is live from here on. If the WAL swap fails, the
        // open handle still points at the stale generation-`g` log, whose
        // records the next recovery will (correctly) discard — so poison
        // this handle rather than let appends vanish silently. Reopening
        // recovers cleanly: snapshot g+1 + stale WAL → fresh WAL.
        self.state_crc = Some(state_crc);
        match Wal::create(
            Arc::clone(&self.vfs),
            &wal_path_for(&self.snapshot_path),
            next,
            last_lsn,
        ) {
            Ok(wal) => {
                self.wal = wal;
                self.generation = next;
                let m = metrics();
                match kind {
                    CheckpointKind::Full { pages } => {
                        m.ckpt_full.inc();
                        m.ckpt_pages.add(pages as u64);
                    }
                    CheckpointKind::Incremental { changed_pages, .. } => {
                        m.ckpt_incremental.inc();
                        m.ckpt_pages.add(changed_pages as u64);
                    }
                    CheckpointKind::Unchanged => {}
                }
                m.ckpt_duration_us.observe_duration(began.elapsed());
                Ok(kind)
            }
            Err(e) => {
                self.poisoned = Some(format!(
                    "a checkpoint was interrupted after publishing snapshot \
                     generation {next} (the open WAL handle is stale): {e}"
                ));
                metrics().poison_events.inc();
                Err(Error::Storage(format!(
                    "checkpoint interrupted after publishing snapshot generation {next}: {e}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // tests corrupt bytes on disk and clean temp files directly
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("maybms-db-{}-{name}.maybms", std::process::id()));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path_for(p));
        let _ = std::fs::remove_file(delta_path_for(p));
    }

    #[test]
    fn fresh_open_then_log_then_recover() {
        let path = tmp("fresh");
        {
            let r = Database::open(&path).unwrap();
            assert!(r.snapshot.is_none());
            assert!(r.records.is_empty());
            let mut db = r.db;
            assert!(db.is_fresh());
            assert_eq!(db.append(b"stmt 1").unwrap(), 1);
            assert_eq!(db.append(b"stmt 2").unwrap(), 2);
            assert_eq!(db.last_lsn(), 2);
        }
        let r = Database::open(&path).unwrap();
        assert!(r.snapshot.is_none());
        assert_eq!(r.records, vec![b"stmt 1".to_vec(), b"stmt 2".to_vec()]);
        assert_eq!(r.db.last_lsn(), 2);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_compacts_and_bumps_generation() {
        let path = tmp("ckpt");
        {
            let mut db = Database::open(&path).unwrap().db;
            db.append(b"a").unwrap();
            let kind = db.checkpoint(b"state after a").unwrap();
            assert!(matches!(kind, CheckpointKind::Full { .. }), "first checkpoint is full");
            assert_eq!(db.generation(), 1);
            assert!(db.wal_is_empty());
            // LSNs continue across the checkpoint
            assert_eq!(db.wal_base_lsn(), 1);
            assert_eq!(db.append(b"b").unwrap(), 2);
        }
        let r = Database::open(&path).unwrap();
        assert_eq!(r.db.generation(), 1);
        assert_eq!(r.snapshot.as_deref(), Some(&b"state after a"[..]));
        assert_eq!(r.records, vec![b"b".to_vec()]);
        cleanup(&path);
    }

    #[test]
    fn incremental_checkpoint_writes_only_changed_pages() {
        let path = tmp("inc");
        let mut db = Database::open_with_vfs(&path, 64, std_vfs()).unwrap().db;
        let state: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        assert!(matches!(db.checkpoint(&state).unwrap(), CheckpointKind::Full { .. }));
        let base_bytes = std::fs::read(&path).unwrap();

        // a point mutation: the second checkpoint must be incremental
        db.append(b"m").unwrap();
        let mut state2 = state.clone();
        state2[500] ^= 0xAA;
        let kind = db.checkpoint(&state2).unwrap();
        match kind {
            CheckpointKind::Incremental { changed_pages, total_pages } => {
                assert_eq!(changed_pages, 1, "one flipped byte is one page");
                assert!(total_pages > 10);
            }
            other => panic!("expected incremental, got {other:?}"),
        }
        assert_eq!(db.generation(), 2);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            base_bytes,
            "the base snapshot file must not be rewritten"
        );
        assert!(delta_path_for(&path).exists());

        // recovery loads base + overlay
        drop(db);
        let r = Database::open(&path).unwrap();
        assert_eq!(r.db.generation(), 2);
        assert_eq!(r.snapshot.as_deref(), Some(&state2[..]));

        // zero mutations since: the next checkpoint is a pure no-op —
        // nothing rewritten, generation untouched
        let mut db = r.db;
        let overlay_before = std::fs::read(delta_path_for(&path)).unwrap();
        let kind = db.checkpoint(&state2).unwrap();
        assert_eq!(kind, CheckpointKind::Unchanged);
        assert_eq!(db.generation(), 2);
        assert_eq!(std::fs::read(delta_path_for(&path)).unwrap(), overlay_before);
        // a forced full checkpoint still collapses the overlay
        assert!(matches!(db.checkpoint_full(&state2).unwrap(), CheckpointKind::Full { .. }));
        assert_eq!(db.generation(), 3);
        assert!(!delta_path_for(&path).exists());
        cleanup(&path);
    }

    #[test]
    fn widespread_change_falls_back_to_full() {
        let path = tmp("widespread");
        let mut db = Database::open_with_vfs(&path, 64, std_vfs()).unwrap().db;
        let state: Vec<u8> = vec![1u8; 1000];
        db.checkpoint(&state).unwrap();
        // every byte changes: a full rewrite, and the old overlay (none
        // here) stays gone
        let state2: Vec<u8> = vec![2u8; 1000];
        assert!(matches!(db.checkpoint(&state2).unwrap(), CheckpointKind::Full { .. }));
        assert!(!delta_path_for(&path).exists());
        drop(db);
        let r = Database::open(&path).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&state2[..]));
        cleanup(&path);
    }

    #[test]
    fn checkpoint_full_collapses_overlay() {
        let path = tmp("collapse");
        let mut db = Database::open_with_vfs(&path, 64, std_vfs()).unwrap().db;
        let state: Vec<u8> = (0..500u32).map(|i| (i % 13) as u8).collect();
        db.checkpoint(&state).unwrap();
        let mut state2 = state.clone();
        state2[10] = 99;
        assert!(matches!(
            db.checkpoint(&state2).unwrap(),
            CheckpointKind::Incremental { .. }
        ));
        assert!(delta_path_for(&path).exists());
        // forced full: overlay removed, base rewritten
        assert!(matches!(db.checkpoint_full(&state2).unwrap(), CheckpointKind::Full { .. }));
        assert!(!delta_path_for(&path).exists());
        drop(db);
        let r = Database::open(&path).unwrap();
        assert_eq!(r.db.generation(), 3);
        assert_eq!(r.snapshot.as_deref(), Some(&state2[..]));
        cleanup(&path);
    }

    #[test]
    fn stale_overlay_after_interrupted_full_checkpoint_is_discarded() {
        let path = tmp("stale-inc");
        let mut db = Database::open_with_vfs(&path, 64, std_vfs()).unwrap().db;
        let state: Vec<u8> = vec![5u8; 300];
        db.checkpoint(&state).unwrap();
        let mut state2 = state.clone();
        state2[0] = 6;
        db.checkpoint(&state2).unwrap(); // incremental, overlay live
        let overlay_bytes = std::fs::read(delta_path_for(&path)).unwrap();
        let mut state3 = vec![7u8; 300];
        state3[1] = 8;
        db.checkpoint_full(&state3).unwrap(); // gen 3, overlay removed
        drop(db);
        // simulate the crash window: the gen-2 overlay resurfaces next to
        // the gen-3 base (full checkpoint died before the cleanup step)
        std::fs::write(delta_path_for(&path), &overlay_bytes).unwrap();
        let r = Database::open(&path).unwrap();
        assert_eq!(r.db.generation(), 3);
        assert_eq!(
            r.snapshot.as_deref(),
            Some(&state3[..]),
            "a stale overlay must never be applied to a newer base"
        );
        assert!(!delta_path_for(&path).exists(), "the artifact is cleaned up");
        cleanup(&path);
    }

    #[test]
    fn corrupt_overlay_fails_loudly() {
        let path = tmp("corrupt-inc");
        let mut db = Database::open_with_vfs(&path, 64, std_vfs()).unwrap().db;
        let state: Vec<u8> = (0..500u32).map(|i| (i % 7) as u8).collect();
        db.checkpoint(&state).unwrap();
        let mut state2 = state.clone();
        state2[100] = 77;
        db.checkpoint(&state2).unwrap();
        drop(db);
        let dpath = delta_path_for(&path);
        let mut raw = std::fs::read(&dpath).unwrap();
        let at = raw.len() - 3; // inside the stored page
        raw[at] ^= 0x10;
        std::fs::write(&dpath, &raw).unwrap();
        let err = Database::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn overlay_without_base_is_rejected() {
        let path = tmp("orphan-inc");
        std::fs::write(delta_path_for(&path), b"whatever").unwrap();
        let err = Database::open(&path).unwrap_err();
        assert!(err.to_string().contains("without its base"), "{err}");
        cleanup(&path);
    }

    #[test]
    fn stale_wal_after_interrupted_checkpoint_is_discarded() {
        let path = tmp("stale");
        // build gen-0 WAL with records, checkpoint, then put the old WAL
        // back — simulating a crash after the snapshot rename but before
        // the WAL swap
        let old_wal = {
            let mut db = Database::open(&path).unwrap().db;
            db.append(b"pre-checkpoint").unwrap();
            let bytes = std::fs::read(wal_path_for(&path)).unwrap();
            db.checkpoint(b"checkpointed state").unwrap();
            bytes
        };
        std::fs::write(wal_path_for(&path), &old_wal).unwrap();
        let r = Database::open(&path).unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"checkpointed state"[..]));
        assert!(
            r.records.is_empty(),
            "stale generation-0 records must not be replayed onto a generation-1 snapshot"
        );
        assert!(r.db.wal_is_empty());
        assert_eq!(
            r.db.wal_base_lsn(),
            1,
            "the fresh log must continue from the LSN the snapshot covers"
        );
        cleanup(&path);
    }

    #[test]
    fn read_snapshot_state_sees_base_plus_overlay() {
        let path = tmp("readstate");
        assert!(read_snapshot_state(&*std_vfs(), &path).unwrap().is_none());
        let mut db = Database::open_with_vfs(&path, 64, std_vfs()).unwrap().db;
        db.append(b"x").unwrap();
        db.checkpoint(b"base state").unwrap();
        let (generation, lsn, payload) = read_snapshot_state(&*std_vfs(), &path).unwrap().unwrap();
        assert_eq!((generation, lsn, payload.as_slice()), (1, 1, &b"base state"[..]));
        db.append(b"y").unwrap();
        // one byte differs, but a single-page payload always collapses to
        // a full rewrite (the overlay would be the whole snapshot)
        db.checkpoint(b"base statf").unwrap();
        let (generation, lsn, payload) = read_snapshot_state(&*std_vfs(), &path).unwrap().unwrap();
        assert_eq!((generation, lsn, payload.as_slice()), (2, 2, &b"base statf"[..]));
        cleanup(&path);
    }

    #[test]
    fn unreadable_wal_fails_loudly() {
        // A corrupt WAL *header* is not a checkpoint artifact — it may be
        // the only copy of committed data (e.g. a never-checkpointed
        // database), so open must error instead of silently resetting it.
        let path = tmp("unreadable");
        {
            let mut db = Database::open(&path).unwrap().db;
            db.append(b"the only copy of this commit").unwrap();
        }
        let wal = wal_path_for(&path);
        let mut raw = std::fs::read(&wal).unwrap();
        raw[10] ^= 0xFF; // corrupt the header
        std::fs::write(&wal, &raw).unwrap();
        let err = Database::open(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // same with a snapshot present: the log could hold post-checkpoint
        // commits, so it still must not be discarded
        cleanup(&path);
        {
            let mut db = Database::open(&path).unwrap().db;
            db.checkpoint(b"good state").unwrap();
            db.append(b"post-checkpoint commit").unwrap();
        }
        std::fs::write(&wal, b"garbage").unwrap();
        assert!(Database::open(&path).is_err());
        cleanup(&path);
    }

    fn fault_db(vfs: &crate::vfs::FaultVfs) -> Database {
        let vfs = Arc::new(vfs.clone());
        Database::open_with_vfs("/horizon/db.maybms", DEFAULT_PAGE_SIZE, vfs).unwrap().db
    }

    #[test]
    fn horizon_moves_only_after_a_successful_append() {
        use crate::vfs::{FaultOp, FaultSpec, FaultVfs};
        let vfs = FaultVfs::new();
        let mut db = fault_db(&vfs);
        db.append(b"one").unwrap();
        db.append(b"two").unwrap();
        let horizon = db.durable_horizon().clone();
        assert_eq!(horizon.lsn(), 2);
        // a checkpoint swaps the log but not the numbering
        db.checkpoint(b"state").unwrap();
        assert_eq!(horizon.lsn(), 2);
        // a failed fsync poisons the handle and leaves the horizon alone,
        // although the frame is on the (volatile) log
        vfs.push_fault(FaultSpec::fail_sync(vfs.op_count(FaultOp::Sync)));
        assert!(db.append(b"three").is_err());
        assert_eq!(horizon.lsn(), 2);
        drop(db);
        // reopening starts the horizon at the recovered last LSN
        vfs.crash();
        assert_eq!(fault_db(&vfs).durable_horizon().lsn(), 2);
    }

    #[test]
    fn horizon_wait_is_woken_by_an_append() {
        let vfs = crate::vfs::FaultVfs::new();
        let mut db = fault_db(&vfs);
        let horizon = db.durable_horizon().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (horizon, stop) = (horizon.clone(), Arc::clone(&stop));
            // the append, not the 30 s deadline, must end this wait
            std::thread::spawn(move || horizon.wait_past(0, Duration::from_secs(30), &stop))
        };
        db.append(b"wake up").unwrap();
        assert_eq!(waiter.join().unwrap(), 1);
        // a horizon already past `seen` returns at once
        assert_eq!(horizon.wait_past(0, Duration::from_secs(30), &stop), 1);
    }

    #[test]
    fn horizon_wake_all_releases_stopped_waiters_without_moving_it() {
        let vfs = crate::vfs::FaultVfs::new();
        let horizon = fault_db(&vfs).durable_horizon().clone();
        let stop = Arc::new(AtomicBool::new(false));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (horizon, stop) = (horizon.clone(), Arc::clone(&stop));
                std::thread::spawn(move || horizon.wait_past(0, Duration::from_secs(30), &stop))
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        horizon.wake_all();
        for w in waiters {
            assert_eq!(w.join().unwrap(), 0);
        }
        assert_eq!(horizon.lsn(), 0);
    }

    #[test]
    fn horizon_wait_times_out_when_idle() {
        let db = fault_db(&crate::vfs::FaultVfs::new());
        let (began, stop) = (Instant::now(), AtomicBool::new(false));
        assert_eq!(db.durable_horizon().wait_past(0, Duration::from_millis(15), &stop), 0);
        assert!(began.elapsed() >= Duration::from_millis(15));
    }
}
