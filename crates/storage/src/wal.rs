//! The write-ahead log: an append-only file of CRC-framed records with
//! monotone log sequence numbers.
//!
//! ```text
//! header := magic "MAYBMSW\0" (8) | version u32 | generation u64
//!         | base_lsn u64 | header_crc u32        (32 bytes total)
//! record := one [`crate::frame`] frame (len u32 | crc u32 | payload)
//! ```
//!
//! Records are opaque payloads (the SQL layer stores binary-encoded
//! mutating statements). Appends go to the end of the file and are
//! fsynced by default, so a record that [`Wal::append`] acknowledged
//! survives a crash. On open, the log is scanned front to back; the scan
//! stops at the first incomplete or checksum-failing record — a **torn
//! tail** from a crash mid-append — and the file is truncated back to the
//! last complete record, so replay sees exactly the committed prefix.
//!
//! # Log sequence numbers
//!
//! Every record carries an implicit **LSN**: `base_lsn` names the LSN of
//! the last record *before* this log (0 for a fresh database), and the
//! *i*-th record of the file (0-based) has LSN `base_lsn + i + 1`. LSNs
//! are monotone across the whole life of a database — a checkpoint swaps
//! in an empty log whose `base_lsn` is the previous log's last LSN, so
//! the numbering continues rather than restarting. This is what lets a
//! replica name its position with one integer: "I have applied everything
//! up to LSN x; send me what follows" ([`WalCursor`]).
//!
//! `generation` pairs the log with the snapshot it extends: a checkpoint
//! bumps the snapshot generation and swaps in a fresh, empty log of the
//! same generation (see [`crate::db`]). A log whose generation does not
//! match the snapshot's is stale (crash between the two steps of a
//! checkpoint) and is discarded instead of replayed twice.
//!
//! # Tailing
//!
//! The log signals nothing. A frame is on the file as soon as its
//! `write_all` returns, before its fsync does, so a tailer must not trust
//! the file's end: it reads up to the owning database's durable horizon
//! ([`crate::db::DurableHorizon`]), which moves only after an append
//! returned `Ok`, and passes it as the bound of [`WalCursor::poll`].

use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use maybms_obs::Counter;
use maybms_relational::{Error, Result};

use crate::bytes::Reader;
use crate::crc::crc32;
use crate::frame::{self, Scan, FRAME_HEADER_LEN};
use crate::pager::io_err;
use crate::vfs::{replace_atomically, OpenMode, Vfs, VfsFile};

const MAGIC: &[u8; 8] = b"MAYBMSW\0";
const VERSION: u32 = 2;

/// Process-wide WAL counters, resolved once and shared by every handle.
struct WalMetrics {
    appends: Arc<Counter>,
    fsyncs: Arc<Counter>,
    bytes: Arc<Counter>,
}

fn metrics() -> &'static WalMetrics {
    static M: OnceLock<WalMetrics> = OnceLock::new();
    M.get_or_init(|| WalMetrics {
        appends: maybms_obs::counter("wal.appends"),
        fsyncs: maybms_obs::counter("wal.fsyncs"),
        bytes: maybms_obs::counter("wal.bytes"),
    })
}

/// Length of the WAL file header.
pub const WAL_HEADER_LEN: u64 = 32;

/// An open write-ahead log positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    generation: u64,
    /// LSN of the last record before this log (continues across
    /// checkpoints; 0 for a fresh database).
    base_lsn: u64,
    /// Complete records in this log; the last one has LSN
    /// `base_lsn + count`.
    count: u64,
    /// Offset of the end of the last complete record.
    end: u64,
    /// fsync every append (on by default; benches may disable it).
    sync: bool,
    /// fsyncs issued by appends on this handle — lets tests assert the
    /// group-commit contract (one fsync per committed transaction).
    sync_count: u64,
}

fn encode_header(generation: u64, base_lsn: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[0..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&generation.to_le_bytes());
    h[20..28].copy_from_slice(&base_lsn.to_le_bytes());
    let crc = crc32(&h[0..28]);
    h[28..32].copy_from_slice(&crc.to_le_bytes());
    h
}

fn decode_header(h: &[u8]) -> Result<(u64, u64)> {
    if h.len() < WAL_HEADER_LEN as usize || &h[0..8] != MAGIC {
        return Err(Error::Storage("not a MayBMS WAL (bad magic)".into()));
    }
    let mut r = Reader::new(&h[8..WAL_HEADER_LEN as usize]);
    let (version, generation, base_lsn) = (r.get_u32()?, r.get_u64()?, r.get_u64()?);
    if crc32(&h[0..28]) != r.get_u32()? {
        return Err(Error::Storage("WAL header checksum mismatch".into()));
    }
    if version != VERSION {
        return Err(Error::Storage(format!(
            "unsupported WAL format version {version} (this build reads {VERSION})"
        )));
    }
    Ok((generation, base_lsn))
}

/// Scans `raw` (a whole WAL file) for complete records starting at the
/// header end. Returns the records and the offset just past the last
/// complete one — anything beyond that offset is a torn tail (an
/// incomplete or checksum-failing frame, and whatever follows it).
fn scan_records(raw: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut end = WAL_HEADER_LEN as usize;
    while let Some(Scan::Frame(body)) = raw.get(end..).map(frame::scan) {
        records.push(body.to_vec());
        end += FRAME_HEADER_LEN + body.len();
    }
    (records, end)
}

impl Wal {
    /// Creates a fresh, empty log for `generation` at `path`, atomically
    /// and durably replacing whatever was there
    /// ([`replace_atomically`]: temp sibling, fsync, rename, directory
    /// fsync — so no commit is ever acknowledged against a log whose
    /// directory entry could still vanish). `base_lsn` is the LSN of the
    /// last record already captured by the paired snapshot — the first
    /// record appended here gets `base_lsn + 1`.
    pub fn create(vfs: Arc<dyn Vfs>, path: &Path, generation: u64, base_lsn: u64) -> Result<Wal> {
        replace_atomically(&*vfs, path, "WAL", |mut f| {
            f.write_all(&encode_header(generation, base_lsn))
                .map_err(|e| io_err("write WAL header", e))?;
            Ok(f)
        })?;
        let file = vfs.open(path, OpenMode::ReadWrite).map_err(|e| io_err("reopen WAL", e))?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            generation,
            base_lsn,
            count: 0,
            end: WAL_HEADER_LEN,
            sync: true,
            sync_count: 0,
        })
    }

    /// Opens an existing log, returning the complete records in append
    /// order (the first has LSN `base_lsn() + 1`). A torn tail
    /// (incomplete or checksum-failing final record) is detected and
    /// truncated away; everything before it is kept.
    pub fn open(vfs: Arc<dyn Vfs>, path: &Path) -> Result<(Wal, Vec<Vec<u8>>)> {
        let mut file =
            vfs.open(path, OpenMode::ReadWrite).map_err(|e| io_err("open WAL", e))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw).map_err(|e| io_err("read WAL", e))?;
        let (generation, base_lsn) = decode_header(&raw)?;

        let (records, end) = scan_records(&raw);
        if end as u64 != raw.len() as u64 {
            // drop the torn tail so later appends start on a clean frame
            file.set_len(end as u64)
                .map_err(|e| io_err("truncate torn WAL tail", e))?;
            file.sync_all().map_err(|e| io_err("sync truncated WAL", e))?;
        }
        file.seek(SeekFrom::Start(end as u64))
            .map_err(|e| io_err("seek WAL end", e))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                generation,
                base_lsn,
                count: records.len() as u64,
                end: end as u64,
                sync: true,
                sync_count: 0,
            },
            records,
        ))
    }

    /// The checkpoint generation this log extends.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// LSN of the last record *before* this log (what the paired snapshot
    /// already contains); 0 for a fresh database.
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// LSN of the last record in this log (equals [`Wal::base_lsn`] when
    /// the log is empty).
    pub fn last_lsn(&self) -> u64 {
        self.base_lsn + self.count
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of committed log (header + complete records).
    pub fn len(&self) -> u64 {
        self.end
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.end == WAL_HEADER_LEN
    }

    /// Disables (or re-enables) the per-append fsync. With sync off, a
    /// record may be lost on power failure — only benches and tests that
    /// measure something else should turn this off.
    pub fn set_sync(&mut self, sync: bool) {
        self.sync = sync;
    }

    /// How many fsyncs appends on this handle have issued.
    pub fn sync_count(&self) -> u64 {
        self.sync_count
    }

    /// Appends one record and (by default) fsyncs, returning the LSN the
    /// record was assigned — [`Wal::append_many`] with a batch of one.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        self.append_many(&[payload])
    }

    /// Appends `records` as consecutive WAL records under a **single**
    /// fsync, returning the LSN of the last one — the only write path
    /// of the log: an embedded statement or transaction is a batch of
    /// one, N concurrently submitted commit groups cost one durable
    /// write instead of N.
    ///
    /// All frames are written with one `write_all`, then one
    /// `sync_data`; on success every record is committed: replay after
    /// a crash will include it. On failure nothing can be assumed
    /// durable (the caller poisons the store); after a crash, torn-tail
    /// truncation keeps whatever *prefix* of the batch reached disk —
    /// safe, because no record in the batch was acknowledged unless the
    /// shared fsync returned.
    pub fn append_many<P: AsRef<[u8]>>(&mut self, records: &[P]) -> Result<u64> {
        if records.is_empty() {
            return Ok(self.base_lsn + self.count);
        }
        let mut frames = Vec::new();
        for payload in records {
            frame::put_frame(&mut frames, payload.as_ref());
        }
        self.file
            .seek(SeekFrom::Start(self.end))
            .map_err(|e| io_err("seek WAL end", e))?;
        self.file
            .write_all(&frames)
            .map_err(|e| io_err("append WAL records", e))?;
        if self.sync {
            self.file.sync_data().map_err(|e| io_err("sync WAL append", e))?;
            self.sync_count += 1;
            metrics().fsyncs.inc();
        }
        metrics().appends.add(records.len() as u64);
        metrics().bytes.add(frames.len() as u64);
        self.end += frames.len() as u64;
        self.count += records.len() as u64;
        Ok(self.base_lsn + self.count)
    }
}

/// A summary of a WAL file's position, read without opening it for
/// writes (and without truncating a torn tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHead {
    /// The checkpoint generation the log extends.
    pub generation: u64,
    /// LSN of the last record before this log (covered by the snapshot).
    pub base_lsn: u64,
    /// LSN of the last complete record in the log.
    pub last_lsn: u64,
}

/// Reads the head summary of the WAL at `path` — what a replication
/// primary consults to decide between shipping log records and falling
/// back to a snapshot transfer.
pub fn head(vfs: &dyn Vfs, path: &Path) -> Result<WalHead> {
    let raw = vfs.read(path).map_err(|e| io_err("read WAL", e))?;
    let (generation, base_lsn) = decode_header(&raw)?;
    let (records, _) = scan_records(&raw);
    Ok(WalHead { generation, base_lsn, last_lsn: base_lsn + records.len() as u64 })
}

/// A read-only cursor over a WAL *file*, for tailing committed records
/// from another thread (the primary's shipping loop). The cursor
/// remembers its byte offset, so polling only reads what was appended
/// since the last call, and never past the bound the caller passes (the
/// database's durable horizon); a checkpoint swapping in a fresh log
/// (different generation / base LSN) is detected and surfaced as
/// [`WalCursor::poll`] returning `Reset`.
#[derive(Debug)]
pub struct WalCursor {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    generation: u64,
    base_lsn: u64,
    /// Byte offset just past the last complete record already returned.
    offset: u64,
    /// LSN of the last record already returned.
    lsn: u64,
}

/// What one [`WalCursor::poll`] observed.
#[derive(Debug)]
pub enum Polled {
    /// New committed records, in order, as `(lsn, payload)` pairs (empty
    /// when nothing new was appended).
    Records(Vec<(u64, Vec<u8>)>),
    /// The log was swapped by a checkpoint: its `base_lsn` no longer
    /// covers the cursor position. The caller must restart from the
    /// snapshot (the cursor itself is repositioned at the new log start).
    Reset {
        /// The new log's generation.
        generation: u64,
        /// The new log's base LSN (covered by the paired snapshot).
        base_lsn: u64,
    },
}

impl WalCursor {
    /// Opens a cursor positioned **after** LSN `after` on the log at
    /// `path`. Fails when `after` predates the log's base LSN (the
    /// records before it live in the snapshot).
    pub fn open(vfs: Arc<dyn Vfs>, path: &Path, after: u64) -> Result<WalCursor> {
        let raw = vfs.read(path).map_err(|e| io_err("read WAL", e))?;
        let (generation, base_lsn) = decode_header(&raw)?;
        if after < base_lsn {
            return Err(Error::Storage(format!(
                "LSN {after} predates this log (base LSN {base_lsn}); \
                 a snapshot transfer is needed"
            )));
        }
        // walk forward to the requested position
        let (records, _) = scan_records(&raw);
        let mut offset = WAL_HEADER_LEN;
        let mut lsn = base_lsn;
        for (i, payload) in records.iter().enumerate() {
            let rec_lsn = base_lsn + i as u64 + 1;
            if rec_lsn > after {
                break;
            }
            offset += (FRAME_HEADER_LEN + payload.len()) as u64;
            lsn = rec_lsn;
        }
        if lsn < after {
            return Err(Error::Storage(format!(
                "LSN {after} is past the end of the log (last LSN {lsn})"
            )));
        }
        Ok(WalCursor { vfs, path: path.to_path_buf(), generation, base_lsn, offset, lsn })
    }

    /// LSN of the last record this cursor has returned.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The generation of the log the cursor is positioned in.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Reads the records appended since the last poll, up to and
    /// including LSN `upto` — the caller's durable horizon: a frame past
    /// it may be on disk with its fsync still pending (or failed), so it
    /// is neither read nor returned. Cheap when the cursor is already at
    /// `upto` (one header read). See [`Polled`] for the checkpoint-swap
    /// case.
    pub fn poll(&mut self, upto: u64) -> Result<Polled> {
        let mut file =
            self.vfs.open(&self.path, OpenMode::Read).map_err(|e| io_err("open WAL", e))?;
        let mut tail = Vec::new();
        if self.lsn < upto {
            file.seek(SeekFrom::Start(self.offset)).map_err(|e| io_err("seek WAL", e))?;
            file.read_to_end(&mut tail).map_err(|e| io_err("read WAL tail", e))?;
        }
        // the header is read after the tail: if it still names this log,
        // the tail came from this log too, even on a filesystem whose
        // open handles follow the path across a rename
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seek WAL", e))?;
        file.read_exact(&mut header).map_err(|e| io_err("read WAL header", e))?;
        let (generation, base_lsn) = decode_header(&header)?;
        if generation != self.generation || base_lsn != self.base_lsn {
            // a checkpoint swapped the log under us
            self.generation = generation;
            self.base_lsn = base_lsn;
            self.offset = WAL_HEADER_LEN;
            self.lsn = base_lsn;
            return Ok(Polled::Reset { generation, base_lsn });
        }

        let mut out = Vec::new();
        let mut pos = 0usize;
        while self.lsn < upto {
            match frame::scan(&tail[pos..]) {
                Scan::Frame(body) => {
                    pos += FRAME_HEADER_LEN + body.len();
                    self.offset += (FRAME_HEADER_LEN + body.len()) as u64;
                    self.lsn += 1;
                    out.push((self.lsn, body.to_vec()));
                }
                // nothing more
                Scan::Incomplete => break,
                // Every record up to the horizon was written whole before
                // the horizon moved, so a checksum failure here is
                // corruption. Silently stopping would stall shipping
                // forever while every follower believes it is caught up;
                // surface it instead.
                Scan::Corrupt => {
                    return Err(Error::Storage(format!(
                        "WAL record at LSN {} failed its checksum mid-log \
                         (on-disk corruption; shipping cannot proceed past it)",
                        self.lsn + 1
                    )))
                }
            }
        }
        Ok(Polled::Records(out))
    }
}

#[cfg(test)]
mod tests {
    // tests corrupt bytes on disk and clean temp files directly
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::vfs::std_vfs;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("maybms-wal-{}-{name}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_and_replay() {
        let path = tmp("replay");
        {
            let mut wal = Wal::create(std_vfs(), &path, 7, 0).unwrap();
            assert_eq!(wal.append(b"first").unwrap(), 1);
            assert_eq!(wal.append(b"").unwrap(), 2);
            assert_eq!(wal.append(b"third record, a bit longer").unwrap(), 3);
            assert_eq!(wal.last_lsn(), 3);
        }
        let (wal, records) = Wal::open(std_vfs(), &path).unwrap();
        assert_eq!(wal.generation(), 7);
        assert_eq!(wal.base_lsn(), 0);
        assert_eq!(wal.last_lsn(), 3);
        assert_eq!(
            records,
            vec![b"first".to_vec(), b"".to_vec(), b"third record, a bit longer".to_vec()]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lsns_continue_across_checkpoint_logs() {
        let path = tmp("lsn-continue");
        {
            let mut wal = Wal::create(std_vfs(), &path, 1, 41).unwrap();
            assert_eq!(wal.base_lsn(), 41);
            assert_eq!(wal.last_lsn(), 41);
            assert_eq!(wal.append(b"a").unwrap(), 42);
            assert_eq!(wal.append(b"b").unwrap(), 43);
        }
        let (wal, records) = Wal::open(std_vfs(), &path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(wal.last_lsn(), 43);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_filters_by_lsn() {
        let path = tmp("records-from");
        let mut wal = Wal::create(std_vfs(), &path, 1, 10).unwrap();
        wal.append(b"eleven").unwrap();
        wal.append(b"twelve").unwrap();
        wal.append(b"thirteen").unwrap();
        let from = |after| match WalCursor::open(std_vfs(), &path, after).unwrap().poll(13) {
            Ok(Polled::Records(r)) => r,
            other => panic!("expected records, got {other:?}"),
        };
        assert_eq!(
            from(10),
            vec![
                (11, b"eleven".to_vec()),
                (12, b"twelve".to_vec()),
                (13, b"thirteen".to_vec())
            ]
        );
        assert_eq!(from(12), vec![(13, b"thirteen".to_vec())]);
        assert!(from(13).is_empty());
        // a position before base_lsn means the records live in the snapshot
        let err = WalCursor::open(std_vfs(), &path, 9).unwrap_err();
        assert!(err.to_string().contains("snapshot transfer"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_tails_appends_and_detects_swap() {
        let path = tmp("cursor");
        let mut wal = Wal::create(std_vfs(), &path, 1, 0).unwrap();
        wal.append(b"one").unwrap();
        let mut cur = WalCursor::open(std_vfs(), &path, 0).unwrap();
        let Polled::Records(r) = cur.poll(wal.last_lsn()).unwrap() else {
            panic!("expected records")
        };
        assert_eq!(r, vec![(1, b"one".to_vec())]);
        // nothing new: empty poll
        let Polled::Records(r) = cur.poll(wal.last_lsn()).unwrap() else { panic!() };
        assert!(r.is_empty());
        // appends show up incrementally, never past the bound
        wal.append(b"two").unwrap();
        wal.append(b"three").unwrap();
        let Polled::Records(r) = cur.poll(2).unwrap() else { panic!() };
        assert_eq!(r, vec![(2, b"two".to_vec())]);
        let Polled::Records(r) = cur.poll(u64::MAX).unwrap() else { panic!() };
        assert_eq!(r, vec![(3, b"three".to_vec())]);
        assert_eq!(cur.lsn(), 3);
        // a checkpoint swaps in a fresh log: the cursor reports the reset
        let _swapped = Wal::create(std_vfs(), &path, 2, 3).unwrap();
        match cur.poll(3).unwrap() {
            Polled::Reset { generation, base_lsn } => {
                assert_eq!(generation, 2);
                assert_eq!(base_lsn, 3);
            }
            other => panic!("expected reset, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_errors_on_mid_log_corruption() {
        // a complete-by-length record failing its CRC is corruption, not
        // an in-flight append — polling must surface it, not stall
        let path = tmp("cursor-corrupt");
        let mut wal = Wal::create(std_vfs(), &path, 1, 0).unwrap();
        wal.append(b"first record").unwrap();
        wal.append(b"second record").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let first_body = WAL_HEADER_LEN as usize + FRAME_HEADER_LEN + 3;
        raw[first_body] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let mut cur = WalCursor::open(std_vfs(), &path, 0).unwrap();
        let err = cur.poll(u64::MAX).unwrap_err();
        assert!(err.to_string().contains("corruption"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_open_mid_log() {
        let path = tmp("cursor-mid");
        let mut wal = Wal::create(std_vfs(), &path, 1, 0).unwrap();
        for payload in [b"a".as_slice(), b"bb", b"ccc"] {
            wal.append(payload).unwrap();
        }
        let mut cur = WalCursor::open(std_vfs(), &path, 2).unwrap();
        let Polled::Records(r) = cur.poll(u64::MAX).unwrap() else { panic!() };
        assert_eq!(r, vec![(3, b"ccc".to_vec())]);
        // past-the-end and pre-base positions are rejected
        assert!(WalCursor::open(std_vfs(), &path, 9).is_err());
        let behind = Wal::create(std_vfs(), &tmp("cursor-mid2"), 2, 5).unwrap();
        assert!(WalCursor::open(std_vfs(), behind.path(), 2).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let path = tmp("torn");
        {
            let mut wal = Wal::create(std_vfs(), &path, 1, 0).unwrap();
            wal.append(b"committed one").unwrap();
            wal.append(b"committed two").unwrap();
            wal.append(b"the torn one").unwrap();
        }
        // cut the last record short by 5 bytes — a crash mid-append
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut wal, records) = Wal::open(std_vfs(), &path).unwrap();
        assert_eq!(records, vec![b"committed one".to_vec(), b"committed two".to_vec()]);
        assert_eq!(wal.last_lsn(), 2, "the torn record must not claim an LSN");
        // the torn frame is gone from disk; new appends land cleanly
        assert_eq!(wal.append(b"after recovery").unwrap(), 3);
        drop(wal);
        let (_, records2) = Wal::open(std_vfs(), &path).unwrap();
        assert_eq!(records2.len(), 3);
        assert_eq!(records2[2], b"after recovery");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_drops_suffix() {
        let path = tmp("corrupt");
        {
            let mut wal = Wal::create(std_vfs(), &path, 1, 0).unwrap();
            wal.append(b"good record").unwrap();
            wal.append(b"bad record!").unwrap();
            wal.append(b"unreachable").unwrap();
        }
        let mut raw = std::fs::read(&path).unwrap();
        // flip a byte in the second record's body
        let second_body = WAL_HEADER_LEN as usize + 8 + 11 + 8 + 2;
        raw[second_body] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, records) = Wal::open(std_vfs(), &path).unwrap();
        assert_eq!(records, vec![b"good record".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_replaces_existing_log() {
        let path = tmp("recreate");
        {
            let mut wal = Wal::create(std_vfs(), &path, 1, 0).unwrap();
            wal.append(b"old stuff").unwrap();
        }
        let wal = Wal::create(std_vfs(), &path, 2, 1).unwrap();
        assert!(wal.is_empty());
        drop(wal);
        let (wal, records) = Wal::open(std_vfs(), &path).unwrap();
        assert_eq!(wal.generation(), 2);
        assert_eq!(wal.base_lsn(), 1);
        assert!(records.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_header_rejected() {
        let path = tmp("badheader");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(Wal::open(std_vfs(), &path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
