//! The virtual filesystem boundary: every byte the storage engine reads
//! or writes goes through a [`Vfs`].
//!
//! Production code uses [`StdVfs`] (a thin veneer over `std::fs`).
//! Tests use [`FaultVfs`], an in-memory filesystem with a *page-cache
//! model* — each file has **volatile** contents (what reads observe) and
//! **durable** contents (what survives [`FaultVfs::crash`], i.e. what a
//! successful fsync has promoted) — plus a deterministic, scripted
//! fault schedule (a list of [`FaultSpec`]s) that injects failures at
//! exact I/O operations:
//!
//! - fsync failure (and fsync **that lies**: reports success without
//!   making anything durable — the "fsyncgate" failure mode),
//! - short / torn writes cut at any byte offset,
//! - `ENOSPC` (disk full),
//! - rename failure,
//! - read bit-flips (silent media corruption).
//!
//! Faults are addressed by *operation kind* and *occurrence index*
//! ("fail the 3rd sync"), so a test can first run a workload cleanly,
//! read the per-kind operation counters, and then sweep a fault across
//! every occurrence — the style `tests/fault_injection.rs` uses.
//!
//! The `FaultVfs` durability model is deliberately strict but fair:
//!
//! - `write_all` / `set_len` touch only the volatile image;
//! - `sync_data` / `sync_all` promote the file's volatile image to its
//!   durable image;
//! - `rename` and `remove_file` are metadata operations and are modeled
//!   as journaled (immediately durable) — but a renamed file carries its
//!   *durable* image across the crash, so code that renames a temp file
//!   into place **without fsyncing it first** loses the file on crash.
//!   This validates the write → fsync → rename discipline instead of
//!   papering over its absence.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use maybms_relational::Result;

use crate::pager::io_err;

/// How a file is opened through [`Vfs::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only; the file must exist.
    Read,
    /// Read + write; the file must exist and is not truncated.
    ReadWrite,
    /// Read + write; created if missing, never truncated.
    ReadWriteCreate,
    /// Write-only; created if missing, truncated if present.
    CreateTruncate,
}

/// An open file handle behind the VFS boundary.
///
/// The methods mirror the `std::io` traits (plus `set_len` and the two
/// syncs) so `std::fs::File` implements this trait directly and call
/// sites keep their `io::Error` mapping.
pub trait VfsFile: Send + fmt::Debug {
    /// Moves the file cursor.
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64>;
    /// Fills `buf` exactly or fails.
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()>;
    /// Reads from the cursor to end-of-file.
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;
    /// Writes all of `buf` at the cursor.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Truncates or extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Flushes file *data* to durable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes file data and metadata to durable storage.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// A filesystem: opens, reads, renames, and removes files by path.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Opens `path` in `mode`.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>>;
    /// Reads a whole file (the `std::fs::read` convenience).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
    /// fsyncs the directory *containing* `path`, so a rename that
    /// published a file there survives power loss.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// StdVfs: the production implementation over std::fs
// ---------------------------------------------------------------------

impl VfsFile for std::fs::File {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        io::Seek::seek(self, pos)
    }
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        io::Read::read_exact(self, buf)
    }
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        io::Read::read_to_end(self, buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
}

/// The production [`Vfs`]: plain `std::fs` calls, no indirection beyond
/// one vtable hop per operation (measured ≈0 in `BENCH_e9.json`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

// the one place production code may touch std::fs: the boundary itself
#[allow(clippy::disallowed_methods)]
impl Vfs for StdVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut opts = std::fs::OpenOptions::new();
        match mode {
            OpenMode::Read => {
                opts.read(true);
            }
            OpenMode::ReadWrite => {
                opts.read(true).write(true);
            }
            OpenMode::ReadWriteCreate => {
                opts.read(true).write(true).create(true).truncate(false);
            }
            OpenMode::CreateTruncate => {
                opts.write(true).create(true).truncate(true);
            }
        }
        Ok(Box::new(opts.open(path)?))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()
    }
}

/// The shared production VFS handle.
pub fn std_vfs() -> Arc<dyn Vfs> {
    static STD: OnceLock<Arc<StdVfs>> = OnceLock::new();
    STD.get_or_init(|| Arc::new(StdVfs)).clone()
}

/// Replaces the file at `path` atomically and durably — the one
/// publish-by-rename sequence every storage file (snapshot, overlay,
/// WAL) goes through: create-truncate the `<path>.tmp` sibling, let
/// `fill` write it, fsync it, rename it over `path`, fsync the
/// directory. A crash at any point leaves the complete old file or the
/// complete new one. `what` names the file in each step's error.
///
/// The directory fsync's failure is propagated, not swallowed: without
/// it the rename may not survive power loss, and whatever the caller
/// does next (rotate the WAL, acknowledge commits appended to the new
/// file) would rest on a directory entry that can still vanish.
pub fn replace_atomically(
    vfs: &dyn Vfs,
    path: &Path,
    what: &str,
    fill: impl FnOnce(Box<dyn VfsFile>) -> Result<Box<dyn VfsFile>>,
) -> Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let file = vfs
        .open(&tmp, OpenMode::CreateTruncate)
        .map_err(|e| io_err(&format!("create {what} temp file"), e))?;
    let mut file = fill(file)?;
    file.sync_all().map_err(|e| io_err(&format!("sync new {what}"), e))?;
    drop(file);
    vfs.rename(&tmp, path).map_err(|e| io_err(&format!("publish {what} (rename)"), e))?;
    vfs.sync_parent_dir(path).map_err(|e| io_err(&format!("sync {what} directory"), e))
}

// ---------------------------------------------------------------------
// FaultVfs: deterministic in-memory filesystem with scripted faults
// ---------------------------------------------------------------------

/// The operation classes a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// `read_exact`, `read_to_end`, and whole-file [`Vfs::read`].
    Read,
    /// `write_all` and `set_len`.
    Write,
    /// `sync_data`, `sync_all`, and [`Vfs::sync_parent_dir`].
    Sync,
    /// [`Vfs::rename`].
    Rename,
}

/// What happens when a scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The operation fails with an injected I/O error and has no effect.
    Error,
    /// The operation fails with "no space left on device" and has no
    /// effect (writes only, in practice).
    Enospc,
    /// A sync reports success **without** making anything durable — the
    /// fsyncgate lie. Only meaningful for [`FaultOp::Sync`].
    SyncLie,
    /// A write persists only its first `n` bytes, then fails — a torn
    /// write cut at any offset.
    ShortWrite(usize),
    /// A read succeeds but the returned bytes have one bit flipped
    /// (`bit` is taken modulo the number of bits read) — silent media
    /// corruption the checksums must catch.
    BitFlip(usize),
}

/// One scheduled fault: fire `fault` on the `nth` (0-based) occurrence
/// of operation class `op`, counted across all files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Operation class the fault targets.
    pub op: FaultOp,
    /// 0-based occurrence index within that class.
    pub nth: u64,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultSpec {
    /// Fail the `nth` sync with an I/O error.
    pub fn fail_sync(nth: u64) -> FaultSpec {
        FaultSpec { op: FaultOp::Sync, nth, fault: Fault::Error }
    }
    /// Make the `nth` sync lie: report success, persist nothing.
    pub fn lie_sync(nth: u64) -> FaultSpec {
        FaultSpec { op: FaultOp::Sync, nth, fault: Fault::SyncLie }
    }
    /// Fail the `nth` write with an I/O error (nothing written).
    pub fn fail_write(nth: u64) -> FaultSpec {
        FaultSpec { op: FaultOp::Write, nth, fault: Fault::Error }
    }
    /// Fail the `nth` write with `ENOSPC` (nothing written).
    pub fn enospc_write(nth: u64) -> FaultSpec {
        FaultSpec { op: FaultOp::Write, nth, fault: Fault::Enospc }
    }
    /// Tear the `nth` write after `keep` bytes.
    pub fn short_write(nth: u64, keep: usize) -> FaultSpec {
        FaultSpec { op: FaultOp::Write, nth, fault: Fault::ShortWrite(keep) }
    }
    /// Fail the `nth` rename.
    pub fn fail_rename(nth: u64) -> FaultSpec {
        FaultSpec { op: FaultOp::Rename, nth, fault: Fault::Error }
    }
    /// Fail the `nth` read with an I/O error.
    pub fn fail_read(nth: u64) -> FaultSpec {
        FaultSpec { op: FaultOp::Read, nth, fault: Fault::Error }
    }
    /// Flip bit `bit` (mod bits read) in the `nth` read's result.
    pub fn flip_read_bit(nth: u64, bit: usize) -> FaultSpec {
        FaultSpec { op: FaultOp::Read, nth, fault: Fault::BitFlip(bit) }
    }
}

#[derive(Debug, Default, Clone)]
struct FileImage {
    /// What a crash preserves: `None` until the first successful sync.
    durable: Option<Vec<u8>>,
    /// What reads and writes observe (the "page cache").
    volatile: Vec<u8>,
}

#[derive(Debug, Default)]
struct FaultState {
    files: HashMap<PathBuf, FileImage>,
    counters: HashMap<FaultOp, u64>,
    schedule: Vec<FaultSpec>,
    log: Vec<String>,
}

impl FaultState {
    /// Counts one `op` occurrence and returns the fault scheduled for it,
    /// if any, logging the hit.
    fn take_fault(&mut self, op: FaultOp, detail: &str) -> Option<Fault> {
        let n = self.counters.entry(op).or_insert(0);
        let this = *n;
        *n += 1;
        let hit = self.schedule.iter().find(|s| s.op == op && s.nth == this).map(|s| s.fault);
        if let Some(f) = hit {
            self.log.push(format!("{op:?}[{this}] -> {f:?} ({detail})"));
        }
        hit
    }
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

fn enospc() -> io::Error {
    io::Error::other("injected fault: No space left on device")
}

fn flip_bit(buf: &mut [u8], bit: usize) {
    if !buf.is_empty() {
        let b = bit % (buf.len() * 8);
        buf[b / 8] ^= 1 << (b % 8);
    }
}

/// A deterministic in-memory filesystem with scripted fault injection.
///
/// Cloning shares the filesystem and schedule, so a test can keep a
/// handle while a `Database` owns another (via `Arc<dyn Vfs>`).
#[derive(Debug, Default, Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// An empty filesystem with no scheduled faults.
    pub fn new() -> FaultVfs {
        FaultVfs::default()
    }

    /// An empty filesystem with the given fault schedule.
    pub fn with_schedule(schedule: Vec<FaultSpec>) -> FaultVfs {
        let v = FaultVfs::new();
        v.state.lock().expect("fault vfs lock").schedule = schedule; // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        v
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault vfs lock") // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
    }

    /// Adds one fault to the schedule.
    pub fn push_fault(&self, spec: FaultSpec) {
        self.lock().schedule.push(spec);
    }

    /// Drops all scheduled faults (recovery phases run fault-free).
    pub fn clear_schedule(&self) {
        self.lock().schedule.clear();
    }

    /// Simulates power loss: every file reverts to its durable image;
    /// files never successfully synced disappear.
    pub fn crash(&self) {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        st.files.retain(|_, img| img.durable.is_some());
        for img in st.files.values_mut() {
            img.volatile = img.durable.clone().expect("retained files are durable"); // maybms-lint: allow(no-panic-in-prod) -- the crash simulation retains only files that have a durable image
        }
        st.log.push("crash".into());
    }

    /// How many operations of class `op` have run so far.
    pub fn op_count(&self, op: FaultOp) -> u64 {
        self.lock().counters.get(&op).copied().unwrap_or(0)
    }

    /// The log of faults that actually fired (for CI artifacts).
    pub fn fault_log(&self) -> Vec<String> {
        self.lock().log.clone()
    }

    /// Installs a file as both volatile and durable content (test setup
    /// and bench image restore).
    pub fn install(&self, path: &Path, bytes: Vec<u8>) {
        self.lock()
            .files
            .insert(path.to_path_buf(), FileImage { durable: Some(bytes.clone()), volatile: bytes });
    }

    /// All files with a durable image, with their durable contents.
    pub fn durable_files(&self) -> Vec<(PathBuf, Vec<u8>)> {
        self.lock()
            .files
            .iter()
            .filter_map(|(p, img)| img.durable.clone().map(|d| (p.clone(), d)))
            .collect()
    }
}

/// An open handle into a [`FaultVfs`] file.
#[derive(Debug)]
pub struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
    pos: u64,
    readable: bool,
    writable: bool,
}

impl VfsFile for FaultFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let new = match pos {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::Current(d) => self.pos as i128 + d as i128,
            SeekFrom::End(d) => {
                let st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
                let len = st.files.get(&self.path).map(|i| i.volatile.len()).unwrap_or(0);
                len as i128 + d as i128
            }
        };
        if new < 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "seek before byte 0"));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if !self.readable {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "not opened for read"));
        }
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st.take_fault(FaultOp::Read, &format!("read_exact {}", self.path.display()));
        if matches!(fault, Some(Fault::Error | Fault::Enospc | Fault::ShortWrite(_))) {
            return Err(injected("read error"));
        }
        let img = st
            .files
            .get(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed while open"))?;
        let start = self.pos as usize;
        let end = start + buf.len();
        if end > img.volatile.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer"));
        }
        buf.copy_from_slice(&img.volatile[start..end]);
        if let Some(Fault::BitFlip(bit)) = fault {
            flip_bit(buf, bit);
        }
        self.pos = end as u64;
        Ok(())
    }

    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        if !self.readable {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "not opened for read"));
        }
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st.take_fault(FaultOp::Read, &format!("read_to_end {}", self.path.display()));
        if matches!(fault, Some(Fault::Error | Fault::Enospc | Fault::ShortWrite(_))) {
            return Err(injected("read error"));
        }
        let img = st
            .files
            .get(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed while open"))?;
        let start = (self.pos as usize).min(img.volatile.len());
        let mut tail = img.volatile[start..].to_vec();
        if let Some(Fault::BitFlip(bit)) = fault {
            flip_bit(&mut tail, bit);
        }
        let n = tail.len();
        buf.extend_from_slice(&tail);
        self.pos = img.volatile.len() as u64;
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if !self.writable {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "not opened for write"));
        }
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st.take_fault(
            FaultOp::Write,
            &format!("write_all {} bytes at {} in {}", buf.len(), self.pos, self.path.display()),
        );
        let keep = match fault {
            Some(Fault::Error) => return Err(injected("write error")),
            Some(Fault::Enospc) => return Err(enospc()),
            Some(Fault::ShortWrite(k)) => k.min(buf.len()),
            _ => buf.len(),
        };
        let img = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed while open"))?;
        let start = self.pos as usize;
        let end = start + keep;
        if img.volatile.len() < end {
            img.volatile.resize(end, 0);
        }
        img.volatile[start..end].copy_from_slice(&buf[..keep]);
        self.pos = end as u64;
        if matches!(fault, Some(Fault::ShortWrite(_))) {
            return Err(injected("short write"));
        }
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if !self.writable {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "not opened for write"));
        }
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st
            .take_fault(FaultOp::Write, &format!("set_len {len} on {}", self.path.display()));
        match fault {
            Some(Fault::Error | Fault::ShortWrite(_)) => return Err(injected("set_len error")),
            Some(Fault::Enospc) => return Err(enospc()),
            _ => {}
        }
        let img = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed while open"))?;
        img.volatile.resize(len as usize, 0);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.sync_all()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st.take_fault(FaultOp::Sync, &format!("sync {}", self.path.display()));
        match fault {
            Some(Fault::Error | Fault::ShortWrite(_)) => return Err(injected("fsync failed")),
            Some(Fault::Enospc) => return Err(enospc()),
            Some(Fault::SyncLie) => return Ok(()), // reports success, persists nothing
            _ => {}
        }
        let img = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed while open"))?;
        img.durable = Some(img.volatile.clone());
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        match mode {
            OpenMode::Read | OpenMode::ReadWrite => {
                if !st.files.contains_key(path) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such file: {}", path.display()),
                    ));
                }
            }
            OpenMode::ReadWriteCreate => {
                st.files.entry(path.to_path_buf()).or_default();
            }
            OpenMode::CreateTruncate => {
                // truncation is a data operation: volatile only, the
                // durable image survives until the next successful sync
                let img = st.files.entry(path.to_path_buf()).or_default();
                img.volatile.clear();
            }
        }
        Ok(Box::new(FaultFile {
            state: Arc::clone(&self.state),
            path: path.to_path_buf(),
            pos: 0,
            readable: !matches!(mode, OpenMode::CreateTruncate),
            writable: !matches!(mode, OpenMode::Read),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st.take_fault(FaultOp::Read, &format!("read {}", path.display()));
        if matches!(fault, Some(Fault::Error | Fault::Enospc | Fault::ShortWrite(_))) {
            return Err(injected("read error"));
        }
        let img = st.files.get(path).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
        })?;
        let mut bytes = img.volatile.clone();
        if let Some(Fault::BitFlip(bit)) = fault {
            flip_bit(&mut bytes, bit);
        }
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault = st
            .take_fault(FaultOp::Rename, &format!("rename {} -> {}", from.display(), to.display()));
        if fault.is_some() {
            return Err(injected("rename failed"));
        }
        let img = st.files.remove(from).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", from.display()))
        })?;
        // metadata is journaled: the rename itself survives a crash, but
        // the file carries only its durable *data* image across one
        st.files.insert(to.to_path_buf(), img);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        st.files.remove(path).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {}", path.display()))
        })?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        let fault =
            st.take_fault(FaultOp::Sync, &format!("sync_parent_dir {}", path.display()));
        match fault {
            Some(Fault::Error | Fault::ShortWrite(_)) => Err(injected("dir fsync failed")),
            Some(Fault::Enospc) => Err(enospc()),
            // lie or no fault: renames are already durable in this model
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    // tests clean their own std temp files directly
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn write_and_sync(vfs: &FaultVfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = vfs.open(path, OpenMode::CreateTruncate)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    #[test]
    fn unsynced_data_is_lost_on_crash() {
        let vfs = FaultVfs::new();
        write_and_sync(&vfs, &p("a"), b"durable").unwrap();
        let mut f = vfs.open(&p("a"), OpenMode::ReadWrite).unwrap();
        f.seek(SeekFrom::End(0)).unwrap();
        f.write_all(b" plus tail").unwrap(); // never synced
        let mut g = vfs.open(&p("b"), OpenMode::CreateTruncate).unwrap();
        g.write_all(b"never synced at all").unwrap();
        assert_eq!(vfs.read(&p("a")).unwrap(), b"durable plus tail");

        vfs.crash();
        assert_eq!(vfs.read(&p("a")).unwrap(), b"durable");
        assert!(!vfs.exists(&p("b")));
    }

    #[test]
    fn failed_sync_persists_nothing() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::fail_sync(0)]);
        let err = write_and_sync(&vfs, &p("a"), b"data").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        vfs.crash();
        assert!(!vfs.exists(&p("a")));
    }

    #[test]
    fn lying_sync_reports_ok_but_crash_loses_data() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::lie_sync(0)]);
        write_and_sync(&vfs, &p("a"), b"data").unwrap(); // the lie: Ok(())
        vfs.crash();
        assert!(!vfs.exists(&p("a")));
        // a later honest sync does persist
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::lie_sync(0)]);
        write_and_sync(&vfs, &p("a"), b"data").unwrap();
        let mut f = vfs.open(&p("a"), OpenMode::ReadWrite).unwrap();
        f.sync_all().unwrap();
        vfs.crash();
        assert_eq!(vfs.read(&p("a")).unwrap(), b"data");
    }

    #[test]
    fn short_write_tears_at_offset() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::short_write(0, 3)]);
        let mut f = vfs.open(&p("a"), OpenMode::CreateTruncate).unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(vfs.read(&p("a")).unwrap(), b"abc");
    }

    #[test]
    fn enospc_write_has_no_effect() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::enospc_write(1)]);
        let mut f = vfs.open(&p("a"), OpenMode::CreateTruncate).unwrap();
        f.write_all(b"first ").unwrap();
        let err = f.write_all(b"second").unwrap_err();
        assert!(err.to_string().contains("No space left"), "{err}");
        assert_eq!(vfs.read(&p("a")).unwrap(), b"first ");
    }

    #[test]
    fn rename_fault_and_durability_model() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::fail_rename(0)]);
        write_and_sync(&vfs, &p("t.tmp"), b"new").unwrap();
        assert!(vfs.rename(&p("t.tmp"), &p("t")).is_err());
        assert!(vfs.exists(&p("t.tmp")) && !vfs.exists(&p("t")));
        // second rename (no fault) succeeds and survives a crash
        vfs.rename(&p("t.tmp"), &p("t")).unwrap();
        vfs.crash();
        assert_eq!(vfs.read(&p("t")).unwrap(), b"new");

        // renaming an *unsynced* temp loses the file on crash — and
        // replaces the old target, as a real journaled rename would
        let vfs = FaultVfs::new();
        write_and_sync(&vfs, &p("t"), b"old").unwrap();
        let mut f = vfs.open(&p("t.tmp"), OpenMode::CreateTruncate).unwrap();
        f.write_all(b"new, never synced").unwrap();
        drop(f);
        vfs.rename(&p("t.tmp"), &p("t")).unwrap();
        vfs.crash();
        assert!(!vfs.exists(&p("t")));
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::flip_read_bit(0, 9)]);
        write_and_sync(&vfs, &p("a"), &[0u8, 0, 0]).unwrap();
        let got = vfs.read(&p("a")).unwrap();
        assert_eq!(got, vec![0u8, 2, 0]); // bit 9 = byte 1, bit 1
        // next read is clean
        assert_eq!(vfs.read(&p("a")).unwrap(), vec![0u8, 0, 0]);
    }

    #[test]
    fn counters_count_and_faults_log() {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::fail_write(2)]);
        let mut f = vfs.open(&p("a"), OpenMode::CreateTruncate).unwrap();
        f.write_all(b"one").unwrap();
        f.write_all(b"two").unwrap();
        assert!(f.write_all(b"three").is_err());
        f.write_all(b"four").unwrap();
        assert_eq!(vfs.op_count(FaultOp::Write), 4);
        assert_eq!(vfs.op_count(FaultOp::Sync), 0);
        let log = vfs.fault_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("Write[2]"), "{log:?}");
    }

    #[test]
    fn create_truncate_keeps_durable_until_sync() {
        let vfs = FaultVfs::new();
        write_and_sync(&vfs, &p("a"), b"old old old").unwrap();
        let mut f = vfs.open(&p("a"), OpenMode::CreateTruncate).unwrap();
        f.write_all(b"new").unwrap();
        drop(f); // truncate + rewrite, never synced
        assert_eq!(vfs.read(&p("a")).unwrap(), b"new");
        vfs.crash();
        assert_eq!(vfs.read(&p("a")).unwrap(), b"old old old");
    }

    #[test]
    fn std_vfs_round_trips() {
        let vfs = std_vfs();
        let path = std::env::temp_dir()
            .join(format!("maybms-vfs-std-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut f = vfs.open(&path, OpenMode::CreateTruncate).unwrap();
        f.write_all(b"hello vfs").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert!(vfs.exists(&path));
        assert_eq!(vfs.read(&path).unwrap(), b"hello vfs");
        let mut f = vfs.open(&path, OpenMode::ReadWrite).unwrap();
        f.seek(SeekFrom::Start(6)).unwrap();
        let mut buf = [0u8; 3];
        f.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"vfs");
        f.set_len(5).unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        vfs.sync_parent_dir(&path).unwrap();
        vfs.remove_file(&path).unwrap();
        assert!(!vfs.exists(&path));
    }
}
