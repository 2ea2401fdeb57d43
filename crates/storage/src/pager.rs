//! The pager: fixed-size, checksummed pages over a file.
//!
//! A paged region of a file is a sequence of `page_size`-byte pages
//! starting at a base offset. Each page is:
//!
//! ```text
//! ┌──────────┬──────────────┬────────────────────────────┬─────────┐
//! │ crc  u32 │ payload_len  │ payload (≤ page_size − 8)  │ zero    │
//! │          │ u32          │                            │ padding │
//! └──────────┴──────────────┴────────────────────────────┴─────────┘
//! ```
//!
//! The CRC-32 covers the page *index* (little-endian `u32`) followed by
//! the payload bytes, so a page that is bit-rotted, torn, or transplanted
//! from another position in the file fails verification. Large payloads
//! are chunked across consecutive pages by [`Pager::write_payload`] /
//! [`Pager::read_payload`].

use std::io::SeekFrom;
use std::sync::{Arc, OnceLock};

use maybms_obs::Counter;
use maybms_relational::{Error, Result};

use crate::crc::{crc32, crc32_seeded};
use crate::vfs::VfsFile;

/// Process-wide pager counters, resolved once.
struct PagerMetrics {
    page_reads: Arc<Counter>,
    crc_failures: Arc<Counter>,
}

fn metrics() -> &'static PagerMetrics {
    static M: OnceLock<PagerMetrics> = OnceLock::new();
    M.get_or_init(|| PagerMetrics {
        page_reads: maybms_obs::counter("pager.page_reads"),
        crc_failures: maybms_obs::counter("pager.crc_failures"),
    })
}

/// Bytes of per-page framing: CRC-32 plus the payload length.
pub const PAGE_HEADER_LEN: usize = 8;

/// Default page size for snapshot files.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

pub(crate) fn io_err(ctx: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{ctx}: {e}"))
}

/// The checksum a page with logical index `idx` and payload `payload`
/// carries: CRC-32 over the little-endian index followed by the payload.
/// Exposed so the incremental-checkpoint diff ([`crate::delta`]) can
/// compare page contents by checksum without materializing page frames.
pub fn page_crc(idx: u32, payload: &[u8]) -> u32 {
    crc32_seeded(crc32(&idx.to_le_bytes()), payload)
}

/// Reads and writes checksummed fixed-size pages of one open file.
#[derive(Debug)]
pub struct Pager {
    file: Box<dyn VfsFile>,
    base: u64,
    page_size: usize,
}

impl Pager {
    /// Wraps an open [`VfsFile`] whose paged region starts at `base`.
    pub fn new(file: Box<dyn VfsFile>, base: u64, page_size: usize) -> Result<Pager> {
        if page_size <= PAGE_HEADER_LEN {
            return Err(Error::Storage(format!(
                "page size {page_size} does not fit the {PAGE_HEADER_LEN}-byte page header"
            )));
        }
        Ok(Pager { file, base, page_size })
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Payload bytes one page can carry.
    pub fn capacity(&self) -> usize {
        self.page_size - PAGE_HEADER_LEN
    }

    /// Pages needed for a payload of `len` bytes (at least one).
    pub fn pages_for(&self, len: usize) -> u32 {
        (len.max(1)).div_ceil(self.capacity()) as u32
    }

    fn offset_of(&self, idx: u32) -> u64 {
        self.base + idx as u64 * self.page_size as u64
    }

    /// Writes one page. The payload must fit in [`Pager::capacity`].
    pub fn write_page(&mut self, idx: u32, payload: &[u8]) -> Result<()> {
        self.write_page_as(idx, idx, payload)
    }

    /// Writes a page at file position `slot` whose checksum is seeded
    /// with the *logical* index `idx`. Incremental snapshots store a
    /// sparse subset of a base snapshot's pages densely (slot 0, 1, 2, …)
    /// while each page keeps the checksum of its real position, so a page
    /// transplanted between files still fails verification.
    pub fn write_page_as(&mut self, slot: u32, idx: u32, payload: &[u8]) -> Result<()> {
        if payload.len() > self.capacity() {
            return Err(Error::Storage(format!(
                "payload of {} bytes exceeds page capacity {}",
                payload.len(),
                self.capacity()
            )));
        }
        let mut page = vec![0u8; self.page_size];
        let crc = page_crc(idx, payload);
        page[0..4].copy_from_slice(&crc.to_le_bytes());
        page[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        page[PAGE_HEADER_LEN..PAGE_HEADER_LEN + payload.len()].copy_from_slice(payload);
        self.file
            .seek(SeekFrom::Start(self.offset_of(slot)))
            .map_err(|e| io_err("seek to page", e))?;
        self.file.write_all(&page).map_err(|e| io_err("write page", e))
    }

    /// Reads and verifies one page, returning its payload.
    pub fn read_page(&mut self, idx: u32) -> Result<Vec<u8>> {
        self.read_page_as(idx, idx)
    }

    /// Reads the page at file position `slot`, verifying it against the
    /// *logical* index `idx` (see [`Pager::write_page_as`]).
    pub fn read_page_as(&mut self, slot: u32, idx: u32) -> Result<Vec<u8>> {
        metrics().page_reads.inc();
        self.file
            .seek(SeekFrom::Start(self.offset_of(slot)))
            .map_err(|e| io_err("seek to page", e))?;
        let mut page = vec![0u8; self.page_size];
        self.file
            .read_exact(&mut page)
            .map_err(|e| io_err(&format!("read page {idx}"), e))?;
        let stored_crc = u32::from_le_bytes(page[0..4].try_into().expect("4 bytes")); // maybms-lint: allow(no-panic-in-prod) -- the index range fixes the slice length, so try_into cannot fail
        let len = u32::from_le_bytes(page[4..8].try_into().expect("4 bytes")) as usize; // maybms-lint: allow(no-panic-in-prod) -- the index range fixes the slice length, so try_into cannot fail
        if len > self.capacity() {
            return Err(Error::Storage(format!(
                "page {idx} declares {len} payload bytes, capacity is {}",
                self.capacity()
            )));
        }
        let payload = &page[PAGE_HEADER_LEN..PAGE_HEADER_LEN + len];
        let crc = page_crc(idx, payload);
        if crc != stored_crc {
            metrics().crc_failures.inc();
            return Err(Error::Storage(format!(
                "checksum mismatch on page {idx}: stored {stored_crc:#010x}, computed {crc:#010x}"
            )));
        }
        Ok(payload.to_vec())
    }

    /// Chunks `payload` across consecutive pages starting at page 0 and
    /// returns the number of pages written.
    pub fn write_payload(&mut self, payload: &[u8]) -> Result<u32> {
        let cap = self.capacity();
        let mut idx = 0u32;
        let mut rest = payload;
        loop {
            let take = rest.len().min(cap);
            self.write_page(idx, &rest[..take])?;
            rest = &rest[take..];
            idx += 1;
            if rest.is_empty() {
                return Ok(idx);
            }
        }
    }

    /// Reassembles a payload of exactly `len` bytes written by
    /// [`Pager::write_payload`], verifying every page checksum.
    pub fn read_payload(&mut self, len: u64) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len as usize);
        let mut idx = 0u32;
        while (out.len() as u64) < len || (len == 0 && idx == 0) {
            let page = self.read_page(idx)?;
            if page.is_empty() && len > 0 {
                return Err(Error::Storage(format!(
                    "payload ends early: page {idx} is empty with {} of {len} bytes read",
                    out.len()
                )));
            }
            out.extend_from_slice(&page);
            idx += 1;
        }
        if out.len() as u64 != len {
            return Err(Error::Storage(format!(
                "payload length mismatch: read {} bytes, header declares {len}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Hands the underlying file back (to whoever fsyncs and publishes it).
    pub fn into_file(self) -> Box<dyn VfsFile> {
        self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{std_vfs, OpenMode};
    use std::path::{Path, PathBuf};

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("maybms-pager-{}-{name}", std::process::id()));
        let _ = std_vfs().remove_file(&p);
        p
    }

    fn open_rw(p: &Path) -> Box<dyn VfsFile> {
        std_vfs().open(p, OpenMode::ReadWriteCreate).unwrap()
    }

    fn rewrite(p: &Path, bytes: &[u8]) {
        let mut f = std_vfs().open(p, OpenMode::CreateTruncate).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn single_page_round_trip() {
        let path = tmp("single");
        let mut pager = Pager::new(open_rw(&path), 0, 64).unwrap();
        pager.write_page(0, b"hello").unwrap();
        pager.write_page(1, b"world").unwrap();
        assert_eq!(pager.read_page(0).unwrap(), b"hello");
        assert_eq!(pager.read_page(1).unwrap(), b"world");
        let _ = std_vfs().remove_file(&path);
    }

    #[test]
    fn multi_page_payload_round_trip() {
        let path = tmp("multi");
        let mut pager = Pager::new(open_rw(&path), 16, 32).unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let pages = pager.write_payload(&payload).unwrap();
        assert_eq!(pages, pager.pages_for(payload.len()));
        assert_eq!(pager.read_payload(payload.len() as u64).unwrap(), payload);
        let _ = std_vfs().remove_file(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt");
        {
            let mut pager = Pager::new(open_rw(&path), 0, 64).unwrap();
            pager.write_page(0, b"precious data").unwrap();
        }
        // flip one payload byte on disk
        let mut raw = std_vfs().read(&path).unwrap();
        raw[PAGE_HEADER_LEN + 2] ^= 0xFF;
        rewrite(&path, &raw);
        let mut pager = Pager::new(open_rw(&path), 0, 64).unwrap();
        let err = pager.read_page(0).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std_vfs().remove_file(&path);
    }

    #[test]
    fn transplanted_pages_are_detected() {
        let path = tmp("swap");
        {
            let mut pager = Pager::new(open_rw(&path), 0, 32).unwrap();
            pager.write_page(0, b"page zero").unwrap();
            pager.write_page(1, b"page one!").unwrap();
        }
        // swap the two pages wholesale: checksums are internally intact,
        // but each now sits at the wrong index
        let mut raw = std_vfs().read(&path).unwrap();
        let (a, b) = raw.split_at_mut(32);
        a.swap_with_slice(&mut b[..32]);
        rewrite(&path, &raw);
        let mut pager = Pager::new(open_rw(&path), 0, 32).unwrap();
        assert!(pager.read_page(0).is_err());
        assert!(pager.read_page(1).is_err());
        let _ = std_vfs().remove_file(&path);
    }

    #[test]
    fn oversized_payload_rejected() {
        let path = tmp("oversize");
        let mut pager = Pager::new(open_rw(&path), 0, 16).unwrap();
        assert!(pager.write_page(0, &[0u8; 9]).is_err());
        assert!(Pager::new(open_rw(&path), 0, 8).is_err());
        let _ = std_vfs().remove_file(&path);
    }
}
