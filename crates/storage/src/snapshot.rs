//! The snapshot file: an opaque payload (the encoded WSD) stored as
//! checksummed pages behind a versioned magic header.
//!
//! ```text
//! offset 0                                48
//! ┌─────────────────────────────────────┬──────────────────────────┐
//! │ preamble (raw, fixed 48 bytes)      │ pages (see crate::pager) │
//! └─────────────────────────────────────┴──────────────────────────┘
//!
//! preamble := magic "MAYBMS1\0" (8) | version u32 | page_size u32
//!           | generation u64 | last_lsn u64 | payload_len u64
//!           | payload_crc u32 | preamble_crc u32   (all little-endian)
//! ```
//!
//! `generation` is the checkpoint counter used to pair a snapshot with
//! its write-ahead log (see [`crate::db`]); `last_lsn` is the log
//! sequence number of the last record the snapshot captures, so recovery
//! (and a replication follower) can name the exact log position the
//! snapshot stands for. Snapshots are written
//! **atomically**: the new file goes to `<path>.tmp`, is fsynced, and is
//! then renamed over the old snapshot, so a crash mid-checkpoint leaves
//! either the old snapshot or the new one — never a hybrid.

use std::path::Path;

use maybms_relational::{Error, Result};

use crate::bytes::Reader;
use crate::crc::crc32;
use crate::pager::{io_err, Pager};
use crate::vfs::{replace_atomically, OpenMode, Vfs};

const MAGIC: &[u8; 8] = b"MAYBMS1\0";
const VERSION: u32 = 2;

/// Raw preamble length before the paged region.
pub const PREAMBLE_LEN: usize = 48;

/// Metadata decoded from a snapshot preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The checkpoint generation this snapshot represents.
    pub generation: u64,
    /// LSN of the last WAL record the snapshot captures.
    pub last_lsn: u64,
    /// Page size of the paged region.
    pub page_size: usize,
    /// Length of the stored payload.
    pub payload_len: u64,
}

fn encode_preamble(
    page_size: u32,
    generation: u64,
    last_lsn: u64,
    payload: &[u8],
) -> [u8; PREAMBLE_LEN] {
    let mut p = [0u8; PREAMBLE_LEN];
    p[0..8].copy_from_slice(MAGIC);
    p[8..12].copy_from_slice(&VERSION.to_le_bytes());
    p[12..16].copy_from_slice(&page_size.to_le_bytes());
    p[16..24].copy_from_slice(&generation.to_le_bytes());
    p[24..32].copy_from_slice(&last_lsn.to_le_bytes());
    p[32..40].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    p[40..44].copy_from_slice(&crc32(payload).to_le_bytes());
    let crc = crc32(&p[0..44]);
    p[44..48].copy_from_slice(&crc.to_le_bytes());
    p
}

fn decode_preamble(p: &[u8; PREAMBLE_LEN]) -> Result<(SnapshotMeta, u32)> {
    if &p[0..8] != MAGIC {
        return Err(Error::Storage("not a MayBMS snapshot (bad magic)".into()));
    }
    let mut r = Reader::new(&p[8..]);
    let (version, page_size, generation, last_lsn, payload_len, payload_crc) =
        (r.get_u32()?, r.get_u32()?, r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u32()?);
    if crc32(&p[0..44]) != r.get_u32()? {
        return Err(Error::Storage("snapshot preamble checksum mismatch".into()));
    }
    if version != VERSION {
        return Err(Error::Storage(format!(
            "unsupported snapshot format version {version} (this build reads {VERSION})"
        )));
    }
    let page_size = page_size as usize;
    Ok((SnapshotMeta { generation, last_lsn, page_size, payload_len }, payload_crc))
}

/// Writes `payload` as a generation-`generation` snapshot at `path`,
/// covering the log through `last_lsn`, in pages of `page_size` bytes:
/// write-new to a temp sibling, fsync, rename over the old file, fsync
/// the directory ([`replace_atomically`]). A failure anywhere fails the
/// checkpoint before the WAL moves, which is a crash window recovery
/// already handles.
pub fn write_snapshot(
    vfs: &dyn Vfs,
    path: &Path,
    generation: u64,
    last_lsn: u64,
    payload: &[u8],
    page_size: usize,
) -> Result<()> {
    replace_atomically(vfs, path, "snapshot", |mut file| {
        file.write_all(&encode_preamble(page_size as u32, generation, last_lsn, payload))
            .map_err(|e| io_err("write snapshot preamble", e))?;
        let mut pager = Pager::new(file, PREAMBLE_LEN as u64, page_size)?;
        pager.write_payload(payload)?;
        Ok(pager.into_file())
    })
}

/// Reads and fully verifies the snapshot at `path`: preamble magic,
/// version and checksum, every page checksum, and the whole-payload CRC.
pub fn read_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<(SnapshotMeta, Vec<u8>)> {
    let mut file = vfs.open(path, OpenMode::Read).map_err(|e| io_err("open snapshot", e))?;
    let mut preamble = [0u8; PREAMBLE_LEN];
    file.read_exact(&mut preamble)
        .map_err(|e| io_err("read snapshot preamble", e))?;
    let (meta, payload_crc) = decode_preamble(&preamble)?;
    let mut pager = Pager::new(file, PREAMBLE_LEN as u64, meta.page_size)?;
    let payload = pager.read_payload(meta.payload_len)?;
    if crc32(&payload) != payload_crc {
        return Err(Error::Storage("snapshot payload checksum mismatch".into()));
    }
    Ok((meta, payload))
}

#[cfg(test)]
mod tests {
    // tests corrupt bytes on disk and clean temp files directly
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::pager::DEFAULT_PAGE_SIZE;
    use crate::vfs::std_vfs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("maybms-snap-{}-{name}.maybms", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn round_trip_multi_page() {
        let path = tmp("roundtrip");
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
        write_snapshot(&*std_vfs(), &path, 3, 9, &payload, 64).unwrap();
        let (meta, back) = read_snapshot(&*std_vfs(), &path).unwrap();
        assert_eq!(meta.generation, 3);
        assert_eq!(meta.last_lsn, 9);
        assert_eq!(meta.page_size, 64);
        assert_eq!(back, payload);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_payload_round_trips() {
        let path = tmp("empty");
        write_snapshot(&*std_vfs(), &path, 1, 0, &[], DEFAULT_PAGE_SIZE).unwrap();
        let (meta, back) = read_snapshot(&*std_vfs(), &path).unwrap();
        assert_eq!(meta.payload_len, 0);
        assert!(back.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let path = tmp("rewrite");
        write_snapshot(&*std_vfs(), &path, 1, 1, b"old state", 32).unwrap();
        write_snapshot(&*std_vfs(), &path, 2, 5, b"new state, longer than before", 32).unwrap();
        let (meta, back) = read_snapshot(&*std_vfs(), &path).unwrap();
        assert_eq!(meta.generation, 2);
        assert_eq!(back, b"new state, longer than before");
        // no temp file left behind
        assert!(!path.with_extension("maybms.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_rejected() {
        let path = tmp("corrupt");
        write_snapshot(&*std_vfs(), &path, 1, 0, b"payload bytes here", 32).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // a payload byte inside the first page (after preamble + page header)
        let payload_at = PREAMBLE_LEN + crate::pager::PAGE_HEADER_LEN + 3;

        let mut flipped = pristine.clone();
        flipped[payload_at] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(read_snapshot(&*std_vfs(), &path).is_err());

        // corrupt the preamble instead (version field)
        let mut bad_version = pristine.clone();
        bad_version[9] ^= 1;
        std::fs::write(&path, &bad_version).unwrap();
        assert!(read_snapshot(&*std_vfs(), &path).is_err());

        // bad magic
        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        let err = read_snapshot(&*std_vfs(), &path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // pristine bytes still read fine
        std::fs::write(&path, &pristine).unwrap();
        assert!(read_snapshot(&*std_vfs(), &path).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
