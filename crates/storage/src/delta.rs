//! Incremental snapshots: a **page-diff overlay** next to the base
//! snapshot file.
//!
//! A full checkpoint rewrites every page of the database state. When only
//! a few pages changed since the last full snapshot, that is wasted I/O —
//! the pager already checksums each page, so changed pages can be found
//! by comparing checksums. An incremental checkpoint writes a **delta
//! file** (`<db>.maybms.inc`) holding only the pages that differ from the
//! **base** snapshot, plus a page map saying where each one belongs:
//!
//! ```text
//! preamble := magic "MAYBMSD\0" (8) | version u32 | page_size u32
//!           | generation u64 | base_generation u64 | last_lsn u64
//!           | payload_len u64 | payload_crc u32 | npages u32
//!           | preamble_crc u32                       (60 bytes)
//! page map := npages × page_index u32 | map_crc u32
//! pages    := npages pages (see crate::pager), stored densely but each
//!             checksummed by its *logical* page index
//! ```
//!
//! Loading overlays the delta's pages onto the base snapshot's and
//! verifies the whole-payload CRC of the combined result, so a wrong or
//! damaged overlay can never produce a silently wrong database: a corrupt
//! page map (or any corrupt page) fails **loudly** on read instead of
//! assembling a frankenstein snapshot.
//!
//! Like full snapshots, deltas are replaced atomically (write-new
//! `.tmp` + rename + dir fsync) and the base file is never touched, so a
//! crash mid-incremental-checkpoint leaves either the old overlay or the
//! new one — never a half-written state. Each delta diffs against the
//! *base* (not the previous delta), so one overlay file is all there ever
//! is; a full checkpoint collapses base + overlay into a fresh base and
//! removes the delta file. `base_generation` pairs an overlay with the
//! exact base it patches: an overlay left behind by a newer full
//! checkpoint no longer matches and is discarded as a checkpoint
//! artifact, not an error (see [`crate::db`]).

use std::path::{Path, PathBuf};

use maybms_relational::{Error, Result};

use crate::bytes::Reader;
use crate::crc::crc32;
use crate::pager::{io_err, page_crc, Pager, PAGE_HEADER_LEN};
use crate::vfs::{replace_atomically, OpenMode, Vfs};

const MAGIC: &[u8; 8] = b"MAYBMSD\0";
const VERSION: u32 = 1;

/// Raw preamble length of a delta file, before the page map.
pub const DELTA_PREAMBLE_LEN: usize = 60;

/// Metadata decoded from a delta (incremental snapshot) preamble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaMeta {
    /// The checkpoint generation this overlay represents.
    pub generation: u64,
    /// The generation of the base snapshot this overlay patches.
    pub base_generation: u64,
    /// LSN of the last WAL record the combined state captures.
    pub last_lsn: u64,
    /// Page size (must match the base snapshot's).
    pub page_size: usize,
    /// Length of the *combined* (base + overlay) payload.
    pub payload_len: u64,
    /// CRC-32 of the combined payload.
    pub payload_crc: u32,
    /// How many changed pages the overlay carries.
    pub pages: u32,
}

/// The `(logical_index, chunk)` pairs an overlay stores.
pub type DeltaPages = Vec<(u32, Vec<u8>)>;

/// The delta (incremental snapshot) path for a snapshot path:
/// `<path>.inc`.
pub fn delta_path_for(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".inc");
    PathBuf::from(s)
}

fn encode_preamble(meta: &DeltaMeta) -> [u8; DELTA_PREAMBLE_LEN] {
    let mut p = [0u8; DELTA_PREAMBLE_LEN];
    p[0..8].copy_from_slice(MAGIC);
    p[8..12].copy_from_slice(&VERSION.to_le_bytes());
    p[12..16].copy_from_slice(&(meta.page_size as u32).to_le_bytes());
    p[16..24].copy_from_slice(&meta.generation.to_le_bytes());
    p[24..32].copy_from_slice(&meta.base_generation.to_le_bytes());
    p[32..40].copy_from_slice(&meta.last_lsn.to_le_bytes());
    p[40..48].copy_from_slice(&meta.payload_len.to_le_bytes());
    p[48..52].copy_from_slice(&meta.payload_crc.to_le_bytes());
    p[52..56].copy_from_slice(&meta.pages.to_le_bytes());
    let crc = crc32(&p[0..56]);
    p[56..60].copy_from_slice(&crc.to_le_bytes());
    p
}

fn decode_preamble(p: &[u8; DELTA_PREAMBLE_LEN]) -> Result<DeltaMeta> {
    if &p[0..8] != MAGIC {
        return Err(Error::Storage(
            "not a MayBMS incremental snapshot (bad magic)".into(),
        ));
    }
    let mut r = Reader::new(&p[8..]);
    let (version, page_size) = (r.get_u32()?, r.get_u32()? as usize);
    let (generation, base_generation, last_lsn) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
    let (payload_len, payload_crc, pages) = (r.get_u64()?, r.get_u32()?, r.get_u32()?);
    if crc32(&p[0..56]) != r.get_u32()? {
        return Err(Error::Storage(
            "incremental snapshot preamble checksum mismatch".into(),
        ));
    }
    if version != VERSION {
        return Err(Error::Storage(format!(
            "unsupported incremental snapshot version {version} (this build reads {VERSION})"
        )));
    }
    Ok(DeltaMeta { generation, base_generation, last_lsn, page_size, payload_len, payload_crc, pages })
}

/// Writes the overlay at `path` (atomically — [`replace_atomically`]):
/// the changed pages of a new payload relative to a base snapshot.
/// `pages` holds `(logical_index, chunk)` pairs, each chunk at most
/// `page_size - PAGE_HEADER_LEN` bytes; `payload_len`/`payload_crc`
/// describe the **combined** payload the overlay reconstructs.
pub fn write_delta(
    vfs: &dyn Vfs,
    path: &Path,
    meta: &DeltaMeta,
    pages: &[(u32, &[u8])],
) -> Result<()> {
    debug_assert_eq!(meta.pages as usize, pages.len());
    replace_atomically(vfs, path, "incremental snapshot", |mut file| {
        file.write_all(&encode_preamble(meta))
            .map_err(|e| io_err("write incremental snapshot preamble", e))?;
        // the page map, with its own checksum
        let mut map = Vec::with_capacity(pages.len() * 4);
        for (idx, _) in pages {
            map.extend_from_slice(&idx.to_le_bytes());
        }
        let map_crc = crc32(&map);
        map.extend_from_slice(&map_crc.to_le_bytes());
        file.write_all(&map).map_err(|e| io_err("write page map", e))?;
        // the changed pages, densely packed, checksummed by logical index
        let base = (DELTA_PREAMBLE_LEN + map.len()) as u64;
        let mut pager = Pager::new(file, base, meta.page_size)?;
        for (slot, (idx, chunk)) in pages.iter().enumerate() {
            pager.write_page_as(slot as u32, *idx, chunk)?;
        }
        Ok(pager.into_file())
    })
}

/// Reads and fully verifies the overlay at `path`: preamble, page map
/// checksum, and every page checksum. Returns the metadata and the
/// `(logical_index, chunk)` pairs.
pub fn read_delta(vfs: &dyn Vfs, path: &Path) -> Result<(DeltaMeta, DeltaPages)> {
    let mut file =
        vfs.open(path, OpenMode::Read).map_err(|e| io_err("open incremental snapshot", e))?;
    let mut preamble = [0u8; DELTA_PREAMBLE_LEN];
    file.read_exact(&mut preamble)
        .map_err(|e| io_err("read incremental snapshot preamble", e))?;
    let meta = decode_preamble(&preamble)?;
    let map_len = meta.pages as usize * 4;
    let mut map = vec![0u8; map_len + 4];
    file.read_exact(&mut map).map_err(|e| io_err("read page map", e))?;
    let mut r = Reader::new(&map);
    let indices: Vec<u32> = (0..meta.pages).map(|_| r.get_u32()).collect::<Result<_>>()?;
    if crc32(&map[..map_len]) != r.get_u32()? {
        return Err(Error::Storage(
            "incremental snapshot page map checksum mismatch".into(),
        ));
    }
    let base = (DELTA_PREAMBLE_LEN + map_len + 4) as u64;
    let mut pager = Pager::new(file, base, meta.page_size)?;
    let mut pages = Vec::with_capacity(indices.len());
    for (slot, idx) in indices.into_iter().enumerate() {
        pages.push((idx, pager.read_page_as(slot as u32, idx)?));
    }
    Ok((meta, pages))
}

/// Splits a payload into the per-page chunks a snapshot stores — the unit
/// the incremental diff compares. Always at least one (possibly empty)
/// chunk, matching `Pager::write_payload`.
pub fn payload_chunks(payload: &[u8], page_size: usize) -> Vec<&[u8]> {
    let cap = page_size - PAGE_HEADER_LEN;
    if payload.is_empty() {
        return vec![&[]];
    }
    payload.chunks(cap).collect()
}

/// The per-page checksums of a payload — what the diff compares between
/// the base snapshot and a new state.
pub fn chunk_crcs(payload: &[u8], page_size: usize) -> Vec<u32> {
    payload_chunks(payload, page_size)
        .iter()
        .enumerate()
        .map(|(i, c)| page_crc(i as u32, c))
        .collect()
}

/// Reconstructs the combined payload: the base snapshot's chunks with the
/// overlay's pages substituted (and appended, when the payload grew),
/// truncated to the overlay's `payload_len`, and verified against its
/// whole-payload CRC. Any inconsistency — an out-of-range page index, a
/// missing appended page, a checksum mismatch — is a loud error.
pub fn overlay(base_payload: &[u8], meta: &DeltaMeta, pages: &[(u32, Vec<u8>)]) -> Result<Vec<u8>> {
    let cap = meta.page_size - PAGE_HEADER_LEN;
    let total = (meta.payload_len as usize).max(1).div_ceil(cap);
    let base_chunks = payload_chunks(base_payload, meta.page_size);
    let mut chunks: Vec<&[u8]> = Vec::with_capacity(total);
    chunks.extend(base_chunks.iter().take(total).copied());
    // the payload grew: pages past the base must all come from the overlay
    while chunks.len() < total {
        chunks.push(&[]);
    }
    for (idx, page) in pages {
        let slot = *idx as usize;
        if slot >= chunks.len() {
            return Err(Error::Storage(format!(
                "incremental snapshot patches page {idx}, but the combined \
                 payload has only {} page(s)",
                chunks.len()
            )));
        }
        chunks[slot] = page;
    }
    let mut out = Vec::with_capacity(meta.payload_len as usize);
    for c in &chunks {
        out.extend_from_slice(c);
    }
    if out.len() as u64 != meta.payload_len {
        return Err(Error::Storage(format!(
            "incremental snapshot payload length mismatch: reassembled {} bytes, \
             preamble declares {}",
            out.len(),
            meta.payload_len
        )));
    }
    if crc32(&out) != meta.payload_crc {
        return Err(Error::Storage(
            "incremental snapshot combined payload checksum mismatch \
             (refusing to load a half-patched database)"
                .into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    // tests corrupt bytes on disk and clean temp files directly
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::vfs::std_vfs;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir()
            .join(format!("maybms-delta-{}-{name}.inc", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Diffs `old` → `new` the way `Database::checkpoint` does and writes
    /// the overlay, returning what `overlay` reconstructs.
    fn round_trip(path: &Path, old: &[u8], new: &[u8], page_size: usize) -> Vec<u8> {
        let old_crcs = chunk_crcs(old, page_size);
        let new_chunks = payload_chunks(new, page_size);
        let changed: Vec<(u32, &[u8])> = new_chunks
            .iter()
            .enumerate()
            .filter(|(i, c)| old_crcs.get(*i) != Some(&page_crc(*i as u32, c)))
            .map(|(i, c)| (i as u32, *c))
            .collect();
        let meta = DeltaMeta {
            generation: 2,
            base_generation: 1,
            last_lsn: 7,
            page_size,
            payload_len: new.len() as u64,
            payload_crc: crc32(new),
            pages: changed.len() as u32,
        };
        write_delta(&*std_vfs(), path, &meta, &changed).unwrap();
        let (back_meta, pages) = read_delta(&*std_vfs(), path).unwrap();
        assert_eq!(back_meta, meta);
        overlay(old, &back_meta, &pages).unwrap()
    }

    #[test]
    fn diff_and_overlay_round_trips() {
        let path = tmp("roundtrip");
        let page_size = 32; // 24-byte chunks
        let old: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        // change one byte mid-payload: exactly one page should differ
        let mut new = old.clone();
        new[100] ^= 0xFF;
        assert_eq!(round_trip(&path, &old, &new, page_size), new);
        let (meta, _) = read_delta(&*std_vfs(), &path).unwrap();
        assert_eq!(meta.pages, 1, "one changed byte is one changed page");

        // growth and shrinkage both reconstruct exactly
        let mut grown = old.clone();
        grown.extend_from_slice(b"tail bytes beyond the old payload end");
        assert_eq!(round_trip(&path, &old, &grown, page_size), grown);
        let shrunk = old[..50].to_vec();
        assert_eq!(round_trip(&path, &old, &shrunk, page_size), shrunk);
        // identical payloads need zero pages
        assert_eq!(round_trip(&path, &old, &old, page_size), old);
        let (meta, pages) = read_delta(&*std_vfs(), &path).unwrap();
        assert_eq!(meta.pages, 0);
        assert!(pages.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_page_map_fails_loudly() {
        let path = tmp("badmap");
        let page_size = 32;
        let old: Vec<u8> = vec![7u8; 100];
        let mut new = old.clone();
        new[0] = 8;
        new[40] = 9; // two changed pages, so the map has two entries
        round_trip(&path, &old, &new, page_size);
        let pristine = std::fs::read(&path).unwrap();

        // flip a byte inside the page map (after the preamble)
        let mut bad = pristine.clone();
        bad[DELTA_PREAMBLE_LEN + 1] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = read_delta(&*std_vfs(), &path).unwrap_err();
        assert!(err.to_string().contains("page map checksum"), "{err}");

        // flip a byte inside a stored page
        let mut bad_page = pristine.clone();
        let page_at = DELTA_PREAMBLE_LEN + 2 * 4 + 4 + PAGE_HEADER_LEN + 1;
        bad_page[page_at] ^= 0x01;
        std::fs::write(&path, &bad_page).unwrap();
        assert!(read_delta(&*std_vfs(), &path).is_err());

        // point a map entry at the wrong page index: the page checksum
        // (seeded by logical index) no longer matches
        let mut bad_idx = pristine.clone();
        bad_idx[DELTA_PREAMBLE_LEN..DELTA_PREAMBLE_LEN + 4]
            .copy_from_slice(&2u32.to_le_bytes());
        // keep the map checksum valid so only the page check can object
        let map_end = DELTA_PREAMBLE_LEN + 2 * 4;
        let crc = crc32(&bad_idx[DELTA_PREAMBLE_LEN..map_end]);
        bad_idx[map_end..map_end + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bad_idx).unwrap();
        assert!(read_delta(&*std_vfs(), &path).is_err());

        // pristine still reads
        std::fs::write(&path, &pristine).unwrap();
        assert!(read_delta(&*std_vfs(), &path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overlay_refuses_inconsistent_combination() {
        let page_size = 32;
        let base = vec![1u8; 100];
        let good = {
            let mut n = base.clone();
            n[0] = 2;
            n
        };
        let meta = DeltaMeta {
            generation: 2,
            base_generation: 1,
            last_lsn: 3,
            page_size,
            payload_len: good.len() as u64,
            payload_crc: crc32(&good),
            pages: 1,
        };
        let chunk = &good[..24];
        // overlaying onto the WRONG base payload trips the combined CRC
        let wrong_base = vec![9u8; 100];
        let err = overlay(&wrong_base, &meta, &[(0, chunk.to_vec())]).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // out-of-range page index is rejected before any assembly
        assert!(overlay(&base, &meta, &[(99, chunk.to_vec())]).is_err());
        // the right base works
        assert_eq!(overlay(&base, &meta, &[(0, chunk.to_vec())]).unwrap(), good);
    }
}
