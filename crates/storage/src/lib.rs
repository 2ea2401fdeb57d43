//! # maybms-storage
//!
//! The durable storage engine of MayBMS-rs: before this crate, a
//! world-set decomposition lived only in RAM — every session started from
//! CSV loads and died with the process. This crate makes a database
//! survive its process with three small, dependency-free pieces (all
//! binary formats are hand-rolled, little-endian, and versioned behind
//! magic headers):
//!
//! * [`pager`] — fixed-size **checksummed pages** over a file. Every page
//!   carries a CRC-32 of its index + payload, so bit rot, torn writes and
//!   transplanted pages are detected on read.
//! * [`snapshot`] — the **snapshot file** (`*.maybms`): one opaque
//!   payload (the encoded WSD, see `maybms_core::codec`) chunked across
//!   pages behind a preamble with magic, format version, generation and a
//!   whole-payload CRC. Snapshots are replaced atomically (write-new +
//!   rename).
//! * [`wal`] — the **write-ahead log** (`*.maybms.wal`): CRC-framed
//!   append-only records of committed logical mutations. A torn tail is
//!   truncated on open; replay sees exactly the committed prefix.
//!
//! * [`delta`] — **incremental snapshots**: a page-diff overlay file
//!   (`*.maybms.inc`) holding only the pages that changed since the base
//!   snapshot, plus a checksummed page map. Loading overlays and verifies
//!   the combined payload, so a damaged overlay fails loudly instead of
//!   assembling a wrong database.
//! * [`frame`] — the one `len | crc32 | payload` **frame** definition
//!   WAL records, shipped messages and the SQL session protocol share:
//!   writer, bounded stream reader, slice scanner.
//! * [`ship`] — the **WAL shipping protocol**: framed
//!   `Hello`/`Snapshot`/`Record`/`Heartbeat` messages over any byte
//!   stream, used by the replication layer (`maybms_sql::replication`) to
//!   stream committed records from a primary to read replicas.
//!
//! * [`vfs`] — the **virtual filesystem boundary**: every file operation
//!   above goes through a [`vfs::Vfs`], so tests swap the production
//!   [`vfs::StdVfs`] for the deterministic [`vfs::FaultVfs`] and inject
//!   scripted fsync failures, torn writes, `ENOSPC`, rename failures and
//!   read bit-flips. The failure semantics built on it (fsync poisoning,
//!   read-only degradation) are described in the "Failure model" section
//!   of `docs/ARCHITECTURE.md`.
//!
//! [`db::Database`] ties them together with a generation counter and
//! monotone WAL **LSNs** so that recovery never replays a record twice
//! and never loses a committed one, whichever instant the process died
//! at — and so a replica can name its position with a single integer.
//! The payloads themselves are opaque here: `maybms-core` encodes
//! decompositions, `maybms-sql` encodes statements (both on top of
//! [`bytes`]), and the session layer wires `Session::open` /
//! `CHECKPOINT` to this crate.
//!
//! The layer-by-layer picture (and the invariants each layer's tests
//! enforce) is in `docs/ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod bytes;
pub mod crc;
pub mod db;
pub mod delta;
pub mod frame;
pub mod pager;
pub mod ship;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use bytes::{Reader, Writer};
pub use db::{
    read_snapshot_state, wal_path_for, CheckpointKind, Database, DurableHorizon, Recovered,
};
pub use delta::{delta_path_for, DeltaMeta};
pub use pager::{Pager, DEFAULT_PAGE_SIZE, PAGE_HEADER_LEN};
pub use ship::{recv_msg, send_msg, Msg};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotMeta};
pub use vfs::{std_vfs, Fault, FaultOp, FaultSpec, FaultVfs, OpenMode, StdVfs, Vfs, VfsFile};
pub use wal::{Wal, WalCursor, WalHead, WAL_HEADER_LEN};
