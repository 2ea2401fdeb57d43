//! E9: the cost of the fault-injection VFS boundary, and recovery speed
//! under a fault storm.
//!
//! Three paths, emitted to `BENCH_e9.json` (see the criterion shim):
//!
//! * `wal_append/path={direct_file,vfs_std,vfs_fault}/records=N` — the
//!   e7 WAL append hot path (fsync off, so the file-op dispatch cost is
//!   not drowned in sync latency) three ways: a hand-rolled
//!   `std::fs::File` loop writing the identical frames (the
//!   no-abstraction baseline), the real [`Wal`] through the production
//!   [`StdVfs`], and the real [`Wal`] through an in-memory
//!   [`FaultVfs`] with an empty schedule. `vfs_std / direct_file` is the
//!   VFS-indirection overhead — expected ≈ 1 (one dynamic dispatch per
//!   file op against a buffered write). Records/s = `N / mean_ns * 1e9`.
//! * `recovery/fault_storm/stmts=N` — full session recovery (open,
//!   snapshot decode, WAL replay with torn-tail truncation) of a
//!   database image produced by a faulty run: a checkpoint mid-history,
//!   a lying fsync, and a torn final append, then a crash. Measures that
//!   hardened recovery stays cheap when it actually has damage to clean
//!   up.

use std::io::Write as _;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_sql::Session;
use maybms_storage::crc::crc32;
use maybms_storage::{std_vfs, FaultOp, FaultSpec, FaultVfs, Vfs, Wal, WAL_HEADER_LEN};

fn fast_mode() -> bool {
    std::env::var("MAYBMS_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// A record payload shaped like a typical encoded INSERT.
fn payload() -> Vec<u8> {
    (0..96u32).map(|i| (i * 31 % 251) as u8).collect()
}

/// The no-abstraction baseline: identical frames (len | crc | payload)
/// appended to a `std::fs::File` with a hand-rolled loop — what the WAL
/// write path would cost with zero indirection. Creation follows the
/// same protocol as [`Wal::create`] (header to a temp sibling, fsync,
/// rename, reopen), so the measured difference against `vfs_std` is the
/// per-operation dispatch cost alone.
fn direct_file_append(path: &std::path::Path, records: usize, payload: &[u8]) -> u64 {
    let _ = std::fs::remove_file(path);
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .expect("create baseline log");
        file.write_all(&vec![0u8; WAL_HEADER_LEN as usize]).expect("header");
        file.sync_all().expect("sync header");
    }
    std::fs::rename(&tmp, path).expect("publish baseline log");
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("reopen baseline log");
    use std::io::Seek as _;
    let mut frame = Vec::with_capacity(8 + payload.len());
    let mut end = WAL_HEADER_LEN;
    for _ in 0..records {
        frame.clear();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // one seek per append, exactly like `Wal::append`
        file.seek(std::io::SeekFrom::Start(end)).expect("seek end");
        file.write_all(&frame).expect("append");
        end += frame.len() as u64;
    }
    WAL_HEADER_LEN + (records * (8 + payload.len())) as u64
}

fn bench_wal_append(c: &mut Criterion, fast: bool) {
    let records = if fast { 200 } else { 2_000 };
    let rec = payload();
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let mut g = c.benchmark_group("e9_faults");
    g.sample_size(10);

    let direct = dir.join(format!("maybms-e9-direct-{pid}.wal"));
    g.bench_with_input(
        BenchmarkId::new("wal_append", format!("path=direct_file/records={records}")),
        &rec,
        |b, rec| {
            b.iter(|| std::hint::black_box(direct_file_append(&direct, records, rec)));
        },
    );
    let _ = std::fs::remove_file(&direct);

    let std_log = dir.join(format!("maybms-e9-std-{pid}.wal"));
    g.bench_with_input(
        BenchmarkId::new("wal_append", format!("path=vfs_std/records={records}")),
        &rec,
        |b, rec| {
            b.iter(|| {
                let _ = std::fs::remove_file(&std_log);
                let mut wal = Wal::create(std_vfs(), &std_log, 0, 0).expect("create WAL");
                wal.set_sync(false);
                for _ in 0..records {
                    wal.append(rec).expect("append");
                }
                std::hint::black_box(wal.len())
            });
        },
    );
    let _ = std::fs::remove_file(&std_log);

    let fault_log = std::path::PathBuf::from("/e9/bench.wal");
    g.bench_with_input(
        BenchmarkId::new("wal_append", format!("path=vfs_fault/records={records}")),
        &rec,
        |b, rec| {
            b.iter(|| {
                // a fresh in-memory FaultVfs per iteration: no real I/O at
                // all, so this bounds the FaultVfs bookkeeping cost
                let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new());
                let mut wal = Wal::create(vfs, &fault_log, 0, 0).expect("create WAL");
                wal.set_sync(false);
                for _ in 0..records {
                    wal.append(rec).expect("append");
                }
                std::hint::black_box(wal.len())
            });
        },
    );
    g.finish();
}

fn bench_recovery_storm(c: &mut Criterion, fast: bool) {
    let stmts = if fast { 150 } else { 600 };
    let db = std::path::Path::new("/e9/storm.maybms");

    // Build the crashed image once: a history with a checkpoint in the
    // middle, then a lying fsync swallowing one acked statement, then a
    // torn (short-written) final append, then a crash.
    let vfs = FaultVfs::new();
    {
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let mut s = Session::open_with_vfs(db, arc).expect("create database");
        s.execute("CREATE TABLE t (x INT, tag TEXT)").expect("create");
        for i in 0..stmts {
            if i == stmts / 2 {
                s.execute("CHECKPOINT").expect("checkpoint");
            }
            if i == stmts - 2 {
                // the penultimate statement's fsync lies, the last append tears
                vfs.push_fault(FaultSpec::lie_sync(vfs.op_count(FaultOp::Sync)));
                vfs.push_fault(FaultSpec::short_write(vfs.op_count(FaultOp::Write) + 1, 11));
            }
            let sql = format!("INSERT INTO t VALUES ({{{}: 0.5, {}: 0.5}}, 'r{i}')", 2 * i, 2 * i + 1);
            let _ = s.execute(&sql); // the torn final append is allowed to fail
        }
    }
    vfs.crash();
    vfs.clear_schedule();
    let image = vfs.durable_files();
    assert!(!image.is_empty(), "the storm must leave a durable image");

    let mut g = c.benchmark_group("e9_faults");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new("recovery", format!("fault_storm/stmts={stmts}")),
        &image,
        |b, image| {
            b.iter(|| {
                // fresh VFS per iteration: recovery may truncate the torn
                // tail, and each run must see the damaged image again
                let vfs = FaultVfs::new();
                for (p, bytes) in image {
                    vfs.install(p, bytes.clone());
                }
                let s = Session::open_with_vfs(db, Arc::new(vfs) as Arc<dyn Vfs>)
                    .expect("recovery must succeed");
                std::hint::black_box(s.wsd().stats())
            });
        },
    );
    g.finish();
}

fn bench_e9(c: &mut Criterion) {
    let fast = fast_mode();
    bench_wal_append(c, fast);
    bench_recovery_storm(c, fast);
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
