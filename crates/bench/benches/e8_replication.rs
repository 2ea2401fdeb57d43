//! E8: replication — WAL-ship throughput and incremental-vs-full
//! checkpoint time on the census workload.
//!
//! Three paths, emitted to `BENCH_e8.json` (see the criterion shim):
//!
//! * `ship_catchup/stmts=N/bytes=B` — a fresh replica connects to a
//!   primary whose whole state lives in the WAL (N committed census
//!   statements, B bytes of log) over an in-process socket pair, and
//!   applies everything. Statements/s = `N / mean_ns * 1e9`; bytes/s =
//!   `B / mean_ns * 1e9`. This measures the full pipeline: cursor read,
//!   CRC framing, stream transport, decode, deterministic replay.
//! * `checkpoint/mode=full/bytes=B` — rewrite the whole census snapshot
//!   (every page) as a fresh base.
//! * `checkpoint/mode=incremental/bytes=B` — the same state with one
//!   late page changed: only the changed page goes to the overlay file.
//!   The ratio full/incremental is the page-diff win; both paths pay the
//!   same two WAL-swap fsyncs, so the gap is pure page I/O.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_census::{census_schema, generate, inject, row_statement, NoiseSpec, CENSUS_REL};
use maybms_core::codec::encode_wsd;
use maybms_sql::replication::{Primary, Replica};
use maybms_sql::ast::Statement;
use maybms_sql::Session;
use maybms_storage::{delta_path_for, wal_path_for, CheckpointKind, Database};

fn fast_mode() -> bool {
    std::env::var("MAYBMS_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

fn cleanup(p: &std::path::Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_path_for(p));
    let _ = std::fs::remove_file(delta_path_for(p));
}

/// The census workload as statements: CREATE TABLE + one or-set INSERT
/// per row (what the primary's WAL will hold).
fn census_statements(n: usize, seed: u64) -> Vec<Statement> {
    let base = generate(n, seed);
    let os = inject(
        &base,
        NoiseSpec { rate: 0.02, max_width: 3, weighted: true, seed: seed ^ 0xE8 },
    )
    .expect("inject");
    let columns = census_schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    let mut stmts = vec![Statement::CreateTable { name: CENSUS_REL.into(), columns }];
    for row in os.rows() {
        stmts.push(row_statement(row));
    }
    stmts
}

fn bench_ship(c: &mut Criterion, fast: bool) {
    let n = if fast { 300 } else { 2_000 };
    let stmts = census_statements(n, 8);
    let db = std::env::temp_dir()
        .join(format!("maybms-e8-ship-{}.maybms", std::process::id()));
    cleanup(&db);

    // Build the primary: every statement committed to the WAL, never
    // checkpointed — the catch-up ships the whole history.
    let session = {
        let mut s = Session::open(&db).expect("create primary");
        s.set_wal_sync(false); // measuring shipping, not fsync latency
        for stmt in &stmts {
            s.run(stmt).expect("apply census statement");
        }
        s
    };
    let final_lsn = session.last_lsn().expect("durable");
    let wal_bytes = std::fs::metadata(wal_path_for(&db)).expect("wal").len();
    let primary = Primary::new(&session).expect("durable");

    let mut g = c.benchmark_group("e8_replication");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new(
            "ship_catchup",
            format!("stmts={}/bytes={wal_bytes}", stmts.len()),
        ),
        &primary,
        |b, primary| {
            b.iter(|| {
                let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("pair");
                let server = primary.spawn_serve(theirs);
                let mut replica = Replica::new();
                let mut conn = replica.connect(ours).expect("handshake");
                replica.sync_to(&mut conn, final_lsn).expect("catch up");
                assert_eq!(replica.applied_lsn(), final_lsn);
                drop(conn);
                let _ = server.join();
                std::hint::black_box(replica.applied_lsn())
            });
        },
    );
    g.finish();
    primary.stop();
    drop(session);
    cleanup(&db);

    bench_checkpoint(c, n);
}

/// Full-rewrite vs page-diff checkpoint of the same census state with a
/// one-page mutation (the incremental sweet spot the session hits after a
/// small transaction).
fn bench_checkpoint(c: &mut Criterion, n: usize) {
    let payload = {
        let mut s = Session::new();
        for stmt in census_statements(n, 9) {
            s.run(&stmt).expect("apply");
        }
        encode_wsd(s.wsd())
    };
    let db_path = std::env::temp_dir()
        .join(format!("maybms-e8-ckpt-{}.maybms", std::process::id()));
    cleanup(&db_path);
    let mut db = Database::open(&db_path).expect("open").db;
    db.set_sync(false);
    db.checkpoint_full(&payload).expect("seed base");

    // two variants, each one byte off near the end (so exactly one page
    // differs from the base) — alternating defeats the no-op check
    let variants: Vec<Vec<u8>> = (1u8..=2)
        .map(|i| {
            let mut v = payload.clone();
            let at = v.len() - 16;
            v[at] ^= i;
            v
        })
        .collect();

    let mut g = c.benchmark_group("e8_replication");
    g.sample_size(10);
    let mut flip = 0usize;
    g.bench_with_input(
        BenchmarkId::new("checkpoint", format!("mode=incremental/bytes={}", payload.len())),
        &variants,
        |b, variants| {
            b.iter(|| {
                flip = 1 - flip;
                let kind = db.checkpoint(&variants[flip]).expect("incremental checkpoint");
                assert!(
                    matches!(kind, CheckpointKind::Incremental { changed_pages: 1, .. }),
                    "expected a one-page incremental checkpoint, got {kind:?}"
                );
                std::hint::black_box(kind)
            });
        },
    );
    let mut flip = 0usize;
    g.bench_with_input(
        BenchmarkId::new("checkpoint", format!("mode=full/bytes={}", payload.len())),
        &variants,
        |b, variants| {
            b.iter(|| {
                flip = 1 - flip;
                let kind = db.checkpoint_full(&variants[flip]).expect("full checkpoint");
                std::hint::black_box(kind)
            });
        },
    );
    g.finish();
    cleanup(&db_path);
}

fn bench_e8(c: &mut Criterion) {
    bench_ship(c, fast_mode());
}

criterion_group!(benches, bench_e8);
criterion_main!(benches);
