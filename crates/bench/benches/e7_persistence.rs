//! E7: persistence — durability throughput on the census workload.
//!
//! Five paths, emitted to `BENCH_e7.json` (see the criterion shim):
//!
//! * `snapshot_save/bytes=N` — encode the census decomposition and write
//!   it as a paged, checksummed snapshot (atomic write-new + rename).
//!   MB/s = `N / mean_ns * 1e3`.
//! * `snapshot_load/bytes=N` — read + verify every page, decode and
//!   validate the decomposition. Same MB/s arithmetic.
//! * `wal_replay/stmts=N` — full crash recovery of a database that was
//!   never checkpointed: open the WAL, decode all N statement records and
//!   re-execute them. Statements/s = `N / mean_ns * 1e9`.
//! * `insert_fsync/mode={per_statement,group_commit}/rows=N` — the
//!   group-commit comparison: N durable INSERTs as N autocommitted
//!   statements (one fsync each) vs one `BEGIN`…`COMMIT` transaction (one
//!   fsync total). Inserts/s = `N / mean_ns * 1e9`; the ratio is the
//!   group-commit speedup.
//! * `census_load/mode={parse_per_row,prepared_txn}/rows=N` — the bulk
//!   loader before/after: SQL text re-parsed per row under autocommit vs
//!   `maybms_census::load_into_session` (one prepared INSERT bound per
//!   row, one transaction per 512-row batch).
//!
//! The statement set is the census or-set workload (one `CREATE TABLE`
//! plus one weighted-or-set `INSERT` per row), the same data the E1–E4
//! experiments run on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_census::{
    census_schema, generate, inject, load_into_session, row_statement, NoiseSpec, CENSUS_REL,
};
use maybms_core::codec::{decode_wsd, encode_wsd};
use maybms_relational::Value;
use maybms_sql::ast::{InsertValue, Statement};
use maybms_sql::Session;
use maybms_storage::{read_snapshot, std_vfs, wal_path_for, write_snapshot, DEFAULT_PAGE_SIZE};
use maybms_worldset::OrSetRelation;

fn fast_mode() -> bool {
    std::env::var("MAYBMS_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// The census workload as a statement log: CREATE TABLE + one INSERT per
/// or-set row (weighted alternatives preserved exactly).
fn census_statements(n: usize, seed: u64) -> Vec<Statement> {
    let base = generate(n, seed);
    let os = inject(
        &base,
        NoiseSpec { rate: 0.02, max_width: 3, weighted: true, seed: seed ^ 0xE7 },
    )
    .expect("inject");
    let columns = census_schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    let mut stmts = vec![Statement::CreateTable { name: CENSUS_REL.into(), columns }];
    for row in os.rows() {
        let vals: Vec<InsertValue> = row
            .iter()
            .map(|cell| match cell.certain_value() {
                Some(v) => InsertValue::Certain(v.clone()),
                None => InsertValue::Weighted(cell.alternatives().to_vec()),
            })
            .collect();
        stmts.push(Statement::Insert { table: CENSUS_REL.into(), rows: vec![vals] });
    }
    stmts
}

/// A value as a SQL literal (the re-parse "before" path of the loader
/// comparison renders each row back to text).
fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// One census or-set row as the SQL text a naive client would send.
fn row_sql(row: &[maybms_worldset::OrSetCell]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|cell| match cell.certain_value() {
            Some(v) => sql_literal(v),
            None => {
                let alts: Vec<String> = cell
                    .alternatives()
                    .iter()
                    .map(|(v, p)| format!("{}: {p}", sql_literal(v)))
                    .collect();
                format!("{{{}}}", alts.join(", "))
            }
        })
        .collect();
    format!("INSERT INTO {CENSUS_REL} VALUES ({})", cells.join(", "))
}

fn census_orset(n: usize, seed: u64) -> OrSetRelation {
    let base = generate(n, seed);
    inject(
        &base,
        NoiseSpec { rate: 0.02, max_width: 3, weighted: true, seed: seed ^ 0xE7 },
    )
    .expect("inject")
}

/// The group-commit write path vs per-statement fsync, on a durable
/// session (real fsyncs — this is the ROADMAP's "group-commit / batched
/// fsync" item measured).
fn bench_insert_fsync(c: &mut Criterion, fast: bool) {
    let rows = if fast { 100 } else { 200 };
    let os = census_orset(rows, 11);
    let stmts: Vec<Statement> = os.rows().iter().map(|r| row_statement(r)).collect();
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let mut g = c.benchmark_group("e7_persistence");
    g.sample_size(10);
    for (mode, grouped) in [("per_statement", false), ("group_commit", true)] {
        let db = dir.join(format!("maybms-e7-fsync-{pid}-{mode}.maybms"));
        let cleanup = |p: &std::path::Path| {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(wal_path_for(p));
        };
        cleanup(&db);
        let columns: Vec<_> = census_schema()
            .columns()
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        g.bench_with_input(
            BenchmarkId::new("insert_fsync", format!("mode={mode}/rows={rows}")),
            &stmts,
            |b, stmts| {
                b.iter(|| {
                    // fresh database per iteration: both modes commit the
                    // same N rows from the same empty state, so the delta
                    // is purely N fsyncs vs one
                    cleanup(&db);
                    let mut s = Session::open(&db).expect("create database");
                    s.run(&Statement::CreateTable {
                        name: CENSUS_REL.into(),
                        columns: columns.clone(),
                    })
                    .expect("create table");
                    if grouped {
                        let mut txn = s.transaction().expect("begin");
                        for stmt in stmts {
                            txn.run(stmt).expect("insert");
                        }
                        txn.commit().expect("commit");
                    } else {
                        for stmt in stmts {
                            s.run(stmt).expect("insert");
                        }
                    }
                    std::hint::black_box(s.wal_len())
                });
            },
        );
        cleanup(&db);
    }
    g.finish();
}

/// The bulk-loader before/after: re-parse SQL text per row (the old
/// loaders) vs prepared statements + one transaction per batch
/// (`maybms_census::load_into_session`). In-memory sessions, so the
/// delta is parse/bind overhead, not fsync latency.
fn bench_census_load(c: &mut Criterion, fast: bool) {
    let rows = if fast { 300 } else { 1_000 };
    let os = census_orset(rows, 12);
    let sql_rows: Vec<String> = os.rows().iter().map(|r| row_sql(r)).collect();
    let create = {
        let cols: Vec<String> = census_schema()
            .columns()
            .iter()
            .map(|c| {
                let ty = match c.ty {
                    maybms_relational::ColumnType::Int => "INT",
                    maybms_relational::ColumnType::Str => "TEXT",
                    maybms_relational::ColumnType::Float => "FLOAT",
                    maybms_relational::ColumnType::Bool => "BOOL",
                };
                format!("{} {ty}", c.name)
            })
            .collect();
        format!("CREATE TABLE {CENSUS_REL} ({})", cols.join(", "))
    };

    let mut g = c.benchmark_group("e7_persistence");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new("census_load", format!("mode=parse_per_row/rows={rows}")),
        &sql_rows,
        |b, sql_rows| {
            b.iter(|| {
                let mut s = Session::new();
                s.execute(&create).expect("create table");
                for sql in sql_rows {
                    s.execute(sql).expect("insert row");
                }
                std::hint::black_box(s.wsd().stats())
            });
        },
    );
    g.bench_with_input(
        BenchmarkId::new("census_load", format!("mode=prepared_txn/rows={rows}")),
        &os,
        |b, os| {
            b.iter(|| {
                let mut s = Session::new();
                // one transaction per 512-row batch: BEGIN snapshots the
                // decomposition for rollback, so tiny batches would pay
                // that clone repeatedly
                load_into_session(&mut s, os, 512).expect("load");
                std::hint::black_box(s.wsd().stats())
            });
        },
    );
    g.finish();
}

fn bench_e7(c: &mut Criterion) {
    let n = if fast_mode() { 300 } else { 2_000 };
    let stmts = census_statements(n, 7);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let wal_db = dir.join(format!("maybms-e7-wal-{pid}.maybms"));
    let snap = dir.join(format!("maybms-e7-snap-{pid}.maybms"));
    let cleanup = |p: &std::path::Path| {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path_for(p));
    };
    cleanup(&wal_db);
    cleanup(&snap);

    // Build a database whose entire state lives in the WAL (never
    // checkpointed) — the worst-case recovery input.
    {
        let mut s = Session::open(&wal_db).expect("create database");
        s.set_wal_sync(false); // measuring replay, not fsync latency
        for stmt in &stmts {
            s.run(stmt).expect("apply census statement");
        }
    }
    // Recover it once to obtain the decomposition for the snapshot paths.
    let wsd = Session::open(&wal_db).expect("recover").wsd().clone();
    let payload = encode_wsd(&wsd);

    let mut g = c.benchmark_group("e7_persistence");
    g.sample_size(10);

    g.bench_with_input(
        BenchmarkId::new("snapshot_save", format!("bytes={}", payload.len())),
        &wsd,
        |b, wsd| {
            b.iter(|| {
                let p = encode_wsd(wsd);
                write_snapshot(&*std_vfs(), &snap, 1, 0, &p, DEFAULT_PAGE_SIZE).expect("save snapshot");
                std::hint::black_box(p.len())
            });
        },
    );

    write_snapshot(&*std_vfs(), &snap, 1, 0, &payload, DEFAULT_PAGE_SIZE).expect("seed snapshot");
    g.bench_with_input(
        BenchmarkId::new("snapshot_load", format!("bytes={}", payload.len())),
        &snap,
        |b, snap| {
            b.iter(|| {
                let (_meta, p) = read_snapshot(&*std_vfs(), snap).expect("read snapshot");
                std::hint::black_box(decode_wsd(&p).expect("decode snapshot").stats())
            });
        },
    );

    g.bench_with_input(
        BenchmarkId::new("wal_replay", format!("stmts={}", stmts.len())),
        &wal_db,
        |b, db| {
            b.iter(|| {
                std::hint::black_box(Session::open(db).expect("recover").wsd().stats())
            });
        },
    );
    g.finish();

    cleanup(&wal_db);
    cleanup(&snap);

    bench_insert_fsync(c, fast_mode());
    bench_census_load(c, fast_mode());
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
