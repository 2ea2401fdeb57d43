//! E11: observability overhead — the cost of the metrics layer on the
//! engine's two hottest instrumented paths, emitted to `BENCH_e11.json`.
//!
//! Each path is measured with metrics recording enabled
//! (`maybms_obs::set_enabled(true)`, the default) and with it disabled
//! at runtime (one relaxed atomic load per call site is all that
//! remains). Because the quantity of interest is a ±3% *difference*,
//! the two variants are interleaved call-by-call — obs on, obs off,
//! obs on, … — so slow machine-load drift lands on both sides equally
//! and cancels out of the comparison, instead of being measured in two
//! separate windows as an ordinary A-then-B bench would. The paired
//! means are then reported under the usual criterion ids via
//! `iter_custom`. The acceptance target is an enabled-vs-disabled
//! delta of at most ~3% on both:
//!
//! * `wal_append/obs={on,off}/rows=N` — the E7 durable-insert path: a
//!   fresh database per iteration, one census or-set INSERT per row,
//!   autocommitted. WAL fsync is **off** so the measurement exposes the
//!   append/frame/counter path itself rather than disk latency (with
//!   real fsyncs the metric cost vanishes entirely into the sync).
//! * `multijoin/obs={on,off}/n=N` — the E10 star-join path through the
//!   executor: per-operator row counters and worker-pool accounting
//!   fire here.
//!
//! For the compile-time variant, build with the bench crate's `obs-off`
//! feature (`maybms-obs/off`): every metric operation compiles to
//! nothing, bounding what the runtime flag could possibly leave behind.
//! The ids are the same, so the two JSON files diff directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_census::{census_schema, generate, inject, row_statement, NoiseSpec, CENSUS_REL};
use maybms_core::exec::{compile, Executor};
use maybms_core::wsd::Wsd;
use maybms_relational::{ColumnType, Expr, Schema, Value};
use maybms_sql::ast::Statement;
use maybms_sql::Session;
use maybms_storage::wal_path_for;

fn fast_mode() -> bool {
    std::env::var("MAYBMS_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// Deterministic integer mixer (splitmix64 finalizer), as in E10.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const N_OCCS: u64 = 200;
const N_STATES: u64 = 48;

/// A compact version of E10's star schema: a fact table with a sprinkle
/// of or-set noise plus two dimension tables — enough joins to light up
/// the executor's counters without E10's full setup cost.
fn star_wsd(n: usize) -> Wsd {
    let mut w = Wsd::new();
    w.add_relation(
        "persons",
        Schema::new(vec![
            ("pid", ColumnType::Int),
            ("occ_p", ColumnType::Int),
            ("state_p", ColumnType::Int),
        ]),
    )
    .expect("persons");
    for i in 0..n as u64 {
        let occ = (mix(i) % N_OCCS) * (mix(i) % N_OCCS) % N_OCCS;
        let state = mix(i ^ 0xABCD) % N_STATES;
        if mix(i ^ 0x5151) % 100 < 2 {
            w.push_orset(
                "persons",
                vec![
                    maybms_worldset::OrSetCell::certain(Value::Int(i as i64)),
                    maybms_worldset::OrSetCell::uniform(vec![
                        Value::Int(occ as i64),
                        Value::Int((occ as i64 + 1) % N_OCCS as i64),
                    ])
                    .expect("or-set"),
                    maybms_worldset::OrSetCell::certain(Value::Int(state as i64)),
                ],
            )
            .expect("push persons");
        } else {
            w.push_certain(
                "persons",
                vec![Value::Int(i as i64), Value::Int(occ as i64), Value::Int(state as i64)],
            )
            .expect("push persons");
        }
    }
    w.add_relation(
        "occs",
        Schema::new(vec![("occ_o", ColumnType::Int), ("wage_o", ColumnType::Int)]),
    )
    .expect("occs");
    for o in 0..N_OCCS {
        w.push_certain("occs", vec![Value::Int(o as i64), Value::Int((mix(o) % 75_000) as i64)])
            .expect("push occs");
    }
    w.add_relation(
        "states",
        Schema::new(vec![("state_s", ColumnType::Int), ("region_s", ColumnType::Int)]),
    )
    .expect("states");
    for s in 0..N_STATES {
        w.push_certain("states", vec![Value::Int(s as i64), Value::Int((s % 8) as i64)])
            .expect("push states");
    }
    w
}

fn star_query() -> maybms_core::algebra::Query {
    maybms_core::algebra::Query::table("persons")
        .join(
            maybms_core::algebra::Query::table("occs"),
            Expr::col("occ_p").eq(Expr::col("occ_o")),
        )
        .join(
            maybms_core::algebra::Query::table("states"),
            Expr::col("state_p")
                .eq(Expr::col("state_s"))
                .and(Expr::col("region_s").eq(Expr::lit(3i64))),
        )
        .project(["pid", "wage_o"])
}

/// The census workload as durable INSERT statements, as in E7.
fn census_statements(n: usize, seed: u64) -> (Vec<(String, ColumnType)>, Vec<Statement>) {
    let base = generate(n, seed);
    let os = inject(
        &base,
        NoiseSpec { rate: 0.02, max_width: 3, weighted: true, seed: seed ^ 0xE11 },
    )
    .expect("inject");
    let columns: Vec<(String, ColumnType)> = census_schema()
        .columns()
        .iter()
        .map(|c| (c.name.clone(), c.ty))
        .collect();
    let stmts = os.rows().iter().map(|r| row_statement(r)).collect();
    (columns, stmts)
}

/// Interleaved A/B measurement: alternate the workload under
/// `set_enabled(true)` and `set_enabled(false)` call by call for
/// `rounds` rounds, timing each call into its side's accumulator.
/// Returns the per-call mean in nanoseconds as `(on, off)`. The strict
/// alternation is the point — on a machine whose background load drifts
/// over seconds, the drift hits both sides equally and drops out of the
/// on/off ratio.
fn paired_measure<F: FnMut()>(mut work: F, rounds: usize) -> (f64, f64) {
    // warm both variants before measuring
    for on in [true, false] {
        maybms_obs::set_enabled(on);
        work();
    }
    let mut total = [std::time::Duration::ZERO; 2];
    for _ in 0..rounds {
        for (slot, on) in [(0usize, true), (1usize, false)] {
            maybms_obs::set_enabled(on);
            let t = std::time::Instant::now();
            work();
            total[slot] += t.elapsed();
        }
    }
    maybms_obs::set_enabled(true); // leave the process in the default state
    (total[0].as_nanos() as f64 / rounds as f64, total[1].as_nanos() as f64 / rounds as f64)
}

/// Report a pre-measured per-call mean under a criterion id, so the
/// paired numbers land in `BENCH_e11.json` next to every other
/// experiment's.
fn report(g: &mut criterion::BenchmarkGroup<'_>, id: BenchmarkId, mean_ns: f64) {
    g.bench_with_input(id, &mean_ns, |b, mean_ns| {
        let ns = *mean_ns;
        b.iter_custom(|iters| std::time::Duration::from_nanos((ns * iters as f64) as u64));
    });
}

fn bench_e11(c: &mut Criterion) {
    let fast = fast_mode();
    let mut g = c.benchmark_group("e11_observability");
    g.sample_size(10);

    // -- WAL-append path (E7's durable-insert loop, sync off) ----------
    let rows = if fast { 60 } else { 200 };
    let (columns, stmts) = census_statements(rows, 11);
    let dir = std::env::temp_dir();
    let db = dir.join(format!("maybms-e11-{}.maybms", std::process::id()));
    let cleanup = |p: &std::path::Path| {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path_for(p));
    };
    let (on_ns, off_ns) = paired_measure(
        || {
            cleanup(&db);
            let mut s = Session::open(&db).expect("create database");
            s.set_wal_sync(false);
            s.run(&Statement::CreateTable { name: CENSUS_REL.into(), columns: columns.clone() })
                .expect("create table");
            for stmt in &stmts {
                s.run(stmt).expect("insert");
            }
            std::hint::black_box(s.wal_len());
        },
        if fast { 20 } else { 600 },
    );
    cleanup(&db);
    report(&mut g, BenchmarkId::new("wal_append", format!("obs=on/rows={rows}")), on_ns);
    report(&mut g, BenchmarkId::new("wal_append", format!("obs=off/rows={rows}")), off_ns);

    // -- multi-join path (E10's star join) -----------------------------
    let n = if fast { 1_000 } else { 4_000 };
    let wsd = star_wsd(n);
    let plan = compile(&star_query(), &wsd).expect("compile");
    let (on_ns, off_ns) = paired_measure(
        || {
            std::hint::black_box(Executor::sequential().run(&plan, &wsd).expect("run"));
        },
        if fast { 20 } else { 400 },
    );
    report(&mut g, BenchmarkId::new("multijoin", format!("obs=on/n={n}")), on_ns);
    report(&mut g, BenchmarkId::new("multijoin", format!("obs=off/n={n}")), off_ns);

    g.finish();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
