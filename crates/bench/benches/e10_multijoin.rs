//! E10: multi-join execution — what cost-based join ordering buys.
//!
//! The workload is a census-flavored star join: a wide `persons` fact
//! table (IPUMS-coded occupation and state columns, a sprinkle of or-set
//! noise on a non-join attribute) joined through `occs`, `states` and
//! `regions` dimension tables, with a highly selective literal predicate
//! on the smallest one. Selectivities are deliberately skewed: in AST
//! order every intermediate stays fact-sized until the final join, while
//! the cost model (fed by `WsdStats`) starts from the selected tiny
//! dimension and keeps every intermediate a fraction of that.
//!
//! Both orders run on the one evaluator (`compile`, which checks the
//! `Query` and returns the tree the sequential `Executor` walks — each
//! join hash-partitions on its equality conjunct — so the gain is join
//! order, not parallelism): `BENCH_e10.json` records `ast` and `cost`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_core::algebra::Query;
use maybms_core::exec::{compile, Executor};
use maybms_core::wsd::Wsd;
use maybms_relational::{ColumnType, Expr, Schema, Value};
use maybms_sql::optimizer::optimize_with_stats;
use maybms_worldset::OrSetCell;

fn fast_mode() -> bool {
    std::env::var("MAYBMS_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// Deterministic integer mixer (splitmix64 finalizer) — the bench needs
/// skew and reproducibility, not statistical quality.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const N_OCCS: u64 = 500; // IPUMS `occ` domain
const N_STATES: u64 = 48;
const N_REGIONS: u64 = 16;

/// The star-schema decomposition: `persons(pid, occ_p, state_p, age_p)`
/// (fact, with `noise_rate` or-set cells on `age_p`), `occs(occ_o,
/// wage_o)`, `states(state_s, region_s)`, `regions(region_r, rname)`.
fn star_wsd(n: usize, noise_rate: f64) -> Wsd {
    let mut w = Wsd::new();
    w.add_relation(
        "persons",
        Schema::new(vec![
            ("pid", ColumnType::Int),
            ("occ_p", ColumnType::Int),
            ("state_p", ColumnType::Int),
            ("age_p", ColumnType::Int),
        ]),
    )
    .expect("persons");
    for i in 0..n as u64 {
        // occupation skew: squaring concentrates mass on few codes
        let occ = (mix(i) % N_OCCS) * (mix(i) % N_OCCS) % N_OCCS;
        let state = mix(i ^ 0xABCD) % N_STATES;
        let age = 18 + (mix(i ^ 0x77) % 73);
        let noisy = (mix(i ^ 0x5151) % 10_000) as f64 / 10_000.0 < noise_rate;
        if noisy {
            // an uncertain age: exercises the operators' open-template path
            w.push_orset(
                "persons",
                vec![
                    OrSetCell::certain(Value::Int(i as i64)),
                    OrSetCell::certain(Value::Int(occ as i64)),
                    OrSetCell::certain(Value::Int(state as i64)),
                    OrSetCell::uniform(vec![
                        Value::Int(age as i64),
                        Value::Int(age as i64 + 1),
                    ])
                    .expect("or-set"),
                ],
            )
            .expect("push persons");
        } else {
            w.push_certain(
                "persons",
                vec![
                    Value::Int(i as i64),
                    Value::Int(occ as i64),
                    Value::Int(state as i64),
                    Value::Int(age as i64),
                ],
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
        w.push_certain(
            "occs",
            vec![Value::Int(o as i64), Value::Int((mix(o) % 75_000) as i64)],
        )
        .expect("push occs");
    }
    w.add_relation(
        "states",
        Schema::new(vec![("state_s", ColumnType::Int), ("region_s", ColumnType::Int)]),
    )
    .expect("states");
    for s in 0..N_STATES {
        w.push_certain(
            "states",
            vec![Value::Int(s as i64), Value::Int((s % N_REGIONS) as i64)],
        )
        .expect("push states");
    }
    w.add_relation(
        "regions",
        Schema::new(vec![("region_r", ColumnType::Int), ("rname", ColumnType::Str)]),
    )
    .expect("regions");
    for r in 0..N_REGIONS {
        w.push_certain(
            "regions",
            vec![Value::Int(r as i64), Value::str(format!("r{r}"))],
        )
        .expect("push regions");
    }
    w
}

/// The 4-way join in its written (AST) order: fact first, the selective
/// dimension last — the order a naive FROM-clause translation produces.
fn star_query() -> Query {
    Query::table("persons")
        .join(Query::table("occs"), Expr::col("occ_p").eq(Expr::col("occ_o")))
        .join(Query::table("states"), Expr::col("state_p").eq(Expr::col("state_s")))
        .join(
            Query::table("regions"),
            Expr::col("region_s")
                .eq(Expr::col("region_r"))
                .and(Expr::col("rname").eq(Expr::lit("r7"))),
        )
        .project(["pid", "wage_o", "rname"])
}

fn bench_e10(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_multijoin");
    g.sample_size(10);

    let n = if fast_mode() { 1_500 } else { 6_000 };
    let wsd = star_wsd(n, 0.02);
    let raw = star_query();
    let mut stats = maybms_core::stats::WsdStats::new();
    let opt = optimize_with_stats(&raw, &wsd, &mut stats).expect("optimize");

    // sanity: both orders agree before anything is timed
    let plans = [("ast", &raw), ("cost", &opt)]
        .map(|(order, q)| (order, compile(q, &wsd).expect("compile")));
    let rows = plans.each_ref().map(|(_, plan)| {
        let out = Executor::sequential().run(plan, &wsd).expect("run");
        out.relation("result").expect("result").tuples.len()
    });
    assert_eq!(rows[0], rows[1], "cost order changed the answer cardinality");

    for (order, plan) in &plans {
        g.bench_with_input(BenchmarkId::from_parameter(order), plan, |b, plan| {
            b.iter(|| std::hint::black_box(Executor::sequential().run(plan, &wsd).expect("run")));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_e10);
criterion_main!(benches);
