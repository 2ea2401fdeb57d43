//! Criterion tracking for E4: confidence computation (DESIGN.md §3, E4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_core::algebra::Query;
use maybms_core::exec::eval;
use maybms_relational::Expr;

fn bench_e4(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_probability");
    g.sample_size(10);
    let n = 2_000;
    for rate in [0.002, 0.01] {
        let base = maybms_census::generate(n, 5);
        let os = maybms_census::inject(
            &base,
            maybms_census::NoiseSpec { rate, max_width: 3, weighted: true, seed: 21 },
        )
        .expect("inject");
        let wsd = maybms_census::to_wsd(&os).expect("decompose");
        let q = Query::table(maybms_census::CENSUS_REL)
            .select(Expr::col("age").eq(Expr::lit(30i64)))
            .project(["sex", "marst"]);
        let answer = eval(&q, &wsd).expect("query");
        g.bench_with_input(
            BenchmarkId::new("tuple_confidence", format!("{rate}")),
            &answer,
            |b, answer| {
                b.iter(|| {
                    std::hint::black_box(answer.tuple_confidence("result").expect("confidence"))
                });
            },
        );
    }
    g.finish();

    let rows = maybms_bench::e4_probability(n, &[0.002, 0.01], 5).expect("e4 harness");
    for r in &rows {
        println!("e4: {} answers={} exact={} time={:?}", r.label, r.answers, r.exact, r.time);
    }
}

criterion_group!(benches, bench_e4);
criterion_main!(benches);
