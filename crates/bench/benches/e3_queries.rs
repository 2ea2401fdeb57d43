//! Criterion tracking for E3: each suite query on the decomposition vs the
//! same query on one world (DESIGN.md §3, E3). The paper's headline result
//! is that the two are close.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_core::exec::eval;
use maybms_worldset::eval::eval_in_world;

fn bench_e3(c: &mut Criterion) {
    let n = 3_000;
    let setup = maybms_bench::e3_setup(n, 0.002, 3).expect("e3 setup");
    let suite = maybms_bench::queries::query_suite();

    let mut g = c.benchmark_group("e3_queries");
    g.sample_size(10);
    for q in &suite {
        g.bench_with_input(
            BenchmarkId::new("single_world", q.name),
            &q.query,
            |b, query| {
                b.iter(|| {
                    std::hint::black_box(eval_in_world(query, &setup.single_world).expect("baseline"))
                });
            },
        );
        g.bench_with_input(BenchmarkId::new("wsd", q.name), &q.query, |b, query| {
            b.iter(|| std::hint::black_box(eval(query, &setup.wsd).expect("wsd eval")));
        });
    }
    g.finish();

    let rows = maybms_bench::e3_queries(&setup).expect("e3 harness");
    for r in &rows {
        println!(
            "e3: {} single={:?} wsd={:?} ratio={:.2}x",
            r.query, r.single_world, r.wsd, r.ratio
        );
    }
}

/// Hot-path comparison: the hash-partitioned equi-join against the
/// nested-loop reference (`join_op_nested`) on a census self-join keyed by
/// the unique `serial` column — pair generation dominates, so this
/// isolates the partitioning win.
fn bench_join_paths(c: &mut Criterion) {
    use maybms_core::algebra::{join_op_in, join_op_nested, qualify_op};
    use maybms_core::exec::WorkerPool;
    use maybms_relational::Expr;

    let n = 2_500;
    let setup = maybms_bench::e3_setup(n, 0.002, 3).expect("join path setup");
    let mut base = setup.wsd.clone();
    qualify_op(&mut base, maybms_census::CENSUS_REL, "x", "xq").expect("qualify x");
    qualify_op(&mut base, maybms_census::CENSUS_REL, "y", "yq").expect("qualify y");
    let pred = Expr::col("x.serial").eq(Expr::col("y.serial"));

    let mut g = c.benchmark_group("e3_join_path");
    g.sample_size(10);
    g.bench_function("hash_partitioned", |b| {
        b.iter(|| {
            let mut w = base.clone();
            join_op_in(&mut w, "xq", "yq", &pred, "out", WorkerPool::sequential())
                .expect("hash join");
            std::hint::black_box(w.relation("out").expect("out").tuples.len())
        });
    });
    g.bench_function("nested_loop", |b| {
        b.iter(|| {
            let mut w = base.clone();
            join_op_nested(&mut w, "xq", "yq", &pred, "out").expect("nested join");
            std::hint::black_box(w.relation("out").expect("out").tuples.len())
        });
    });
    g.finish();
}

/// Hot-path comparison: dirty-set incremental normalization against the
/// full-pass reference after a point mutation of one component.
fn bench_normalize_paths(c: &mut Criterion) {
    use maybms_core::normalize::{normalize, normalize_from_scratch};

    let n = 3_000;
    let setup = maybms_bench::e3_setup(n, 0.01, 3).expect("normalize path setup");
    let mut base = setup.wsd.clone();
    normalize(&mut base); // reach a fixpoint first
    // the point mutation each iteration re-applies: kill one row of one
    // component (with at least two rows) through the tracked API
    let victim = base
        .live_components()
        .into_iter()
        .find(|&i| base.component(i).expect("live").num_rows() >= 2)
        .expect("some multi-row component");

    let mut g = c.benchmark_group("e3_normalize_path");
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| {
            let mut w = base.clone();
            let comp = w.component_mut(victim).expect("live");
            comp.retain_rows(|r| r.index() != 0);
            comp.renormalize();
            normalize(&mut w);
            std::hint::black_box(w.num_components())
        });
    });
    g.bench_function("from_scratch", |b| {
        b.iter(|| {
            let mut w = base.clone();
            let comp = w.component_mut(victim).expect("live");
            comp.retain_rows(|r| r.index() != 0);
            comp.renormalize();
            normalize_from_scratch(&mut w);
            std::hint::black_box(w.num_components())
        });
    });

    // Steady state: re-normalizing an already-clean decomposition (what
    // every operator's extract step pays). The dirty-set path drains an
    // empty set; the full pass rescans ~1.5k components to change nothing.
    // No clone inside the timed loop — both calls are idempotent here.
    let mut inc = base.clone();
    normalize(&mut inc);
    let mut scratch = inc.clone();
    g.bench_function("incremental_steady_state", |b| {
        b.iter(|| {
            normalize(&mut inc);
            std::hint::black_box(inc.num_components())
        });
    });
    g.bench_function("from_scratch_steady_state", |b| {
        b.iter(|| {
            normalize_from_scratch(&mut scratch);
            std::hint::black_box(scratch.num_components())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_e3, bench_join_paths, bench_normalize_paths);
criterion_main!(benches);
