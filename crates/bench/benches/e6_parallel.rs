//! E6: worker-pool scaling of the two fan-outs the engine has.
//!
//! Sweeps the worker count over (a) the confidence path — per-cluster
//! joint-choice enumeration on a census decomposition whose components
//! were merged into medium-sized correlation clusters, the workload the
//! pool exists for — and (b) the hash-join probe on E3's census
//! self-equi-join at 1 and 2 workers. One sequential row records
//! from-scratch normalize, which has no fan-out. Emits `BENCH_e6.json`
//! with one entry per `path/workers` pair; the recorded `cpus` field
//! gives the machine's available parallelism, without which the sweep
//! cannot be interpreted (a 1-CPU container cannot show wall-clock
//! speedup at any worker count).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maybms_core::algebra::{join_op_in, qualify_op};
use maybms_core::exec::WorkerPool;
use maybms_core::normalize::normalize_from_scratch;
use maybms_core::prob::{tuple_confidence_opts_in, ProbOptions};
use maybms_core::wsd::Wsd;
use maybms_relational::Expr;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn fast_mode() -> bool {
    std::env::var("MAYBMS_BENCH_FAST").map(|v| v != "0").unwrap_or(false)
}

/// A census decomposition with its independent or-set components merged
/// into correlation clusters of roughly `target_joint` joint choices
/// each — the shape that makes confidence computation expensive and the
/// per-cluster fan-out worthwhile.
fn correlated_census(n: usize, rate: f64, target_joint: u64, seed: u64) -> Wsd {
    let base = maybms_census::generate(n, seed);
    let os = maybms_census::inject(
        &base,
        maybms_census::NoiseSpec { rate, max_width: 3, weighted: true, seed: seed ^ 0xE6 },
    )
    .expect("inject");
    let mut wsd = maybms_census::to_wsd(&os).expect("decompose");
    // Pack whole tuples' components into each merge group (flushing only
    // at tuple boundaries): no tuple straddles two groups, so confidence
    // clustering sees exactly one cluster per group instead of
    // chain-unioning the groups into one giant cluster.
    let per_tuple: Vec<Vec<usize>> = wsd
        .relation(maybms_census::CENSUS_REL)
        .expect("census relation")
        .tuples
        .iter()
        .map(|t| {
            let mut comps: Vec<usize> = t
                .cells
                .iter()
                .enumerate()
                .filter(|(_, c)| matches!(c, maybms_core::TemplateCell::Open))
                .map(|(i, _)| {
                    wsd.field_loc(maybms_core::Field::attr(t.tid, i as u32))
                        .expect("mapped")
                        .0
                })
                .collect();
            comps.sort_unstable();
            comps.dedup();
            comps
        })
        .collect();
    let mut chunk: Vec<usize> = Vec::new();
    let mut joint: u64 = 1;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for comps in per_tuple {
        let mut rows: u64 = 1;
        for &c in &comps {
            rows = rows.saturating_mul(wsd.component(c).expect("live").num_rows() as u64);
        }
        if rows <= 1 {
            continue; // fully certain tuple
        }
        if joint.saturating_mul(rows) > target_joint && chunk.len() >= 2 {
            groups.push(std::mem::take(&mut chunk));
            joint = 1;
        }
        joint = joint.saturating_mul(rows);
        chunk.extend(comps);
    }
    if chunk.len() >= 2 {
        groups.push(chunk);
    }
    for g in &groups {
        wsd.merge_components(g).expect("merge");
    }
    wsd.compact();
    if std::env::var("MAYBMS_E6_DEBUG").is_ok() {
        let s = wsd.stats();
        eprintln!(
            "e6 debug: {} groups, stats {:?}",
            groups.len(),
            s
        );
    }
    wsd
}

fn bench_e6(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_parallel");
    g.sample_size(10);

    let (n, rate, target_joint) = if fast_mode() {
        (400, 0.02, 1u64 << 11)
    } else {
        (1_000, 0.02, 1u64 << 13)
    };

    // (a) confidence: exact per-cluster enumeration over merged clusters
    let wsd = correlated_census(n, rate, target_joint, 5);
    let opts = ProbOptions { exact_cap: 1 << 20, ..Default::default() };
    for workers in WORKER_SWEEP {
        let pool = WorkerPool::new(workers);
        g.bench_with_input(
            BenchmarkId::new("confidence", workers),
            &wsd,
            |b, wsd| {
                b.iter(|| {
                    std::hint::black_box(
                        tuple_confidence_opts_in(wsd, maybms_census::CENSUS_REL, opts, &pool)
                            .expect("confidence"),
                    )
                });
            },
        );
    }

    // (b) join probe: E3's census self-join on the unique `serial`
    // column. Only `join_op_in` is timed; the working copy it writes the
    // output relation into is cloned outside the clock.
    let setup = maybms_bench::e3_setup(if fast_mode() { 600 } else { 2_500 }, 0.002, 3)
        .expect("join probe setup");
    let mut base = setup.wsd;
    qualify_op(&mut base, maybms_census::CENSUS_REL, "x", "xq").expect("qualify x");
    qualify_op(&mut base, maybms_census::CENSUS_REL, "y", "yq").expect("qualify y");
    let pred = Expr::col("x.serial").eq(Expr::col("y.serial"));
    // Whichever worker count ran first measured up to 1.6× slower than
    // the same count run second (allocator growth on the first clones),
    // so a few joins run off the clock before the sweep.
    for _ in 0..5 {
        let mut w = base.clone();
        join_op_in(&mut w, "xq", "yq", &pred, "out", WorkerPool::sequential()).expect("warm up");
    }
    for workers in [1, 2] {
        let pool = WorkerPool::new(workers);
        g.bench_with_input(BenchmarkId::new("join_probe", workers), &base, |b, base| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let mut w = base.clone();
                    let t = Instant::now();
                    join_op_in(&mut w, "xq", "yq", &pred, "out", &pool).expect("hash join");
                    total += t.elapsed();
                    std::hint::black_box(w.relation("out").expect("out").tuples.len());
                }
                total
            });
        });
    }

    // (c) normalize: the full pass over the noisy census decomposition,
    // sequential (it has no fan-out); the clone is inside the clock
    let noisy = {
        let base = maybms_census::generate(n * 4, 7);
        let os = maybms_census::inject(
            &base,
            maybms_census::NoiseSpec { rate: 0.05, max_width: 4, weighted: false, seed: 11 },
        )
        .expect("inject");
        maybms_census::to_wsd(&os).expect("decompose")
    };
    g.bench_function("normalize", |b| {
        b.iter(|| {
            let mut w = noisy.clone();
            normalize_from_scratch(&mut w);
            std::hint::black_box(w.stats())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_e6);
criterion_main!(benches);
