//! Integration test of the full census pipeline (the paper's evaluation,
//! scaled down to CI size): generate → noise → decompose → clean → query.

use maybms_census::{
    census_schema, cleaning_constraints, generate, inject, to_wsd, NoiseSpec, CENSUS_REL,
};
use maybms_core::algebra::Query;
use maybms_core::chase::clean;
use maybms_core::exec::eval;
use maybms_relational::Expr;

#[test]
fn pipeline_small() {
    let n = 400;
    let base = generate(n, 1234);
    assert_eq!(base.schema(), &census_schema());
    assert_eq!(base.len(), n);

    let os = inject(&base, NoiseSpec { rate: 0.004, max_width: 3, weighted: false, seed: 1 })
        .unwrap();
    assert!(os.uncertain_fields() > 0);

    let mut wsd = to_wsd(&os).unwrap();
    wsd.validate().unwrap();
    assert_eq!(wsd.num_components(), os.uncertain_fields());

    // storage: decomposition ≈ original + alternatives only
    let overhead =
        (wsd.size_bytes() as f64 - base.size_bytes() as f64) / base.size_bytes() as f64;
    assert!(overhead < 0.30, "overhead {overhead} too large for 0.4% noise");

    // cleaning must keep the generated (consistent) world possible
    let report = clean(&mut wsd, &cleaning_constraints()).unwrap();
    wsd.validate().unwrap();
    assert!(report.removed_probability < 1.0);

    // after cleaning, no possible tuple violates the age/marst rule
    let q = Query::table(CENSUS_REL)
        .select(Expr::col("age").lt(Expr::lit(15i64)))
        .project(["marst"]);
    let ans = eval(&q, &wsd).unwrap();
    for (t, p) in ans.tuple_confidence("result").unwrap() {
        assert!(p > 0.0);
        assert_eq!(
            t[0],
            maybms_relational::Value::Int(maybms_census::schema::MARST_SINGLE),
            "cleaning must leave only marst=single for children"
        );
    }
}

#[test]
fn queries_on_noisy_census_match_oracle_at_tiny_scale() {
    // Tiny instance so explicit enumeration is possible.
    let base = generate(6, 99);
    let os = inject(&base, NoiseSpec { rate: 0.01, max_width: 2, weighted: false, seed: 3 })
        .unwrap();
    let wsd = to_wsd(&os).unwrap();
    let q = Query::table(CENSUS_REL)
        .select(Expr::col("age").ge(Expr::lit(30i64)))
        .project(["age", "sex"]);
    let lhs = eval(&q, &wsd).unwrap().to_worldset(1 << 16).unwrap();
    let rhs = maybms_worldset::eval::eval_in_all_worlds(
        &wsd.to_worldset(1 << 16).unwrap(),
        &q,
    )
    .unwrap();
    assert!(lhs.equivalent(&rhs, 1e-9));
}

#[test]
fn world_count_matches_orset_math() {
    let base = generate(100, 5);
    let os = inject(&base, NoiseSpec { rate: 0.01, max_width: 4, weighted: true, seed: 8 })
        .unwrap();
    let wsd = to_wsd(&os).unwrap();
    assert!((wsd.world_count().log2() - os.world_count_log2()).abs() < 1e-6);
}
