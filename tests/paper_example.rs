//! E5: integration test pinning every number printed in the paper's §2
//! walkthrough, end to end across the crates.

use maybms::prelude::*;
use maybms_core::algebra::Query;
use maybms_core::examples::medical_wsd;
use maybms_core::exec::eval;

#[test]
fn the_wsd_represents_four_worlds_as_a_product_of_five_components() {
    let wsd = medical_wsd();
    wsd.validate().unwrap();
    assert_eq!(wsd.num_components(), 5);
    assert_eq!(wsd.world_count().to_u64(), Some(4));
}

#[test]
fn world_probability_is_the_product_of_component_rows() {
    // "The patient record described above represents a world with
    // probability 0.6 · 0.7 · 1 · 1 · 1 = 0.42."
    let worlds = medical_wsd().to_worldset(10).unwrap();
    worlds.validate().unwrap();
    let w = worlds
        .worlds()
        .iter()
        .find(|(w, _)| {
            w.get("R").unwrap().iter().any(|t| {
                t[0] == Value::str("hypothyroidism")
                    && t[1] == Value::str("TSH")
                    && t[2] == Value::str("weight gain")
            })
        })
        .expect("the paper's record must be a world");
    assert!((w.1 - 0.42).abs() < 1e-12);
}

#[test]
fn the_papers_selection_produces_three_worlds_before_projection() {
    // "This answer represents three worlds" — two pregnancy worlds
    // (differing in symptom) and the empty world.
    let wsd = medical_wsd();
    let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")));
    let ans = eval(&q, &wsd).unwrap();
    let merged = ans.to_worldset(1000).unwrap().merged();
    assert_eq!(merged.len(), 3);
}

#[test]
fn after_projection_two_worlds_remain_with_the_papers_wsd_shape() {
    // "After the projection, we obtain the WSD with two worlds":
    //   r1.Test | p      = (ultrasound, 0.4), (⊥, 0.6)
    let wsd = medical_wsd();
    let q = Query::table("R")
        .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
        .project(["test"]);
    let ans = eval(&q, &wsd).unwrap();
    let stats = ans.stats();
    assert_eq!(stats.components, 1, "a single 2-row component as printed");
    assert_eq!(stats.max_component_rows, 2);
    let merged = ans.to_worldset(1000).unwrap().merged();
    assert_eq!(merged.len(), 2, "the ultrasound world and the empty world");
}

#[test]
fn prob_construct_returns_the_papers_number() {
    // "the ultrasound test is recommended in pregnancy diagnosis with
    // probability 0.4"
    let wsd = medical_wsd();
    let q = Query::table("R")
        .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
        .project(["test"]);
    let ans = eval(&q, &wsd).unwrap();
    let conf = ans.tuple_confidence("result").unwrap();
    assert_eq!(conf.len(), 1);
    assert_eq!(conf[0].0[0], Value::str("ultrasound"));
    assert!((conf[0].1 - 0.4).abs() < 1e-12);
}

#[test]
fn the_same_numbers_come_out_of_sql() {
    let mut s = maybms_sql::Session::with_wsd(medical_wsd());
    let r = s
        .execute("SELECT test, PROB() FROM R WHERE Diagnosis = 'pregnancy'")
        .unwrap_or_else(|_| {
            // column names are case-sensitive in our dialect; the paper
            // spells it capitalized in prose, lowercase in the schema
            let mut s2 = maybms_sql::Session::with_wsd(medical_wsd());
            s2.execute("SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy'")
                .expect("sql query")
        });
    let t = r.table().expect("prob table");
    assert_eq!(t.len(), 1);
    assert_eq!(t.rows()[0][0], Value::str("ultrasound"));
    assert!((t.rows()[0][1].as_f64().unwrap() - 0.4).abs() < 1e-9);
}

#[test]
fn query_on_wsd_equals_query_in_every_world() {
    // The semantics sentence of the paper, verified literally.
    let wsd = medical_wsd();
    let q = Query::table("R")
        .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
        .project(["test"]);
    let on_wsd = eval(&q, &wsd).unwrap().to_worldset(1000).unwrap();
    let per_world = maybms_worldset::eval::eval_in_all_worlds(
        &wsd.to_worldset(1000).unwrap(),
        &q,
    )
    .unwrap();
    assert!(on_wsd.equivalent(&per_world, 1e-9));
}
