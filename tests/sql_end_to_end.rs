//! End-to-end SQL scenarios across the full stack: DDL, or-set DML,
//! world-set queries, probability constructs, repairs and EXPLAIN.

use maybms_relational::Value;
use maybms_sql::{QueryResult, Session};

fn table_len(r: &QueryResult) -> usize {
    r.table().expect("table result").len()
}

#[test]
fn hospital_scenario() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE patients (pid INT, name TEXT, diagnosis TEXT); \
         CREATE TABLE treats (diagnosis TEXT, drug TEXT, cost INT); \
         INSERT INTO patients VALUES \
           (1, 'ann', {'flu': 0.3, 'cold': 0.7}), \
           (2, 'bob', 'flu'), \
           (3, 'cyd', {'flu', 'angina'}); \
         INSERT INTO treats VALUES \
           ('flu', 'oseltamivir', 30), ('cold', 'rest', 0), ('angina', 'nitro', 55)",
    )
    .unwrap();

    // 4 worlds: ann × cyd choices
    assert_eq!(s.wsd().world_count().to_u64(), Some(4));

    // possible flu patients: everyone
    let r = s
        .execute("SELECT POSSIBLE name FROM patients WHERE diagnosis = 'flu'")
        .unwrap();
    assert_eq!(table_len(&r), 3);

    // certain flu patients: only bob
    let r = s
        .execute("SELECT CERTAIN name FROM patients WHERE diagnosis = 'flu'")
        .unwrap();
    assert_eq!(table_len(&r), 1);
    assert_eq!(r.table().unwrap().rows()[0][0], Value::str("bob"));

    // P(ann has flu) = 0.3
    let r = s
        .execute("SELECT name, PROB() FROM patients WHERE diagnosis = 'flu' AND name = 'ann'")
        .unwrap();
    let t = r.table().unwrap();
    assert_eq!(t.len(), 1);
    assert!((t.rows()[0][1].as_f64().unwrap() - 0.3).abs() < 1e-9);

    // join with the treatments: P(cyd, nitro) = 0.5 (uniform or-set)
    let r = s
        .execute(
            "SELECT p.name, t.drug, PROB() FROM patients p, treats t \
             WHERE p.diagnosis = t.diagnosis AND p.name = 'cyd'",
        )
        .unwrap();
    let t = r.table().unwrap();
    assert_eq!(t.len(), 2);
    let nitro = t
        .rows()
        .iter()
        .find(|row| row[1] == Value::str("nitro"))
        .unwrap();
    assert!((nitro[2].as_f64().unwrap() - 0.5).abs() < 1e-9);

    // repair: cyd cannot have angina → her diagnosis becomes certain flu
    s.execute("REPAIR CHECK patients: name <> 'cyd' OR diagnosis <> 'angina'")
        .unwrap();
    let r = s
        .execute("SELECT CERTAIN name FROM patients WHERE diagnosis = 'flu'")
        .unwrap();
    assert_eq!(table_len(&r), 2);
    assert_eq!(s.wsd().world_count().to_u64(), Some(2));
}

/// DELETE/UPDATE and transactions end to end: the hospital scenario
/// continued through the new DML surface with world-set semantics.
#[test]
fn dml_and_transactions_scenario() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE patients (pid INT, name TEXT, diagnosis TEXT); \
         INSERT INTO patients VALUES \
           (1, 'ann', {'flu': 0.3, 'cold': 0.7}), \
           (2, 'bob', 'flu'), \
           (3, 'cyd', {'flu', 'angina'})",
    )
    .unwrap();

    // conditional UPDATE: only the flu-worlds of ann change
    s.execute("UPDATE patients SET diagnosis = 'recovered' WHERE name = 'ann' AND diagnosis = 'flu'")
        .unwrap();
    let r = s
        .execute("SELECT name, PROB() FROM patients WHERE diagnosis = 'recovered'")
        .unwrap();
    assert!((r.rows()[0][1].as_f64().unwrap() - 0.3).abs() < 1e-9);

    // a transaction that is rolled back leaves no trace
    s.execute_script("BEGIN; DELETE FROM patients; ROLLBACK").unwrap();
    assert_eq!(table_len(&s.execute("SELECT POSSIBLE name FROM patients").unwrap()), 3);

    // a committed transaction applies atomically; prepared statements
    // bind inside it
    let del = s.prepare("DELETE FROM patients WHERE pid = ?").unwrap();
    {
        let mut txn = s.transaction().unwrap();
        txn.execute_prepared(&del, &[Value::Int(2)]).unwrap();
        txn.execute("UPDATE patients SET name = 'cydney' WHERE pid = 3").unwrap();
        txn.commit().unwrap();
    }
    let r = s.execute("SELECT POSSIBLE name FROM patients").unwrap();
    assert_eq!(table_len(&r), 2);
    assert!(r.rows().iter().all(|t| t[0] != Value::str("bob")));

    // conditional DELETE keeps world probabilities: cyd exists only in
    // her non-angina worlds afterwards, at confidence 0.5
    s.execute("DELETE FROM patients WHERE diagnosis = 'angina'").unwrap();
    let r = s
        .execute("SELECT name, PROB() FROM patients WHERE name = 'cydney'")
        .unwrap();
    assert!((r.rows()[0][1].as_f64().unwrap() - 0.5).abs() < 1e-9);
}

#[test]
fn union_except_and_worldset_results() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE r (a INT); \
         INSERT INTO r VALUES ({1: 0.5, 2: 0.5}), (3)",
    )
    .unwrap();

    // plain select returns a world-set
    let r = s.execute("SELECT a FROM r WHERE a >= 2").unwrap();
    let wsd = r.world_set().expect("world-set result");
    let ws = wsd.to_worldset(100).unwrap();
    assert_eq!(ws.merged().len(), 2); // {3} and {2,3}

    // union / except
    let r = s
        .execute("SELECT POSSIBLE a FROM r WHERE a = 1 UNION SELECT a FROM r WHERE a = 3")
        .unwrap();
    assert_eq!(table_len(&r), 2);
    let r = s
        .execute("SELECT CERTAIN a FROM r EXCEPT SELECT a FROM r WHERE a < 3")
        .unwrap();
    assert_eq!(table_len(&r), 1);
}

#[test]
fn explain_and_optimizer_equivalence_over_sql() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE l (k INT, v TEXT); CREATE TABLE m (k INT, w TEXT); \
         INSERT INTO l VALUES (1, 'a'), ({1: 0.5, 2: 0.5}, 'b'); \
         INSERT INTO m VALUES (1, 'x'), (2, 'y')",
    )
    .unwrap();
    let sql =
        "SELECT POSSIBLE l.v, m.w, PROB() FROM l AS l, m AS m WHERE l.k = m.k AND m.w = 'x'";
    let optimized = s.execute(sql).unwrap();
    let QueryResult::Text(plan) = s.execute(&format!("EXPLAIN {sql}")).unwrap() else {
        panic!()
    };
    assert!(plan.contains("HashJoin [l.k = m.k] on"), "{plan}");
    s.optimize_plans = false;
    let unoptimized = s.execute(sql).unwrap();
    assert_eq!(
        optimized.table().unwrap().canonical(),
        unoptimized.table().unwrap().canonical()
    );
}

#[test]
fn probabilities_sum_to_one_per_possible_key() {
    // For a single tuple with a weighted or-set, the confidences over its
    // alternatives must sum to 1.
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE t (x TEXT); INSERT INTO t VALUES ({'p': 0.2, 'q': 0.3, 'r': 0.5})",
    )
    .unwrap();
    let r = s.execute("SELECT POSSIBLE x, PROB() FROM t").unwrap();
    let total: f64 = r
        .table()
        .unwrap()
        .iter()
        .map(|row| row[1].as_f64().unwrap())
        .sum();
    assert!((total - 1.0).abs() < 1e-9);
}
