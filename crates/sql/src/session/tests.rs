//! Unit tests of the session: SQL surface, transactions and savepoints,
//! durability, introspection.

use maybms_relational::Value;

use super::show::like_match;
use super::*;

fn err_contains(r: SessionResult<QueryResult>, what: &str) {
    match r {
        Err(e) => assert!(e.to_string().contains(what), "unexpected error {e}"),
        Ok(v) => panic!("expected error containing {what}, got {v:?}"),
    }
}

#[test]
fn paper_query_via_sql() {
    let mut s = medical_session();
    let r = s
        .execute("SELECT test FROM R WHERE diagnosis = 'pregnancy'")
        .unwrap();
    let wsd = r.world_set().expect("plain select yields a world-set");
    // two worlds: {ultrasound} with 0.4 and {} with 0.6
    let ws = wsd.to_worldset(100).unwrap();
    assert_eq!(ws.merged().len(), 2);

    let r2 = s
        .execute("SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy'")
        .unwrap();
    let t = r2.table().unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.rows()[0][0], Value::str("ultrasound"));
    assert_eq!(t.rows()[0][1], Value::Float(0.4));
}

#[test]
fn possible_and_certain() {
    let mut s = medical_session();
    let poss = s.execute("SELECT POSSIBLE diagnosis FROM R").unwrap();
    assert_eq!(poss.table().unwrap().len(), 3); // pregnancy, hypothyroidism, obesity
    let cert = s.execute("SELECT CERTAIN diagnosis FROM R").unwrap();
    assert_eq!(cert.table().unwrap().len(), 1); // obesity
    assert_eq!(cert.table().unwrap().rows()[0][0], Value::str("obesity"));
}

/// Certainty is decided on booleans, not on `|P − 1| < 1e-9`: a value
/// absent from one world is not certain, however likely.
#[test]
fn certain_is_not_a_float_tolerance() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (a TEXT)").unwrap();
    s.execute("INSERT INTO t VALUES ({'x': 0.9999999999, 'y': 0.0000000001})").unwrap();
    let cert = s.execute("SELECT CERTAIN a FROM t").unwrap();
    assert_eq!(cert.table().unwrap().len(), 0, "a world holds only y");
    s.execute("INSERT INTO t VALUES ('x')").unwrap();
    let cert = s.execute("SELECT CERTAIN a FROM t").unwrap();
    let x = maybms_relational::Tuple::new(vec![Value::str("x")]);
    assert_eq!(cert.table().unwrap().rows(), [x]);
}

#[test]
fn prob_of_nonempty() {
    let mut s = medical_session();
    let r = s
        .execute("SELECT PROB() FROM R WHERE test = 'ultrasound'")
        .unwrap();
    let t = r.table().unwrap();
    let p = t.rows()[0][0].as_f64().unwrap();
    assert!((p - 0.4).abs() < 1e-9);
}

#[test]
fn ddl_dml_roundtrip() {
    let mut s = Session::new();
    s.execute("CREATE TABLE person (ssn INT, name TEXT)").unwrap();
    s.execute("INSERT INTO person VALUES (1, 'ann'), ({2: 0.5, 3: 0.5}, 'bob')")
        .unwrap();
    let r = s.execute("SELECT POSSIBLE ssn, PROB() FROM person").unwrap();
    let t = r.table().unwrap();
    assert_eq!(t.len(), 3);
    // world count: 2
    assert_eq!(s.wsd().world_count().to_u64(), Some(2));
    s.execute("DROP TABLE person").unwrap();
    err_contains(s.execute("SELECT * FROM person"), "unknown relation");
}

#[test]
fn delete_via_sql() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE p (ssn INT, name TEXT); \
         INSERT INTO p VALUES ({1: 0.4, 2: 0.6}, 'ann'), (2, 'bob')",
    )
    .unwrap();
    // bob certainly matches: removed from every world
    let r = s.execute("DELETE FROM p WHERE name = 'bob'").unwrap();
    assert!(r.ack().contains("1 in every world"), "{}", r.ack());
    // ann possibly matches: survives only where ssn = 2
    let r2 = s.execute("DELETE FROM p WHERE ssn = 1").unwrap();
    assert!(r2.ack().contains("1 conditionally"), "{}", r2.ack());
    let t = s.execute("SELECT POSSIBLE ssn, name, PROB() FROM p").unwrap();
    assert_eq!(t.rows().len(), 1);
    assert_eq!(t.rows()[0][0], Value::Int(2));
    assert_eq!(t.rows()[0][2], Value::Float(0.6), "world probabilities untouched");
    // DELETE without WHERE empties the relation but keeps it
    s.execute("DELETE FROM p").unwrap();
    assert_eq!(s.execute("SELECT POSSIBLE ssn FROM p").unwrap().rows().len(), 0);
    err_contains(s.execute("DELETE FROM missing"), "unknown relation");
}

#[test]
fn update_via_sql() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE p (ssn INT, name TEXT); \
         INSERT INTO p VALUES ({1: 0.4, 2: 0.6}, 'ann'), (3, 'bob')",
    )
    .unwrap();
    let r = s.execute("UPDATE p SET name = 'anna' WHERE ssn = 1").unwrap();
    assert!(r.ack().contains("1 conditionally"), "{}", r.ack());
    let t = s
        .execute("SELECT POSSIBLE ssn, name, PROB() FROM p ORDER BY ssn")
        .unwrap();
    let rows = t.rows();
    // worlds: (1, anna) p=0.4, (2, ann) p=0.6, (3, bob) certain
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0][1], Value::str("anna"));
    assert_eq!(rows[0][2], Value::Float(0.4));
    assert_eq!(rows[1][1], Value::str("ann"));
    // type errors and unknown columns are execution errors
    err_contains(s.execute("UPDATE p SET ssn = 'x'"), "type error");
    err_contains(s.execute("UPDATE p SET nope = 1"), "unknown column");
    err_contains(
        s.execute("UPDATE p SET name = {1: 0.5, 2: 0.5}"),
        "invalid expression",
    );
}

#[test]
fn prepared_statements_bind_many() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
    let ins = s.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    assert_eq!(ins.param_count(), 2);
    for i in 0..5i64 {
        s.execute_prepared(&ins, &[Value::Int(i), Value::str("row")]).unwrap();
    }
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 5);
    // parameters in predicates too
    let q = s.prepare("SELECT POSSIBLE x FROM t WHERE x >= ?").unwrap();
    assert_eq!(s.execute_prepared(&q, &[Value::Int(3)]).unwrap().rows().len(), 2);
    let del = s.prepare("DELETE FROM t WHERE x = ?").unwrap();
    s.execute_prepared(&del, &[Value::Int(0)]).unwrap();
    assert_eq!(s.execute_prepared(&q, &[Value::Int(0)]).unwrap().rows().len(), 4);
    // wrong arity and unbound execution are rejected
    assert!(s.execute_prepared(&ins, &[Value::Int(1)]).is_err());
    err_contains(s.execute("INSERT INTO t VALUES (?, 'x')"), "unbound");
}

#[test]
fn transactions_commit_and_rollback() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("BEGIN").unwrap();
    assert!(s.in_transaction());
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // statements inside the transaction see their own writes
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 2);
    s.execute("ROLLBACK").unwrap();
    assert!(!s.in_transaction());
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 0);

    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (7)").unwrap();
    let r = s.execute("COMMIT").unwrap();
    assert!(r.ack().contains("COMMIT (1 statement(s))"), "{}", r.ack());
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);

    // misuse errors
    err_contains(s.execute("COMMIT"), "without an open transaction");
    err_contains(s.execute("ROLLBACK"), "without an open transaction");
    s.execute("BEGIN").unwrap();
    err_contains(s.execute("BEGIN"), "nested");
    err_contains(s.execute("CHECKPOINT"), "inside a transaction");
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn savepoints_rewind_within_a_transaction() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("SAVEPOINT a").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    s.execute("SAVEPOINT b").unwrap();
    s.execute("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 3);

    let r = s.execute("ROLLBACK TO b").unwrap();
    assert!(r.ack().contains("1 statement(s) undone"), "{}", r.ack());
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 2);

    // `b` stays valid after rolling back to it
    s.execute("INSERT INTO t VALUES (4)").unwrap();
    s.execute("ROLLBACK TO SAVEPOINT b").unwrap();
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 2);

    // rolling back to `a` discards `b`
    s.execute("ROLLBACK TO a").unwrap();
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
    err_contains(s.execute("ROLLBACK TO b"), "no savepoint named b");

    // the transaction is still open; COMMIT keeps the surviving rows
    let r = s.execute("COMMIT").unwrap();
    assert!(r.ack().contains("COMMIT"), "{}", r.ack());
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);

    // misuse outside a transaction
    err_contains(s.execute("SAVEPOINT z"), "without an open transaction");
    err_contains(s.execute("ROLLBACK TO z"), "without an open transaction");
}

#[test]
fn savepoint_rollback_truncates_buffered_wal_records() {
    let path = db_path("savepoint-truncate");
    {
        let mut s = Session::open(&path).unwrap();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("SAVEPOINT a").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        s.execute("ROLLBACK TO a").unwrap();
        s.execute("COMMIT").unwrap();
    }
    // recovery must replay only the statements that survived the
    // savepoint rollback
    let mut s = Session::open(&path).unwrap();
    let rows = s.execute("SELECT POSSIBLE x FROM t").unwrap();
    assert_eq!(rows.rows().len(), 1);
    rm_db(&path);
}

#[test]
fn duplicate_savepoint_name_shadows_the_older_mark() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("SAVEPOINT a").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    s.execute("SAVEPOINT a").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    // latest mark wins: only the second insert is undone
    s.execute("ROLLBACK TO a").unwrap();
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
    s.execute("ROLLBACK").unwrap();
}

#[test]
fn explain_reports_estimates_and_analyze_actuals() {
    let mut s = medical_session();
    let txt = s
        .execute("EXPLAIN SELECT test FROM R WHERE diagnosis = 'pregnancy'")
        .unwrap()
        .ack()
        .to_string();
    assert!(txt.contains("est rows="), "estimates missing:\n{txt}");
    assert!(txt.contains("cost="), "costs missing:\n{txt}");
    assert!(!txt.contains("actual rows="), "plain EXPLAIN must not execute:\n{txt}");

    let txt = s
        .execute("EXPLAIN ANALYZE SELECT test FROM R WHERE diagnosis = 'pregnancy'")
        .unwrap()
        .ack()
        .to_string();
    assert!(txt.contains("actual rows="), "ANALYZE actuals missing:\n{txt}");
    // every physical node carries both estimate and actual
    let phys: Vec<&str> = txt
        .lines()
        .skip_while(|l| !l.starts_with("-- physical plan"))
        .skip(1)
        .take_while(|l| !l.starts_with("-- timing"))
        .collect();
    assert!(!phys.is_empty());
    for line in phys {
        assert!(line.contains("est rows="), "unannotated node: {line}\n{txt}");
        assert!(line.contains("actual rows="), "no actual on node: {line}\n{txt}");
        assert!(line.contains("time="), "no wall-clock time on node: {line}\n{txt}");
    }
    assert!(txt.contains("-- timing"), "phase timing footer missing:\n{txt}");
}

#[test]
fn estimates_follow_the_data_across_rewinds() {
    // a rewind hands back an older decomposition, and a later write with
    // other values rebuilds one shaped like the rewound one: statistics
    // cached inside the transaction must not be taken for it
    for rewind in ["ROLLBACK", "ROLLBACK TO a"] {
        let mut s = Session::new();
        for sql in [
            "CREATE TABLE r (a INT)",
            "INSERT INTO r VALUES (1)",
            "BEGIN",
            "SAVEPOINT a",
            "INSERT INTO r VALUES (2)",
            "INSERT INTO r VALUES (3)",
        ] {
            s.execute(sql).unwrap();
        }
        let txt = s.execute("EXPLAIN SELECT * FROM r").unwrap().ack().to_string();
        assert!(txt.contains("est rows=3"), "{rewind}: inside the transaction:\n{txt}");
        for sql in [rewind, "CREATE TABLE s (b INT)", "INSERT INTO r VALUES (4)"] {
            s.execute(sql).unwrap();
        }
        let txt = s.execute("EXPLAIN SELECT * FROM r").unwrap().ack().to_string();
        assert!(
            txt.contains("est rows=2") && !txt.contains("est rows=3"),
            "{rewind}: r holds 2 rows:\n{txt}"
        );
    }
}

#[test]
fn show_metrics_returns_live_rows() {
    let mut s = medical_session();
    // touch the executor so at least the exec.rows counters exist
    s.execute("SELECT POSSIBLE diagnosis FROM R").unwrap();
    let r = s.execute("SHOW METRICS").unwrap();
    let t = r.table().expect("SHOW METRICS yields a table");
    assert_eq!(t.schema().len(), 3);
    assert!(
        t.rows().iter().any(|row| row[0] == Value::str("exec.rows.seq_scan")),
        "exec.rows.seq_scan missing from SHOW METRICS"
    );
    // LIKE narrows to one family
    let r = s.execute("SHOW METRICS LIKE 'exec.rows.%'").unwrap();
    let rows = r.rows();
    assert!(!rows.is_empty());
    for row in rows {
        let name = match &row[0] {
            Value::Str(n) => n.clone(),
            other => panic!("metric name should be text, got {other:?}"),
        };
        assert!(name.starts_with("exec.rows."), "LIKE leaked {name}");
    }
    // a pattern matching nothing yields an empty table, not an error
    assert_eq!(s.execute("SHOW METRICS LIKE 'no.such.%'").unwrap().rows().len(), 0);
}

#[test]
fn slow_query_log_records_above_threshold() {
    let mut s = medical_session();
    // impossible threshold: nothing is logged
    s.set_slow_query_threshold(Some(Duration::from_secs(3600)));
    s.execute("SELECT POSSIBLE diagnosis FROM R").unwrap();
    assert_eq!(s.execute("SHOW SLOW QUERIES").unwrap().rows().len(), 0);
    // zero threshold: everything is logged with its phase breakdown
    s.set_slow_query_threshold(Some(Duration::ZERO));
    s.execute("SELECT POSSIBLE diagnosis FROM R").unwrap();
    let r = s.execute("SHOW SLOW QUERIES").unwrap();
    let rows = r.rows();
    assert!(!rows.is_empty());
    assert_eq!(rows[0][0], Value::str("SELECT POSSIBLE diagnosis FROM R"));
    let phases = match &rows[0][2] {
        Value::Str(p) => p.clone(),
        other => panic!("phases should be text, got {other:?}"),
    };
    for phase in ["parse", "optimize", "compile", "execute", "total"] {
        assert!(phases.contains(phase), "{phase} missing from {phases}");
    }
    // None disables the log without clearing past entries
    s.set_slow_query_threshold(None);
    let before = s.slow_log().len();
    s.execute("SELECT POSSIBLE diagnosis FROM R").unwrap();
    assert_eq!(s.slow_log().len(), before);
}

#[test]
fn show_replication_status_on_a_standalone_session() {
    let mut s = medical_session();
    let r = s.execute("SHOW REPLICATION STATUS").unwrap();
    let rows = r.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::str("standalone"));
    assert_eq!(rows[0][3], Value::Int(0), "a standalone session has no lag");
    assert_eq!(rows[0][5], Value::Bool(false), "a standalone session is never stale");
}

#[test]
fn like_match_covers_wildcards() {
    assert!(like_match("wal.%", "wal.appends"));
    assert!(like_match("%appends%", "wal.appends"));
    assert!(like_match("wal.append_", "wal.appends"));
    assert!(like_match("%", ""));
    assert!(like_match("", ""));
    assert!(!like_match("wal.%", "db.checkpoints.full"));
    assert!(!like_match("wal.append_", "wal.append"));
    assert!(!like_match("", "x"));
    assert!(like_match("a%b%c", "a-long-b-tail-c"));
    assert!(!like_match("a%b%c", "a-long-b-tail"));
}

#[test]
fn rollback_restores_repairs_and_ddl() {
    let mut s = Session::new();
    s.execute_script(
        "CREATE TABLE p (ssn INT, name TEXT); \
         INSERT INTO p VALUES ({1: 0.5, 2: 0.5}, 'ann'), (2, 'bob')",
    )
    .unwrap();
    let before = maybms_core::codec::encode_wsd(s.wsd());
    s.execute("BEGIN").unwrap();
    s.execute("REPAIR KEY p(ssn)").unwrap();
    assert_eq!(s.cleaning_log.len(), 1);
    s.execute("ALTER TABLE p RENAME TO q").unwrap();
    s.execute("DROP TABLE q").unwrap();
    s.execute("ROLLBACK").unwrap();
    // byte-identical restore, cleaning log truncated
    assert_eq!(before, maybms_core::codec::encode_wsd(s.wsd()));
    assert!(s.cleaning_log.is_empty());
}

#[test]
fn transaction_guard_rolls_back_on_drop() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    {
        let mut txn = s.transaction().unwrap();
        txn.execute("INSERT INTO t VALUES (1)").unwrap();
        // dropped without commit
    }
    assert!(!s.in_transaction());
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 0);
    {
        let mut txn = s.transaction().unwrap();
        txn.execute("INSERT INTO t VALUES (2)").unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
    // prepared statements work through the guard
    let ins = s.prepare("INSERT INTO t VALUES (?)").unwrap();
    {
        let mut txn = s.transaction().unwrap();
        txn.execute_prepared(&ins, &[Value::Int(9)]).unwrap();
        txn.rollback().unwrap();
    }
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
}

#[test]
fn repair_key_via_sql() {
    let mut s = Session::new();
    s.execute("CREATE TABLE p (ssn INT, name TEXT)").unwrap();
    s.execute("INSERT INTO p VALUES ({1: 0.5, 2: 0.5}, 'ann'), (2, 'bob')")
        .unwrap();
    let msg = s.execute("REPAIR KEY p(ssn)").unwrap();
    assert!(matches!(msg, QueryResult::Text(ref t) if t.contains("repaired")));
    // ann's ssn=2 option is gone; her ssn is certainly 1
    let r = s.execute("SELECT CERTAIN ssn, name FROM p").unwrap();
    assert_eq!(r.table().unwrap().len(), 2);
    assert_eq!(s.cleaning_log.len(), 1);
}

#[test]
fn repair_check_via_sql() {
    let mut s = Session::new();
    s.execute("CREATE TABLE r (age INT)").unwrap();
    s.execute("INSERT INTO r VALUES ({10: 0.5, 500: 0.5})").unwrap();
    s.execute("REPAIR CHECK r: age < 150").unwrap();
    let t = s.execute("SELECT CERTAIN age FROM r").unwrap();
    assert_eq!(t.table().unwrap().rows()[0][0], Value::Int(10));
}

/// A check that fails to evaluate in a world where its tuple exists
/// aborts the repair, like the all-worlds reference, instead of deleting
/// that world as a violation; `r` is left as it was.
#[test]
fn repair_check_error_aborts_and_leaves_table_unchanged() {
    let mut s = Session::new();
    s.execute("CREATE TABLE r (v INT)").unwrap();
    s.execute("INSERT INTO r VALUES ({0: 0.5, 5: 0.5})").unwrap();
    let before = maybms_core::codec::encode_wsd(s.wsd());
    err_contains(s.execute("REPAIR CHECK r: 10 / v = 2"), "division by zero");
    assert_eq!(before, maybms_core::codec::encode_wsd(s.wsd()));
}

/// The same policy for a selection over an uncertain field: the `v = 0`
/// world raises, so the query does, as `DELETE` with that predicate and
/// the selection over a certain `0` already did.
#[test]
fn select_error_in_an_uncertain_world_aborts() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, {0: 0.5, 5: 0.5})").unwrap();
    err_contains(s.execute("SELECT k, PROB() FROM t WHERE 10 / v = 2"), "division by zero");
    err_contains(s.execute("DELETE FROM t WHERE 10 / v = 2"), "division by zero");
}

/// An error only in a combination of possible values that no world has
/// does not abort: `a` and `b` are correlated, so `a - b` is never 0,
/// though `a = 0` and `b = 0` are each possible.
#[test]
fn error_in_no_world_does_not_abort() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    s.execute("INSERT INTO t VALUES ({0: 0.5, 1: 0.5}, 0)").unwrap();
    s.execute("UPDATE t SET b = 1 WHERE a = 0").unwrap();
    let rows = |r: QueryResult| r.table().unwrap().rows().to_vec();
    let hit = s.execute("SELECT POSSIBLE a, b, PROB() FROM t WHERE 12 / (a - b) > 0").unwrap();
    assert_eq!(rows(hit), vec![Tuple::new(vec![Value::Int(1), Value::Int(0), Value::Float(0.5)])]);
    s.execute("DELETE FROM t WHERE 12 / (a - b) > 0").unwrap();
    let left = s.execute("SELECT POSSIBLE a, b, PROB() FROM t").unwrap();
    assert_eq!(rows(left), vec![Tuple::new(vec![Value::Int(0), Value::Int(1), Value::Float(0.5)])]);
}

#[test]
fn join_via_sql_with_aliases() {
    let mut s = medical_session();
    s.execute("CREATE TABLE cost (tname TEXT, usd INT)").unwrap();
    s.execute("INSERT INTO cost VALUES ('ultrasound', 120), ('TSH', 40), ('BMI', 10)")
        .unwrap();
    let r = s
        .execute(
            "SELECT POSSIBLE r.test, c.usd, PROB() FROM R r, cost c WHERE r.test = c.tname",
        )
        .unwrap();
    let t = r.table().unwrap();
    assert_eq!(t.len(), 3);
    let ultra = t
        .rows()
        .iter()
        .find(|row| row[0] == Value::str("ultrasound"))
        .unwrap();
    assert_eq!(ultra[1], Value::Int(120));
    assert_eq!(ultra[2], Value::Float(0.4));
}

#[test]
fn union_except_via_sql() {
    let mut s = medical_session();
    let r = s
        .execute(
            "SELECT POSSIBLE diagnosis FROM R WHERE diagnosis = 'obesity' \
             UNION SELECT diagnosis FROM R WHERE diagnosis = 'pregnancy'",
        )
        .unwrap();
    assert_eq!(r.table().unwrap().len(), 2);
    let r2 = s
        .execute(
            "SELECT CERTAIN diagnosis FROM R EXCEPT SELECT diagnosis FROM R WHERE diagnosis = 'obesity'",
        )
        .unwrap();
    assert_eq!(r2.table().unwrap().len(), 0);
}

#[test]
fn explain_shows_both_plans() {
    let mut s = medical_session();
    let r = s
        .execute("EXPLAIN SELECT test FROM R WHERE diagnosis = 'pregnancy'")
        .unwrap();
    let QueryResult::Text(txt) = r else { panic!() };
    assert!(txt.contains("logical plan"));
    assert!(txt.contains("optimized plan"));
    assert!(txt.contains("Scan R"));
}

#[test]
fn explain_shows_physical_plan_with_join_strategy() {
    let mut s = medical_session();
    s.execute("CREATE TABLE cost (tname TEXT, usd INT)").unwrap();
    let r = s
        .execute("EXPLAIN SELECT * FROM R r, cost c WHERE r.test = c.tname")
        .unwrap();
    let QueryResult::Text(txt) = r else { panic!() };
    assert!(txt.contains("physical plan"), "{txt}");
    assert!(
        txt.contains("HashJoin [r.test = c.tname]"),
        "equi-join must pick the hash strategy:\n{txt}"
    );
    assert!(txt.contains("SeqScan R"), "{txt}");

    // a non-equi predicate falls back to the nested loop
    let r2 = s
        .execute("EXPLAIN SELECT * FROM R r, cost c WHERE r.test < c.tname")
        .unwrap();
    let QueryResult::Text(txt2) = r2 else { panic!() };
    assert!(txt2.contains("NestedLoopJoin"), "{txt2}");
}

/// `DROP TABLE` releases the dropped tuples' components: afterwards the
/// decomposition holds only what the remaining tables read.
#[test]
fn drop_table_releases_its_components() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES ({1: 0.5, 2: 0.5}), ({3: 0.5, 4: 0.5})").unwrap();
    s.execute("CREATE TABLE u (y INT)").unwrap();
    s.execute("INSERT INTO u VALUES ({5: 0.5, 6: 0.5})").unwrap();
    s.execute("DROP TABLE t").unwrap();
    let w = s.wsd();
    w.validate().unwrap();
    assert_eq!((w.num_components(), w.num_mapped_fields()), (1, 1));
    assert_eq!(w.world_count().to_u64(), Some(2));
    let r = s.execute("SELECT POSSIBLE y FROM u").unwrap();
    assert_eq!(r.table().unwrap().len(), 2);
}

/// An `INSERT` of or-set rows leaves its components normalized: none
/// stays dirty, a repeated alternative collapses into a certain value,
/// and the answers are those of the inserted distributions.
#[test]
fn insert_normalizes_the_components_it_adds() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES ({1: 0.5, 2: 0.5}), ({3: 0.5, 3: 0.5})").unwrap();
    let w = s.wsd();
    w.validate().unwrap();
    assert!(w.dirty_components().is_empty(), "dirty after INSERT: {:?}", w.dirty_components());
    assert_eq!(w.num_components(), 1, "the repeated alternative is certain");
    let r = s.execute("SELECT POSSIBLE x, PROB() FROM t ORDER BY x").unwrap();
    let rows: Vec<(Value, Value)> =
        r.table().unwrap().rows().iter().map(|row| (row[0].clone(), row[1].clone())).collect();
    let want = [(1, 0.5), (2, 0.5), (3, 1.0)].map(|(x, p)| (Value::Int(x), Value::Float(p)));
    assert_eq!(rows, want);
}

#[test]
fn rename_table_via_sql() {
    let mut s = Session::new();
    s.execute("CREATE TABLE a (x INT)").unwrap();
    s.execute("INSERT INTO a VALUES (1)").unwrap();
    s.execute("ALTER TABLE a RENAME TO b").unwrap();
    assert_eq!(s.execute("SELECT POSSIBLE x FROM b").unwrap().table().unwrap().len(), 1);
    err_contains(s.execute("SELECT * FROM a"), "unknown relation");
}

/// Regression for the PR 1 `rename_relation` fix: renaming onto an
/// existing name must fail *and leave the source relation intact*
/// (it used to be dropped).
#[test]
fn rename_table_onto_existing_name_keeps_source() {
    let mut s = Session::new();
    s.execute("CREATE TABLE a (x INT)").unwrap();
    s.execute("INSERT INTO a VALUES ({1: 0.5, 2: 0.5})").unwrap();
    s.execute("CREATE TABLE b (y INT)").unwrap();
    err_contains(s.execute("ALTER TABLE a RENAME TO b"), "already exists");
    // the source relation survived the failed rename, data intact
    let r = s.execute("SELECT POSSIBLE x, PROB() FROM a").unwrap();
    assert_eq!(r.table().unwrap().len(), 2);
    // and the target was not clobbered either
    s.execute("SELECT * FROM b").unwrap();
}

/// The physical executor must return identical SQL answers at every
/// worker count (the pool's map is order-preserving + deterministic).
#[test]
fn sql_results_identical_across_worker_counts() {
    use std::sync::Arc;
    let setup = "CREATE TABLE cost (tname TEXT, usd INT); \
                 INSERT INTO cost VALUES ('ultrasound', 120), ('TSH', 40), ('BMI', 10)";
    let sql = "SELECT POSSIBLE r.test, c.usd, PROB() FROM R r, cost c \
               WHERE r.test = c.tname ORDER BY prob DESC";
    let mut reference: Option<Vec<Vec<String>>> = None;
    for workers in [1usize, 2, 4] {
        let mut s = medical_session()
            .with_worker_pool(Arc::new(WorkerPool::new(workers)));
        s.execute_script(setup).unwrap();
        let t = s.execute(sql).unwrap().table().unwrap().clone();
        let rows: Vec<Vec<String>> = t
            .rows()
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        match &reference {
            None => reference = Some(rows),
            Some(exp) => assert_eq!(&rows, exp, "workers = {workers}"),
        }
    }
}

#[test]
fn unoptimized_sessions_agree_with_optimized() {
    let sql = "SELECT POSSIBLE r.test, c.usd, PROB() FROM R r, cost c WHERE r.test = c.tname";
    let setup = "CREATE TABLE cost (tname TEXT, usd INT); \
                 INSERT INTO cost VALUES ('ultrasound', 120), ('TSH', 40)";
    let mut s1 = medical_session();
    s1.execute_script(setup).unwrap();
    let mut s2 = medical_session();
    s2.execute_script(setup).unwrap();
    s2.optimize_plans = false;
    let r1 = s1.execute(sql).unwrap();
    let r2 = s2.execute(sql).unwrap();
    assert_eq!(
        r1.table().unwrap().canonical(),
        r2.table().unwrap().canonical()
    );
}

#[test]
fn having_prob_threshold() {
    let mut s = medical_session();
    let r = s
        .execute("SELECT diagnosis, PROB() FROM R HAVING PROB() >= 0.6")
        .unwrap();
    let t = r.table().unwrap();
    // obesity (1.0) and hypothyroidism (0.6) pass; pregnancy (0.4) not
    assert_eq!(t.len(), 2);
    assert!(t.iter().all(|row| row[1].as_f64().unwrap() >= 0.6));
    // threshold without PROB() is rejected
    assert!(s.execute("SELECT diagnosis FROM R HAVING PROB() > 0.5").is_err());
    // composes with ORDER BY / LIMIT
    let r = s
        .execute(
            "SELECT diagnosis, PROB() FROM R HAVING PROB() > 0 ORDER BY prob DESC LIMIT 1",
        )
        .unwrap();
    assert_eq!(r.table().unwrap().rows()[0][0], Value::str("obesity"));
}

#[test]
fn order_by_and_limit() {
    let mut s = medical_session();
    let r = s
        .execute("SELECT POSSIBLE diagnosis, PROB() FROM R ORDER BY prob DESC LIMIT 2")
        .unwrap();
    let t = r.table().unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.rows()[0][0], Value::str("obesity")); // p = 1 first
    let p0 = t.rows()[0][1].as_f64().unwrap();
    let p1 = t.rows()[1][1].as_f64().unwrap();
    assert!(p0 >= p1);

    // ORDER BY on a world-set result is rejected
    assert!(s
        .execute("SELECT diagnosis FROM R ORDER BY diagnosis")
        .is_err());
    // unknown sort column errors
    assert!(s
        .execute("SELECT POSSIBLE diagnosis FROM R ORDER BY nope")
        .is_err());
}

#[test]
fn expected_aggregates() {
    let mut s = medical_session();
    // E[|σ diagnosis='pregnancy'|] = 0.4 (r1 in pregnancy worlds only)
    let r = s
        .execute("SELECT EXPECTED COUNT() FROM R WHERE diagnosis = 'pregnancy'")
        .unwrap();
    let v = r.table().unwrap().rows()[0][0].as_f64().unwrap();
    assert!((v - 0.4).abs() < 1e-9);

    // numeric column for ESUM
    s.execute("CREATE TABLE costs (tname TEXT, usd INT)").unwrap();
    s.execute("INSERT INTO costs VALUES ('ultrasound', {100: 0.5, 200: 0.5}), ('TSH', 40)")
        .unwrap();
    let r = s.execute("SELECT EXPECTED SUM(usd) FROM costs").unwrap();
    let v = r.table().unwrap().rows()[0][0].as_f64().unwrap();
    assert!((v - 190.0).abs() < 1e-9, "E[sum] = 0.5*100+0.5*200+40 = {v}");
    // a TEXT column has no sum: a type error naming it, not a silent 0
    err_contains(s.execute("SELECT EXPECTED SUM(tname) FROM costs"), "column tname");

    // oracle agreement on the count
    let q = maybms_core::algebra::Query::table("R")
        .select(maybms_relational::Expr::col("diagnosis").eq(Expr::lit("pregnancy")));
    let ans = maybms_core::exec::eval(&q, s.wsd()).unwrap();
    let brute = ans.to_worldset(100_000).unwrap().expected_count("result");
    assert!((brute - 0.4).abs() < 1e-9);
    use maybms_relational::Expr;
}

#[test]
fn show_tables() {
    let mut s = medical_session();
    let QueryResult::Text(t) = s.execute("SHOW TABLES").unwrap() else { panic!() };
    assert_eq!(t, "R");
}

#[test]
fn errors_surface() {
    let mut s = Session::new();
    err_contains(s.execute("SELECT * FROM missing"), "unknown relation");
    err_contains(s.execute("CREATE TABLE t (a INT"), "expected");
    s.execute("CREATE TABLE t (a INT)").unwrap();
    err_contains(s.execute("CREATE TABLE t (a INT)"), "already exists");
    err_contains(
        s.execute("INSERT INTO t VALUES ('wrong type')"),
        "type error",
    );
}

#[test]
fn session_errors_are_categorized() {
    let mut s = Session::new();
    // parse errors carry the offending SQL
    let e = s.execute("FROB x").unwrap_err();
    assert!(matches!(&e, SessionError::Parse { sql, .. } if sql == "FROB x"), "{e:?}");
    assert!(e.to_string().contains("parse error"));
    // planning errors (unknown relation in a SELECT) are Plan
    let e2 = s.execute("SELECT a FROM missing").unwrap_err();
    assert!(matches!(e2, SessionError::Plan { .. }), "{e2:?}");
    // execution errors are Execute
    s.execute("CREATE TABLE t (a INT)").unwrap();
    let e3 = s.execute("INSERT INTO t VALUES ('x')").unwrap_err();
    assert!(matches!(e3, SessionError::Execute { .. }), "{e3:?}");
    // transaction misuse is Transaction
    let e4 = s.execute("COMMIT").unwrap_err();
    assert!(matches!(e4, SessionError::Transaction { .. }), "{e4:?}");
    // storage misuse is Storage
    let e5 = s.execute("CHECKPOINT").unwrap_err();
    assert!(matches!(e5, SessionError::Storage { .. }), "{e5:?}");
    // the enum is a std::error::Error with a source chain
    let dyn_err: &dyn std::error::Error = &e3;
    assert!(dyn_err.source().is_some());
    assert!(e4.source_error().is_none());
}

#[test]
fn failed_repair_leaves_state_untouched() {
    let mut s = Session::new();
    s.execute("CREATE TABLE r (a INT, b INT)").unwrap();
    // two certain tuples conflicting under the FD, plus an uncertain
    // one the chase would prune first if it ran eagerly
    s.execute("INSERT INTO r VALUES (1, {1: 0.5, 2: 0.5}), (2, 1), (2, 2)")
        .unwrap();
    let before = maybms_core::codec::encode_wsd(s.wsd());
    // (2,1) vs (2,2) violate a -> b in every world: repair must fail …
    assert!(s.execute("REPAIR FD r: a -> b").is_err());
    // … and leave the decomposition byte-identical (no partial chase)
    assert_eq!(before, maybms_core::codec::encode_wsd(s.wsd()));
    assert!(s.cleaning_log.is_empty());
}

#[test]
fn insert_is_atomic() {
    let mut s = Session::new();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    // second row is ill-typed: the whole statement must be a no-op
    err_contains(
        s.execute("INSERT INTO t VALUES (1), ('bad')"),
        "type error",
    );
    let r = s.execute("SELECT POSSIBLE a FROM t").unwrap();
    assert_eq!(r.table().unwrap().len(), 0, "failed INSERT left rows behind");
    // arity mismatch in a later row is also atomic
    err_contains(s.execute("INSERT INTO t VALUES (1), (2, 3)"), "arity");
    assert_eq!(
        s.execute("SELECT POSSIBLE a FROM t").unwrap().table().unwrap().len(),
        0
    );
}

#[test]
fn failed_dml_leaves_state_untouched() {
    let mut s = Session::new();
    s.execute("CREATE TABLE r (a INT, b INT)").unwrap();
    s.execute("INSERT INTO r VALUES ({1: 0.5, 2: 0.5}, 0), (3, 0)").unwrap();
    let before = maybms_core::codec::encode_wsd(s.wsd());
    // division by zero in the predicate aborts the statement …
    assert!(s.execute("DELETE FROM r WHERE a / 0 = 1").is_err());
    assert!(s.execute("UPDATE r SET b = 1 WHERE a / 0 = 1").is_err());
    // … without leaking partial edits
    assert_eq!(before, maybms_core::codec::encode_wsd(s.wsd()));
}

fn db_path(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir()
        .join(format!("maybms-session-{}-{name}.maybms", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(&p));
    p
}

fn rm_db(p: &std::path::Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(p));
}

#[test]
fn durable_session_survives_reopen_without_checkpoint() {
    let path = db_path("reopen");
    {
        let mut s = Session::open(&path).unwrap();
        assert!(s.is_durable());
        s.execute_script(
            "CREATE TABLE p (ssn INT, name TEXT); \
             INSERT INTO p VALUES ({1: 0.5, 2: 0.5}, 'ann'), (2, 'bob'); \
             REPAIR KEY p(ssn)",
        )
        .unwrap();
        // dropped here without CHECKPOINT: recovery must replay the WAL
    }
    let mut s = Session::open(&path).unwrap();
    let r = s.execute("SELECT POSSIBLE ssn, name, PROB() FROM p ORDER BY name").unwrap();
    let t = r.table().unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.rows()[0][0], Value::Int(1)); // ann's ssn repaired to 1
    assert_eq!(t.rows()[0][2], Value::Float(1.0));
    rm_db(&path);
}

#[test]
fn committed_transaction_is_one_wal_record_and_one_fsync() {
    let path = db_path("txn-group");
    let mut s = Session::open(&path).unwrap();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    let syncs_before = s.wal_sync_count().unwrap();
    let len_before = s.wal_len().unwrap();
    s.execute("BEGIN").unwrap();
    for i in 0..20 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // nothing reaches the log until COMMIT …
    assert_eq!(s.wal_len().unwrap(), len_before, "buffered, not appended");
    assert_eq!(s.wal_sync_count().unwrap(), syncs_before);
    s.execute("COMMIT").unwrap();
    // … and the whole transaction costs exactly one fsync
    assert_eq!(
        s.wal_sync_count().unwrap(),
        syncs_before + 1,
        "a transaction of N inserts must fsync exactly once"
    );
    assert!(s.wal_len().unwrap() > len_before);
    drop(s);
    let mut back = Session::open(&path).unwrap();
    assert_eq!(back.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 20);
    rm_db(&path);
}

#[test]
fn uncommitted_transaction_is_not_recovered() {
    let path = db_path("txn-kill");
    {
        let mut s = Session::open(&path).unwrap();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        s.execute("DELETE FROM t WHERE x = 1").unwrap();
        // killed mid-transaction: nothing after BEGIN was committed
    }
    let mut s = Session::open(&path).unwrap();
    let rows = s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().to_vec();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(1), "recovery rolls back the open transaction");
    rm_db(&path);
}

#[test]
fn empty_and_readonly_transactions_append_nothing() {
    let path = db_path("txn-empty");
    let mut s = Session::open(&path).unwrap();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    let len = s.wal_len().unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("SELECT POSSIBLE x FROM t").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(s.wal_len().unwrap(), len, "read-only transaction logs nothing");
    rm_db(&path);
}

#[test]
fn checkpoint_compacts_the_wal() {
    let path = db_path("ckpt");
    let mut s = Session::open(&path).unwrap();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("INSERT INTO t VALUES ({1: 0.9, 2: 0.1})").unwrap();
    let wal_before = s.wal_len().unwrap();
    assert!(wal_before > maybms_storage::WAL_HEADER_LEN);
    let r = s.execute("CHECKPOINT").unwrap();
    assert!(matches!(r, QueryResult::Text(ref t) if t.contains("checkpointed")));
    assert_eq!(s.wal_len().unwrap(), maybms_storage::WAL_HEADER_LEN);
    assert_eq!(s.storage_generation(), Some(1));
    // statements after the checkpoint land in the fresh WAL …
    s.execute("INSERT INTO t VALUES (7)").unwrap();
    drop(s);
    // … and reopening sees snapshot + tail
    let mut s2 = Session::open(&path).unwrap();
    assert_eq!(
        s2.execute("SELECT POSSIBLE x FROM t").unwrap().table().unwrap().len(),
        3
    );
    rm_db(&path);
}

#[test]
fn checkpoint_requires_a_database_file() {
    let mut s = Session::new();
    err_contains(s.execute("CHECKPOINT"), "requires a session opened");
}

#[test]
fn attach_makes_a_session_durable_and_refuses_clobbering() {
    let path = db_path("attach");
    let mut s = medical_session();
    s.attach(&path).unwrap();
    assert!(s.is_durable());
    assert_eq!(s.storage_generation(), Some(1), "attach checkpoints immediately");
    s.execute("CREATE TABLE t (x INT)").unwrap();
    drop(s);
    // reopen: medical data + the new table are both there
    let mut s2 = Session::open(&path).unwrap();
    let r = s2.execute("SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy'").unwrap();
    assert_eq!(r.table().unwrap().rows()[0][1], Value::Float(0.4));
    // attaching another session onto the same files is refused
    let mut s3 = Session::new();
    let e = s3.attach(&path).unwrap_err();
    assert!(e.to_string().contains("already holds a database"), "{e}");
    // and double-attach is refused
    let e2 = s2.attach(db_path("attach-other")).unwrap_err();
    assert!(e2.to_string().contains("already attached"), "{e2}");
    // attach inside a transaction is refused
    let mut s4 = Session::new();
    s4.execute("BEGIN").unwrap();
    let e3 = s4.attach(db_path("attach-txn")).unwrap_err();
    assert!(matches!(e3, SessionError::Transaction { .. }), "{e3:?}");
    rm_db(&path);
    rm_db(&db_path("attach-other"));
    rm_db(&db_path("attach-txn"));
}

#[test]
fn clones_are_detached() {
    let path = db_path("clone");
    let mut s = Session::open(&path).unwrap();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    let mut c = s.clone();
    assert!(!c.is_durable());
    // the clone keeps the state but mutations no longer hit the WAL
    c.execute("INSERT INTO t VALUES (1)").unwrap();
    drop(s);
    drop(c);
    let mut back = Session::open(&path).unwrap();
    assert_eq!(
        back.execute("SELECT POSSIBLE x FROM t").unwrap().table().unwrap().len(),
        0,
        "clone's insert must not reach the log"
    );
    rm_db(&path);
}

/// Regression for the clone-mid-transaction footgun: the clone must
/// carry the buffered-but-uncommitted state (not silently drop it), so
/// rollback on the clone restores the pre-BEGIN snapshot, and the
/// original session's transaction is unaffected by the clone.
#[test]
fn clone_mid_transaction_carries_buffered_state() {
    let path = db_path("clone-txn");
    let mut s = Session::open(&path).unwrap();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();

    let mut c = s.clone();
    assert!(c.in_transaction(), "clone must carry the open transaction");
    assert!(!c.is_durable());
    // the clone can keep going and roll back to the pre-BEGIN state
    c.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(c.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 2);
    c.execute("ROLLBACK").unwrap();
    assert_eq!(c.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 0);

    // the original's transaction is independent: commit lands on disk
    s.execute("COMMIT").unwrap();
    drop(s);
    drop(c);
    let mut back = Session::open(&path).unwrap();
    let rows = back.execute("SELECT POSSIBLE x FROM t").unwrap().rows().to_vec();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(1));
    rm_db(&path);
}

/// The embedded write path and the server's are one path, so they must
/// agree on what a transaction *is*: the same random script of
/// mutations, `SAVEPOINT`s and `ROLLBACK TO`s, run (a) on a durable
/// embedded session and (b) the way a server connection runs it — a
/// `writable_at` preview session whose surviving statements go to a
/// [`crate::GroupCommitter`] — logs the same statements in the same
/// order and ends byte-identical under the codec, in memory and after
/// recovery.
#[test]
fn embedded_and_group_commit_paths_log_the_same_statements() {
    use maybms_core::codec::encode_wsd;

    for seed in 1..=12u64 {
        // xorshift64: self-contained, deterministic per seed
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mutation = |rand: &mut dyn FnMut(u64) -> u64| match rand(10) {
            0 => format!("DELETE FROM t WHERE x = {}", rand(6)),
            1..=2 => format!("UPDATE t SET y = {} WHERE x = {}", rand(100), rand(6)),
            3 => "REPAIR KEY t(x)".to_string(),
            _ => format!("INSERT INTO t VALUES ({{{}: 0.5, {}: 0.5}}, {})", rand(6), 6 + rand(6), rand(100)),
        };

        let (path_a, path_b) =
            (db_path(&format!("diff-embedded-{seed}")), db_path(&format!("diff-grouped-{seed}")));
        let mut embedded = Session::open(&path_a).unwrap();
        let committer = crate::GroupCommitter::spawn(Session::open(&path_b).unwrap());
        let mut preview = Session::writable_at(&committer.snapshot());

        let create = "CREATE TABLE t (x INT, y INT)";
        embedded.execute(create).unwrap();
        committer.commit(vec![crate::parse(create).unwrap()]).unwrap();
        for _ in 0..12 {
            if rand(3) == 0 {
                // auto-commit: one statement, one durable write on each side
                let sql = mutation(&mut rand);
                let a = embedded.execute(&sql);
                let b = committer.commit(vec![crate::parse(&sql).unwrap()]);
                assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}: {sql}");
                continue;
            }
            preview.install_snapshot(&committer.snapshot()).unwrap();
            embedded.execute("BEGIN").unwrap();
            preview.execute("BEGIN").unwrap();
            let mut live: Vec<&str> = Vec::new();
            for _ in 0..1 + rand(8) {
                let sql = match rand(10) {
                    0..=1 => {
                        // two names only, so marks get shadowed
                        live.push(["a", "b"][rand(2) as usize]);
                        format!("SAVEPOINT {}", live[live.len() - 1])
                    }
                    2..=3 if !live.is_empty() => {
                        // any live mark: an older one kills the later ones
                        let name = live[rand(live.len() as u64) as usize];
                        let at = live.iter().rposition(|n| *n == name).unwrap();
                        live.truncate(at + 1);
                        format!("ROLLBACK TO {name}")
                    }
                    _ => mutation(&mut rand),
                };
                let (a, b) = (embedded.execute(&sql), preview.execute(&sql));
                assert_eq!(
                    a.as_ref().map(QueryResult::ack).map_err(ToString::to_string),
                    b.as_ref().map(QueryResult::ack).map_err(ToString::to_string),
                    "seed {seed}: {sql}"
                );
            }
            embedded.execute("COMMIT").unwrap();
            let survivors = preview.take_transaction().expect("transaction is open");
            if !survivors.is_empty() {
                committer.commit(survivors).unwrap();
            }
        }

        let grouped = committer.shutdown();
        let final_bytes = encode_wsd(embedded.wsd());
        assert_eq!(final_bytes, encode_wsd(grouped.wsd()), "seed {seed}: live states differ");
        drop((embedded, grouped));
        // what reached the two logs: framing differs by design (a bare
        // record per embedded auto-commit, a commit group per submission),
        // the statements and their order may not
        let logged = |path: &std::path::Path| -> Vec<Statement> {
            let recovered = maybms_storage::Database::open(path).unwrap();
            recovered
                .records
                .iter()
                .flat_map(|r| wire::decode_wal_record(r).unwrap())
                .collect()
        };
        let statements = logged(&path_a);
        assert!(statements.len() > 1, "seed {seed}: the script logged nothing");
        assert_eq!(statements, logged(&path_b), "seed {seed}: logged statements differ");
        for path in [&path_a, &path_b] {
            assert_eq!(final_bytes, encode_wsd(Session::open(path).unwrap().wsd()), "seed {seed}");
            rm_db(path);
        }
    }
}
