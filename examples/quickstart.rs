//! Quickstart: the paper's §2 medical scenario on the public API.
//!
//! Builds the probabilistic world-set decomposition printed in the paper,
//! inspects its worlds, runs the paper's query both through the algebra and
//! through SQL, checks the numbers the paper reports (P(world) = 0.42,
//! P(ultrasound) = 0.4), then walks the client API: prepared statements,
//! transactions (group commit), and a durable database that survives its
//! process (open → commit → reopen → recover).
//!
//! Run with: `cargo run --example quickstart`

use maybms::prelude::*;
use maybms_core::algebra::Query;
use maybms_core::examples::medical_wsd;
use maybms_core::exec::eval;
use maybms_relational::pretty;

fn main() {
    // 1. The WSD from the paper: 5 components representing 4 worlds.
    let wsd = medical_wsd();
    println!(
        "medical WSD: {} components representing {} worlds\n",
        wsd.num_components(),
        wsd.world_count()
    );

    // 2. Enumerate the worlds (possible only because this example is tiny —
    //    avoiding exactly this blow-up is what WSDs are for).
    let worlds = wsd.to_worldset(100).expect("4 worlds");
    for (i, (w, p)) in worlds.worlds().iter().enumerate() {
        println!("world {i} (probability {p:.2}):");
        print!("{}", pretty::render(w.get("R").expect("relation R"), 10));
    }
    // The paper: the hypothyroidism record with weight gain has p = 0.42.
    let target = worlds
        .worlds()
        .iter()
        .find(|(w, _)| {
            w.get("R")
                .map(|r| {
                    r.iter().any(|t| {
                        t[0] == Value::str("hypothyroidism") && t[2] == Value::str("weight gain")
                    })
                })
                .unwrap_or(false)
        })
        .expect("paper world");
    assert!((target.1 - 0.42).abs() < 1e-12);
    println!("P(hypothyroidism & weight gain world) = {:.2}  (paper: 0.42)\n", target.1);

    // 3. The paper's query, on the decomposition (no enumeration involved).
    let q = Query::table("R")
        .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
        .project(["test"]);
    let answer = eval(&q, &wsd).expect("query");
    println!(
        "answer WSD: {} component(s), {} worlds",
        answer.stats().components,
        answer.world_count()
    );
    for (t, p) in answer.tuple_confidence("result").expect("confidence") {
        println!("  {t} with probability {p}");
    }

    // 4. The same through SQL, with the probability construct.
    let mut session = maybms_sql::Session::with_wsd(medical_wsd());
    let r = session
        .execute("SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy'")
        .expect("sql");
    let table = r.table().expect("prob query returns a table");
    print!("\nSQL> SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy'\n{}",
        pretty::render(table, 10));
    assert_eq!(table.rows()[0][0], Value::str("ultrasound"));
    assert!((table.rows()[0][1].as_f64().expect("prob") - 0.4).abs() < 1e-9);
    println!("P(ultrasound) = 0.4, as in the paper. ✓");

    // 5. Prepared statements and transactions: parse once, bind many;
    //    a transaction applies atomically (and, on a durable session,
    //    commits its whole group under a single WAL fsync).
    session
        .execute("CREATE TABLE visits (pid INT, ward TEXT)")
        .expect("create");
    let ins = session
        .prepare("INSERT INTO visits VALUES (?, ?)")
        .expect("prepare");
    let mut txn = session.transaction().expect("begin");
    for (pid, ward) in [(1i64, "maternity"), (2, "endocrinology"), (3, "cardiology")] {
        txn.execute_prepared(&ins, &[Value::Int(pid), Value::str(ward)])
            .expect("bind + insert");
    }
    txn.execute("DELETE FROM visits WHERE ward = 'cardiology'")
        .expect("delete");
    txn.commit().expect("commit");
    let visits = session
        .execute("SELECT POSSIBLE pid, ward FROM visits ORDER BY pid")
        .expect("select");
    print!("\nprepared + transactional DML:\n{}", pretty::render(visits.table().expect("table"), 10));
    assert_eq!(visits.rows().len(), 2);
    println!("prepared INSERT bound 3×, transactional DELETE committed. ✓");

    // 6. Durability: open a database file, commit a transaction, drop the
    //    session ("crash"), reopen — recovery replays the log. Committed
    //    transactions are the unit of durability: one commit group, one
    //    fsync.
    let path = std::env::temp_dir()
        .join(format!("maybms-quickstart-{}.maybms", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(&path));
    let _ = std::fs::remove_file(maybms_storage::delta_path_for(&path));
    {
        let mut durable = maybms_sql::Session::open(&path).expect("open database");
        let mut txn = durable.transaction().expect("begin");
        txn.execute("CREATE TABLE notes (id INT, body TEXT)").expect("create");
        txn.execute("INSERT INTO notes VALUES (1, 'survives the process')").expect("insert");
        txn.commit().expect("commit");
        println!(
            "\ndurable session: committed through WAL LSN {} (generation {})",
            durable.last_lsn().expect("lsn"),
            durable.storage_generation().expect("generation")
        );
        // dropped here without CHECKPOINT — recovery must replay the WAL
    }
    let mut recovered = maybms_sql::Session::open(&path).expect("recover database");
    let notes = recovered.execute("SELECT POSSIBLE body FROM notes").expect("query");
    assert_eq!(notes.rows().len(), 1);
    println!("reopened: {:?} recovered from the write-ahead log. ✓", notes.rows()[0][0]);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(&path));
    let _ = std::fs::remove_file(maybms_storage::delta_path_for(&path));
}
