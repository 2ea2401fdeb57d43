//! Crash-recovery integration tests for the durable storage engine:
//! kill/reopen durability, checkpoint compaction, and the torn-write
//! regression (a WAL truncated mid-record must recover exactly the
//! committed prefix).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use maybms_core::exec::WorkerPool;
use maybms_sql::{QueryResult, Session};
use maybms_storage::{delta_path_for, wal_path_for, WAL_HEADER_LEN};

fn db_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir()
        .join(format!("maybms-persist-{}-{name}.maybms", std::process::id()));
    rm_db(&p);
    p
}

fn rm_db(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_path_for(p));
    let _ = std::fs::remove_file(delta_path_for(p));
}

/// Canonical string form of a query result, for exact comparisons.
fn rows_of(s: &mut Session, sql: &str) -> Vec<Vec<String>> {
    let t = match s.execute(sql).unwrap() {
        QueryResult::Table(t) => t,
        other => panic!("expected a table from {sql}, got {other:?}"),
    };
    t.rows()
        .iter()
        .map(|r| r.values().iter().map(|v| format!("{v:?}")).collect())
        .collect()
}

const SETUP: &str = "CREATE TABLE person (ssn INT, name TEXT); \
     INSERT INTO person VALUES ({1: 0.5, 2: 0.5}, 'ann'), (2, 'bob'), ({3, 4}, 'cal'); \
     CREATE TABLE cost (tname TEXT, usd INT); \
     INSERT INTO cost VALUES ('x', {10: 0.25, 20: 0.75}), ('y', 40); \
     REPAIR KEY person(ssn); \
     ALTER TABLE cost RENAME TO costs; \
     REPAIR CHECK costs: usd > 15; \
     UPDATE person SET name = 'anne' WHERE ssn = 1; \
     BEGIN; \
     DELETE FROM costs WHERE usd > 30; \
     INSERT INTO costs VALUES ('z', {17: 0.5, 18: 0.5}); \
     UPDATE costs SET tname = 'zz' WHERE usd = 17; \
     COMMIT";

const PROBES: &[&str] = &[
    "SELECT POSSIBLE ssn, name, PROB() FROM person ORDER BY name, ssn",
    "SELECT CERTAIN ssn, name FROM person ORDER BY ssn",
    "SELECT POSSIBLE tname, usd, PROB() FROM costs ORDER BY tname, usd",
    "SELECT EXPECTED SUM(usd) FROM costs",
    "SELECT PROB() FROM person WHERE ssn = 1",
];

/// Kill/reopen after committed statements (no checkpoint) loses nothing:
/// snapshot + WAL replay reproduce bit-identical query results at every
/// worker count.
#[test]
fn kill_and_reopen_loses_nothing() {
    let path = db_path("kill-reopen");
    let expected: Vec<Vec<Vec<String>>> = {
        let mut mem = Session::new();
        mem.execute_script(SETUP).unwrap();
        PROBES.iter().map(|q| rows_of(&mut mem, q)).collect()
    };

    {
        let mut s = Session::open(&path).unwrap();
        s.execute_script(SETUP).unwrap();
        // dropped without CHECKPOINT: this is the "kill" — everything
        // must come back from the WAL alone
    }
    assert!(!path.exists(), "no snapshot was ever checkpointed");

    for workers in [1usize, 2, 4] {
        let mut s =
            Session::open(&path).unwrap().with_worker_pool(Arc::new(WorkerPool::new(workers)));
        for (q, exp) in PROBES.iter().zip(&expected) {
            let got = rows_of(&mut s, q);
            assert_eq!(&got, exp, "query {q} diverged after recovery at {workers} workers");
        }
    }
    rm_db(&path);
}

/// The same holds across a checkpoint: snapshot load + WAL tail replay.
#[test]
fn checkpoint_then_more_statements_then_reopen() {
    let path = db_path("ckpt-tail");
    let tail = "INSERT INTO person VALUES ({5: 0.1, 6: 0.9}, 'dee'); REPAIR KEY person(ssn)";
    let expected: Vec<Vec<Vec<String>>> = {
        let mut mem = Session::new();
        mem.execute_script(SETUP).unwrap();
        mem.execute_script(tail).unwrap();
        PROBES.iter().map(|q| rows_of(&mut mem, q)).collect()
    };

    {
        let mut s = Session::open(&path).unwrap();
        s.execute_script(SETUP).unwrap();
        s.execute("CHECKPOINT").unwrap();
        assert_eq!(s.wal_len(), Some(WAL_HEADER_LEN), "checkpoint must empty the WAL");
        s.execute_script(tail).unwrap();
        assert!(s.wal_len().unwrap() > WAL_HEADER_LEN);
    }
    assert!(path.exists(), "checkpoint produced a snapshot");

    let mut s = Session::open(&path).unwrap();
    for (q, exp) in PROBES.iter().zip(&expected) {
        assert_eq!(&rows_of(&mut s, q), exp, "query {q} diverged after snapshot+tail recovery");
    }
    rm_db(&path);
}

/// Regression: a WAL truncated mid-record (torn write) recovers exactly
/// the committed prefix — the partial record is dropped, nothing before
/// it is lost, and the log accepts appends again afterwards.
#[test]
fn torn_wal_tail_keeps_exactly_the_committed_prefix() {
    let path = db_path("torn");
    let wal = wal_path_for(&path);

    // Statements whose effects are all distinguishable from each other.
    let stmts: Vec<String> = std::iter::once("CREATE TABLE t (x INT)".to_string())
        .chain((0..8).map(|i| format!("INSERT INTO t VALUES ({{{}: 0.5, {}: 0.5}})", i * 10, i * 10 + 1)))
        .collect();

    // Record the WAL length after each committed statement.
    let mut ends = Vec::new();
    {
        let mut s = Session::open(&path).unwrap();
        for stmt in &stmts {
            s.execute(stmt).unwrap();
            ends.push(s.wal_len().unwrap());
        }
    }

    // Tear the log in the middle of the last record (5 bytes short of its
    // end — past the record header, inside the payload).
    let full = *ends.last().unwrap();
    assert!(full - ends[ends.len() - 2] > 5, "last record long enough to tear");
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(full - 5).unwrap();
    drop(f);

    // Recovery: exactly the first n-1 statements survive.
    let expected: Vec<Vec<String>> = {
        let mut mem = Session::new();
        for stmt in &stmts[..stmts.len() - 1] {
            mem.execute(stmt).unwrap();
        }
        rows_of(&mut mem, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x")
    };
    let mut s = Session::open(&path).unwrap();
    let got = rows_of(&mut s, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x");
    assert_eq!(got, expected, "recovery must keep the committed prefix and drop the torn record");
    assert_eq!(
        s.wal_len(),
        Some(ends[ends.len() - 2]),
        "the torn tail must be truncated off the file"
    );

    // The log is healthy again: append, kill, reopen.
    s.execute("INSERT INTO t VALUES (999)").unwrap();
    drop(s);
    let mut s2 = Session::open(&path).unwrap();
    let after = rows_of(&mut s2, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x");
    assert_eq!(after.len(), expected.len() + 1);
    assert!(after.iter().any(|r| r[0].contains("999")));
    rm_db(&path);
}

/// Tearing at *every* byte offset inside the final record always recovers
/// the committed prefix (sweep version of the regression above).
#[test]
fn torn_tail_sweep() {
    let path = db_path("torn-sweep");
    let wal = wal_path_for(&path);
    let before_last;
    let full;
    {
        let mut s = Session::open(&path).unwrap();
        s.execute("CREATE TABLE t (x INT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        before_last = s.wal_len().unwrap();
        s.execute("INSERT INTO t VALUES ({2: 0.5, 3: 0.5})").unwrap();
        full = s.wal_len().unwrap();
    }
    let torn_record = std::fs::read(&wal).unwrap();
    for cut in before_last + 1..full {
        std::fs::write(&wal, &torn_record[..cut as usize]).unwrap();
        let mut s = Session::open(&path).unwrap();
        let rows = rows_of(&mut s, "SELECT POSSIBLE x FROM t ORDER BY x");
        assert_eq!(rows.len(), 1, "cut at {cut}: committed prefix only");
        assert_eq!(s.wal_len(), Some(before_last), "cut at {cut}: tail truncated");
    }
    rm_db(&path);
}

/// Acceptance: a WAL ending mid-commit-group recovers to the
/// **pre-transaction** state at every truncation offset. The whole
/// transaction is one CRC-framed record, so no cut can ever replay a
/// partial transaction — it is all (intact record) or nothing (torn).
#[test]
fn torn_commit_group_sweep_recovers_pre_transaction_state() {
    let path = db_path("torn-txn");
    let wal = wal_path_for(&path);
    let before_txn;
    let full;
    {
        let mut s = Session::open(&path).unwrap();
        s.execute_script(
            "CREATE TABLE t (x INT); \
             INSERT INTO t VALUES (1), ({2: 0.5, 3: 0.5})",
        )
        .unwrap();
        before_txn = s.wal_len().unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (10), (11)").unwrap();
        s.execute("UPDATE t SET x = 99 WHERE x = 1").unwrap();
        s.execute("DELETE FROM t WHERE x = 10").unwrap();
        s.execute("COMMIT").unwrap();
        full = s.wal_len().unwrap();
        assert!(s.wal_sync_count().unwrap() >= 1);
    }
    // the committed transaction is exactly one WAL record
    let raw = std::fs::read(&wal).unwrap();
    assert_eq!(full, raw.len() as u64);
    assert!(full > before_txn);

    // what recovery must produce for every torn cut: the pre-transaction
    // state, byte-identical under the codec
    let expected_rows: Vec<Vec<String>> = {
        let mut mem = Session::new();
        mem.execute_script("CREATE TABLE t (x INT); INSERT INTO t VALUES (1), ({2: 0.5, 3: 0.5})")
            .unwrap();
        rows_of(&mut mem, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x")
    };
    for cut in before_txn + 1..full {
        std::fs::write(&wal, &raw[..cut as usize]).unwrap();
        let mut s = Session::open(&path)
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let got = rows_of(&mut s, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x");
        assert_eq!(
            got, expected_rows,
            "cut {cut}: a torn commit group must roll the whole transaction back"
        );
        assert_eq!(s.wal_len(), Some(before_txn), "cut {cut}: torn group truncated");
    }

    // and the intact record replays the whole transaction
    std::fs::write(&wal, &raw).unwrap();
    let mut s = Session::open(&path).unwrap();
    let got = rows_of(&mut s, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x");
    // worlds: x=99 (was 1), {2,3} or-set, 11; 10 deleted
    assert_eq!(got.len(), 4);
    assert!(got.iter().any(|r| r[0].contains("99")));
    assert!(got.iter().any(|r| r[0].contains("11")));
    assert!(!got.iter().any(|r| r[0].contains("10")));
    rm_db(&path);
}

/// A process killed mid-transaction (no COMMIT) leaves nothing of the
/// transaction in the log: recovery lands exactly on the last committed
/// statement, at every worker count.
#[test]
fn kill_mid_transaction_recovers_pre_transaction_state() {
    let path = db_path("kill-txn");
    {
        let mut s = Session::open(&path).unwrap();
        s.execute_script("CREATE TABLE t (x INT); INSERT INTO t VALUES (1)").unwrap();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (2)").unwrap();
        s.execute("DELETE FROM t WHERE x = 1").unwrap();
        assert_eq!(
            rows_of(&mut s, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x").len(),
            1,
            "inside the transaction the session sees its own writes"
        );
        // killed here: the buffered records never reach the WAL
    }
    for workers in [1usize, 2, 4] {
        let mut s =
            Session::open(&path).unwrap().with_worker_pool(Arc::new(WorkerPool::new(workers)));
        let got = rows_of(&mut s, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x");
        assert_eq!(got.len(), 1, "workers = {workers}");
        assert!(got[0][0].contains('1'), "workers = {workers}: pre-transaction state");
    }
    rm_db(&path);
}

/// The group-commit acceptance: a transaction of N INSERTs performs
/// exactly one WAL fsync and lands as one record.
#[test]
fn transaction_of_n_inserts_is_one_fsync() {
    let path = db_path("one-fsync");
    let mut s = Session::open(&path).unwrap();
    s.execute("CREATE TABLE t (x INT)").unwrap();
    let syncs = s.wal_sync_count().unwrap();
    let len = s.wal_len().unwrap();
    s.execute("BEGIN").unwrap();
    for i in 0..50 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    assert_eq!(s.wal_sync_count().unwrap(), syncs, "nothing synced before COMMIT");
    assert_eq!(s.wal_len().unwrap(), len, "nothing appended before COMMIT");
    s.execute("COMMIT").unwrap();
    assert_eq!(s.wal_sync_count().unwrap(), syncs + 1, "50 inserts, one fsync");
    drop(s);
    let mut back = Session::open(&path).unwrap();
    assert_eq!(
        rows_of(&mut back, "SELECT POSSIBLE x, PROB() FROM t ORDER BY x").len(),
        50
    );
    rm_db(&path);
}

/// The snapshot file is verified on load: flipping any payload byte makes
/// recovery fail loudly instead of loading a silently wrong database.
#[test]
fn corrupt_snapshot_is_rejected() {
    let path = db_path("corrupt-snap");
    {
        let mut s = Session::open(&path).unwrap();
        s.execute_script("CREATE TABLE t (x INT); INSERT INTO t VALUES ({1: 0.5, 2: 0.5})")
            .unwrap();
        s.execute("CHECKPOINT").unwrap();
    }
    let mut raw = std::fs::read(&path).unwrap();
    // flip a byte inside the first page's payload (the page is mostly
    // zero padding for a snapshot this small, and padding is unchecked)
    let payload_at = maybms_storage::snapshot::PREAMBLE_LEN + maybms_storage::PAGE_HEADER_LEN + 10;
    raw[payload_at] ^= 0x20;
    std::fs::write(&path, &raw).unwrap();
    let err = Session::open(&path).unwrap_err();
    assert!(err.to_string().contains("storage error"), "{err}");
    rm_db(&path);
}

/// Fills a durable session with enough data that the snapshot spans many
/// pages, with the small mutable tables (SETUP) encoded *after* the bulk
/// so point mutations only dirty trailing pages. (The page diff runs over
/// the serialized stream, so a byte shift early in the stream cascades —
/// mutations near the end are the incremental sweet spot.)
fn bulk_then_setup(s: &mut Session) {
    s.execute("CREATE TABLE bulk (id INT, tag TEXT)").unwrap();
    let ins = s.prepare("INSERT INTO bulk VALUES (?, ?)").unwrap();
    let mut txn = s.transaction().unwrap();
    for i in 0..2000i64 {
        txn.execute_prepared(
            &ins,
            &[maybms_relational::Value::Int(i), maybms_relational::Value::str(format!("tag-{i}"))],
        )
        .unwrap();
    }
    txn.commit().unwrap();
    s.execute_script(SETUP).unwrap();
}

/// An incremental checkpoint (page-diff overlay) recovers byte-identical
/// state, leaves the base snapshot file untouched, and compacts the WAL
/// exactly like a full one.
#[test]
fn incremental_checkpoint_recovers_byte_identical_state() {
    let path = db_path("inc-ckpt");
    let mut s = Session::open(&path).unwrap();
    bulk_then_setup(&mut s);
    let r = s.execute("CHECKPOINT").unwrap();
    assert!(r.ack().contains("full"), "first checkpoint is full: {}", r.ack());
    let base_bytes = std::fs::read(&path).unwrap();

    // a point mutation, then an incremental checkpoint
    s.execute("UPDATE person SET name = 'anna' WHERE ssn = 1").unwrap();
    let r = s.execute("CHECKPOINT").unwrap();
    assert!(r.ack().contains("incremental"), "{}", r.ack());
    assert_eq!(s.wal_len(), Some(WAL_HEADER_LEN), "incremental checkpoint compacts the WAL");
    assert_eq!(s.storage_generation(), Some(2));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        base_bytes,
        "an incremental checkpoint must not rewrite the base snapshot"
    );
    assert!(delta_path_for(&path).exists(), "the overlay file holds the diff");

    // recovery: base + overlay is byte-identical to the live state
    let expected = maybms_core::codec::encode_wsd(s.wsd());
    let expected_rows: Vec<_> = PROBES.iter().map(|q| rows_of(&mut s, q)).collect();
    drop(s);
    let mut back = Session::open(&path).unwrap();
    assert_eq!(maybms_core::codec::encode_wsd(back.wsd()), expected);
    for (q, exp) in PROBES.iter().zip(&expected_rows) {
        assert_eq!(&rows_of(&mut back, q), exp, "query {q} diverged after overlay recovery");
    }

    // CHECKPOINT FULL collapses the overlay into a fresh base
    back.execute("INSERT INTO person VALUES (9, 'gus')").unwrap();
    let r = back.execute("CHECKPOINT FULL").unwrap();
    assert!(r.ack().contains("full"), "{}", r.ack());
    assert!(!delta_path_for(&path).exists(), "FULL must remove the overlay");
    assert_ne!(std::fs::read(&path).unwrap(), base_bytes, "FULL rewrites the base");
    rm_db(&path);
}

/// Acceptance (satellite): a checkpoint with zero mutations since the
/// last one is a pure no-op — no page rewrites, no generation bump, no
/// file touched.
#[test]
fn checkpoint_after_zero_mutations_is_a_noop() {
    let path = db_path("noop-ckpt");
    let mut s = Session::open(&path).unwrap();
    s.execute_script(SETUP).unwrap();
    s.execute("CHECKPOINT").unwrap();
    let generation = s.storage_generation();
    let base_bytes = std::fs::read(&path).unwrap();
    let had_overlay = delta_path_for(&path).exists();

    let r = s.execute("CHECKPOINT").unwrap();
    assert!(r.ack().contains("skipped"), "{}", r.ack());
    assert_eq!(s.storage_generation(), generation, "generation must not advance");
    assert_eq!(std::fs::read(&path).unwrap(), base_bytes, "no page was rewritten");
    assert_eq!(delta_path_for(&path).exists(), had_overlay, "no overlay appeared");
    assert_eq!(s.wal_len(), Some(WAL_HEADER_LEN));

    // …and the database still recovers normally afterwards
    s.execute("INSERT INTO person VALUES (9, 'gus')").unwrap();
    drop(s);
    let mut back = Session::open(&path).unwrap();
    assert!(rows_of(&mut back, "SELECT POSSIBLE ssn, name, PROB() FROM person ORDER BY name, ssn")
        .iter()
        .any(|r| r[1].contains("gus")));
    rm_db(&path);
}

/// Acceptance (satellite): a corrupt overlay page map fails recovery
/// loudly instead of assembling a frankenstein snapshot.
#[test]
fn corrupt_overlay_page_map_fails_loudly() {
    let path = db_path("bad-page-map");
    {
        let mut s = Session::open(&path).unwrap();
        bulk_then_setup(&mut s);
        s.execute("CHECKPOINT").unwrap();
        s.execute("UPDATE person SET name = 'anna' WHERE ssn = 1").unwrap();
        let r = s.execute("CHECKPOINT").unwrap();
        assert!(r.ack().contains("incremental"), "{}", r.ack());
    }
    let inc = delta_path_for(&path);
    let pristine = std::fs::read(&inc).unwrap();

    // flip a byte inside the page map (just past the fixed preamble)
    let mut bad = pristine.clone();
    bad[maybms_storage::delta::DELTA_PREAMBLE_LEN] ^= 0x01;
    std::fs::write(&inc, &bad).unwrap();
    let err = Session::open(&path).unwrap_err();
    assert!(
        err.to_string().contains("checksum") || err.to_string().contains("page"),
        "expected a loud page-map failure, got: {err}"
    );

    // flip a byte inside a stored page's payload: also loud
    let mut bad_page = pristine.clone();
    let npages = u32::from_le_bytes(pristine[52..56].try_into().unwrap()) as usize;
    assert!(npages >= 1);
    let first_page_payload = maybms_storage::delta::DELTA_PREAMBLE_LEN
        + npages * 4
        + 4
        + maybms_storage::PAGE_HEADER_LEN;
    bad_page[first_page_payload + 4] ^= 0x10;
    std::fs::write(&inc, &bad_page).unwrap();
    assert!(Session::open(&path).is_err());

    // the pristine overlay still recovers
    std::fs::write(&inc, &pristine).unwrap();
    let mut s = Session::open(&path).unwrap();
    assert!(rows_of(&mut s, "SELECT POSSIBLE ssn, name, PROB() FROM person ORDER BY name, ssn")
        .iter()
        .any(|r| r[1].contains("anna")));
    rm_db(&path);
}

/// The statements that wrote `tests/fixtures/before_sliced_crc.maybms`
/// (and its `.wal`), in order: an image written by the build before the
/// CRC-32 kernel went slice-by-16. Everything before `CHECKPOINT` is in
/// the snapshot; the rest is the WAL tail replayed on open.
const FIXTURE_SCRIPT: &[&str] = &[
    "CREATE TABLE person (ssn INT, name TEXT)",
    "INSERT INTO person VALUES ({1: 0.5, 2: 0.5}, 'ann'), (2, 'bob'), ({3: 0.3, 4: 0.7}, 'cal')",
    "CREATE TABLE kv (k INT, v INT)",
    "INSERT INTO kv VALUES (1, 10), (2, {20: 0.25, 21: 0.75}), (3, 30)",
    "CHECKPOINT",
    "INSERT INTO kv VALUES (4, 40)",
    "INSERT INTO person VALUES ({5: 0.9, 6: 0.1}, 'dee')",
    "UPDATE kv SET v = 11 WHERE k = 1",
    "UPDATE person SET name = 'anne' WHERE name = 'ann'",
    "INSERT INTO kv VALUES (5, {50: 0.5, 51: 0.5})",
];

const FIXTURE_PROBES: &[&str] = &[
    "SELECT POSSIBLE ssn, name, PROB() FROM person ORDER BY name, ssn",
    "SELECT CERTAIN k, v FROM kv ORDER BY k",
    "SELECT POSSIBLE k, v, PROB() FROM kv ORDER BY k, v",
    "SELECT EXPECTED SUM(v) FROM kv",
];

/// A database written before this build's checksum kernel — snapshot
/// pages and WAL frames alike — still opens, replays its WAL tail and
/// answers as the statements that wrote it say; a checkpoint taken by
/// this build then reopens to the same answers.
#[test]
fn an_image_written_by_an_earlier_build_still_opens() {
    let path = db_path("fixture");
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = fixtures.join("before_sliced_crc.maybms");
    std::fs::copy(&src, &path).unwrap();
    std::fs::copy(wal_path_for(&src), wal_path_for(&path)).unwrap();

    let expected: Vec<Vec<Vec<String>>> = {
        let mut mem = Session::new();
        for sql in FIXTURE_SCRIPT.iter().filter(|s| **s != "CHECKPOINT") {
            mem.execute(sql).unwrap();
        }
        FIXTURE_PROBES.iter().map(|q| rows_of(&mut mem, q)).collect()
    };
    let mut s = Session::open(&path).unwrap();
    let got: Vec<_> = FIXTURE_PROBES.iter().map(|q| rows_of(&mut s, q)).collect();
    assert_eq!(got, expected);
    assert_eq!(
        got[1],
        [["Int(1)", "Int(11)"], ["Int(3)", "Int(30)"], ["Int(4)", "Int(40)"]]
    );
    assert_eq!(got[3], [["Float(152.25)"]]);

    s.execute("CHECKPOINT").unwrap();
    drop(s);
    let mut s = Session::open(&path).unwrap();
    let reopened: Vec<_> = FIXTURE_PROBES.iter().map(|q| rows_of(&mut s, q)).collect();
    assert_eq!(reopened, expected);
    rm_db(&path);
}
