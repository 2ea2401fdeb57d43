//! The group-commit contract, measured from outside:
//!
//! * fsyncs grow **strictly slower** than committed groups — concurrent
//!   commits share one WAL batch append and one `sync_data`;
//! * a scripted fsync failure mid-batch poisons the database and NACKs
//!   **every** waiter in the batch (the shared fsync vouched for
//!   nobody), and later commits are refused at the gate;
//! * the durable-horizon wake-up: a WAL-shipping primary built from the
//!   committing session is woken by each batch append, so commits reach
//!   a replica even when the serve loop's idle wait is far beyond the
//!   test deadline.

use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use maybms_core::codec::encode_wsd;
use maybms_sql::replication::{follow, Primary, Replica};
use maybms_sql::{parse, GroupCommitConfig, GroupCommitter, Session};
use maybms_storage::{FaultSpec, FaultVfs, Vfs};

fn stmts(sql: &str) -> Vec<maybms_sql::Statement> {
    sql.split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).expect("parse"))
        .collect()
}

fn temp_db(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir()
        .join(format!("maybms-{name}-{}.maybms", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(&path));
    let _ = std::fs::remove_file(maybms_storage::delta_path_for(&path));
    path
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(path));
    let _ = std::fs::remove_file(maybms_storage::delta_path_for(path));
}

/// 8 barrier-aligned writers per round: the first submission opens the
/// group window and the other 7 ride its fsync. Strictly fewer fsyncs
/// than committed groups, and every ack carries a distinct LSN.
#[test]
fn fsyncs_grow_strictly_slower_than_commits() {
    let path = temp_db("gc-amortize");
    let mut session = Session::open(&path).expect("open");
    session.execute("CREATE TABLE t (w INT, r INT)").expect("create");
    let syncs_before = session.wal_sync_count().expect("durable");

    let committer = Arc::new(GroupCommitter::spawn_with(
        session,
        GroupCommitConfig {
            group_window: Duration::from_millis(100),
            ..GroupCommitConfig::default()
        },
    ));
    let writers = 8usize;
    let rounds = 5usize;
    let mut lsns: Vec<u64> = Vec::new();
    for round in 0..rounds {
        let barrier = Arc::new(Barrier::new(writers));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let committer = Arc::clone(&committer);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    committer
                        .commit(stmts(&format!("INSERT INTO t VALUES ({w}, {round})")))
                        .expect("commit")
                        .lsn
                })
            })
            .collect();
        lsns.extend(handles.into_iter().map(|h| h.join().expect("writer")));
    }

    let commits = (writers * rounds) as u64;
    lsns.sort_unstable();
    let mut dedup = lsns.clone();
    dedup.dedup();
    assert_eq!(lsns.len() as u64, commits);
    assert_eq!(lsns, dedup, "two commit groups were acked with the same LSN");

    let committer = Arc::into_inner(committer).expect("all writers joined");
    let session = committer.shutdown();
    let fsyncs = session.wal_sync_count().expect("durable") - syncs_before;
    assert!(
        fsyncs < commits,
        "no amortization: {commits} commits needed {fsyncs} fsyncs"
    );
    // the headline number: under ≥4 concurrent writers, well below 1
    let per_commit = fsyncs as f64 / commits as f64;
    assert!(
        per_commit < 1.0,
        "fsyncs per commit is {per_commit:.2}, expected < 1 under {writers} writers"
    );
    let rows = {
        let mut s = session;
        s.execute("SELECT CERTAIN w, r FROM t").expect("read").rows().len()
    };
    assert_eq!(rows as u64, commits, "every acked commit is in the final state");
    cleanup(&path);
}

/// Scripted fsync failure on the batch append: the database is
/// poisoned, **all** waiters in the batch are NACKed (none of their
/// groups got a durable fsync), the published snapshot rolls back to
/// the pre-batch state, and later commits are refused at the gate.
#[test]
fn fsync_failure_mid_batch_poisons_and_nacks_every_waiter() {
    const DB: &str = "/gc/db.maybms";
    let writers = 6usize;
    for nth in 1..=30u64 {
        let vfs = FaultVfs::with_schedule(vec![FaultSpec::fail_sync(nth)]);
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let Ok(mut session) = Session::open_with_vfs(DB, Arc::clone(&arc)) else {
            continue; // the fault hit open/recovery — not the case under test
        };
        if session.execute("CREATE TABLE t (x INT)").is_err() {
            continue; // the fault hit the setup append
        }
        let committer = Arc::new(GroupCommitter::spawn_with(
            session,
            GroupCommitConfig {
                group_window: Duration::from_millis(200),
                ..GroupCommitConfig::default()
            },
        ));
        let before = committer.snapshot();
        let barrier = Arc::new(Barrier::new(writers));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let committer = Arc::clone(&committer);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    committer.commit(stmts(&format!("INSERT INTO t VALUES ({w})")))
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().expect("writer")).collect();
        let failed = results.iter().filter(|r| r.is_err()).count();
        if failed == 0 {
            drop(results);
            let committer = Arc::into_inner(committer).expect("writers joined");
            drop(committer.shutdown());
            continue; // the fault never reached the batch append
        }

        // the fault hit the shared fsync: the ack discipline inverts —
        // nobody in the batch may be acked
        assert_eq!(
            failed, writers,
            "nth={nth}: only {failed}/{writers} waiters NACKed; the shared fsync \
             vouched for nobody, so all must fail"
        );
        for r in &results {
            let msg = r.as_ref().expect_err("checked above").to_string();
            assert!(
                msg.contains("poisoned"),
                "nth={nth}: NACK message does not name the poison: {msg}"
            );
        }
        // the published snapshot rolled back to the pre-batch state
        assert_eq!(
            encode_wsd(committer.snapshot().wsd()),
            encode_wsd(before.wsd()),
            "nth={nth}: a NACKed batch leaked into the published snapshot"
        );
        // later commits are refused at the gate, before executing
        let late = committer.commit(stmts("INSERT INTO t VALUES (99)"));
        let late_msg = late.expect_err("poisoned database accepted a commit").to_string();
        assert!(late_msg.contains("poisoned"), "gate refusal does not name the poison: {late_msg}");

        let committer = Arc::into_inner(committer).expect("writers joined");
        let session = committer.shutdown();
        assert!(session.is_poisoned(), "nth={nth}: session not poisoned after failed batch");
        return;
    }
    panic!("no fault schedule hit the batch append in 30 probes");
}

/// A primary built from the session a [`GroupCommitter`] writes is woken
/// by each batch append moving the durable horizon — never by its idle
/// timeout. The serve loop's idle wait is set far beyond the per-commit
/// deadline, so a replica only catches up in time if the wake-up works.
#[test]
fn group_commits_wake_the_primary_through_the_durable_horizon() {
    let path = temp_db("gc-notify");
    let mut session = Session::open(&path).expect("open");
    session.execute("CREATE TABLE n (x INT)").expect("create");
    // the idle wait is bounded by the heartbeat interval, set far beyond
    // the per-commit deadline: if a commit reaches the replica, it got
    // there via the horizon's wake-up
    let primary = Primary::new(&session)
        .expect("durable session")
        .with_heartbeat_interval(Duration::from_secs(300));
    let committer = GroupCommitter::spawn(session);
    let (stream, theirs) = UnixStream::pair().expect("socket pair");
    let serve = primary.spawn_serve(theirs);

    let replica = Arc::new(Mutex::new(Replica::new()));
    let follower = {
        let replica = Arc::clone(&replica);
        std::thread::spawn(move || {
            let _ = follow(&replica, stream);
        })
    };

    for i in 0..5 {
        let ack = committer
            .commit(stmts(&format!("INSERT INTO n VALUES ({i})")))
            .expect("commit");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let applied = replica.lock().expect("replica lock").applied_lsn();
            if applied >= ack.lsn {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "commit {i} (lsn {}) not applied in 10s with a 300s idle wait: \
                 the durable horizon's wake-up is broken",
                ack.lsn
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    primary.stop();
    let _ = serve.join();
    let _ = follower.join();
    drop(committer.shutdown());
    cleanup(&path);
}
