//! Crash-consistency torture tests: random statement scripts crossed
//! with random fault schedules on the [`FaultVfs`], plus deterministic
//! sweeps that place a single fault at *every* sync point / write of a
//! fixed workload.
//!
//! The oracle, for every run: after injecting faults, "crashing" the VFS
//! (dropping everything not yet fsynced) and reopening, the recovered
//! decomposition must be **byte-identical under the codec to the state
//! at some committed-group boundary** of the script — never a torn or
//! corrupt hybrid. And unless the schedule contained a *lying* fsync
//! (reports success, persists nothing — the one fault no storage engine
//! can see through), no group whose commit was acknowledged may be lost:
//! the boundary is at or after the last acked group.
//!
//! The random torture also runs a replica that follows the primary on the
//! same [`FaultVfs`]. Synced to the session's durable LSN before the
//! crash, its state must be a committed-group boundary too, and — again
//! short of a lying fsync — not one past the recovered primary's: the
//! primary ships only what its durable horizon covers.
//!
//! A failing run writes its full schedule + fault log to
//! `target/fault-artifacts/` before panicking, so the exact schedule can
//! be replayed (`MAYBMS_FAULT_SEEDS=<seed>`).

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use maybms_core::codec::encode_wsd;
use maybms_sql::replication::{Primary, Replica};
use maybms_sql::{Session, SessionError};
use maybms_storage::{Database, Fault, FaultOp, FaultSpec, FaultVfs, Vfs};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Every database in this file lives *inside* a [`FaultVfs`] — the path
/// is a pure key, nothing touches the real filesystem.
const DB: &str = "/fault/db.maybms";

fn seeds() -> Vec<u64> {
    match std::env::var("MAYBMS_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().expect("MAYBMS_FAULT_SEEDS: comma-separated u64s"))
            .collect(),
        Err(_) => (0..25).collect(),
    }
}

/// One committed unit of the script: a single autocommitted statement, a
/// `BEGIN`..`COMMIT` block, or a checkpoint (which commits nothing but
/// exercises the snapshot/rename path under faults).
#[derive(Debug, Clone)]
enum Group {
    Auto(String),
    Txn(Vec<String>),
    Checkpoint { full: bool },
}

fn gen_script(rng: &mut StdRng) -> Vec<Group> {
    let mut groups = vec![Group::Auto("CREATE TABLE t (x INT, tag TEXT)".into())];
    let mut next_val = 0i64;
    let n = rng.gen_range(6usize..=14);
    for i in 0..n {
        if rng.gen_bool(0.15) {
            groups.push(Group::Checkpoint { full: rng.gen_bool(0.5) });
            continue;
        }
        let mut stmt = |rng: &mut StdRng| {
            let kind = rng.gen_range(0u32..4);
            match kind {
                0 => {
                    let a = next_val;
                    next_val += 2;
                    format!("INSERT INTO t VALUES ({{{a}: 0.5, {}: 0.5}}, 'g{i}')", a + 1)
                }
                1 => {
                    let a = next_val;
                    next_val += 1;
                    format!("INSERT INTO t VALUES ({a}, 'c{i}')")
                }
                2 => format!("DELETE FROM t WHERE x > {}", rng.gen_range(0i64..next_val.max(1))),
                _ => format!(
                    "UPDATE t SET tag = 'u{i}' WHERE x < {}",
                    rng.gen_range(0i64..next_val.max(1))
                ),
            }
        };
        if rng.gen_bool(0.4) {
            let k = rng.gen_range(1usize..=3);
            groups.push(Group::Txn((0..k).map(|_| stmt(rng)).collect()));
        } else {
            groups.push(Group::Auto(stmt(rng)));
        }
    }
    groups
}

fn gen_schedule(rng: &mut StdRng) -> Vec<FaultSpec> {
    let n = rng.gen_range(1usize..=4);
    (0..n)
        .map(|_| {
            let nth = rng.gen_range(0u64..30);
            match rng.gen_range(0u32..10) {
                // 40% sync faults (half failing, half lying)
                0..=3 => {
                    if rng.gen_bool(0.5) {
                        FaultSpec::fail_sync(nth)
                    } else {
                        FaultSpec::lie_sync(nth)
                    }
                }
                // 40% write faults
                4..=7 => match rng.gen_range(0u32..3) {
                    0 => FaultSpec::fail_write(nth),
                    1 => FaultSpec::enospc_write(nth),
                    _ => FaultSpec::short_write(nth, rng.gen_range(0usize..40)),
                },
                // 20% rename faults (rarer ops, keep nth small)
                _ => FaultSpec::fail_rename(rng.gen_range(0u64..6)),
            }
        })
        .collect()
}

fn run_group(s: &mut Session, g: &Group) -> Result<(), SessionError> {
    match g {
        Group::Auto(sql) => s.execute(sql).map(|_| ()),
        Group::Txn(stmts) => {
            s.execute("BEGIN")?;
            for sql in stmts {
                if let Err(e) = s.execute(sql) {
                    let _ = s.execute("ROLLBACK");
                    return Err(e);
                }
            }
            s.execute("COMMIT").map(|_| ())
        }
        Group::Checkpoint { full } => s
            .execute(if *full { "CHECKPOINT FULL" } else { "CHECKPOINT" })
            .map(|_| ()),
    }
}

/// The codec bytes of the state after each script prefix:
/// `candidates[k]` is the state once groups `0..k` have committed
/// (computed on a plain in-memory session — the engine is
/// deterministic, so these are the only legal recovery outcomes).
fn prefix_states(groups: &[Group]) -> Vec<Vec<u8>> {
    let mut mem = Session::new();
    let mut states = vec![encode_wsd(mem.wsd())];
    for g in groups {
        match g {
            Group::Checkpoint { .. } => {} // no state change
            other => run_group(&mut mem, other).expect("script must be valid in memory"),
        }
        states.push(encode_wsd(mem.wsd()));
    }
    states
}

struct RunOutcome {
    /// Groups whose commit was acknowledged (`Ok` returned).
    acked: usize,
    /// `acked`, plus the failed group if one was attempted.
    attempted: usize,
    /// The error that stopped the script, if any.
    error: Option<String>,
}

fn open(vfs: &FaultVfs) -> Result<Session, RunOutcome> {
    Session::open_with_vfs(DB, Arc::new(vfs.clone()) as Arc<dyn Vfs>).map_err(|e| RunOutcome {
        acked: 0,
        attempted: 0,
        error: Some(format!("open: {e}")),
    })
}

/// Runs `groups` against a fresh durable session on `vfs` until the
/// first failure.
fn run_script(vfs: &FaultVfs, groups: &[Group]) -> RunOutcome {
    match open(vfs) {
        Ok(mut session) => run_groups(&mut session, groups),
        Err(outcome) => outcome,
    }
}

fn run_groups(session: &mut Session, groups: &[Group]) -> RunOutcome {
    let mut acked = 0;
    for g in groups {
        match run_group(session, g) {
            Ok(()) => acked += 1,
            Err(e) => {
                return RunOutcome { acked, attempted: acked + 1, error: Some(e.to_string()) }
            }
        }
    }
    RunOutcome { acked, attempted: acked, error: None }
}

/// Dumps everything needed to replay a failing schedule, then panics.
fn fail_with_artifact(name: &str, details: &str) -> ! {
    let dir = Path::new("target/fault-artifacts");
    let _ = std::fs::create_dir_all(dir);
    let file = dir.join(format!("{name}.txt"));
    let _ = std::fs::write(&file, details);
    panic!("{name}: torture property violated (schedule written to {}):\n{details}", file.display());
}

/// [`run_script`] with a replica following the primary over a socket
/// pair, on the same `vfs`. Before returning (so before any crash) the
/// replica syncs to the session's durable LSN, then keeps applying for
/// 20 ms more up to a heartbeat — so a record the primary should not
/// have shipped has reached it. Returns the replica's codec bytes, or
/// why following failed.
fn run_followed_script(
    vfs: &FaultVfs,
    groups: &[Group],
) -> (RunOutcome, Option<Result<Vec<u8>, String>>) {
    let mut session = match open(vfs) {
        Ok(s) => s,
        Err(outcome) => return (outcome, None),
    };
    let primary = Primary::new(&session)
        .expect("a durable session")
        .with_heartbeat_interval(Duration::from_millis(1));
    let (ours, theirs) = UnixStream::pair().expect("socket pair");
    let serving = primary.spawn_serve(theirs);
    let mut replica = Replica::new();
    let conn = replica.connect(ours);
    let outcome = run_groups(&mut session, groups);
    let followed = (|| {
        let mut conn = conn.map_err(|e| e.to_string())?;
        let durable = session.last_lsn().expect("durable");
        replica.sync_to(&mut conn, durable).map_err(|e| e.to_string())?;
        let drained = Instant::now() + Duration::from_millis(20);
        loop {
            let msg = conn.recv().map_err(|e| e.to_string())?;
            let heartbeat = matches!(msg, maybms_storage::Msg::Heartbeat { .. });
            replica.apply_msg(msg).map_err(|e| e.to_string())?;
            if heartbeat && Instant::now() >= drained {
                return Ok(encode_wsd(replica.session().wsd()));
            }
        }
    })();
    primary.stop();
    let _ = serving.join();
    (outcome, Some(followed))
}

/// The crash-consistency oracle (see the module docs); `replica` is what
/// a follower applied before the crash, if one ran.
fn assert_crash_consistent(
    name: &str,
    vfs: &FaultVfs,
    schedule: &[FaultSpec],
    outcome: &RunOutcome,
    candidates: &[Vec<u8>],
    replica: Option<Result<Vec<u8>, String>>,
) {
    let had_lie = schedule.iter().any(|s| matches!(s.fault, Fault::SyncLie));
    vfs.crash();
    vfs.clear_schedule();
    let details = || {
        format!(
            "schedule: {schedule:?}\nacked: {} attempted: {} error: {:?}\nfault log:\n  {}\n",
            outcome.acked,
            outcome.attempted,
            outcome.error,
            vfs.fault_log().join("\n  ")
        )
    };
    let reopened = match Session::open_with_vfs(DB, Arc::new(vfs.clone()) as Arc<dyn Vfs>) {
        Ok(s) => s,
        Err(e) => fail_with_artifact(name, &format!("{}reopen failed: {e}", details())),
    };
    let recovered = encode_wsd(reopened.wsd());
    let hi = outcome.attempted.min(candidates.len() - 1);
    if !candidates[..=hi].contains(&recovered) {
        fail_with_artifact(
            name,
            &format!("{}recovered state matches NO committed-group prefix", details()),
        );
    }
    if !had_lie && !candidates[outcome.acked..=hi].contains(&recovered) {
        fail_with_artifact(
            name,
            &format!(
                "{}durability lost without a lying fsync: recovered state predates \
                 the last acknowledged group",
                details()
            ),
        );
    }
    let replica = match replica {
        None => return,
        Some(Ok(bytes)) => bytes,
        Some(Err(e)) => fail_with_artifact(name, &format!("{}following failed: {e}", details())),
    };
    let Some(shipped) = candidates[..=hi].iter().position(|c| *c == replica) else {
        fail_with_artifact(
            name,
            &format!("{}replica state matches NO committed-group prefix", details()),
        )
    };
    let kept = candidates[..=hi].iter().rposition(|c| *c == recovered).expect("checked above");
    if !had_lie && shipped > kept {
        fail_with_artifact(
            name,
            &format!(
                "{}replica is past the recovered primary without a lying fsync: it \
                 holds group prefix {shipped}, recovery kept {kept}",
                details()
            ),
        );
    }
}

/// The tentpole property: random scripts × random fault schedules,
/// recovery always lands on a committed-group boundary, and so does a
/// follower, never past the recovered primary.
#[test]
fn torture_random_scripts_random_faults() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = gen_script(&mut rng);
        let candidates = prefix_states(&groups);
        let schedule = gen_schedule(&mut rng);
        let vfs = FaultVfs::with_schedule(schedule.clone());
        let (outcome, replica) = run_followed_script(&vfs, &groups);
        assert_crash_consistent(
            &format!("torture-seed-{seed}"),
            &vfs,
            &schedule,
            &outcome,
            &candidates,
            replica,
        );
    }
}

/// A fixed workload covering autocommit, group commit and checkpoints —
/// the sweeps below place one fault at every one of its sync points /
/// writes.
fn sweep_script() -> Vec<Group> {
    vec![
        Group::Auto("CREATE TABLE t (x INT, tag TEXT)".into()),
        Group::Auto("INSERT INTO t VALUES ({1: 0.5, 2: 0.5}, 'a')".into()),
        Group::Txn(vec![
            "INSERT INTO t VALUES (3, 'b')".into(),
            "UPDATE t SET tag = 'bb' WHERE x = 3".into(),
        ]),
        Group::Checkpoint { full: false },
        Group::Auto("INSERT INTO t VALUES (4, 'c')".into()),
        Group::Txn(vec![
            "DELETE FROM t WHERE x > 3".into(),
            "INSERT INTO t VALUES ({5, 6}, 'd')".into(),
        ]),
        Group::Checkpoint { full: true },
        Group::Auto("INSERT INTO t VALUES (7, 'e')".into()),
    ]
}

/// Counts how many operations of class `op` the clean workload issues.
fn count_ops(groups: &[Group], op: FaultOp) -> u64 {
    let vfs = FaultVfs::new();
    let outcome = run_script(&vfs, groups);
    assert_eq!(outcome.error, None, "sweep script must run clean without faults");
    vfs.op_count(op)
}

/// Whether a [`FaultVfs::fault_log`] line records a fault fired on the
/// directory fsync that publishes a WAL file.
fn is_wal_dir_sync(log_line: &str) -> bool {
    log_line.contains("sync_parent_dir") && log_line.ends_with(".wal)")
}

/// An fsync that *fails* at every single sync point of the workload:
/// recovery must land on a boundary at or after the last acked group
/// (fsyncgate semantics — a failed fsync is never retried-and-trusted).
#[test]
fn fsync_failure_at_every_sync_point() {
    let groups = sweep_script();
    let candidates = prefix_states(&groups);
    let syncs = count_ops(&groups, FaultOp::Sync);
    assert!(syncs >= 8, "expected a sync-heavy workload, saw {syncs}");
    let mut wal_dir_syncs_hit = 0;
    for n in 0..syncs {
        let schedule = vec![FaultSpec::fail_sync(n)];
        let vfs = FaultVfs::with_schedule(schedule.clone());
        let outcome = run_script(&vfs, &groups);
        wal_dir_syncs_hit += vfs.fault_log().iter().filter(|l| is_wal_dir_sync(l)).count();
        assert_crash_consistent(
            &format!("fsync-fail-{n}"),
            &vfs,
            &schedule,
            &outcome,
            &candidates,
            None,
        );
    }
    // the sweep reached the directory fsync of every WAL publish: the
    // log created at open and the two rotations by the checkpoints
    assert_eq!(wal_dir_syncs_hit, 3);
}

/// An fsync that *lies* (reports success, persists nothing) at every
/// sync point: acked data may be lost — that is physics — but recovery
/// must still land on a committed-group boundary, never corruption.
#[test]
fn lying_fsync_at_every_sync_point() {
    let groups = sweep_script();
    let candidates = prefix_states(&groups);
    let syncs = count_ops(&groups, FaultOp::Sync);
    for n in 0..syncs {
        let schedule = vec![FaultSpec::lie_sync(n)];
        let vfs = FaultVfs::with_schedule(schedule.clone());
        let outcome = run_script(&vfs, &groups);
        assert_crash_consistent(
            &format!("fsync-lie-{n}"),
            &vfs,
            &schedule,
            &outcome,
            &candidates,
            None,
        );
    }
}

/// `ENOSPC` at every write a `CHECKPOINT` / `CHECKPOINT FULL` issues, at
/// the session level. Before the publish rename the session must
/// *degrade* (read-only, structured error, recoverable by a retried
/// checkpoint once space is back); after it, the handle poisons itself.
/// Either way the pre-checkpoint state survives a crash.
#[test]
fn enospc_at_every_checkpoint_write_degrades_session() {
    for full in [false, true] {
        let setup = vec![
            Group::Auto("CREATE TABLE t (x INT, tag TEXT)".into()),
            Group::Auto("INSERT INTO t VALUES ({1: 0.5, 2: 0.5}, 'a')".into()),
            Group::Auto("INSERT INTO t VALUES (3, 'b')".into()),
        ];
        let candidates = prefix_states(&setup);
        let pre_checkpoint = candidates.last().unwrap().clone();

        // writes issued by setup alone, then by setup + checkpoint
        let vfs = FaultVfs::new();
        let outcome = run_script(&vfs, &setup);
        assert_eq!(outcome.error, None);
        let before = vfs.op_count(FaultOp::Write);
        let mut groups = setup.clone();
        groups.push(Group::Checkpoint { full });
        let total = count_ops(&groups, FaultOp::Write);
        assert!(total > before, "a checkpoint must write");

        for n in before..total {
            let vfs = FaultVfs::with_schedule(vec![FaultSpec::enospc_write(n)]);
            let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
            let mut s = Session::open_with_vfs(DB, Arc::clone(&arc)).unwrap();
            for g in &setup {
                run_group(&mut s, g).unwrap();
            }
            let sql = if full { "CHECKPOINT FULL" } else { "CHECKPOINT" };
            let err = s.execute(sql).expect_err("checkpoint must fail under ENOSPC");
            assert!(
                err.to_string().contains("No space left"),
                "error must surface ENOSPC: {err}"
            );
            if s.is_poisoned() {
                // post-publish window (WAL swap): fail-stop is correct
                let refused = s.execute("INSERT INTO t VALUES (9, 'x')").unwrap_err();
                assert!(refused.to_string().contains("poisoned"), "{refused}");
            } else {
                // pre-publish: graceful degradation to read-only
                assert!(s.is_degraded(), "ENOSPC before publish must degrade: {err}");
                assert!(matches!(err, SessionError::Degraded { .. }), "{err}");
                let refused = s.execute("INSERT INTO t VALUES (9, 'x')").unwrap_err();
                assert!(matches!(refused, SessionError::Degraded { .. }), "{refused}");
                // queries still answer
                assert_eq!(
                    s.execute("SELECT POSSIBLE x FROM t WHERE x = 3").unwrap().rows().len(),
                    1
                );
                // space comes back: a retried checkpoint clears the
                // degradation and writes flow again
                vfs.clear_schedule();
                s.execute(sql).unwrap();
                assert!(!s.is_degraded());
                s.execute("INSERT INTO t VALUES (10, 'y')").unwrap();
            }
            // crash + reopen: the pre-checkpoint state (or better, if the
            // retry above committed more) — never less, never torn
            drop(s);
            vfs.clear_schedule();
            vfs.crash();
            let reopened = Session::open_with_vfs(DB, arc).unwrap();
            let recovered = encode_wsd(reopened.wsd());
            let candidates_now = [pre_checkpoint.clone(), {
                let mut mem = Session::new();
                for g in &setup {
                    run_group(&mut mem, g).unwrap();
                }
                let _ = mem.execute("INSERT INTO t VALUES (10, 'y')");
                encode_wsd(mem.wsd())
            }];
            assert!(
                candidates_now.contains(&recovered),
                "ENOSPC sweep (full={full}, write {n}): recovered state is neither the \
                 pre-checkpoint state nor the post-retry state"
            );
        }
    }
}

/// `ENOSPC` at every write of an *incremental* (page-diff overlay)
/// checkpoint, at the `Database` level with tiny pages: recovery must
/// yield the base snapshot + WAL records or the published overlay —
/// never a half-written overlay assembled into a wrong payload.
#[test]
fn enospc_at_every_write_of_incremental_checkpoint() {
    // A payload two pages wide (page_size 64) where the second version
    // changes only one page → the incremental path triggers.
    let v1: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8).collect();
    let mut v2 = v1.clone();
    v2[3] ^= 0xff; // one early page changes, the rest stay

    let run = |schedule: Vec<FaultSpec>| -> (FaultVfs, Result<(), String>) {
        let vfs = FaultVfs::with_schedule(schedule);
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let r = (|| {
            let mut db = Database::open_with_vfs(DB, 64, Arc::clone(&arc))
                .map_err(|e| e.to_string())?
                .db;
            db.append(b"r1").map_err(|e| e.to_string())?;
            db.checkpoint(&v1).map_err(|e| e.to_string())?;
            db.append(b"r2").map_err(|e| e.to_string())?;
            db.checkpoint(&v2).map_err(|e| e.to_string())?;
            Ok(())
        })();
        (vfs, r)
    };

    // clean run: count writes, prove the second checkpoint is incremental
    let (clean, ok) = run(Vec::new());
    assert_eq!(ok, Ok(()));
    let total = clean.op_count(FaultOp::Write);

    for n in 0..total {
        let (vfs, result) = run(vec![FaultSpec::enospc_write(n)]);
        vfs.crash();
        vfs.clear_schedule();
        let recovered = Database::open_with_vfs(DB, 64, Arc::new(vfs.clone()) as Arc<dyn Vfs>)
            .unwrap_or_else(|e| {
                fail_with_artifact(
                    &format!("enospc-incremental-{n}"),
                    &format!("reopen failed: {e}\nfault log:\n  {}", vfs.fault_log().join("\n  ")),
                )
            });
        // the effective durable state must be a committed boundary:
        // nothing yet, v1 (+ any replayable records), or v2
        let snap = recovered.snapshot.clone();
        let legal = snap.is_none() || snap.as_deref() == Some(&v1[..]) || snap.as_deref() == Some(&v2[..]);
        if !legal {
            fail_with_artifact(
                &format!("enospc-incremental-{n}"),
                &format!(
                    "run result: {result:?}\nrecovered snapshot is a hybrid \
                     ({} bytes)\nfault log:\n  {}",
                    snap.map(|s| s.len()).unwrap_or(0),
                    vfs.fault_log().join("\n  ")
                ),
            );
        }
    }
}

/// A torn (short) write on the commit group's WAL append: `COMMIT` must
/// fail, the transaction must roll back cleanly in memory, the handle
/// must poison, and recovery must truncate the torn tail back to the
/// last committed statement.
#[test]
fn short_write_tears_commit_group() {
    let vfs = FaultVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut s = Session::open_with_vfs(DB, Arc::clone(&arc)).unwrap();
    s.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'keep')").unwrap();

    // tear the very next WAL write (the commit group) after 5 bytes
    vfs.push_fault(FaultSpec::short_write(vfs.op_count(FaultOp::Write), 5));
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (2, 'lost')").unwrap();
    s.execute("INSERT INTO t VALUES (3, 'lost')").unwrap();
    let err = s.execute("COMMIT").unwrap_err();
    assert!(err.to_string().contains("rolled back"), "{err}");

    // the rollback was clean: memory shows exactly the pre-BEGIN state
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
    // and the handle is poisoned — no write may follow an unknown-durability append
    assert!(s.is_poisoned());
    assert!(s.execute("INSERT INTO t VALUES (4, 'no')").unwrap_err().to_string().contains("poisoned"));

    drop(s);
    vfs.crash();
    vfs.clear_schedule();
    let mut reopened = Session::open_with_vfs(DB, arc).unwrap();
    assert_eq!(reopened.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
    assert!(!reopened.is_poisoned());
}

/// A failed fsync on an autocommit append poisons the session: the
/// statement is reported NOT durable, later writes are refused, queries
/// still answer, and reopening recovers the durable prefix.
#[test]
fn failed_fsync_poisons_until_reopen() {
    let vfs = FaultVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut s = Session::open_with_vfs(DB, Arc::clone(&arc)).unwrap();
    s.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'durable')").unwrap();

    vfs.push_fault(FaultSpec::fail_sync(vfs.op_count(FaultOp::Sync)));
    let err = s.execute("INSERT INTO t VALUES (2, 'vanishes')").unwrap_err();
    assert!(err.to_string().contains("NOT durable"), "{err}");
    assert!(s.is_poisoned());
    assert!(s.poison_reason().unwrap().contains("durability is unknown"));

    // fsyncgate: the next write must NOT silently retry the sync — it is refused
    let refused = s.execute("INSERT INTO t VALUES (3, 'no')").unwrap_err();
    assert!(refused.to_string().contains("poisoned"), "{refused}");
    // reads still work (memory holds row 2; divergence is documented)
    assert_eq!(s.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 2);

    drop(s);
    vfs.crash();
    vfs.clear_schedule();
    let mut reopened = Session::open_with_vfs(DB, arc).unwrap();
    assert_eq!(reopened.execute("SELECT POSSIBLE x FROM t").unwrap().rows().len(), 1);
}

/// `CHECKPOINT` rotates the WAL by rename, and the rename is only
/// durable once the directory is fsynced. When that fsync fails the
/// checkpoint must report it and the handle must refuse every later
/// write — a commit appended to the new log would be acknowledged
/// against a directory entry that may not survive power loss — and
/// reopening recovers everything committed before the checkpoint.
#[test]
fn failed_directory_fsync_on_wal_rotation_fails_the_checkpoint() {
    let vfs = FaultVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut s = Session::open_with_vfs(DB, Arc::clone(&arc)).unwrap();
    s.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'committed')").unwrap();
    let committed = encode_wsd(s.wsd());

    // a checkpoint syncs: snapshot file, snapshot directory, new WAL
    // file, WAL directory — fail the last
    vfs.push_fault(FaultSpec::fail_sync(vfs.op_count(FaultOp::Sync) + 3));
    let err = s.execute("CHECKPOINT").unwrap_err();
    assert!(err.to_string().contains("sync WAL directory"), "{err}");
    let fired = vfs.fault_log();
    assert!(fired.len() == 1 && is_wal_dir_sync(&fired[0]), "{fired:?}");
    assert!(s.is_poisoned());
    let refused = s.execute("INSERT INTO t VALUES (2, 'never acknowledged')").unwrap_err();
    assert!(refused.to_string().contains("poisoned"), "{refused}");

    drop(s);
    vfs.crash();
    vfs.clear_schedule();
    let mut reopened = Session::open_with_vfs(DB, arc).unwrap();
    assert_eq!(encode_wsd(reopened.wsd()), committed);
    reopened.execute("INSERT INTO t VALUES (2, 'after recovery')").unwrap();
}

/// Bit flips on every read of recovery: opening either fails loudly
/// (checksums catch the flip) or — when the flip lands in padding or
/// another unchecked region — yields the exactly correct state. Never a
/// silently wrong database.
#[test]
fn bit_flip_on_every_recovery_read() {
    // build a database with a snapshot, an overlay-able history and a
    // live WAL tail, entirely inside a clean FaultVfs
    let groups = sweep_script();
    let vfs = FaultVfs::new();
    let outcome = run_script(&vfs, &groups);
    assert_eq!(outcome.error, None);
    vfs.crash(); // keep only the durable images
    let files = vfs.durable_files();
    let expected = prefix_states(&groups).last().unwrap().clone();

    // count the reads a clean reopen performs
    let clean = FaultVfs::new();
    for (p, bytes) in &files {
        clean.install(p, bytes.clone());
    }
    let reopened = Session::open_with_vfs(DB, Arc::new(clean.clone()) as Arc<dyn Vfs>).unwrap();
    assert_eq!(encode_wsd(reopened.wsd()), expected, "clean reopen must recover the final state");
    let reads = clean.op_count(FaultOp::Read);
    assert!(reads >= 2, "recovery must read");

    for n in 0..reads {
        let vfs = FaultVfs::new();
        for (p, bytes) in &files {
            vfs.install(p, bytes.clone());
        }
        // vary the flipped bit with n so different bytes get hit
        vfs.push_fault(FaultSpec::flip_read_bit(n, (n as usize) * 13 + 1));
        match Session::open_with_vfs(DB, Arc::new(vfs.clone()) as Arc<dyn Vfs>) {
            Err(_) => {} // loud rejection: exactly right
            Ok(s) => {
                if encode_wsd(s.wsd()) != expected {
                    fail_with_artifact(
                        &format!("bit-flip-read-{n}"),
                        &format!(
                            "a bit flip on read {n} produced a silently WRONG database\n\
                             fault log:\n  {}",
                            vfs.fault_log().join("\n  ")
                        ),
                    );
                }
            }
        }
    }
}

/// An I/O error on every read of recovery: opening either fails with a
/// typed error or recovers exactly the committed state, never panics,
/// and leaves the files so that a fault-free reopen afterwards recovers
/// the committed state byte for byte — a read that failed must not be
/// mistaken for a torn tail and truncated away.
#[test]
fn read_error_on_every_recovery_read() {
    let groups = sweep_script();
    let vfs = FaultVfs::new();
    let outcome = run_script(&vfs, &groups);
    assert_eq!(outcome.error, None);
    vfs.crash(); // keep only the durable images
    let files = vfs.durable_files();
    let expected = prefix_states(&groups).last().unwrap().clone();
    let fresh = || {
        let vfs = FaultVfs::new();
        for (p, bytes) in &files {
            vfs.install(p, bytes.clone());
        }
        vfs
    };

    // count the reads a clean reopen performs
    let clean = fresh();
    let reopened = Session::open_with_vfs(DB, Arc::new(clean.clone()) as Arc<dyn Vfs>).unwrap();
    assert_eq!(encode_wsd(reopened.wsd()), expected, "clean reopen must recover the final state");
    drop(reopened);
    let reads = clean.op_count(FaultOp::Read);
    assert!(reads >= 2, "recovery must read");

    for n in 0..reads {
        let vfs = fresh();
        vfs.push_fault(FaultSpec::fail_read(n));
        let arc = Arc::new(vfs.clone()) as Arc<dyn Vfs>;
        let open = || Session::open_with_vfs(DB, Arc::clone(&arc));
        let opened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(open));
        let log = || vfs.fault_log().join("\n  ");
        match opened {
            Err(_) => fail_with_artifact(
                &format!("read-error-{n}"),
                &format!("a failed read {n} panicked the open\nfault log:\n  {}", log()),
            ),
            Ok(Err(_)) => {} // a typed error: exactly right
            Ok(Ok(s)) if encode_wsd(s.wsd()) == expected => {}
            Ok(Ok(_)) => fail_with_artifact(
                &format!("read-error-{n}"),
                &format!("a failed read {n} opened a WRONG database\nfault log:\n  {}", log()),
            ),
        }
        vfs.clear_schedule();
        match Session::open_with_vfs(DB, arc) {
            Ok(s) if encode_wsd(s.wsd()) == expected => {}
            other => fail_with_artifact(
                &format!("read-error-reopen-{n}"),
                &format!(
                    "after a failed read {n}, a fault-free reopen did not recover the \
                     committed state ({})\nfault log:\n  {}",
                    other.err().map_or("wrong state".to_string(), |e| e.to_string()),
                    log()
                ),
            ),
        }
    }
}

/// A failed publish rename during checkpoint degrades (nothing was
/// published — the old snapshot pair is intact), and the retry path
/// works once renames succeed again.
#[test]
fn rename_failure_during_checkpoint_degrades_and_recovers() {
    let vfs = FaultVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut s = Session::open_with_vfs(DB, Arc::clone(&arc)).unwrap();
    s.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
    s.execute("INSERT INTO t VALUES (1, 'a')").unwrap();

    vfs.push_fault(FaultSpec::fail_rename(vfs.op_count(FaultOp::Rename)));
    let err = s.execute("CHECKPOINT FULL").unwrap_err();
    assert!(matches!(err, SessionError::Degraded { .. }), "{err}");
    assert!(s.is_degraded());

    vfs.clear_schedule();
    s.execute("CHECKPOINT FULL").unwrap();
    assert!(!s.is_degraded());
    s.execute("INSERT INTO t VALUES (2, 'b')").unwrap();
    assert_eq!(s.storage_generation(), Some(1));
}
