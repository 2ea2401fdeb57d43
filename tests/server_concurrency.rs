//! Server concurrency torture: N client threads run seeded random
//! read/write scripts against one [`maybms_server::Server`], and the
//! final state must be **byte-identical under the codec** to replaying
//! the acknowledged commit groups in LSN order — i.e. the committed
//! history really is the serial order the server claims (single-writer
//! group commit makes LSN order *the* serial order).
//!
//! Durability rides along: the server's database lives inside a
//! [`FaultVfs`], and after the run the test crashes the "disk" (drops
//! everything not fsynced) and reopens — every acknowledged commit must
//! survive, because acks are sent only after the group's shared fsync.
//!
//! Seeds come from `MAYBMS_SERVER_SEEDS` (comma-separated u64s) so CI
//! can sweep a matrix and any failure replays exactly.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

use maybms_core::codec::encode_wsd;
use maybms_server::{Client, Server, ServerConfig};
use maybms_sql::{GroupCommitConfig, Session};
use maybms_storage::{FaultVfs, Vfs};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Pure key inside the [`FaultVfs`]; nothing touches the real filesystem.
const DB: &str = "/server/db.maybms";

fn seeds() -> Vec<u64> {
    match std::env::var("MAYBMS_SERVER_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().expect("MAYBMS_SERVER_SEEDS: comma-separated u64s"))
            .collect(),
        Err(_) => (0..6).collect(),
    }
}

/// One acknowledged commit group: the LSN the server assigned and the
/// statements the client submitted, in order.
#[derive(Debug, Clone)]
struct AckedGroup {
    lsn: u64,
    stmts: Vec<String>,
}

/// One client's random script: a mix of auto-commit mutations,
/// explicit transactions (with savepoints; committed or rolled back),
/// and reads.
/// Returns the groups the server acknowledged.
fn client_script(addr: std::net::SocketAddr, client: usize, seed: u64) -> Vec<AckedGroup> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(client as u64));
    let mut conn = Client::connect(addr).expect("connect");
    let mut acked = Vec::new();
    // every client opens with a fixed savepoint drill: a re-used name
    // shadows the older mark, and a rollback to the older of two marks
    // kills the newer — only m1, m2 and m5 may reach the log
    let m = |v: u32| format!("INSERT INTO t VALUES ({client}, {}, {v})", 100 + client);
    let drill = vec![
        TxnOp::Mutate(m(1)),
        TxnOp::Savepoint("a"),
        TxnOp::Mutate(m(2)),
        TxnOp::Savepoint("b"),
        TxnOp::Mutate(m(3)),
        TxnOp::Savepoint("a"),
        TxnOp::Mutate(m(4)),
        TxnOp::RollbackTo("a"),
        TxnOp::RollbackTo("b"),
        TxnOp::Mutate(m(5)),
    ];
    let drilled = run_txn(&mut conn, drill, true).expect("the drill commits");
    assert_eq!(drilled.stmts, [m(1), m(2), m(5)], "model of the savepoint drill");
    acked.push(drilled);
    for _ in 0..20 {
        match rng.gen_range(0..10u32) {
            // auto-commit mutation: a one-statement group
            0..=4 => {
                let sql = random_mutation(&mut rng, client);
                match conn.query(&sql).expect("io") {
                    Ok(reply) => acked.push(AckedGroup { lsn: reply.lsn, stmts: vec![sql] }),
                    Err(e) => panic!("auto-commit refused: {e}"),
                }
            }
            // explicit transaction: mutations interleaved with savepoints
            // and savepoint rollbacks, plus a read of its own preview
            5..=7 => {
                let steps = rng.gen_range(2..=7usize);
                let mut ops = Vec::with_capacity(steps);
                let mut live: Vec<&'static str> = Vec::new();
                for _ in 0..steps {
                    ops.push(match rng.gen_range(0..10u32) {
                        // two names only, so re-use (shadowing) is common
                        0..=1 => {
                            let name = ["a", "b"][rng.gen_range(0..2usize)];
                            live.push(name);
                            TxnOp::Savepoint(name)
                        }
                        2..=3 if !live.is_empty() => {
                            // any live mark, not just the newest: rolling
                            // back to an older one kills the later ones
                            let name = live[rng.gen_range(0..live.len())];
                            let at = live.iter().rposition(|n| *n == name).expect("live name");
                            live.truncate(at + 1);
                            TxnOp::RollbackTo(name)
                        }
                        _ => TxnOp::Mutate(random_mutation(&mut rng, client)),
                    });
                }
                let commit = !rng.gen_bool(0.2);
                acked.extend(run_txn(&mut conn, ops, commit));
            }
            // reads on the latest published snapshot
            _ => {
                conn.query_ok("SELECT CERTAIN client, k, v FROM t").expect("read");
            }
        }
    }
    acked
}

/// One step of an explicit transaction.
enum TxnOp {
    Mutate(String),
    Savepoint(&'static str),
    RollbackTo(&'static str),
}

/// Runs one explicit transaction over the wire while the test's own
/// model tracks which statements survive the savepoint rollbacks (the
/// latest mark of a name wins; rolling back to a mark kills the later
/// ones but keeps the mark). Returns the acknowledged group — `None`
/// when the transaction rolled back or nothing survived to be logged.
fn run_txn(conn: &mut Client, ops: Vec<TxnOp>, commit: bool) -> Option<AckedGroup> {
    conn.query_ok("BEGIN").expect("begin");
    let mut stmts: Vec<String> = Vec::new();
    let mut marks: Vec<(&str, usize)> = Vec::new();
    for op in ops {
        match op {
            TxnOp::Mutate(sql) => {
                conn.query_ok(&sql).expect("txn stmt");
                stmts.push(sql);
            }
            TxnOp::Savepoint(name) => {
                conn.query_ok(&format!("SAVEPOINT {name}")).expect("savepoint");
                marks.push((name, stmts.len()));
            }
            TxnOp::RollbackTo(name) => {
                conn.query_ok(&format!("ROLLBACK TO {name}")).expect("rollback to");
                let at = marks.iter().rposition(|(n, _)| *n == name).expect("live savepoint");
                stmts.truncate(marks[at].1);
                marks.truncate(at + 1);
            }
        }
    }
    // the transaction can read its own preview
    conn.query_ok("SELECT CERTAIN k FROM t").expect("txn read");
    if !commit {
        conn.query_ok("ROLLBACK").expect("rollback");
        return None;
    }
    let reply = conn.query_ok("COMMIT").expect("commit");
    // an empty survivor list is not submitted: no group, no LSN of its own
    (!stmts.is_empty()).then_some(AckedGroup { lsn: reply.lsn, stmts })
}

fn random_mutation(rng: &mut StdRng, client: usize) -> String {
    let k = rng.gen_range(0..8u32);
    let v = rng.gen_range(0..100u32);
    match rng.gen_range(0..10u32) {
        // deletes and updates range over every client's rows, so their
        // effect depends on where they land in the serial order — which
        // is exactly what the replay check pins down
        0 => format!("DELETE FROM t WHERE k = {k} AND client = {client}"),
        1..=2 => format!("UPDATE t SET v = {v} WHERE k = {k}"),
        _ => format!("INSERT INTO t VALUES ({client}, {k}, {v})"),
    }
}

/// Replays acknowledged groups in LSN order into a fresh in-memory
/// session and returns the codec bytes of the resulting decomposition.
fn replay(setup: &[&str], mut groups: Vec<AckedGroup>) -> Vec<u8> {
    groups.sort_by_key(|g| g.lsn);
    let lsns: Vec<u64> = groups.iter().map(|g| g.lsn).collect();
    let mut dedup = lsns.clone();
    dedup.dedup();
    assert_eq!(lsns, dedup, "two acknowledged groups share an LSN");
    let mut serial = Session::new();
    for sql in setup {
        serial.execute(sql).expect("setup");
    }
    for g in &groups {
        for sql in &g.stmts {
            serial.execute(sql).unwrap_or_else(|e| panic!("replay of {sql} failed: {e}"));
        }
    }
    encode_wsd(serial.wsd())
}

fn torture(seed: u64, clients: usize) {
    let vfs = FaultVfs::new();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let session = Session::open_with_vfs(DB, Arc::clone(&arc)).expect("open");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServerConfig {
        group: GroupCommitConfig {
            group_window: std::time::Duration::from_millis(1),
            ..GroupCommitConfig::default()
        },
    };
    let server = Server::serve_with(session, listener, cfg).expect("serve");
    let addr = server.addr();

    let setup = ["CREATE TABLE t (client INT, k INT, v INT)"];
    let mut admin = Client::connect(addr).expect("connect admin");
    let create = admin.query_ok(setup[0]).expect("create");
    assert!(create.lsn > 0, "setup commit got an LSN");

    let workers: Vec<_> = (0..clients)
        .map(|c| thread::spawn(move || client_script(addr, c, seed)))
        .collect();
    let mut acked: Vec<AckedGroup> = Vec::new();
    for w in workers {
        acked.extend(w.join().expect("client thread"));
    }

    // 1. serializability: the final state equals the acked groups
    //    replayed in LSN order (byte-identical under the codec)
    let session = server.shutdown().expect("shutdown");
    let served = encode_wsd(session.wsd());
    let replayed = replay(&setup, acked.clone());
    assert_eq!(
        served, replayed,
        "seed {seed}: server state diverges from the LSN-order serial replay"
    );

    // 2. durability: crash the disk (drop unsynced bytes), reopen, and
    //    every acknowledged commit is still there
    drop(session);
    vfs.crash();
    let reopened = Session::open_with_vfs(DB, arc).expect("reopen after crash");
    assert_eq!(
        encode_wsd(reopened.wsd()),
        replayed,
        "seed {seed}: an acknowledged commit did not survive crash + recovery"
    );
}

#[test]
fn torture_seed_matrix() {
    for seed in seeds() {
        torture(seed, 6);
    }
}

#[test]
fn torture_single_client_matches_its_own_history() {
    // degenerate case: one client, so the serial order is the client's
    // own program order — a cheap sanity anchor for the replay harness
    torture(12345, 1);
}
