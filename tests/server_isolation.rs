//! Snapshot-isolation anomaly tests for the server: readers pinned to
//! published LSN boundaries must never observe a commit group's effects
//! partially applied (no dirty reads, no partial reads), and a
//! long-running reader holding an old snapshot stays byte-stable while
//! writers advance the database underneath it.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use maybms_core::codec::encode_wsd;
use maybms_server::{Client, Server, ServerConfig};
use maybms_sql::{GroupCommitConfig, Session};

fn serve_temp(name: &str) -> (Server, std::net::SocketAddr, std::path::PathBuf) {
    let path = std::env::temp_dir()
        .join(format!("maybms-{name}-{}.maybms", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(&path));
    let _ = std::fs::remove_file(maybms_storage::delta_path_for(&path));
    let session = Session::open(&path).expect("open");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServerConfig {
        group: GroupCommitConfig {
            group_window: Duration::from_millis(1),
            ..GroupCommitConfig::default()
        },
    };
    let server = Server::serve_with(session, listener, cfg).expect("serve");
    let addr = server.addr();
    (server, addr, path)
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(maybms_storage::wal_path_for(path));
    let _ = std::fs::remove_file(maybms_storage::delta_path_for(path));
}

/// Rows in a rendered table, read off the `(N rows)` footer.
fn count_rows(rendered: &str) -> usize {
    rendered
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix('(')?.split_whitespace().next()?.parse().ok())
        .expect("rendered table has an (N rows) footer")
}

/// Every commit group inserts rows in **pairs**, so "the CERTAIN row
/// count is even" holds at every LSN boundary. Concurrent readers
/// hammer SELECTs while writers commit; an odd count would mean a
/// reader saw a group half-applied (a partial read), and a count not
/// matching the reader's reply LSN would mean a torn snapshot.
#[test]
fn no_partial_reads_at_lsn_boundaries() {
    let (server, addr, path) = serve_temp("iso-pairs");
    let mut admin = Client::connect(addr).expect("connect");
    admin.query_ok("CREATE TABLE pairs (x INT)").expect("create");

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut conn = Client::connect(addr).expect("connect reader");
                let mut last_lsn = 0u64;
                let mut observations = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let reply = conn.query_ok("SELECT CERTAIN x FROM pairs").expect("read");
                    let rows = count_rows(&reply.text);
                    assert_eq!(rows % 2, 0, "odd row count {rows}: a commit group was half-visible");
                    assert!(
                        reply.lsn >= last_lsn,
                        "snapshot LSN went backwards ({last_lsn} -> {})",
                        reply.lsn
                    );
                    last_lsn = reply.lsn;
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // 3 writers × 10 transactions × 2 inserts, all concurrent
    let writers: Vec<_> = (0..3)
        .map(|w| {
            thread::spawn(move || {
                let mut conn = Client::connect(addr).expect("connect writer");
                for i in 0..10 {
                    conn.query_ok("BEGIN").expect("begin");
                    conn.query_ok(&format!("INSERT INTO pairs VALUES ({})", w * 100 + i))
                        .expect("insert");
                    conn.query_ok(&format!("INSERT INTO pairs VALUES ({})", w * 100 + i + 50))
                        .expect("insert");
                    conn.query_ok("COMMIT").expect("commit");
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::SeqCst);
    let total_obs: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_obs > 0, "readers never got a look in");

    let final_read = admin.query_ok("SELECT CERTAIN x FROM pairs").expect("final");
    assert_eq!(count_rows(&final_read.text), 60, "every committed pair is visible");
    let session = server.shutdown().expect("shutdown");
    drop(session);
    cleanup(&path);
}

/// A long-running reader that pins an old snapshot (in-process view,
/// the same mechanism a connection's read view uses) must stay
/// byte-stable — same answer, same codec bytes — while writers commit
/// dozens of groups after it.
#[test]
fn long_running_reader_holds_its_snapshot() {
    let (server, addr, path) = serve_temp("iso-pin");
    let mut admin = Client::connect(addr).expect("connect");
    admin.query_ok("CREATE TABLE log (x INT)").expect("create");
    admin.query_ok("INSERT INTO log VALUES (1)").expect("seed row");

    // pin: an O(1) view of the snapshot published at this instant
    let handle = server.commit_handle();
    let pinned_at = handle.snapshot();
    let mut pinned = Session::view_at(&pinned_at);
    let before_rows = pinned.execute("SELECT CERTAIN x FROM log").expect("read").rows().len();
    let before_bytes = encode_wsd(pinned.wsd());
    assert_eq!(before_rows, 1);

    // writers advance the database far past the pin
    for i in 0..40 {
        admin.query_ok(&format!("INSERT INTO log VALUES ({})", i + 100)).expect("insert");
    }
    let fresh = admin.query_ok("SELECT CERTAIN x FROM log").expect("fresh read");
    assert_eq!(count_rows(&fresh.text), 41, "new connections see the new commits");
    assert!(fresh.lsn > pinned_at.lsn(), "the published LSN advanced past the pin");

    // the pinned reader is unmoved: same rows, same bytes, same LSN
    let after_rows = pinned.execute("SELECT CERTAIN x FROM log").expect("read").rows().len();
    assert_eq!(after_rows, before_rows, "the pinned snapshot grew new rows");
    assert_eq!(
        encode_wsd(pinned.wsd()),
        before_bytes,
        "the pinned snapshot's decomposition changed under the reader"
    );
    assert!(handle.snapshot().lsn() > pinned_at.lsn());

    // a view refreshed to the *current* snapshot catches up
    pinned.install_snapshot(&handle.snapshot()).expect("refresh");
    let caught_up = pinned.execute("SELECT CERTAIN x FROM log").expect("read").rows().len();
    assert_eq!(caught_up, 41);

    let session = server.shutdown().expect("shutdown");
    drop(session);
    cleanup(&path);
}

/// Uncommitted transaction writes are dirty state: no other connection
/// may see them at any point, even though the writing connection reads
/// them in its own preview.
#[test]
fn no_dirty_reads_from_open_transactions() {
    let (server, addr, path) = serve_temp("iso-dirty");
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut reader = Client::connect(addr).expect("connect reader");
    writer.query_ok("CREATE TABLE d (x INT)").expect("create");

    writer.query_ok("BEGIN").expect("begin");
    writer.query_ok("INSERT INTO d VALUES (1)").expect("dirty insert");
    let own = writer.query_ok("SELECT CERTAIN x FROM d").expect("own read");
    assert_eq!(count_rows(&own.text), 1, "the transaction reads its own write");

    let observed = reader.query_ok("SELECT CERTAIN x FROM d").expect("outside read");
    assert_eq!(count_rows(&observed.text), 0, "dirty read: uncommitted row visible outside");

    writer.query_ok("ROLLBACK").expect("rollback");
    let after = reader.query_ok("SELECT CERTAIN x FROM d").expect("after rollback");
    assert_eq!(count_rows(&after.text), 0, "rolled-back write leaked");

    let session = server.shutdown().expect("shutdown");
    drop(session);
    cleanup(&path);
}
