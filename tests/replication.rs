//! Replication integration tests: a replica that has applied the
//! primary's shipped log prefix up to LSN *x* must hold **byte-identical
//! state** (under `maybms_core::codec`) to the primary's committed state
//! at *x* — at every shipped-prefix boundary, across disconnects and
//! reconnects at every LSN, across torn streams cut at every byte
//! offset, and across checkpoint-forced snapshot transfers. And the
//! primary ships nothing past the database's durable horizon.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use maybms_core::codec::encode_wsd;
use maybms_server::{Client, Server};
use maybms_sql::replication::{Primary, Replica};
use maybms_sql::{Session, SessionError};
use maybms_storage::wal::{Polled, WalCursor};
use maybms_storage::ship::{send_msg, Msg};
use maybms_storage::{delta_path_for, std_vfs, wal_path_for, FaultOp, FaultSpec, FaultVfs, Vfs};

fn db_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir()
        .join(format!("maybms-repl-{}-{name}.maybms", std::process::id()));
    rm_db(&p);
    p
}

fn rm_db(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_path_for(p));
    let _ = std::fs::remove_file(delta_path_for(p));
}

/// A transactional workload touching every statement kind the WAL ships:
/// DDL, or-set inserts, repairs, DML, committed and rolled-back
/// transactions.
const SCRIPT: &[&str] = &[
    "CREATE TABLE person (ssn INT, name TEXT)",
    "INSERT INTO person VALUES ({1: 0.5, 2: 0.5}, 'ann'), (2, 'bob'), ({3, 4}, 'cal')",
    "CREATE TABLE cost (tname TEXT, usd INT)",
    "INSERT INTO cost VALUES ('x', {10: 0.25, 20: 0.75}), ('y', 40)",
    "REPAIR KEY person(ssn)",
    "ALTER TABLE cost RENAME TO costs",
    "BEGIN",
    "DELETE FROM costs WHERE usd > 30",
    "INSERT INTO costs VALUES ('z', {17: 0.5, 18: 0.5})",
    "UPDATE costs SET tname = 'zz' WHERE usd = 17",
    "COMMIT",
    "UPDATE person SET name = 'anne' WHERE ssn = 1",
    "BEGIN",
    "DELETE FROM person",
    "ROLLBACK",
    "REPAIR CHECK costs: usd > 15",
    "INSERT INTO person VALUES ({5: 0.1, 6: 0.9}, 'dee')",
];

/// Runs the script on a fresh durable primary, recording `(lsn, bytes)`
/// at every shipped-prefix boundary (after each statement outside a
/// transaction — exactly the states a replica can legally observe).
fn run_script(path: &Path) -> (Session, Vec<(u64, Vec<u8>)>) {
    let mut s = Session::open(path).unwrap();
    let mut boundaries = vec![(0u64, encode_wsd(s.wsd()))];
    for sql in SCRIPT {
        s.execute(sql).unwrap();
        if !s.in_transaction() {
            let lsn = s.last_lsn().unwrap();
            if boundaries.last().map(|(l, _)| *l) != Some(lsn) {
                boundaries.push((lsn, encode_wsd(s.wsd())));
            }
        }
    }
    (s, boundaries)
}

/// Spawns a serve thread for one follower connection, returning the
/// follower's end of the stream.
fn serve_pair(primary: &Primary) -> UnixStream {
    let (ours, theirs) = UnixStream::pair().unwrap();
    let _handle = primary.spawn_serve(theirs);
    ours
}

#[test]
fn replica_is_byte_identical_at_every_boundary_with_reconnects() {
    let path = db_path("boundaries");
    let (primary_session, boundaries) = run_script(&path);
    let final_lsn = primary_session.last_lsn().unwrap();
    let final_bytes = encode_wsd(primary_session.wsd());
    assert!(boundaries.len() > 10, "the script must produce many boundaries");
    assert_eq!(boundaries.last().unwrap().0, final_lsn);
    let primary = Primary::new(&primary_session).unwrap();

    for (lsn, expected) in &boundaries {
        // a fresh replica synced exactly to this boundary…
        let mut replica = Replica::new();
        let mut conn = replica.connect(serve_pair(&primary)).unwrap();
        replica.sync_to(&mut conn, *lsn).unwrap();
        assert_eq!(replica.applied_lsn(), *lsn, "sync_to must stop on a record boundary");
        assert_eq!(
            &encode_wsd(replica.session().wsd()),
            expected,
            "replica state at LSN {lsn} must be byte-identical to the primary's"
        );
        // …then the connection dies (kill at this LSN) and a reconnect
        // resumes from applied_lsn without a snapshot transfer
        drop(conn);
        let mut conn2 = replica.connect(serve_pair(&primary)).unwrap();
        replica.sync_to(&mut conn2, final_lsn).unwrap();
        assert_eq!(
            encode_wsd(replica.session().wsd()),
            final_bytes,
            "reconnect from LSN {lsn} must converge to the primary's final state"
        );
    }
    primary.stop();
    rm_db(&path);
}

/// The replica answers the same queries as the primary once synced.
#[test]
fn replica_answers_queries_like_the_primary() {
    let path = db_path("queries");
    let (mut primary_session, _) = run_script(&path);
    let primary = Primary::new(&primary_session).unwrap();
    let mut replica = Replica::new();
    let mut conn = replica.connect(serve_pair(&primary)).unwrap();
    replica.sync_to(&mut conn, primary_session.last_lsn().unwrap()).unwrap();

    for sql in [
        "SELECT POSSIBLE ssn, name, PROB() FROM person ORDER BY name, ssn",
        "SELECT POSSIBLE tname, usd, PROB() FROM costs ORDER BY tname, usd",
        "SELECT EXPECTED SUM(usd) FROM costs",
        "SELECT PROB() FROM person WHERE ssn = 1",
    ] {
        let want: Vec<String> = primary_session
            .execute(sql)
            .unwrap()
            .rows()
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        let got: Vec<String> =
            replica.query(sql).unwrap().rows().iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(got, want, "query {sql} diverged on the replica");
    }
    primary.stop();
    rm_db(&path);
}

/// A stream of frames cut at *every* byte offset: the replica applies
/// exactly the complete prefix, refuses the torn frame loudly, and a
/// reconnect to the live primary converges to the final state.
#[test]
fn torn_stream_sweep_recovers_at_every_offset() {
    let path = db_path("torn-stream");
    let (primary_session, boundaries) = run_script(&path);
    let final_lsn = primary_session.last_lsn().unwrap();
    let final_bytes = encode_wsd(primary_session.wsd());

    // Render the full catch-up stream (every WAL record as one framed
    // Record message), remembering each frame's end offset and LSN.
    let mut cursor = WalCursor::open(std_vfs(), &wal_path_for(&path), 0).unwrap();
    let Polled::Records(records) = cursor.poll(final_lsn).unwrap() else { panic!("fresh log") };
    assert_eq!(records.last().unwrap().0, final_lsn);
    let mut stream = Vec::new();
    let mut frame_ends = vec![(0usize, 0u64)]; // (offset, lsn applied through)
    for (lsn, payload) in &records {
        send_msg(&mut stream, &Msg::Record { lsn: *lsn, payload: payload.clone() }).unwrap();
        frame_ends.push((stream.len(), *lsn));
    }
    let lsn_at = |cut: usize| frame_ends.iter().rev().find(|(o, _)| *o <= cut).unwrap().1;
    let state_at = |lsn: u64| {
        boundaries
            .iter()
            .rev()
            .find(|(l, _)| *l <= lsn)
            .map(|(_, b)| b.clone())
            .unwrap()
    };

    let primary = Primary::new(&primary_session).unwrap();
    for cut in 0..stream.len() {
        let mut replica = Replica::new();
        {
            let mut conn = replica
                .connect(TornStream { input: stream[..cut].to_vec(), pos: 0 })
                .unwrap();
            // apply until the torn tail surfaces as an error
            let err = loop {
                match conn.recv() {
                    Ok(msg) => {
                        replica.apply_msg(msg).unwrap();
                    }
                    Err(e) => break e,
                }
            };
            assert!(
                err.to_string().contains("receive message")
                    || err.to_string().contains("checksum"),
                "cut {cut}: unexpected error {err}"
            );
        }
        let applied = replica.applied_lsn();
        assert_eq!(applied, lsn_at(cut), "cut {cut}: exactly the complete frames apply");
        assert_eq!(
            encode_wsd(replica.session().wsd()),
            state_at(applied),
            "cut {cut}: the applied prefix must be a legal boundary state"
        );
        // reconnect to the live primary: converges to the final state
        let mut conn = replica.connect(serve_pair(&primary)).unwrap();
        replica.sync_to(&mut conn, final_lsn).unwrap();
        assert_eq!(
            encode_wsd(replica.session().wsd()),
            final_bytes,
            "cut {cut}: reconnect must converge"
        );
    }
    primary.stop();
    rm_db(&path);
}

/// A follower positioned before the last checkpoint cannot be served from
/// the log (those records were compacted away): it must receive a full
/// snapshot transfer, and still end byte-identical.
#[test]
fn follower_behind_checkpoint_gets_snapshot_transfer() {
    let path = db_path("snap-transfer");
    let (mut primary_session, _) = run_script(&path);

    // a replica synced to the pre-checkpoint state…
    let primary = Primary::new(&primary_session).unwrap();
    let mut early = Replica::new();
    let mut early_conn = early.connect(serve_pair(&primary)).unwrap();
    early.sync_to(&mut early_conn, primary_session.last_lsn().unwrap()).unwrap();
    drop(early_conn);
    let early_lsn = early.applied_lsn();

    // …misses a few commits and a checkpoint (which compacts the log)
    primary_session.execute("INSERT INTO person VALUES (7, 'eve')").unwrap();
    primary_session.execute("DELETE FROM costs WHERE usd = 40").unwrap();
    let r = primary_session.execute("CHECKPOINT").unwrap();
    assert!(r.ack().contains("checkpointed"), "{}", r.ack());
    primary_session.execute("INSERT INTO person VALUES (8, 'fay')").unwrap();
    let final_lsn = primary_session.last_lsn().unwrap();
    let final_bytes = encode_wsd(primary_session.wsd());

    // a fresh follower (LSN 0) is *behind the checkpoint*: snapshot path
    let mut fresh = Replica::new();
    let mut conn = fresh.connect(serve_pair(&primary)).unwrap();
    fresh.sync_to(&mut conn, final_lsn).unwrap();
    assert!(
        fresh.generation() >= 1,
        "a fresh follower must have received a snapshot transfer (generation {})",
        fresh.generation()
    );
    assert_eq!(encode_wsd(fresh.session().wsd()), final_bytes);

    // the early replica reconnects: its LSN predates the log too
    assert!(early_lsn < final_lsn);
    let mut conn = early.connect(serve_pair(&primary)).unwrap();
    early.sync_to(&mut conn, final_lsn).unwrap();
    assert_eq!(encode_wsd(early.session().wsd()), final_bytes);
    primary.stop();
    rm_db(&path);
}

/// Replicas are read-only: every mutation, transaction-control statement
/// and CHECKPOINT is refused with the structured error.
#[test]
fn replica_refuses_mutations() {
    let path = db_path("readonly");
    let (primary_session, _) = run_script(&path);
    let primary = Primary::new(&primary_session).unwrap();
    let mut replica = Replica::new();
    let mut conn = replica.connect(serve_pair(&primary)).unwrap();
    replica.sync_to(&mut conn, primary_session.last_lsn().unwrap()).unwrap();

    for sql in [
        "INSERT INTO person VALUES (9, 'mal')",
        "DELETE FROM person",
        "UPDATE person SET name = 'x'",
        "CREATE TABLE t (x INT)",
        "DROP TABLE person",
        "REPAIR KEY person(ssn)",
        "BEGIN",
        "COMMIT",
        "CHECKPOINT",
    ] {
        let err = replica.query(sql).unwrap_err();
        assert!(
            matches!(err, SessionError::ReadOnlyReplica { .. }),
            "{sql}: expected ReadOnlyReplica, got {err:?}"
        );
        assert!(err.to_string().contains("read-only replica"), "{err}");
    }
    // the refusals changed nothing: queries still answer
    assert!(!replica.query("SELECT POSSIBLE ssn FROM person").unwrap().rows().is_empty());
    primary.stop();
    rm_db(&path);
}

/// End to end over TCP: N followers stream from the server's one port,
/// and keep answering queries after the server goes away (failover
/// reads).
#[test]
fn tcp_replication_with_failover_reads() {
    let path = db_path("tcp");
    let (primary_session, _) = run_script(&path);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::serve(primary_session, listener).unwrap();

    let mut replicas = Vec::new();
    for _ in 0..3 {
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let replica = Replica::new();
        let conn = replica.connect(stream).unwrap();
        replicas.push((replica, conn));
    }
    let mut client = Client::connect(server.addr()).unwrap();
    let final_lsn = client.query_ok("INSERT INTO person VALUES (7, 'eve')").unwrap().lsn;
    let published = server.commit_handle().snapshot();
    assert_eq!(published.lsn(), final_lsn);
    let final_bytes = encode_wsd(published.wsd());
    for (replica, conn) in &mut replicas {
        replica.sync_to(conn, final_lsn).unwrap();
        assert_eq!(encode_wsd(replica.session().wsd()), final_bytes);
    }

    // the primary dies; every follower still serves reads
    drop(client);
    drop(server.shutdown().unwrap());
    for (replica, _) in &mut replicas {
        let r = replica.query("SELECT POSSIBLE ssn, name FROM person ORDER BY ssn").unwrap();
        assert!(!r.rows().is_empty(), "failover read must answer");
    }
    rm_db(&path);
}

/// A peer that connects to the server's port and never sends a byte
/// holds up neither a follower arriving after it nor the server's
/// shutdown, and is hung up on once the sniffing grace period is over.
#[test]
fn a_silent_peer_blocks_neither_the_ship_listener_nor_its_stop() {
    use std::net::TcpStream;
    const SOON: Duration = Duration::from_secs(1);

    let path = db_path("silent");
    let (primary_session, _) = run_script(&path);
    let (lsn, bytes) = (primary_session.last_lsn().unwrap(), encode_wsd(primary_session.wsd()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = Server::serve(primary_session, listener).unwrap();
    let mut silent = TcpStream::connect(server.addr()).unwrap();
    silent.set_read_timeout(Some(SOON)).unwrap();

    let began = Instant::now();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(SOON)).unwrap();
    let mut replica = Replica::new();
    let mut conn = replica.connect(stream).unwrap();
    replica.sync_to(&mut conn, lsn).expect("a follower is served while a silent peer is open");
    assert_eq!(encode_wsd(replica.session().wsd()), bytes);
    assert!(began.elapsed() < SOON, "served after {:?}", began.elapsed());

    let closed = silent.read(&mut [0u8; 1]).expect("the server hangs up on the silent peer");
    assert_eq!(closed, 0);

    let _silent = TcpStream::connect(server.addr()).unwrap();
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown().is_ok()));
    assert_eq!(stopped.recv_timeout(SOON), Ok(true), "shutdown with a silent peer open");
    rm_db(&path);
}

/// A follower driven by `follow_with_retry` survives a *flapping*
/// primary: server A shuts down mid-stream, its session keeps
/// committing, server B serves the same session on a fresh port later,
/// and the follower reconnects with capped exponential backoff, resumes
/// by LSN, and converges — then exits cleanly when told to stop.
#[test]
fn follow_with_retry_survives_flapping_primary() {
    use maybms_sql::replication::{follow_with_retry, Backoff};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let path = db_path("flapping");
    let (primary_session, _) = run_script(&path);
    let first_lsn = primary_session.last_lsn().unwrap();

    // server A
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = Arc::new(Mutex::new(listener.local_addr().unwrap()));
    let server_a = Server::serve(primary_session, listener).unwrap();

    let replica = Arc::new(Mutex::new(Replica::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let follower = {
        let (replica, stop, addr) = (replica.clone(), stop.clone(), addr.clone());
        std::thread::spawn(move || {
            let mut backoff =
                Backoff::with_seed(Duration::from_millis(1), Duration::from_millis(20), 7);
            let connect = || {
                let a: SocketAddr = *addr.lock().unwrap();
                TcpStream::connect(a)
            };
            follow_with_retry(&replica, connect, &mut backoff, &stop)
        })
    };

    let wait_for_lsn = |lsn: u64| {
        for _ in 0..2000 {
            if replica.lock().unwrap().applied_lsn() >= lsn {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("follower never reached LSN {lsn}");
    };
    wait_for_lsn(first_lsn);

    // server A dies mid-life; its session keeps committing meanwhile
    let mut primary_session = server_a.shutdown().unwrap();
    primary_session.execute("INSERT INTO person VALUES (8, 'flo')").unwrap();
    primary_session.execute("INSERT INTO person VALUES (9, 'gus')").unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let reconnects fail a few times
    let final_lsn = primary_session.last_lsn().unwrap();
    let final_bytes = encode_wsd(primary_session.wsd());

    // server B takes over on a fresh port, same session
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    *addr.lock().unwrap() = listener.local_addr().unwrap();
    let server_b = Server::serve(primary_session, listener).unwrap();

    wait_for_lsn(final_lsn);
    {
        let mut r = replica.lock().unwrap();
        assert_eq!(
            encode_wsd(r.session().wsd()),
            final_bytes,
            "the follower must converge to the post-failover state"
        );
        // heartbeats flow again, so the replica is fresh
        assert!(!r.is_stale(Duration::from_secs(5)));
    }

    // a raised stop flag ends the loop with Ok, not an error
    stop.store(true, Ordering::Relaxed);
    follower.join().unwrap().unwrap();
    drop(server_b.shutdown().unwrap());
    rm_db(&path);
}

/// The backoff schedule: deterministic per seed, exponentially growing,
/// capped, jittered within the upper half of each ceiling, and reset
/// returns it to the base.
#[test]
fn backoff_is_capped_exponential_with_jitter() {
    use maybms_sql::replication::Backoff;

    let base = Duration::from_millis(10);
    let cap = Duration::from_millis(160);
    let mut b = Backoff::with_seed(base, cap, 42);
    let mut prev_ceil = Duration::ZERO;
    for attempt in 0..10u32 {
        let ceil = std::cmp::min(base * 2u32.pow(attempt), cap);
        let d = b.next_delay();
        assert!(d >= ceil / 2 && d <= ceil, "attempt {attempt}: {d:?} not in [{:?}, {ceil:?}]", ceil / 2);
        assert!(ceil >= prev_ceil, "ceilings must not shrink");
        prev_ceil = ceil;
    }
    assert_eq!(b.attempt(), 10);
    b.reset();
    assert_eq!(b.attempt(), 0);
    assert!(b.next_delay() <= base, "after reset the first delay is within the base ceiling");

    // same seed, same sequence — failing schedules can be replayed
    let mut x = Backoff::with_seed(base, cap, 99);
    let mut y = Backoff::with_seed(base, cap, 99);
    for _ in 0..8 {
        assert_eq!(x.next_delay(), y.next_delay());
    }
}

/// Staleness detection: while the primary heartbeats the replica stays
/// fresh even with no writes; once the primary is gone, `is_stale`
/// trips after the timeout.
#[test]
fn replica_staleness_tracks_heartbeats() {
    use std::sync::Mutex;

    let path = db_path("staleness");
    let (primary_session, _) = run_script(&path);
    let primary =
        Primary::new(&primary_session).unwrap().with_heartbeat_interval(Duration::from_millis(5));
    let replica = Arc::new(Mutex::new(Replica::new()));
    let stream = serve_pair(&primary);
    let follower = {
        let replica = replica.clone();
        std::thread::spawn(move || {
            let _ = maybms_sql::replication::follow(&replica, stream);
        })
    };

    // no writes at all for a while: heartbeats alone must keep it fresh
    std::thread::sleep(Duration::from_millis(100));
    {
        let r = replica.lock().unwrap();
        assert!(
            !r.is_stale(Duration::from_secs(2)),
            "heartbeats must refresh last_contact (elapsed {:?})",
            r.since_last_contact()
        );
        assert_eq!(r.primary_lsn(), primary_session.last_lsn().unwrap());
    }

    // the primary goes silent: staleness trips after the timeout
    primary.stop();
    follower.join().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    assert!(replica.lock().unwrap().is_stale(Duration::from_millis(60)));
    rm_db(&path);
}

/// A CRC-valid frame appended to the log behind the session's back —
/// what a crash between `write_all` and `sync_data` leaves on disk — is
/// never shipped: the primary reads only up to the durable horizon, and
/// its heartbeat names the session's LSN, not the file's.
#[test]
fn a_frame_past_the_durable_horizon_is_never_shipped() {
    let path = db_path("horizon-disk");
    let mut session = Session::open(&path).unwrap();
    session.execute("CREATE TABLE t (x INT)").unwrap();
    session.execute("INSERT INTO t VALUES (1)").unwrap();
    let durable = session.last_lsn().unwrap();
    let mut frame = Vec::new();
    maybms_storage::frame::put_frame(&mut frame, b"never acknowledged");
    let mut wal = std::fs::OpenOptions::new().append(true).open(wal_path_for(&path)).unwrap();
    wal.write_all(&frame).unwrap();

    let primary =
        Primary::new(&session).unwrap().with_heartbeat_interval(Duration::from_millis(5));
    let mut conn = Replica::new().connect(serve_pair(&primary)).unwrap();
    loop {
        match conn.recv().unwrap() {
            Msg::Record { lsn, .. } => {
                assert!(lsn <= durable, "shipped LSN {lsn} past the durable LSN {durable}")
            }
            Msg::Heartbeat { last_lsn, .. } => {
                assert_eq!(last_lsn, durable);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    primary.stop();
    rm_db(&path);
}

/// An append whose fsync fails poisons the database, and its frame —
/// already on the log — is never shipped: a follower on the same
/// `FaultVfs` hears of nothing past the durable prefix.
#[test]
fn an_append_whose_fsync_failed_is_never_shipped() {
    let vfs = FaultVfs::new();
    let mut session =
        Session::open_with_vfs("/horizon/db.maybms", Arc::new(vfs.clone()) as Arc<dyn Vfs>)
            .unwrap();
    session.execute("CREATE TABLE t (x INT)").unwrap();
    let durable = session.last_lsn().unwrap();
    let primary =
        Primary::new(&session).unwrap().with_heartbeat_interval(Duration::from_millis(1));
    let mut replica = Replica::new();
    let mut conn = replica.connect(serve_pair(&primary)).unwrap();
    replica.sync_to(&mut conn, durable).unwrap();

    vfs.push_fault(FaultSpec::fail_sync(vfs.op_count(FaultOp::Sync)));
    session.execute("INSERT INTO t VALUES (1)").unwrap_err();
    assert!(session.is_poisoned());
    // drained for 100 ms, the stream holds messages sent after the failure
    let failed_at = Instant::now();
    while failed_at.elapsed() < Duration::from_millis(100) {
        match conn.recv().unwrap() {
            Msg::Heartbeat { last_lsn, .. } => assert_eq!(last_lsn, durable),
            other => panic!("only heartbeats at LSN {durable} may follow, got {other:?}"),
        }
    }
    primary.stop();
}

/// A one-directional in-memory stream: reads from a fixed (possibly
/// truncated) byte buffer, swallows writes — the replica side of a
/// recorded primary stream.
struct TornStream {
    input: Vec<u8>,
    pos: usize,
}

impl Read for TornStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.input.len() - self.pos);
        if n == 0 {
            return Ok(0); // EOF: read_exact turns this into an error
        }
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for TornStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
