//! WAL-shipping replication, end to end: one durable primary, N read
//! replicas over TCP, and a failover read after the primary goes away.
//!
//! Run with: `cargo run --example replica` (optionally
//! `cargo run --example replica -- <replica-count>`; default 2).
//!
//! The demo:
//! 1. opens a durable primary database (in a temp directory) and serves
//!    it with `maybms-server`, whose one port carries SQL clients, the
//!    WAL-shipping replica feed and Prometheus scrapes;
//! 2. connects N followers, each applying the shipped log on its own
//!    thread while a SQL client keeps committing transactions;
//! 3. waits until every follower has applied the primary's last LSN and
//!    proves their state is **byte-identical** to the primary's (the
//!    determinism property replication rests on);
//! 4. shuts the server down, checkpoints the returned session
//!    (compacting the log) and connects a *late* follower, which must
//!    catch up via a full snapshot transfer;
//! 5. reads from the replicas with no primary serving — failover reads
//!    keep working because each replica owns its state.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use maybms_core::codec::encode_wsd;
use maybms_relational::pretty;
use maybms_server::{Client, Server};
use maybms_sql::replication::{follow, Primary, Replica};
use maybms_sql::Session;
use maybms_storage::{delta_path_for, wal_path_for};

fn main() {
    let replicas: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2);
    let path = std::env::temp_dir()
        .join(format!("maybms-replica-demo-{}.maybms", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
    let _ = std::fs::remove_file(delta_path_for(&path));

    // 1. The primary: a durable session served on one TCP port, which
    //    also ships its write-ahead log.
    let session = Session::open(&path).expect("open primary database");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::serve(session, listener).expect("serve");
    let addr = server.addr();
    println!("primary: {} serving SQL and WAL shipping on {addr}", path.display());

    // 2. N followers, each on its own apply thread.
    let mut followers: Vec<Arc<Mutex<Replica>>> = Vec::new();
    for i in 0..replicas {
        let replica = Arc::new(Mutex::new(Replica::new()));
        let stream = TcpStream::connect(addr).expect("connect follower");
        let handle = Arc::clone(&replica);
        std::thread::spawn(move || {
            // runs until the primary goes away; the error is the
            // disconnect reason
            let _ = follow(&handle, stream);
        });
        println!("replica {i}: connected");
        followers.push(replica);
    }

    // …while a SQL client commits work (transactions ship as one record).
    let mut client = Client::connect(addr).expect("connect SQL client");
    let mut target = 0;
    for sql in [
        "CREATE TABLE person (ssn INT, name TEXT)",
        "INSERT INTO person VALUES ({1: 0.6, 2: 0.4}, 'ann'), (2, 'bob')",
        "REPAIR KEY person(ssn)",
        "BEGIN",
        "UPDATE person SET name = 'anne' WHERE ssn = 1",
        "INSERT INTO person VALUES (3, 'cal')",
        "COMMIT",
    ] {
        target = client.query_ok(sql).expect("primary workload").lsn;
    }
    println!("primary: committed through LSN {target}");

    // 3. Wait for every follower, then prove byte-identity.
    let published = server.commit_handle().snapshot();
    assert_eq!(published.lsn(), target);
    let primary_bytes = encode_wsd(published.wsd());
    for (i, replica) in followers.iter().enumerate() {
        loop {
            let mut r = replica.lock().expect("lock");
            if r.applied_lsn() >= target {
                assert_eq!(
                    encode_wsd(r.session().wsd()),
                    primary_bytes,
                    "replica state must be byte-identical to the primary's"
                );
                println!("replica {i}: caught up at LSN {} (state ≡ primary)", r.applied_lsn());
                break;
            }
            drop(r);
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Observability: the same port doubles as a Prometheus endpoint — a
    // plain HTTP GET returns the global metrics registry in text
    // exposition format. One query first, so the executor's row
    // counters have something to show.
    client.query_ok("SELECT POSSIBLE name FROM person").expect("warm the executor");
    let mut scrape = TcpStream::connect(addr).expect("connect scraper");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: primary\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "scrape failed:\n{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("response body");
    for family in ["maybms_repl_shipped_records", "maybms_wal_appends", "maybms_exec_rows"] {
        assert!(body.contains(family), "{family} missing from scrape:\n{body}");
    }
    println!(
        "prometheus scrape: {} bytes, {} metric line(s) — families verified",
        body.len(),
        body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count()
    );

    // 4. Shut the server down (CHECKPOINT runs on the owning session, not
    //    over the wire), compact the log, then a late follower: its LSN 0
    //    predates the log, so the primary sends a full snapshot first.
    drop(client);
    let mut session = server.shutdown().expect("shutdown");
    println!("primary: server stopped; followers are on their own");
    let ack = session.execute("CHECKPOINT").expect("checkpoint");
    println!("primary: {}", ack.ack());
    let primary = Primary::new(&session).expect("durable session");
    let (ours, theirs) = UnixStream::pair().expect("socket pair");
    let serving = primary.spawn_serve(theirs);
    let mut late = Replica::new();
    let mut conn = late.connect(ours).expect("handshake");
    late.sync_to(&mut conn, target).expect("late catch-up");
    assert!(late.generation() >= 1, "late follower must have used a snapshot transfer");
    assert_eq!(encode_wsd(late.session().wsd()), primary_bytes);
    println!(
        "late replica: caught up via snapshot transfer (generation {}, LSN {})",
        late.generation(),
        late.applied_lsn()
    );
    primary.stop();
    drop(conn);
    let _ = serving.join();

    // A replica is read-only: mutations are refused with a structured
    // error, queries are fine.
    let err = late.query("INSERT INTO person VALUES (9, 'mal')").unwrap_err();
    println!("late replica refuses writes: {err}");

    // …and each replica reports its staleness as data.
    {
        let mut r = followers[0].lock().expect("lock");
        let status = r
            .session()
            .execute("SHOW REPLICATION STATUS")
            .expect("replication status");
        println!("replica 0 status:");
        print!("{}", pretty::render(status.table().expect("table"), 10));
    }

    // 5. Failover reads: no primary serves, query the replicas.
    drop(session);
    println!("primary: gone — reading from replicas anyway");
    for (i, replica) in followers.iter().enumerate() {
        let mut r = replica.lock().expect("lock");
        let answer = r
            .query("SELECT POSSIBLE ssn, name, PROB() FROM person ORDER BY ssn")
            .expect("failover read");
        println!("replica {i} answers:");
        print!("{}", pretty::render(answer.table().expect("table"), 10));
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
    let _ = std::fs::remove_file(delta_path_for(&path));
    println!("replication demo complete ✓");
}
