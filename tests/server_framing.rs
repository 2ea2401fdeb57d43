//! The server's read side of the `MBSQ` framing, against clients that
//! are slow or wrong rather than fast and correct.
//!
//! Connection threads poll the server's stop flag through a 100 ms
//! socket read timeout. A timeout may count as "idle" only **between**
//! frames: one that fires after part of a frame was consumed must not
//! drop those bytes, or the rest of the frame is parsed as a new header
//! and the connection dies on a bogus length or checksum.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::sleep;
use std::time::{Duration, Instant};

use maybms_server::proto::{self, Request, Response};
use maybms_server::Server;
use maybms_sql::Session;

/// Well over the server's 100 ms read-timeout poll.
const PAUSE: Duration = Duration::from_millis(250);

fn connect(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&proto::PROTO_MAGIC).expect("magic");
    let hello = proto::recv_response(&mut stream).expect("hello");
    assert!(matches!(hello, Response::Hello { .. }), "{hello:?}");
    stream
}

fn frame_of(sql: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    proto::send_request(&mut frame, &Request::Query { sql: sql.into() }).expect("encode");
    frame
}

/// A `Query` frame sent in two writes 250 ms apart — split once inside
/// the 8-byte header and once inside the payload — is answered
/// correctly, on the same connection, which then keeps working.
#[test]
fn a_client_pausing_mid_frame_is_waited_for() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::serve(Session::new(), listener).expect("serve");
    let mut stream = connect(&server);

    let statements = [
        "CREATE TABLE t (x INT)",
        "INSERT INTO t VALUES (1), (2), (3)",
        "SELECT CERTAIN x FROM t",
    ];
    for (sql, split) in statements.into_iter().zip([3usize, 8 + 5, 6]) {
        let frame = frame_of(sql);
        stream.write_all(&frame[..split]).expect("first part");
        stream.flush().expect("flush");
        sleep(PAUSE);
        stream.write_all(&frame[split..]).expect("second part");
        match proto::recv_response(&mut stream).expect("reply on the same connection") {
            Response::Ok { .. } => {}
            other => panic!("{sql} split at {split}: {other:?}"),
        }
    }
    // an idle gap between frames is still just idle
    sleep(PAUSE);
    proto::send_request(&mut stream, &Request::Query { sql: "SELECT CERTAIN x FROM t".into() })
        .expect("send");
    match proto::recv_response(&mut stream).expect("reply") {
        Response::Ok { text, .. } => assert!(text.contains("(3 rows)"), "{text}"),
        other => panic!("{other:?}"),
    }

    // a client parked mid-frame does not hold shutdown hostage
    let frame = frame_of("SELECT CERTAIN x FROM t");
    stream.write_all(&frame[..5]).expect("partial frame");
    sleep(PAUSE);
    drop(server.shutdown().expect("shutdown with a client mid-frame"));
}

/// A request declaring more than the 16 MiB request bound is refused
/// from its header alone: the connection is closed, nothing is buffered.
#[test]
fn an_oversized_request_closes_the_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::serve(Session::new(), listener).expect("serve");
    let mut stream = connect(&server);
    let declared = (maybms_storage::frame::MAX_REQUEST_LEN as u32 + 1).to_le_bytes();
    stream.write_all(&declared).expect("length");
    stream.write_all(&[0u8; 4]).expect("checksum");
    let err = proto::recv_response(&mut stream).expect_err("the server must hang up");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    drop(server.shutdown().expect("shutdown"));
}

/// A peer that connects and never sends a byte is the server's problem
/// for its own thread's sniffing grace period only: a client arriving
/// after it is answered at once, the server hangs up on it, and shutdown
/// does not wait for one.
#[test]
fn a_silent_peer_blocks_neither_accept_nor_shutdown() {
    const SOON: Duration = Duration::from_secs(1);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = Server::serve(Session::new(), listener).expect("serve");
    let mut silent = TcpStream::connect(server.addr()).expect("connect and say nothing");
    silent.set_read_timeout(Some(SOON)).expect("timeout");

    let began = Instant::now();
    let mut second = TcpStream::connect(server.addr()).expect("connect");
    second.set_read_timeout(Some(SOON)).expect("timeout");
    second.write_all(&proto::PROTO_MAGIC).expect("magic");
    let hello = proto::recv_response(&mut second).expect("hello while a silent peer is open");
    assert!(matches!(hello, Response::Hello { .. }), "{hello:?}");
    second.write_all(&frame_of("SHOW TABLES")).expect("send");
    let reply = proto::recv_response(&mut second).expect("reply while a silent peer is open");
    assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
    assert!(began.elapsed() < SOON, "answered after {:?}", began.elapsed());

    let closed = silent.read(&mut [0u8; 1]).expect("the server hangs up on the silent peer");
    assert_eq!(closed, 0);

    let _silent = TcpStream::connect(server.addr()).expect("a fresh silent peer");
    let (done, shut_down) = mpsc::channel();
    std::thread::spawn(move || done.send(server.shutdown().is_ok()));
    assert_eq!(shut_down.recv_timeout(SOON), Ok(true), "shutdown with a silent peer open");
}
