//! # maybms-server
//!
//! A concurrent multi-session TCP server over one MayBMS database:
//! many connections, one durable [`Session`].
//!
//! The concurrency model (documented in depth in
//! `docs/ARCHITECTURE.md` §7):
//!
//! * **Reads are snapshot-isolated and lock-free.** The group-commit
//!   writer publishes an immutable, LSN-stamped
//!   [`WsdSnapshot`] after every durable
//!   batch; each connection's statements run on an `Arc`-shared view of
//!   the latest one. Readers never block the writer and never observe a
//!   half-applied commit group.
//! * **Writes funnel through one group committer.** Auto-commit
//!   mutations and `COMMIT`ed transactions are submitted to a single
//!   writer thread ([`maybms_sql::GroupCommitter`]) that coalesces concurrent
//!   groups into one WAL batch append and **one fsync**, acking each
//!   client only after the shared fsync. Committed history is serial by
//!   construction — the batch order is the serial order.
//! * **Failures fail loudly.** A failed batch append poisons the
//!   database; every in-flight and subsequent commit is NACKed with the
//!   poison reason, and reads keep serving the last published snapshot.
//!
//! One listener port serves three protocols, told apart by the first
//! bytes a client sends (see [`proto`]): `"MBSQ"` opens a SQL session,
//! `"GET "` is scraped as Prometheus metrics, and anything else is
//! handed to the WAL-shipping replica feed — always on for a durable
//! session: a [`Primary`] built from the served session, which ships
//! only what its durable horizon covers. The feed shows nothing a SQL
//! client on the same port could not read. An in-memory session has no
//! log to ship, so such a peer is hung up on.
//!
//! ```no_run
//! use std::net::TcpListener;
//! use maybms_sql::Session;
//! use maybms_server::{Client, Server};
//!
//! let session = Session::open("demo.db").unwrap();
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let server = Server::serve(session, listener).unwrap();
//!
//! let mut c = Client::connect(server.addr()).unwrap();
//! c.query_ok("CREATE TABLE t (x INT)").unwrap();
//! println!("{}", c.query_ok("SHOW TABLES").unwrap().text);
//!
//! let session = server.shutdown().unwrap();
//! # drop(session);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;

mod conn;

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use maybms_sql::replication::Primary;
use maybms_sql::{CommitHandle, GroupCommitConfig, Session};

pub use maybms_sql::{CommitAck, WsdSnapshot};
pub use proto::{Client, ErrKind, Reply, ServerError};

/// Tuning knobs for [`Server::serve_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Group-commit batching parameters, forwarded to the writer thread.
    pub group: GroupCommitConfig,
}

/// A running server: owns the accept thread, the per-connection
/// threads, and the group-commit writer. [`Server::shutdown`] returns
/// the underlying [`Session`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    committer: maybms_sql::GroupCommitter,
    primary: Option<Primary>,
}

impl Server {
    /// Serves `listener` with default [`ServerConfig`].
    pub fn serve(session: Session, listener: TcpListener) -> io::Result<Server> {
        Server::serve_with(session, listener, ServerConfig::default())
    }

    /// Starts the group-commit writer and the accept loop. Connections
    /// are served on one thread each; the listener multiplexes SQL
    /// sessions, metrics scrapes, and (for a durable session) the
    /// replica feed by sniffing each connection's first bytes.
    pub fn serve_with(
        session: Session,
        listener: TcpListener,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let primary = Primary::new(&session);
        let committer = maybms_sql::GroupCommitter::spawn_with(session, cfg.group);
        let handle = committer.handle();
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let primary = primary.clone();
            thread::Builder::new()
                .name("maybms-accept".into())
                .spawn(move || accept_loop(listener, handle, stop, conns, primary))?
        };

        Ok(Server { addr, stop, accept: Some(accept), conns, committer, primary })
    }

    /// The bound address — connect [`Client`]s here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for submitting commit groups / reading published
    /// snapshots in-process, bypassing the socket.
    pub fn commit_handle(&self) -> CommitHandle {
        self.committer.handle()
    }

    /// Stops accepting, drains every connection thread, shuts the
    /// group-commit writer down, and returns the underlying session
    /// (so the caller can e.g. `CHECKPOINT` or inspect final state).
    pub fn shutdown(mut self) -> io::Result<Session> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(p) = &self.primary {
            p.stop();
        }
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| io::Error::other("server accept thread panicked"))?;
        }
        let conns = std::mem::take(
            &mut *self
                .conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for c in conns {
            c.join()
                .map_err(|_| io::Error::other("server connection thread panicked"))?;
        }
        Ok(self.committer.shutdown())
    }
}

/// Accepts connections and gives each its own thread (see [`route`]);
/// never reads from one, so no peer can hold up the next accept.
fn accept_loop(
    listener: TcpListener,
    handle: CommitHandle,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    primary: Option<Primary>,
) {
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
                continue;
            }
            // transient accept errors (ECONNABORTED, …): keep serving
            Err(_) => continue,
        };
        let spawned = route(stream, &handle, &stop, &primary);
        if let Some(join) = spawned {
            let mut guard = conns
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // opportunistically reap finished threads so a long-lived
            // server doesn't accumulate handles
            guard.retain(|j: &JoinHandle<()>| !j.is_finished());
            guard.push(join);
        }
    }
}

/// Spawns one connection's thread, which sniffs the first bytes — for
/// at most the sniffing grace period, so neither the accept loop nor
/// shutdown ever waits on a peer that says nothing — and runs the
/// handler they select.
fn route(
    stream: TcpStream,
    handle: &CommitHandle,
    stop: &Arc<AtomicBool>,
    primary: &Option<Primary>,
) -> Option<JoinHandle<()>> {
    let handle = handle.clone();
    let stop = Arc::clone(stop);
    let primary = primary.clone();
    thread::Builder::new()
        .name("maybms-conn".into())
        .spawn(move || {
            let mut stream = stream;
            // the listener is non-blocking; handlers want blocking I/O
            if stream.set_nonblocking(false).is_err() {
                return;
            }
            match peek_first_bytes(&stream) {
                Some(four) if four == *b"GET " => {
                    let _ = serve_metrics_http(stream);
                }
                Some(four) if four == proto::PROTO_MAGIC => {
                    let mut magic = [0u8; 4];
                    if stream.read_exact(&mut magic).is_ok() {
                        let _ = conn::handle_conn(stream, handle, stop);
                    }
                }
                // anything else is a replica saying hello (its first
                // frame is a length header, which collides with neither
                // magic); serve threads exit on `Primary::stop`, so they
                // are detached rather than tracked in `conns`
                Some(_) => {
                    if let Some(p) = primary {
                        let _ = stream.set_nodelay(true);
                        let _ = p.spawn_serve(stream);
                    }
                }
                // silent or gone: dropping the stream hangs up
                None => {}
            }
        })
        .ok()
}

/// Peeks a fresh connection's first four bytes without consuming them
/// (`None` when the peer closed or sent nothing within the ~200 ms grace
/// period; every kind of client sends immediately after connecting). It
/// blocks for up to the grace period, so [`route`] calls it on the
/// connection's own thread, never on the accept loop. Leaves the stream
/// without a read timeout.
fn peek_first_bytes(stream: &TcpStream) -> Option<[u8; 4]> {
    // a blocking peek on a silent peer returns only through this timeout
    stream.set_read_timeout(Some(Duration::from_millis(200))).ok()?;
    let mut buf = [0u8; 4];
    let mut sniffed = None;
    for _ in 0..200 {
        match stream.peek(&mut buf) {
            Ok(n) if n >= 4 => {
                sniffed = Some(buf);
                break;
            }
            // part of a preamble: poll for the rest
            Ok(n) if n > 0 => thread::sleep(Duration::from_millis(1)),
            // closed, silent for the whole grace period, or broken
            _ => break,
        }
    }
    stream.set_read_timeout(None).ok()?;
    sniffed
}

/// Answers one Prometheus scrape: drains the request head (its contents
/// don't matter — every path serves the same registry) and writes the
/// global metrics in text exposition format, then closes.
fn serve_metrics_http(mut stream: TcpStream) -> io::Result<()> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut buf)? {
            0 => break,
            n => head.extend_from_slice(&buf[..n]),
        }
    }
    let body = maybms_obs::prometheus_text(maybms_obs::global());
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}
