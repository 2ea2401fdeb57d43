//! The SQL session wire protocol: length-framed, CRC-checked
//! request/response messages, plus the blocking [`Client`].
//!
//! # Framing
//!
//! The stream opens with the 4-byte magic [`PROTO_MAGIC`] (`"MBSQ"`),
//! which is what the server's listener sniffs to tell a SQL session
//! apart from an HTTP metrics scrape (`"GET "`) and the WAL-shipping
//! replica protocol (whose first frame can start with neither). After
//! the magic, both directions speak `maybms_storage::frame` frames —
//! the same `len | crc32 | payload` framing as WAL records and shipped
//! messages. A request may declare at most [`MAX_REQUEST_LEN`] bytes, a
//! reply at most [`MAX_FRAME_LEN`]; either bound is checked before the
//! body is read. The payload begins with [`PROTO_VERSION`] and a tag
//! byte, encoded with `maybms_storage::bytes` (strings are `u32 LE`
//! length + UTF-8 bytes).
//!
//! # Messages
//!
//! | dir | tag | message |
//! |-----|-----|---------|
//! | →   | 1   | [`Request::Query`] — one SQL statement |
//! | ←   | 2   | [`Response::Hello`] — connection accepted, server LSN |
//! | ←   | 3   | [`Response::Ok`] — rendered result + snapshot LSN |
//! | ←   | 4   | [`Response::Err`] — error kind + message |
//!
//! Every `Ok` carries the LSN of the snapshot the statement observed
//! (or, for a commit, the LSN its group was assigned) — isolation tests
//! pin their assertions to these.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use maybms_relational::Error;
use maybms_storage::bytes::{Reader, Writer};
use maybms_storage::frame::{
    payload_writer, read_frame, write_sealed, MAX_FRAME_LEN, MAX_REQUEST_LEN,
};

/// First bytes on the wire, before any frame: how the multiplexed
/// listener recognizes this protocol.
pub const PROTO_MAGIC: [u8; 4] = *b"MBSQ";

/// Protocol version, the first byte of every frame payload.
pub const PROTO_VERSION: u8 = 1;

const TAG_QUERY: u8 = 1;
const TAG_HELLO: u8 = 2;
const TAG_OK: u8 = 3;
const TAG_ERR: u8 = 4;

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one SQL statement (statement text, no trailing `;`).
    Query {
        /// The SQL text.
        sql: String,
    },
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Sent once after the magic: the connection is live.
    Hello {
        /// The server's last committed LSN at accept time.
        lsn: u64,
    },
    /// The statement succeeded.
    Ok {
        /// The LSN of the snapshot the statement observed — or, for a
        /// committed mutation, the LSN its commit group was assigned.
        lsn: u64,
        /// The rendered result (tables in `maybms_relational::pretty`
        /// form, acknowledgements as one line).
        text: String,
    },
    /// The statement failed; the connection stays usable.
    Err {
        /// Coarse error class — see [`ErrKind`].
        kind: u8,
        /// Human-readable error, stable enough to assert on.
        message: String,
    },
}

/// Coarse error classes carried in [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrKind {
    /// Lex/parse failure.
    Parse = 1,
    /// Planning failure (unknown relation/column, …).
    Plan = 2,
    /// Execution failure (type error, unsatisfiable repair, …).
    Execute = 3,
    /// The durable store failed — includes poisoned-database refusals
    /// and NACKed group commits.
    Storage = 4,
    /// The session is degraded to read-only (failed checkpoint).
    Degraded = 5,
    /// Transaction-control misuse (nested `BEGIN`, stray `COMMIT`, …).
    Transaction = 6,
    /// The statement is not supported over the server protocol.
    Unsupported = 7,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A frame under construction: version byte, then the message tag, with
/// room for a `body`-byte remainder.
fn message(tag: u8, body: usize) -> Writer {
    let mut w = payload_writer(2 + body);
    w.put_u8(PROTO_VERSION);
    w.put_u8(tag);
    w
}

/// Checks the version byte, hands the tag and the rest of the payload
/// to `body`, and insists the message ends where its last field does.
fn decode<T>(
    payload: &[u8],
    body: impl FnOnce(u8, &mut Reader<'_>) -> Result<T, Error>,
) -> io::Result<T> {
    let mut r = Reader::new(payload);
    let parsed = (|| {
        let version = r.get_u8()?;
        if version != PROTO_VERSION {
            return Err(Error::Storage(format!(
                "protocol version {version} (this build speaks {PROTO_VERSION})"
            )));
        }
        let msg = body(r.get_u8()?, &mut r)?;
        r.expect_end()?;
        Ok(msg)
    })();
    parsed.map_err(|e| bad_data(e.to_string()))
}

/// Sends one request as a frame.
pub fn send_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    let Request::Query { sql } = req;
    let mut payload = message(TAG_QUERY, 4 + sql.len());
    payload.put_str(sql);
    write_sealed(w, payload)
}

/// Receives one request frame.
pub fn recv_request<R: Read>(r: &mut R) -> io::Result<Request> {
    decode(&read_frame(r, MAX_REQUEST_LEN)?, |tag, r| match tag {
        TAG_QUERY => Ok(Request::Query { sql: r.get_str()? }),
        other => Err(Error::Storage(format!("unknown request tag {other}"))),
    })
}

/// Sends one response as a frame.
pub fn send_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let payload = match resp {
        Response::Hello { lsn } => {
            let mut p = message(TAG_HELLO, 8);
            p.put_u64(*lsn);
            p
        }
        Response::Ok { lsn, text } => {
            let mut p = message(TAG_OK, 12 + text.len());
            p.put_u64(*lsn);
            p.put_str(text);
            p
        }
        Response::Err { kind, message: text } => {
            let mut p = message(TAG_ERR, 5 + text.len());
            p.put_u8(*kind);
            p.put_str(text);
            p
        }
    };
    write_sealed(w, payload)
}

/// Receives one response frame.
pub fn recv_response<R: Read>(r: &mut R) -> io::Result<Response> {
    decode(&read_frame(r, MAX_FRAME_LEN)?, |tag, r| match tag {
        TAG_HELLO => Ok(Response::Hello { lsn: r.get_u64()? }),
        TAG_OK => Ok(Response::Ok { lsn: r.get_u64()?, text: r.get_str()? }),
        TAG_ERR => Ok(Response::Err { kind: r.get_u8()?, message: r.get_str()? }),
        other => Err(Error::Storage(format!("unknown response tag {other}"))),
    })
}

/// A successful statement's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The snapshot (or commit) LSN — see [`Response::Ok`].
    pub lsn: u64,
    /// The rendered result.
    pub text: String,
}

/// A server-side statement failure, as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// The coarse class, one of [`ErrKind`]'s discriminants.
    pub kind: u8,
    /// The server's error message.
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error (kind {}): {}", self.kind, self.message)
    }
}

impl std::error::Error for ServerError {}

/// A blocking client connection: one statement in flight at a time.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    hello_lsn: u64,
}

impl Client {
    /// Connects, sends the magic, and waits for the server's hello.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&PROTO_MAGIC)?;
        stream.flush()?;
        match recv_response(&mut stream)? {
            Response::Hello { lsn } => Ok(Client { stream, hello_lsn: lsn }),
            other => Err(bad_data(format!("expected Hello, got {other:?}"))),
        }
    }

    /// The server's last committed LSN when this connection was
    /// accepted.
    pub fn hello_lsn(&self) -> u64 {
        self.hello_lsn
    }

    /// Executes one SQL statement. The outer error is transport-level
    /// (connection gone); the inner one is the statement failing on the
    /// server, after which the connection remains usable.
    pub fn query(&mut self, sql: &str) -> io::Result<Result<Reply, ServerError>> {
        send_request(&mut self.stream, &Request::Query { sql: sql.to_string() })?;
        match recv_response(&mut self.stream)? {
            Response::Ok { lsn, text } => Ok(Ok(Reply { lsn, text })),
            Response::Err { kind, message } => Ok(Err(ServerError { kind, message })),
            other => Err(bad_data(format!("expected Ok/Err, got {other:?}"))),
        }
    }

    /// [`Client::query`] flattened: any failure becomes `io::Error`.
    pub fn query_ok(&mut self, sql: &str) -> io::Result<Reply> {
        self.query(sql)?
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        send_response(&mut buf, resp).expect("send");
        recv_response(&mut &buf[..]).expect("recv")
    }

    #[test]
    fn messages_roundtrip() {
        let req = Request::Query { sql: "SELECT name FROM t".into() };
        let mut buf = Vec::new();
        send_request(&mut buf, &req).expect("send");
        assert_eq!(recv_request(&mut &buf[..]).expect("recv"), req);

        for resp in [
            Response::Hello { lsn: 7 },
            Response::Ok { lsn: 42, text: "inserted 1 tuple(s) into t".into() },
            Response::Err { kind: ErrKind::Parse as u8, message: "bad".into() },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn malformed_messages_are_rejected() {
        // well-framed payloads that are not messages: wrong version,
        // unknown tag, truncated field, trailing bytes
        for payload in [
            &[PROTO_VERSION + 1, TAG_HELLO, 0, 0, 0, 0, 0, 0, 0, 0][..],
            &[PROTO_VERSION, 99],
            &[PROTO_VERSION, TAG_HELLO, 1, 2, 3],
            &[PROTO_VERSION, TAG_HELLO, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF],
        ] {
            let mut buf = Vec::new();
            maybms_storage::frame::put_frame(&mut buf, payload);
            let err = recv_response(&mut &buf[..]).expect_err("malformed message accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{payload:?}: {err}");
        }
    }
}
