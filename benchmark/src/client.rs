//! Closed-loop clients over loopback TCP, and the spans they record.
//!
//! A connection speaks the server's protocol through the public
//! `maybms_server::proto` functions — the calls `maybms_server::Client`
//! makes — on a stream the harness owns, so that a reply has a deadline
//! and the steps around it can be timed one by one.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use maybms_server::proto::{self, Request, Response};

use crate::workload::{Kind, Script, Spec};

/// Distinct statements per template a pass keeps for the replay.
pub const REPLAY_STATEMENTS: usize = 8;

/// A stalled statement becomes a counted failure after this long.
pub const STATEMENT_BUDGET: Duration = Duration::from_secs(10);

/// One timed interval. `parent` 0 means a root; spans of one statement
/// share `stmt`.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory; written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    next_id: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Ids start at `first_id`, so tracers of several threads can be
    /// merged without renumbering.
    pub fn new(epoch: Instant, first_id: u32) -> Tracer {
        Tracer {
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        stmt: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }
}

/// One SQL connection with a reply deadline.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(STATEMENT_BUDGET))?;
        stream.set_write_timeout(Some(STATEMENT_BUDGET))?;
        stream.write_all(&proto::PROTO_MAGIC)?;
        match proto::recv_response(&mut stream)? {
            Response::Hello { .. } => Ok(Conn { stream }),
            other => Err(io::Error::other(format!("expected Hello, got {other:?}"))),
        }
    }

    /// Sends `sql` and waits for its reply. Returns the reply and the
    /// instants between the steps: start, encoded, sent, first byte,
    /// fully received.
    pub fn round_trip(&mut self, sql: &str) -> io::Result<(Response, [Instant; 5])> {
        let t0 = Instant::now();
        let mut frame = Vec::with_capacity(sql.len() + 16);
        proto::send_request(
            &mut frame,
            &Request::Query {
                sql: sql.to_string(),
            },
        )?;
        let t1 = Instant::now();
        self.stream.write_all(&frame)?;
        let t2 = Instant::now();
        let mut first = [0u8; 1];
        if self.stream.peek(&mut first)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let t3 = Instant::now();
        let resp = proto::recv_response(&mut self.stream)?;
        Ok((resp, [t0, t1, t2, t3, Instant::now()]))
    }
}

/// When a pass ends: after a number of statements (warm-up) or at an
/// instant (a measured window).
#[derive(Clone, Copy)]
pub enum Until {
    Count(usize),
    Time(Instant),
}

/// One correctly answered statement.
pub struct Sample {
    pub tpl: usize,
    /// Client send to reply fully received, in microseconds.
    pub us: f64,
    /// When the reply was fully received.
    pub at: Instant,
}

/// What one client saw during one pass.
#[derive(Default)]
pub struct Pass {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub reply_bytes: Vec<f64>,
    /// Rows of the tables returned, read off each reply's `(N rows)` line.
    pub result_rows: u64,
    /// Up to `REPLAY_STATEMENTS` distinct statements per template.
    pub seen: Vec<Vec<String>>,
}

/// A client: its connections, its script, and whether it records spans.
pub struct Client {
    conns: Vec<Conn>,
    pub script: Script,
    pub tracer: Option<Tracer>,
    addr: SocketAddr,
    next_stmt: u32,
}

impl Client {
    pub fn new(addr: SocketAddr, conns: usize, script: Script) -> io::Result<Client> {
        let conns = (0..conns)
            .map(|_| Conn::connect(addr))
            .collect::<io::Result<_>>()?;
        Ok(Client {
            conns,
            script,
            tracer: None,
            addr,
            next_stmt: 0,
        })
    }

    /// Runs the closed loop: the next statement goes out only after the
    /// previous reply was received and checked.
    pub fn run(&mut self, spec: &Spec, until: Until) -> Pass {
        let mut pass = Pass {
            seen: vec![Vec::new(); spec.templates.len()],
            ..Pass::default()
        };
        loop {
            match until {
                Until::Count(n) if pass.attempted as usize >= n => break,
                Until::Time(t) if Instant::now() >= t => break,
                _ => {}
            }
            let stmt = self.script.next_stmt();
            pass.attempted += 1;
            self.next_stmt += 1;
            let (resp, t) = match self.conns[stmt.conn].round_trip(&stmt.sql) {
                Ok(r) => r,
                Err(e) => {
                    // a stall or a dead connection: count it, start over
                    eprintln!("statement lost ({e}): {}", stmt.sql);
                    pass.failed += 1;
                    match Conn::connect(self.addr) {
                        Ok(c) => self.conns[stmt.conn] = c,
                        Err(e) => {
                            eprintln!("reconnect failed: {e}");
                            break;
                        }
                    }
                    continue;
                }
            };
            let ok = matches!(&resp, Response::Ok { text, .. } if **text == *stmt.expect);
            let checked = Instant::now();
            if let Some(tr) = self.tracer.as_mut() {
                let id = self.next_stmt;
                let root = tr.record("client.statement", 0, id, t[0], checked);
                tr.record("client.encode", root, id, t[0], t[1]);
                tr.record("client.send", root, id, t[1], t[2]);
                tr.record("client.wait", root, id, t[2], t[3]);
                tr.record("client.receive", root, id, t[3], t[4]);
                tr.record("client.check", root, id, t[4], checked);
            }
            if !ok {
                if pass.failed < 3 {
                    eprintln!("wrong reply to {}: {}", stmt.sql, brief(&resp));
                }
                pass.failed += 1;
                continue;
            }
            let us = t[4].duration_since(t[0]).as_secs_f64() * 1e6;
            pass.samples.push(Sample {
                tpl: stmt.tpl,
                us,
                at: t[4],
            });
            if let Response::Ok { text, .. } = &resp {
                pass.reply_bytes.push(text.len() as f64);
                pass.result_rows += table_rows(text);
            }
            if spec.templates[stmt.tpl].kind == Kind::Write {
                self.script.acked(&stmt);
            }
            let seen = &mut pass.seen[stmt.tpl];
            if seen.len() < REPLAY_STATEMENTS && !seen.contains(&stmt.sql) {
                seen.push(stmt.sql);
            }
        }
        pass
    }
}

/// The row count in the trailer of a rendered table; 0 for other replies.
fn table_rows(text: &str) -> u64 {
    let Some(trailer) = text
        .trim_end()
        .rsplit('\n')
        .next()
        .and_then(|l| l.strip_prefix('('))
    else {
        return 0;
    };
    trailer
        .split(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn brief(resp: &Response) -> String {
    let s = format!("{resp:?}");
    match s.char_indices().nth(300) {
        Some((i, _)) => format!("{}…", &s[..i]),
        None => s,
    }
}

/// Runs every client for one pass, each on its own thread.
pub fn run_pass(spec: &Spec, clients: &mut [Client], until: Until) -> Vec<Pass> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || c.run(spec, until)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
